"""`train`: full-profile order-loss training, in memory.

Untimed, the parent generates clustered series. A worker process builds the
`Dataset` and the split (set-up), then each op is one `train(ds, splits,
TrainConfig(m=16, loss_kind="order", iterations=ITERATIONS), log_path=...)`
call with the CLI's default profile (hidden 1024, batch 256).

The series, the split and the training seed are the same in every run
(`CORPUS_SEED`): after 100 iterations the model's quality depends on them
(`approx_loss` spread 0.099 of its median over four seeds with all drawn
per seed), while the op's cost does not depend on the values. `--seed`
draws the quality pairs.
"""

import hashlib
import importlib
import math
import statistics
import time

import numpy as np

import common
import gen
import reference
from tracer import layer_metrics

CORPUS_SEED = 0
N = 20_000
M = 16
ITERATIONS = 100  # normalising, transforming and initialising stay a few % of an op
SETUP_REPS = 21
VAL_EVERY = 100  # the program logs every 100 iterations and the last
# Speed kernel: a forward and backward pass of a 130 -> 1024 -> 16 network on
# 256 rows, 12 times a pass, with fixed arrays; about 45 ms a block. Its
# temporaries stay small (about 5 MB) because the worker's peak RSS is a metric.
_KERNEL_RNG = np.random.default_rng(0x5CA1E)
_X = _KERNEL_RNG.standard_normal((256, 130))
_W1 = _KERNEL_RNG.standard_normal((130, 1024)) * 0.05
_W2 = _KERNEL_RNG.standard_normal((1024, 16)) * 0.05
MATMUL_REF_S = 0.045  # `matmul_block` at the reference speed


def run(seed, seconds, trace, work):
    from corrspace import Dataset, LearnedEmbedder, load_model, split

    np.save(work / "values.npy", gen.clustered(N, CORPUS_SEED))
    common.warm(work / "values.npy")
    res = common.run_worker("wl_train", {
        "values": str(work / "values.npy"), "seed": CORPUS_SEED, "seconds": seconds, "trace": trace,
        "logs": str(work / "log"), "model": str(work / "model.chr1"), "spans": str(work / "spans.json"),
    }, work)

    phases = [res["plain"]] + ([res["traced"]] if trace else [])
    digests = {d for p in phases for d in p["digests"]}
    correct = len(digests) == 1 and all(_check_log(path) for p in phases for path in p["logs"])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)

    if trace:
        plain, traced = phases
        overhead = 100.0 * (1.0 - traced["ops_per_s"] / plain["ops_per_s"])
        metrics = layer_metrics([work / "spans.json"], {"trace.overhead_pct": overhead}, ITERATIONS)
        return correct, attempted, failed, metrics

    values = np.load(work / "values.npy")
    ds = Dataset(ids=np.arange(N), values=values)
    test = ds.rows_for(split(ds, seed=CORPUS_SEED).test_ids)
    pool = np.setdiff1d(np.arange(N), test)
    h = reference.normalize_rows(values)
    emb = LearnedEmbedder(load_model(work / "model.chr1.plain")).embed_matrix(h)
    a, b = reference.disjoint_pairs(len(test), len(test) // 2, np.random.default_rng((seed, 2)))
    plain = phases[0]
    metrics = {
        "setup_s": float(np.median(plain["setup_s"])),
        "op_p50_ms": plain["op_p50_ms"],
        "op_p99_ms": plain["op_p99_ms"],
        "ops_per_s": plain["ops_per_s"],
        "peak_rss_mb": res["rss_mb"],
        "precision_k10": reference.precision_at_k(emb[pool], h[pool], emb[test], h[test], 10),
        "approx_loss": reference.approx_loss(emb[test[a]], emb[test[b]], h[test[a]], h[test[b]]),
    }
    return correct, attempted, failed, metrics


def _check_log(path) -> bool:
    """Header, one row per VAL_EVERY iterations plus the last, finite losses."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    want = sorted({0, ITERATIONS, *range(VAL_EVERY, ITERATIONS + 1, VAL_EVERY)})
    if lines[0] != "iter,train_loss,val_loss,wall_ms" or len(lines) != len(want) + 1:
        return False
    rows = [line.split(",") for line in lines[1:]]
    return [int(r[0]) for r in rows] == want and all(math.isfinite(float(x)) for r in rows for x in r[1:3])


# ------------------------------------------------------------ worker side

def _matmul_pass() -> float:
    t0 = time.perf_counter()
    for _ in range(12):
        h = _X @ _W1
        np.maximum(h, 0.0, out=h)
        grad_h = (h @ _W2) @ _W2.T
        grad_h *= h > 0
        grad_h.T @ _X
    return time.perf_counter() - t0


def matmul_block() -> float:
    """Median seconds of 3 passes of the fixed matrix kernel: the machine's BLAS speed now."""
    return statistics.median(_matmul_pass() for _ in range(3))


def phase(job, name, seconds, tracer):
    """Build the Dataset and split, then run `train` calls in a closed loop."""
    datasets = importlib.import_module("corrspace.datasets")
    train_mod = importlib.import_module("corrspace.train")
    embed = importlib.import_module("corrspace.embed")
    values = np.load(job["values"])
    seed = job["seed"]
    cfg = train_mod.TrainConfig(m=M, loss_kind=train_mod.ORDER, iterations=ITERATIONS, seed=seed)
    built = {}

    def set_up():
        built["ds"] = ds = datasets.Dataset(ids=np.arange(len(values)), values=values)
        built["splits"] = datasets.split(ds, seed=seed)

    setup_s = common.scaled_reps(set_up, SETUP_REPS, matmul_block, MATMUL_REF_S)
    ds, splits = built["ds"], built["splits"]
    logs, digests, returned = [], [], []

    def op(i):
        if tracer is not None:
            tracer.op += 1
        log = f"{job['logs']}.{name}.{tracer.op if tracer else len(logs)}.csv"
        return log, train_mod.train(ds, splits, cfg, log_path=log)

    def after(i, result):
        log, params = result
        digest = hashlib.sha256()
        for w, b in zip(params.weights, params.biases):
            digest.update(w.tobytes())
            digest.update(b.tobytes())
        logs.append(log)
        digests.append(digest.hexdigest())
        returned[:] = [params]

    out = common.loop_metrics(*common.closed_loop(1, seconds, op, after, block=matmul_block, ref=MATMUL_REF_S))
    out.update({"setup_s": setup_s, "logs": logs, "digests": digests})
    if returned:
        embed.save_model(returned[0], f"{job['model']}.{name}")
    return out

"""`cli_query`: the command line as users run it, one fresh process per query.

Untimed, the parent writes a raw `csv_id` file of clustered series printed
to `DIGITS` significant digits, a few of them constant, and trains a
desk-profile learned-order model at m = 16. Set-up is the write path a user
runs once, `corrspace ingest` then `corrspace index --method learned-order`,
each in its own process. Each op is one `python3 -m corrspace.cli query
--query-id <id> --k 10` process, timed from start to exit.

The raw file and so the model are the same in every run (`CORPUS_SEED`):
the desk model's quality depends on the training run (`approx_loss` read
0.475-0.561 over five seeds with both drawn per seed). `--seed` picks the
queried ids and the quality pairs.
"""

import sys

import numpy as np

import common
import gen
import reference
from tracer import layer_metrics, median

CORPUS_SEED = 0
N = 20_000
CONSTANT = 20  # rows of the raw file that hold one repeated value
DIGITS = 6
M = 16
K = 10
QUERY_IDS = 64  # a seeded sequence, longer than any run gets through
DIST_TOL = 1e-8  # printed with 9 significant digits
KERNEL_ROWS = 4000  # rows of the speed kernel's file: about 0.4 s of parsing


def run(seed, seconds, trace, work):
    from corrspace import Dataset, LearnedEmbedder, desk_config, save_model, split, train

    values = gen.clustered(N, CORPUS_SEED)
    constant = np.sort(np.random.default_rng((CORPUS_SEED, 1)).choice(N, size=CONSTANT, replace=False))
    values[constant] = np.round(values[constant, :1])
    raw = work / "raw.csv"
    np.savetxt(raw, np.column_stack([np.arange(N), values]), fmt=["%d"] + [f"%.{DIGITS}g"] * gen.LENGTH, delimiter=",")
    printed = np.loadtxt(raw, delimiter=",")[:, 1:]
    kept = np.flatnonzero(printed.max(axis=1) != printed.min(axis=1))
    ds = Dataset(ids=kept, values=printed[kept])
    splits = split(ds, seed=CORPUS_SEED)
    params = train(ds, splits, desk_config(M, loss_kind="order", seed=CORPUS_SEED))
    model, data, index = work / "model.chr1", work / "data.csv", work / "data.cix1"
    save_model(params, model)
    kernel = [sys.executable, str(common.HERE / "csv_kernel.py"), str(write_kernel_csv(work / "kernel.csv"))]
    common.warm(raw, model, kernel[-1])

    cli = [sys.executable, "-m", "corrspace.cli"]
    setup = [
        ["ingest", "--input", str(raw), "--format", "csv_id", "--output", str(data)],
        ["index", "--data", str(data), "--method", "learned-order", "--model", str(model), "--output", str(index)],
    ]
    query_ids = np.random.default_rng((seed, 1)).choice(kept, size=QUERY_IDS, replace=False)
    ops = [["query", "--index", str(index), "--data", str(data), "--query-id", str(q), "--k", str(K)] for q in query_ids]

    def spawn(name, argvs, loop, seconds=0.0, traced=False):
        if traced:
            argvs = [[str(common.HERE / "cli_launcher.py"), str(work / f"{name}.{i}.spans"), str(i), *a]
                     for i, a in enumerate(argvs)]
            commands = [[sys.executable, *a] for a in argvs]
        else:
            commands = [cli + a for a in argvs]
        return common.run_job([str(common.HERE / "spawn.py")], {
            "commands": commands, "kernel": kernel, "loop": loop, "seconds": seconds,
        }, work / name)

    set_up = spawn("setup", setup, loop=False, traced=trace)
    phases = [spawn("plain", ops, loop=True, seconds=seconds / 2 if trace else seconds)]
    if trace:
        phases.append(spawn("traced", ops, loop=True, seconds=seconds / 2, traced=True))

    h = reference.normalize_rows(printed[kept])
    points = LearnedEmbedder(params).embed_matrix(h)
    correct = set_up["failed"] == 0 and _check_ingest(data, kept, printed)
    for phase in phases:
        for rec in phase["records"]:
            q = int(query_ids[rec["command"]])
            correct &= rec["rc"] == 0 and _check_query(rec["stdout"], q, kept, printed, points, params)
    attempted = sum(len(p["times"]) + p["failed"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    records = set_up["records"] + [r for p in phases for r in p["records"]]

    if trace:
        plain, traced = (common.loop_metrics(p["times"], p["failed"]) for p in phases)
        metrics = layer_metrics(sorted(work.glob("*.spans")), {
            "index.file_mb": index.stat().st_size / 2**20,
            "cli.process_ms": median([r["wall"] for r in phases[0]["records"]]) * 1e3,
            "trace.overhead_pct": 100.0 * (1.0 - traced["ops_per_s"] / plain["ops_per_s"]),
        })
        return bool(correct), attempted, failed, metrics

    test = ds.rows_for(splits.test_ids)
    a, b = reference.disjoint_pairs(len(test), len(test) // 2, np.random.default_rng((seed, 2)))
    metrics = common.loop_metrics(phases[0]["times"], phases[0]["failed"])
    del metrics["attempted"], metrics["failed"]
    metrics.update({
        "setup_s": sum(set_up["times"]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "precision_k10": reference.precision_at_k(points, h, points[test], h[test], K, self_rows=test),
        "approx_loss": reference.approx_loss(points[test[a]], points[test[b]], h[test[a]], h[test[b]]),
    })
    return bool(correct), attempted, failed, metrics


def write_kernel_csv(path):
    """The speed kernel's file: KERNEL_ROWS rows of an id and 128 values
    printed to 17 digits, as `ingest` writes its output; the same in every run."""
    values = np.random.default_rng(0x5CA1E).standard_normal((KERNEL_ROWS, gen.LENGTH))
    np.savetxt(path, np.column_stack([np.arange(KERNEL_ROWS), values]), fmt=["%d"] + ["%.17g"] * gen.LENGTH,
               delimiter=",")
    return path


def _check_ingest(data, kept, printed) -> bool:
    """Exactly the constant rows are gone; every other value is as parsed from the raw file."""
    got = np.loadtxt(data, delimiter=",")
    return np.array_equal(got[:, 0], kept) and np.array_equal(got[:, 1:], printed[kept])


def _check_query(stdout, q, kept, printed, points, params) -> bool:
    """k rows equal to a full scan of the pool's embeddings, without the query itself."""
    from corrspace import LearnedEmbedder

    with open(stdout) as fh:
        lines = fh.read().splitlines()
    if len(lines) != K + 2 or not lines[0].startswith(f"# query id {q} ") or lines[1] != "id dist2 corr_est":
        return False
    rows = np.array([line.split() for line in lines[2:]], dtype=np.float64)
    ids, d2, corr = rows[:, 0].astype(np.int64), rows[:, 1], rows[:, 2]
    v = printed[q]
    centered = v - v.mean()
    emb_q = LearnedEmbedder(params).embed_matrix((centered / np.linalg.norm(centered))[np.newaxis, :])[0]
    want_ids, want_d2 = reference.top_k(points, kept, emb_q, K + 1)
    keep = want_ids != q
    want_ids, want_d2 = want_ids[keep][:K], want_d2[keep][:K]
    return bool(
        np.array_equal(ids, want_ids)
        and q not in ids
        and np.all(np.diff(d2) >= 0)
        and np.allclose(d2, want_d2, rtol=DIST_TOL, atol=DIST_TOL)
        and np.allclose(corr, 1.0 - d2, rtol=0, atol=DIST_TOL)
    )

"""`query`: warm serving from a loaded model and index.

Untimed, the parent generates a 100 000-series pool and held-out series,
trains a desk-profile learned-order model at m = 16 and writes it and the
index with `save_model` / `save_index`. A worker process then pays the
server's set-up (`load_model` + `load_index`, which rebuilds the tree) and
answers raw held-out series the way `corrspace query` does: `normalize`,
`embed_matrix` on one row, then `top_k` or `within_radius`.

The pool, the held-out series and so the trained model are the same in
every run (`CORPUS_SEED`): traversal cost depends on the geometry of the
embedding one training run happens to produce, and with a pool and model
drawn per seed the median op time of five seeds spread by 26-31 % of its
median. `--seed` picks the queried series, the op order and the quality
samples.
"""

import importlib

import numpy as np

import common
import gen
import reference
from tracer import layer_metrics

CORPUS_SEED = 0
POOL = 100_000
HELD = 4000
M = 16
ETA = 0.8
R_SQ = 1.0 - ETA  # 2·‖Δ‖² ≤ 2 − 2η
# One round: 500 ops over 500 distinct queries, so that the spread of
# traversal cost between queries averages out within a run. Top-10 and
# top-100 take equal shares, the k values `corrspace eval` sweeps by default;
# one op in ten is a threshold query. The threshold share is a choice, not a
# measured use: README.md gives each kind's share of the round's time and
# the kind each percentile falls on.
MIX = (("k10", 225), ("k100", 225), ("thr", 50))
K = {"k10": 10, "k100": 100}
WARMUP = 50
CAL_EVERY = 10  # ops between speed blocks: about 10 ms of blocks per 120 ms of ops
SETUP_REPS = 5
PRECISION_QUERIES = 1000
UNIT_NORM_TOL = 1e-9


def run(seed, seconds, trace, work):
    from corrspace import Dataset, LearnedEmbedder, TimeSeries, desk_config, normalize, save_index, save_model, split, train
    from corrspace.index import KdTree

    raw = gen.clustered(POOL + HELD, CORPUS_SEED)
    pool, held = raw[:POOL], raw[POOL:]
    ds = Dataset(ids=np.arange(POOL), values=pool)
    params = train(ds, split(ds, seed=CORPUS_SEED), desk_config(M, loss_kind="order", seed=CORPUS_SEED))
    embedder = LearnedEmbedder(params)
    points = embedder.embed_matrix(ds.normalized_matrix())
    model, index, held_path = work / "model.chr1", work / "pool.cix1", work / "held.npy"
    save_model(params, model)
    meta = {"method": "learned-order", "m": M, "series_length": gen.LENGTH, "model": str(model)}
    save_index(KdTree(points, ds.ids), index, meta)
    np.save(held_path, held)
    common.warm(model, index, held_path)

    rng = np.random.default_rng((seed, 1))
    kinds = rng.permutation([kind for kind, count in MIX for _ in range(count)])
    ops = [[str(kind), int(row)] for kind, row in zip(kinds, rng.choice(HELD, size=len(kinds), replace=False))]
    res = common.run_worker("wl_query", {
        "model": str(model), "index": str(index), "held": str(held_path), "ops": ops,
        "seconds": seconds, "trace": trace, "answers": str(work / "answers"), "spans": str(work / "spans.json"),
    }, work)

    names = ["plain", "traced"] if trace else ["plain"]
    answers = {name: _load_answers(work / f"answers.{name}.npz") for name in names}
    correct = all(res[name]["mismatched"] == 0 and _check(answers[name], ops, points, ds.ids) for name in names)
    attempted = sum(res[name]["attempted"] for name in names)
    failed = sum(res[name]["failed"] for name in names)
    h_pool, h_held = reference.normalize_rows(pool), reference.normalize_rows(held)

    if trace:
        plain, traced = res["plain"], res["traced"]
        thr = [(ops[i][1], ids) for i, (_, ids, _) in answers["traced"].items() if ops[i][0] == "thr"]
        returned = sum(len(ids) for _, ids in thr)
        useful = sum(int(np.sum(h_pool[ids] @ h_held[row] >= ETA)) for row, ids in thr)
        metrics = layer_metrics([work / "spans.json"], {
            "index.threshold_hits": returned / len(thr),
            "index.threshold_useful_ratio": useful / returned if returned else 0.0,
            "index.file_mb": index.stat().st_size / 2**20,
            "trace.overhead_pct": 100.0 * (1.0 - traced["ops_per_s"] / plain["ops_per_s"]),
        })
        return correct, attempted, failed, metrics

    plain = res["plain"]
    # the served model, reached the way each op reaches it
    emb_held = np.array([
        embedder.embed_matrix(normalize(TimeSeries(id=i, values=row)).values[np.newaxis, :])[0]
        for i, row in enumerate(held)
    ])
    rng = np.random.default_rng((seed, 2))
    q = rng.choice(HELD, size=PRECISION_QUERIES, replace=False)
    a, b = reference.disjoint_pairs(HELD, HELD // 2, rng)
    metrics = {
        "setup_s": float(np.median(plain["setup_s"])),
        "op_p50_ms": plain["op_p50_ms"],
        "op_p99_ms": plain["op_p99_ms"],
        "ops_per_s": plain["ops_per_s"],
        "peak_rss_mb": res["rss_mb"],
        "precision_k10": reference.precision_at_k(points, h_pool, emb_held[q], h_held[q], 10),
        "approx_loss": reference.approx_loss(emb_held[a], emb_held[b], h_held[a], h_held[b]),
    }
    return correct, attempted, failed, metrics


def _save_answers(path, first):
    """First-round answers {op: (q, QueryResult)} as flat arrays with offsets."""
    first = sorted(first.items())
    np.savez(
        path,
        op=np.array([i for i, _ in first], dtype=np.int64),
        q=np.array([q for _, (q, _) in first]),
        ids=np.concatenate([r.ids for _, (_, r) in first]),
        d2=np.concatenate([r.distances_sq for _, (_, r) in first]),
        ends=np.cumsum([len(r.ids) for _, (_, r) in first]),
    )


def _load_answers(path) -> dict:
    with np.load(path) as f:  # each f[key] reads the array from the archive again
        op, q, ids, d2, ends = (f[key] for key in ("op", "q", "ids", "d2", "ends"))
    starts = np.concatenate([[0], ends[:-1]])
    return {int(i): (qi, ids[s:e], d2[s:e]) for i, qi, s, e in zip(op, q, starts, ends)}


def _check(answers, ops, points, ids) -> bool:
    """Each answer equals a full scan over the index's points; each query has unit norm."""
    ok = True
    for i, (q, got_ids, got_d2) in answers.items():
        kind = ops[i][0]
        ok &= abs(float(np.linalg.norm(q)) - 1.0) <= UNIT_NORM_TOL
        if kind == "thr":
            want_ids, want_d2 = reference.within(points, ids, q, R_SQ)
        else:
            want_ids, want_d2 = reference.top_k(points, ids, q, K[kind])
        ok &= np.array_equal(got_ids, want_ids) and np.array_equal(got_d2, want_d2)
    return bool(ok)


# ------------------------------------------------------------ worker side

def phase(job, name, seconds, tracer):
    """Set up as a server does, then answer the ops in a closed loop."""
    core = importlib.import_module("corrspace.core")
    embed = importlib.import_module("corrspace.embed")
    index = importlib.import_module("corrspace.index")
    held = np.load(job["held"])
    ops = job["ops"]
    loaded = {}

    def set_up():
        loaded["params"] = embed.load_model(job["model"])
        loaded["tree"], _ = index.load_index(job["index"])

    setup_s = common.scaled_reps(set_up, SETUP_REPS)
    embedder, tree = embed.LearnedEmbedder(loaded["params"]), loaded["tree"]

    def answer(i):
        if tracer is not None:
            tracer.op += 1
        kind, row = ops[i]
        ns = core.normalize(core.TimeSeries(id=row, values=held[row]))
        q = embedder.embed_matrix(ns.values[np.newaxis, :])[0]
        return q, tree.within_radius(q, R_SQ) if kind == "thr" else tree.top_k(q, K[kind])

    for i in range(WARMUP):
        answer(i)
    first, mismatched = {}, []

    def after(i, result):
        if i not in first:
            first[i] = result
            return
        (q, res), (fq, fres) = result, first[i]
        if not (np.array_equal(q, fq) and np.array_equal(res.ids, fres.ids)
                and np.array_equal(res.distances_sq, fres.distances_sq)):
            mismatched.append(i)

    out = common.loop_metrics(*common.closed_loop(len(ops), seconds, answer, after,
                                                  round_size=len(ops), cal_every=CAL_EVERY))
    out.update({"setup_s": setup_s, "mismatched": len(mismatched)})
    _save_answers(f"{job['answers']}.{name}.npz", first)
    return out

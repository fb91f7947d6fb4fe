"""Ground-truth oracle, metrics and method-comparison sweeps.

Metrics per query: precision rho = |Fhat ∩ F| / k against the exact top-k,
and gap delta = mean excess true squared distance of the returned set over
the optimal set (nonnegative by optimality). The approximation loss is the
mean |2*||f(s)-f(r)||^2 - (2 - 2*corr)| over seeded disjoint test pairs; the
factor 2 is applied uniformly to every method.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, split
from .embed import LOSS_OF, METHODS, LearnedEmbedder, embedder_for, feature_width
from .errors import EmptyInput, KTooLarge, SizeMismatch, UsageError
from .files import atomic_write
from .index import KdTree, _dist_sq, rank
from .train import TrainConfig, desk_config, init_params, train

# Query rows per oracle GEMM. On OpenBLAS a block this tall gives each row the
# bits of one GEMM over all queries (but in the last pool-size % 8 columns),
# and a lone row does not; so `_oracle_rows` makes no short block.
ORACLE_BLOCK = 64


def _true_d2(q_h, pool_h):
    """True distances² 2 - 2*corr from each normalized query row to each pool row."""
    return 2.0 - 2.0 * (q_h @ pool_h.T)


def precision(fhat_ids, f_ids, k=None) -> float:
    fhat_ids, f_ids = np.asarray(fhat_ids), np.asarray(f_ids)
    if k is None:
        k = len(f_ids)
    if len(fhat_ids) != k or len(f_ids) != k:
        raise SizeMismatch(f"expected two id sets of size {k}, got {len(fhat_ids)}/{len(f_ids)}")
    return len(set(fhat_ids.tolist()) & set(f_ids.tolist())) / k


def _gap(d2, fhat_rows, f_rows, k):
    """Gap delta: mean excess true distance² of the answer rows `fhat_rows` over
    the exact top-k rows `f_rows`, from one query's distances² `d2` to the pool."""
    return (d2[fhat_rows].sum() - d2[f_rows].sum()) / k


def pair_rows(ds: Dataset, ids, seed: int):
    """Disjoint (s, r) row pairs from a seeded permutation of the rows of ids.

    An odd id is left unpaired and dropped.
    """
    rows = ds.rows_for(ids)
    perm = np.random.default_rng((seed, 7)).permutation(rows)
    half = len(perm) // 2
    return perm[: 2 * half : 2], perm[1 : 2 * half : 2]


def approximation_loss(embedder, h_s, h_r) -> float:
    """Mean |2*||f(s)-f(r)||^2 - (2 - 2*corr)| over normalized row pairs (h_s[i], h_r[i])."""
    d2e = _dist_sq(embedder.embed_matrix(h_s), embedder.embed_matrix(h_r))  # the index's d², row by row
    corr = np.einsum("ij,ij->i", h_s, h_r)
    return float(np.mean(np.abs(2.0 * d2e - (2.0 - 2.0 * corr))))


@dataclass(frozen=True)
class ReportRow:
    method: str
    m: int
    k: int
    rho: float
    delta: float
    approx_loss: float
    q50_us: float
    q99_us: float
    embed_us: float


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        out = ["method,m,k,rho,delta,approx_loss,q50_us,q99_us"]
        for r in self.rows:
            out.append(
                f"{r.method},{r.m},{r.k},{r.rho:.9g},{r.delta:.9g},{r.approx_loss:.9g},"
                f"{r.q50_us:.1f},{r.q99_us:.1f}"
            )
        return "\n".join(out) + "\n"

    def save_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_csv())

    def table(self) -> str:
        header = f"{'method':<15}{'m':>4}{'k':>6}{'rho':>8}{'delta':>11}{'approx':>11}{'q50_us':>9}{'q99_us':>9}{'embed_us':>9}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.method:<15}{r.m:>4}{r.k:>6}{r.rho:>8.3f}{r.delta:>11.4g}"
                f"{r.approx_loss:>11.4g}{r.q50_us:>9.1f}{r.q99_us:>9.1f}{r.embed_us:>9.1f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 0
    ratios: tuple = (0.8, 0.1, 0.1)
    desk: bool = True  # learned methods train with `desk_config`, else with the full `TrainConfig`
    max_queries: int | None = None
    timing: bool = True

    def __post_init__(self):
        if self.max_queries is not None and self.max_queries < 1:
            raise UsageError(f"max_queries must be at least 1, got {self.max_queries}")


def sweep(ds: Dataset, methods, m_values, k_values, cfg: SweepConfig = SweepConfig()) -> EvalReport:
    """Index the train split per method, query every test series, aggregate.

    The candidate pool is the training partition and each test series is one
    query, so a query never matches itself. The "exact" pseudo-method feeds
    the oracle to itself (rho=1, delta=0 rows; reported with m=0); its
    latency is the time `rank` takes to order one query's exact top-k. Every
    cell's answers are collected first, then scored in one pass of the
    blocked oracle (`_oracle_rows`).
    """
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r} (choose from {METHODS})")
    splits = split(ds, cfg.ratios, cfg.seed)
    h = ds.normalized_matrix()
    train_rows = ds.rows_for(splits.train_ids)
    test_rows = ds.rows_for(splits.test_ids)
    if cfg.max_queries is not None:
        test_rows = test_rows[: cfg.max_queries]
    pool_h, pool_ids = h[train_rows], ds.ids[train_rows]
    q_h = h[test_rows]
    n_pool, n_q = len(train_rows), len(test_rows)
    if n_q == 0:
        raise EmptyInput("the test partition holds no series to query")
    for k in k_values:
        if k > n_pool:
            raise KTooLarge(f"k={k} exceeds pool size {n_pool}")

    pair_s, pair_r = pair_rows(ds, splits.test_ids, cfg.seed)
    if len(pair_s) == 0 and set(methods) - {"exact"}:  # an embedder's approx_loss is a mean over these pairs
        raise EmptyInput("the test partition holds one series: approx_loss needs a pair of them")
    profile = desk_config if cfg.desk else TrainConfig  # the learned methods' training profile
    by_id = np.argsort(pool_ids)  # pool column of each answer id, by `searchsorted`
    rank_lat = {k: [] for k in k_values}
    # (method, m, k, approx_loss, embed_us, latencies, each query's top-k as pool columns or None for "exact")
    cells = []
    for method in methods:
        if method == "exact":
            cells += [("exact", 0, k, 0.0, 0.0, rank_lat[k], None) for k in k_values]
            continue
        for m in m_values:
            params = train(ds, splits, profile(m, LOSS_OF[method], seed=cfg.seed)) if method in LOSS_OF else None
            embedder = embedder_for(method, m, params)
            t0 = time.perf_counter()
            emb_q = embedder.embed_matrix(q_h)
            embed_us = (time.perf_counter() - t0) / n_q * 1e6 if cfg.timing else float("nan")
            tree = KdTree(embedder.embed_matrix(pool_h), pool_ids)
            approx = approximation_loss(embedder, h[pair_s], h[pair_r])
            for k in k_values:
                top, lat = np.empty((n_q, k), dtype=np.int64), []
                for i in range(n_q):
                    t0 = time.perf_counter()
                    top[i] = tree.top_k(emb_q[i], k).ids
                    lat.append((time.perf_counter() - t0) * 1e6)
                cells.append((method, m, k, approx, embed_us, lat, by_id[np.searchsorted(pool_ids, top, sorter=by_id)]))

    rho_sum, delta_sum = [0.0] * len(cells), [0.0] * len(cells)
    for i, d2 in _oracle_rows(q_h, pool_h):
        for k, lat in rank_lat.items():
            t0 = time.perf_counter()
            f_cols = rank(d2, pool_ids, k)
            lat.append((time.perf_counter() - t0) * 1e6)
            for c, (_, _, cell_k, _, _, _, top) in enumerate(cells):
                if cell_k == k and top is not None:
                    rho_sum[c] += precision(top[i], f_cols, k)
                    delta_sum[c] += _gap(d2, top[i], f_cols, k)
    return EvalReport([
        ReportRow(method, m, k, 1.0 if top is None else rho_sum[c] / n_q, delta_sum[c] / n_q, approx,
                  *_percentiles(lat, cfg), embed_us)
        for c, (method, m, k, approx, embed_us, lat, top) in enumerate(cells)
    ])


def _oracle_rows(q_h, pool_h):
    """(i, true d² row of query i) for every query in order, `ORACLE_BLOCK`
    queries to a GEMM. The last block reaches back over rows already given,
    so that it is full too."""
    for lo in range(0, len(q_h), ORACLE_BLOCK):
        start = max(min(lo, len(q_h) - ORACLE_BLOCK), 0)
        yield from enumerate(_true_d2(q_h[start : lo + ORACLE_BLOCK], pool_h)[lo - start :], lo)


def _percentiles(lat, cfg):
    """(q50, q99) of latencies in µs, NaN when timing is off."""
    if not cfg.timing:
        return float("nan"), float("nan")
    return float(np.percentile(lat, 50)), float(np.percentile(lat, 99))


def latency_benchmark(
    n: int,
    m: int,
    k: int,
    n_queries: int = 200,
    seed: int = 0,
    series_length: int = 128,
    hidden_size: int = 128,
    params=None,
) -> dict:
    """Per-query latency of embed + k-d traversal over a random pool.

    The network defaults to a fresh initialization: latency depends on the
    architecture, not on the trained weights. Times are microseconds;
    `scanned_q50` is the median count of points in the buckets a query
    visited and `refined_q50` the median count whose exact distance² it
    computed, so a pruning or prefilter regression shows without a profiler.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n + n_queries, series_length))
    h = Dataset(ids=np.arange(n + n_queries), values=raw).normalized_matrix()
    if params is None:
        params = init_params(feature_width(series_length), hidden_size, m, seed)
    embedder = LearnedEmbedder(params)
    emb_pool = embedder.embed_matrix(h[:n])

    t0 = time.perf_counter()
    tree = KdTree(emb_pool, np.arange(n))
    build_ms = (time.perf_counter() - t0) * 1e3

    embed_us, traverse_us, total_us, scanned, refined = [], [], [], [], []
    for i in range(n, n + n_queries):
        row = h[i : i + 1]
        t0 = time.perf_counter()
        q = embedder.embed_matrix(row)[0]
        t1 = time.perf_counter()
        res = tree.top_k(q, k)
        t2 = time.perf_counter()
        scanned.append(res.scanned)
        refined.append(res.refined)
        embed_us.append((t1 - t0) * 1e6)
        traverse_us.append((t2 - t1) * 1e6)
        total_us.append((t2 - t0) * 1e6)

    pct = lambda xs, p: float(np.percentile(xs, p))
    return {
        "n": n,
        "m": embedder.m,
        "k": k,
        "n_queries": n_queries,
        "build_ms": build_ms,
        "embed_q50_us": pct(embed_us, 50),
        "embed_q99_us": pct(embed_us, 99),
        "traverse_q50_us": pct(traverse_us, 50),
        "traverse_q99_us": pct(traverse_us, 99),
        "scanned_q50": pct(scanned, 50),
        "refined_q50": pct(refined, 50),
        "q50_us": pct(total_us, 50),
        "q99_us": pct(total_us, 99),
    }

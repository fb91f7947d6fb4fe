"""Evaluation: brute-force oracle, precision/gap metrics, approximation
loss, the comparison sweep, and the latency benchmark.
"""

import tracemalloc

import numpy as np
import pytest

from corrspace.datasets import Dataset, gen_example1, load_csv, split
from corrspace.embed import DftTruncationEmbedder, DownSampleEmbedder, embedder_for
from corrspace.errors import CorrSpaceError, EmptyInput, KTooLarge, SizeMismatch, UsageError
from corrspace.index import KdTree, rank, threshold_radius_sq
from corrspace.evaluation import (
    EvalReport,
    ReportRow,
    SweepConfig,
    _gap,
    _oracle_rows,
    _true_d2,
    approximation_loss,
    latency_benchmark,
    pair_rows,
    precision,
    sweep,
)
from oracles import corr_matrix, dft_direct


def random_dataset(n, big_m, seed):
    vals = np.random.default_rng(seed).standard_normal((n, big_m))
    return Dataset(ids=np.arange(n, dtype=np.int64), values=vals)


def query_d2(ds, row, pool=None):
    """True distances² from series `row` of ds to every series of `pool` (ds by default), as `sweep` scores."""
    pool = ds if pool is None else pool
    return _true_d2(ds.normalized_matrix([row]), pool.normalized_matrix())[0]


def exact_cols(d2, pool, k):
    """Pool rows of the exact top-k for a query's true distances² `d2`, as `sweep` ranks them."""
    return rank(d2, pool.ids, k)


# -------------------------------------------------------------- exact top-k

def test_exact_top_k_self_is_first():
    ds = random_dataset(50, 16, seed=0)
    assert ds.ids[exact_cols(query_d2(ds, 13), ds, 1)][0] == 13


def test_exact_top_k_full_pool_is_correlation_ranking():
    ds = random_dataset(40, 16, seed=1)
    got = ds.ids[exact_cols(query_d2(ds, 5), ds, 40)]
    corr = corr_matrix(ds.values[5], ds.values)[0]
    want = np.lexsort((ds.ids, -corr))  # most correlated first, ties by id
    np.testing.assert_array_equal(got, ds.ids[want])


def test_exact_top_k_against_max_selection():
    # independent oracle: repeatedly extract the single most-correlated id
    ds = random_dataset(60, 8, seed=2)
    corr = dict(zip(ds.ids.tolist(), corr_matrix(ds.values[0], ds.values)[0].tolist()))
    want = []
    left = dict(corr)
    for _ in range(7):
        best = max(left, key=lambda i: (left[i], -i))
        want.append(best)
        del left[best]
    np.testing.assert_array_equal(ds.ids[exact_cols(query_d2(ds, 0), ds, 7)], want)


# ------------------------------------------------------------------ metrics

def test_precision_values():
    assert precision([1, 2, 3], [1, 2, 3]) == 1.0
    assert precision([4, 5, 6], [1, 2, 3]) == 0.0
    assert precision([1, 9, 8, 7], [1, 2, 3, 4]) == 0.25
    assert precision([1, 2], [2, 1]) == 1.0  # order-free set overlap


def test_precision_size_mismatch():
    with pytest.raises(SizeMismatch):
        precision([1, 2], [1, 2, 3])
    with pytest.raises(SizeMismatch):
        precision([1, 2, 3], [1, 2, 3], k=2)


def test_gap_zero_when_sets_match():
    ds = random_dataset(30, 8, seed=4)
    d2 = query_d2(ds, 3)
    f = exact_cols(d2, ds, 5)
    assert _gap(d2, f, f, 5) == pytest.approx(0.0, abs=1e-12)
    assert _gap(d2, f[::-1], f, 5) == pytest.approx(0.0, abs=1e-12)  # set metric


def test_gap_hand_enumeration():
    # four fixed series; compute every 2-subset's mean distance by hand and
    # check delta(Fhat, F) = mean_d2(Fhat) - mean_d2(F) for all pairs of subsets
    ds = random_dataset(4, 8, seed=5)
    want_d2 = 2.0 - 2.0 * corr_matrix(ds.values[0], ds.values)[0]
    d2 = query_d2(ds, 0)
    f = exact_cols(d2, ds, 2)
    from itertools import combinations

    for sub in combinations(range(4), 2):
        want = (want_d2[list(sub)].sum() - want_d2[f].sum()) / 2
        assert _gap(d2, np.array(sub), f, 2) == pytest.approx(want, abs=1e-12)
        assert want >= -1e-12  # F is optimal


def test_gap_nonnegative_for_random_candidates():
    ds = random_dataset(100, 16, seed=6)
    rng = np.random.default_rng(7)
    for trial in range(20):
        d2 = query_d2(ds, int(rng.integers(100)))
        f = exact_cols(d2, ds, 10)
        fhat = rng.choice(ds.n, size=10, replace=False)
        assert _gap(d2, fhat, f, 10) >= -1e-12


# --------------------------------------------------------------- test pairs

def test_pair_rows_disjoint_and_deterministic():
    ds = random_dataset(40, 16, seed=9)
    ids = ds.ids[:25]
    rows_s, rows_r = pair_rows(ds, ids, seed=0)
    assert len(rows_s) == len(rows_r) == 12  # one odd id dropped
    both = np.concatenate([rows_s, rows_r])
    assert len(set(both.tolist())) == 24  # no series reused across pairs
    assert set(both.tolist()) <= set(ds.rows_for(ids).tolist())
    again_s, again_r = pair_rows(ds, ids, seed=0)
    np.testing.assert_array_equal(rows_s, again_s)
    np.testing.assert_array_equal(rows_r, again_r)


def pairs_of(ds, seed):
    """The normalized rows of `pair_rows` over every id of ds."""
    h = ds.normalized_matrix()
    rows_s, rows_r = pair_rows(ds, ds.ids, seed)
    return h[rows_s], h[rows_r]


# ------------------------------------------------------- approximation loss

def test_approximation_loss_identical_pairs_zero():
    ds = random_dataset(12, 16, seed=11)
    h_s, _ = pairs_of(ds, seed=0)
    assert approximation_loss(DftTruncationEmbedder(4), h_s, h_s) == pytest.approx(0.0, abs=1e-12)
    assert approximation_loss(DownSampleEmbedder(4), h_s, h_s) == pytest.approx(0.0, abs=1e-12)


def test_approximation_loss_dft_matches_truncated_distance():
    # for the DFT baseline, 2*||f(s)-f(r)||^2 = 4*d_{m/2}^2 coefficient-wise
    ds = random_dataset(20, 16, seed=12)
    h_s, h_r = pairs_of(ds, seed=2)
    m = 6
    got = approximation_loss(DftTruncationEmbedder(m), h_s, h_r)
    parts = []
    c_s, c_r = dft_direct(h_s)[:, 1 : m // 2 + 1], dft_direct(h_r)[:, 1 : m // 2 + 1]
    for cs, cr, s, r in zip(c_s, c_r, h_s, h_r):
        d2 = float(np.sum(np.abs(cs - cr) ** 2))
        corr = float(np.dot(s, r))
        parts.append(abs(4.0 * d2 - (2.0 - 2.0 * corr)))
    assert got == pytest.approx(np.mean(parts), abs=1e-12)


def test_approximation_loss_quarter_copy_exact_at_half_width():
    # series whose second half repeats the first make the truncated DFT
    # distance exact at m/2 = M/4 kept coefficients, so the loss vanishes
    ds = gen_example1(30, 32, seed=0)
    h_s, h_r = pairs_of(ds, seed=0)
    assert approximation_loss(DftTruncationEmbedder(16), h_s, h_r) == pytest.approx(0.0, abs=1e-8)


# -------------------------------------------------------------------- sweep

def test_sweep_exact_rows():
    ds = gen_example1(60, 16, seed=0)
    rep = sweep(ds, ["exact"], [4], [1, 5], SweepConfig(timing=False))
    assert [(r.method, r.m, r.k, r.rho, r.delta) for r in rep.rows] == [
        ("exact", 0, 1, 1.0, 0.0),
        ("exact", 0, 5, 1.0, 0.0),
    ]


def test_sweep_bounds_and_rows():
    ds = random_dataset(80, 16, seed=13)
    rep = sweep(ds, ["dft", "downsample"], [4, 8], [3], SweepConfig(timing=False))
    assert len(rep.rows) == 4
    for r in rep.rows:
        assert 0.0 <= r.rho <= 1.0
        assert r.delta >= -1e-9
        assert r.approx_loss >= 0.0
        assert np.isnan(r.q50_us) and np.isnan(r.q99_us)


def test_sweep_quarter_copy_dft_is_perfect():
    # at half feature width the DFT baseline is exact on this family, so it
    # must recover the true top-k for every query
    ds = gen_example1(100, 16, seed=1)
    rep = sweep(ds, ["dft"], [8], [5], SweepConfig(timing=False))
    assert rep.rows[0].rho == pytest.approx(1.0)
    assert rep.rows[0].delta == pytest.approx(0.0, abs=1e-9)


def test_sweep_rejects_unknown_method_and_big_k():
    ds = random_dataset(40, 16, seed=14)
    with pytest.raises(ValueError):
        sweep(ds, ["nearest"], [4], [1], SweepConfig(timing=False))
    with pytest.raises(KTooLarge):
        sweep(ds, ["dft"], [4], [33], SweepConfig(timing=False))  # pool is 32


def test_sweep_deterministic_csv():
    ds = random_dataset(60, 16, seed=15)
    cfg = SweepConfig(timing=False)
    a = sweep(ds, ["dft"], [4], [2, 5], cfg).to_csv()
    b = sweep(ds, ["dft"], [4], [2, 5], cfg).to_csv()
    assert a == b


def test_sweep_max_queries_limits_work():
    ds = random_dataset(60, 16, seed=16)
    rep = sweep(ds, ["dft"], [4], [2], SweepConfig(timing=False, max_queries=2))
    assert len(rep.rows) == 1  # still one row; just fewer queries averaged
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            SweepConfig(max_queries=bad)


def test_sweep_config_error_is_a_usage_error():
    with pytest.raises(UsageError) as exc:
        SweepConfig(max_queries=0)
    assert str(exc.value) == "max_queries must be at least 1, got 0" and isinstance(exc.value, ValueError)


def test_sweep_without_test_series_is_empty_input():
    ds = random_dataset(40, 16, seed=17)
    with pytest.raises(EmptyInput, match="the test partition holds no series to query"):
        sweep(ds, ["dft"], [4], [1], SweepConfig(ratios=(0.5, 0.5, 0.0), timing=False))


def test_sweep_with_one_test_series_has_no_approx_loss_pair():
    # one test series makes no (s, r) pair, so no embedder's approx_loss is defined;
    # the exact method reports 0 and needs none
    ds = random_dataset(100, 16, seed=17)
    cfg = SweepConfig(ratios=(0.89, 0.1, 0.01), timing=False)
    assert len(split(ds, cfg.ratios, cfg.seed).test_ids) == 1
    for methods in (["dft"], ["exact", "downsample"]):
        with pytest.raises(EmptyInput, match="the test partition holds one series: approx_loss needs a pair of them"):
            sweep(ds, methods, [4], [3], cfg)
    (row,) = sweep(ds, ["exact"], [4], [3], cfg).rows
    assert (row.method, row.rho, row.delta, row.approx_loss) == ("exact", 1.0, 0.0, 0.0)


# every library raise site of a value no caller may pass; each is a usage error
LIBRARY_USAGE_ERRORS = {
    "sweep-method": lambda ds, tree, path: sweep(ds, ["psychic"], [4], [1]),
    "load_csv-format": lambda ds, tree, path: load_csv(path, "xml"),
    "split-ratios": lambda ds, tree, path: split(ds, (0.5, 0.5)),
    "top_k-k": lambda ds, tree, path: tree.top_k(np.zeros(4), 0),
    "within_radius-r2": lambda ds, tree, path: tree.within_radius(np.zeros(4), -1.0),
    "threshold-eta": lambda ds, tree, path: threshold_radius_sq(1.5),
    "threshold-slack": lambda ds, tree, path: threshold_radius_sq(0.5, 0.0),
}


@pytest.mark.parametrize("call", list(LIBRARY_USAGE_ERRORS.values()), ids=list(LIBRARY_USAGE_ERRORS))
def test_library_raise_site_is_a_usage_error(tmp_path, call):
    ds = random_dataset(40, 16, seed=17)
    path = tmp_path / "d.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(CorrSpaceError) as exc:
        call(ds, KdTree(np.eye(4)), str(path))
    assert type(exc.value) is UsageError and isinstance(exc.value, ValueError) and exc.value.exit_code == 2


def reference_sweep(ds, methods, m_values, k_values, cfg):
    """(method, m, k, rho, delta, approx_loss) rows the direct way: every
    query's true d² to the whole pool in one matrix, ranked by a full lexsort."""
    splits = split(ds, cfg.ratios, cfg.seed)
    h = ds.normalized_matrix()
    train_rows, test_rows = ds.rows_for(splits.train_ids), ds.rows_for(splits.test_ids)[: cfg.max_queries]
    pool_h, pool_ids, q_h = h[train_rows], ds.ids[train_rows], h[test_rows]
    d2_true = 2.0 - 2.0 * (q_h @ pool_h.T)
    exact_order = np.vstack([np.lexsort((pool_ids, row)) for row in d2_true])
    col_of = {int(r): c for c, r in enumerate(pool_ids)}
    pair_s, pair_r = pair_rows(ds, splits.test_ids, cfg.seed)
    rows = []
    for method in methods:
        if method == "exact":
            rows += [("exact", 0, k, 1.0, 0.0, 0.0) for k in k_values]
            continue
        for m in m_values:
            embedder = embedder_for(method, m)
            emb_q = embedder.embed_matrix(q_h)
            tree = KdTree(embedder.embed_matrix(pool_h), pool_ids)
            approx = approximation_loss(embedder, h[pair_s], h[pair_r])
            for k in k_values:
                rho_sum, delta_sum = 0.0, 0.0
                for i in range(len(q_h)):
                    res = tree.top_k(emb_q[i], k)
                    f_cols = exact_order[i, :k]
                    fhat_cols = np.array([col_of[int(r)] for r in res.ids])
                    rho_sum += precision(res.ids, pool_ids[f_cols], k)
                    delta_sum += (d2_true[i][fhat_cols].sum() - d2_true[i][f_cols].sum()) / k
                rows.append((method, m, k, rho_sum / len(q_h), delta_sum / len(q_h), approx))
    return rows


@pytest.mark.parametrize("n_q", [1, 7, 63, 64, 65, 130])
def test_sweep_equals_full_matrix_reference(n_q):
    # whole oracle blocks, a lone short block, and a last block that reaches
    # back over rows already scored; ids out of row order, and exact copies
    # of series so the true d² ties
    rng = np.random.default_rng(23)
    vals = rng.standard_normal((1400, 16))
    vals[1000:1200] = vals[:200]
    ds = Dataset(ids=rng.permutation(5000)[:1400].astype(np.int64), values=vals)
    cfg = SweepConfig(timing=False, max_queries=n_q)
    methods, m_values, k_values = ["exact", "dft", "downsample"], [4], [1, 10]
    rep = sweep(ds, methods, m_values, k_values, cfg)
    want = reference_sweep(ds, methods, m_values, k_values, cfg)
    assert [(r.method, r.m, r.k, r.rho, r.delta, r.approx_loss) for r in rep.rows] == want
    # each oracle row has the bits of one product over all queries: a lone
    # row would take another BLAS path, so the last block reaches back.
    # (OpenBLAS gives the last pool-size % 8 columns other bits in blocks of
    # other heights; this pool is 1 120 columns.)
    splits = split(ds, cfg.ratios, cfg.seed)
    h = ds.normalized_matrix()
    q_h, pool_h = h[ds.rows_for(splits.test_ids)[:n_q]], h[ds.rows_for(splits.train_ids)]
    rows = list(_oracle_rows(q_h, pool_h))
    assert [i for i, _ in rows] == list(range(n_q))
    assert np.array_equal(np.array([row for _, row in rows]), _true_d2(q_h, pool_h))


def test_sweep_memory_does_not_grow_with_queries_times_pool():
    # one n_q x n_pool float64 array of true d² and one int64 array of their
    # order would take 104 MB here; the blocked oracle holds 64 rows at a time
    ds = random_dataset(9000, 16, seed=24)
    splits = split(ds, seed=0)
    full = 2 * 8 * len(splits.train_ids) * len(splits.test_ids)
    assert full >= 100e6
    tracemalloc.start()
    try:
        sweep(ds, ["exact", "dft"], [4], [10], SweepConfig(timing=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full / 4


def test_report_csv_schema():
    rep = EvalReport(rows=[ReportRow("dft", 4, 10, 0.5, 0.125, 0.25, 12.0, 30.0, 3.0)])
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "method,m,k,rho,delta,approx_loss,q50_us,q99_us"
    assert lines[1] == "dft,4,10,0.5,0.125,0.25,12.0,30.0"
    assert "dft" in rep.table()


def test_every_query_gap_bounded_by_worst_approximation_error():
    # if every pairwise estimate is within eps-hat of the true distance, the
    # excess distance of the returned set is at most 2*eps-hat per element
    ds = random_dataset(120, 16, seed=17)
    splits = split(ds, seed=0)
    h = ds.normalized_matrix()
    pool_rows = ds.rows_for(splits.train_ids)
    pool = Dataset(ids=ds.ids[pool_rows], values=ds.values[pool_rows])
    emb = DftTruncationEmbedder(6)
    e_pool = emb.embed_matrix(h[pool_rows])
    tree = KdTree(e_pool, pool.ids)
    for row in ds.rows_for(splits.test_ids):
        q = emb.embed_matrix(h[row : row + 1])[0]
        d2_true = query_d2(ds, row, pool)
        d2_est = 2.0 * np.sum((e_pool - q) ** 2, axis=1)
        eps_hat = np.max(np.abs(d2_est - d2_true))
        for k in (1, 5, 20):
            fhat = pool.rows_for(tree.top_k(q, k).ids)
            assert _gap(d2_true, fhat, exact_cols(d2_true, pool, k), k) <= 2.0 * eps_hat + 1e-9


# --------------------------------------------------------- latency benchmark

def test_latency_benchmark_smoke():
    stats = latency_benchmark(n=400, m=4, k=5, n_queries=25, seed=0, series_length=32, hidden_size=16)
    assert stats["n"] == 400 and stats["m"] == 4 and stats["k"] == 5
    assert stats["n_queries"] == 25
    assert stats["build_ms"] > 0.0
    for prefix in ("embed_", "traverse_", ""):
        q50, q99 = stats[f"{prefix}q50_us"], stats[f"{prefix}q99_us"]
        assert 0.0 < q50 <= q99
    assert stats["q50_us"] >= stats["traverse_q50_us"]  # total includes embed


def test_latency_benchmark_reports_points_scanned():
    stats = latency_benchmark(n=5000, m=4, k=5, n_queries=25, seed=0, series_length=32, hidden_size=16)
    assert 5 <= stats["scanned_q50"] < 5000  # at m=4 the box bounds prune most buckets
    assert 5 <= stats["refined_q50"] <= stats["scanned_q50"]

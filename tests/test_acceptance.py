"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single `criterion N PASS/FAIL: ...` verdict (echoed in
the terminal summary by conftest) and then asserts it. Shared expensive
artifacts (trained models, sweeps) live in module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from corrspace.cli import main, replay_manifest
from corrspace.core import normalize_rows
from corrspace.datasets import (
    Dataset,
    _example2_half_spectra,
    _inverse_real_spectrum,
    _mirror_half_spectrum,
    gen_example1,
    gen_example2,
    split,
)
from corrspace.embed import (
    DftTruncationEmbedder,
    LearnedEmbedder,
    features_matrix,
    load_model,
    save_model,
)
from corrspace.evaluation import (
    SweepConfig,
    _gap,
    _true_d2,
    approximation_loss,
    latency_benchmark,
    pair_rows,
    sweep,
)
from corrspace.index import KdTree, load_index, rank, save_index
from corrspace.train import (
    APPROXIMATE,
    ORDER,
    batch_loss,
    desk_config,
    init_params,
    loss_and_gradient,
    pair_batch_from,
    train,
    triple_batch_from,
)
from oracles import corr_direct


def record(number, ok, detail):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def example1_desk():
    """Desk-profile approximation training on the quarter-copy family,
    m in {4, 8}: learned test loss and the DFT baseline loss per m."""
    t0 = time.perf_counter()
    ds = gen_example1(2000, 128, seed=0)
    splits = split(ds, seed=0)
    h = ds.normalized_matrix()
    rows_s, rows_r = pair_rows(ds, splits.test_ids, seed=0)
    out = {}
    for m in (4, 8):
        params = train(ds, splits, desk_config(m=m, loss_kind=APPROXIMATE, seed=0))
        learned = approximation_loss(LearnedEmbedder(params), h[rows_s], h[rows_r])
        baseline = approximation_loss(DftTruncationEmbedder(m), h[rows_s], h[rows_r])
        out[m] = (learned, baseline)
    out["wall_s"] = time.perf_counter() - t0
    return out


EXAMPLE2_ARGS = dict(n=2000, big_m=128, m=8, eps=0.01, seed=0)
EXAMPLE2_SWEEP = SweepConfig(desk=True, timing=False)


@pytest.fixture(scope="module")
def example2_data():
    """The low-noise-coefficient family with the sweep's own split."""
    ds = gen_example2(**EXAMPLE2_ARGS)
    return ds, split(ds, EXAMPLE2_SWEEP.ratios, EXAMPLE2_SWEEP.seed)


@pytest.fixture(scope="module")
def example2_sweep(example2_data):
    """Desk sweep on the low-noise-coefficient family: DFT baseline plus
    both learned losses at m=8, k in {10, 100}."""
    ds, splits = example2_data
    t0 = time.perf_counter()
    rep = sweep(ds, ["dft", "learned-order", "learned-approx"], [8], [10, 100], EXAMPLE2_SWEEP)
    rows = {(r.method, r.k): r for r in rep.rows}
    rows["wall_s"] = time.perf_counter() - t0
    rows["n_pool"], rows["n_queries"] = len(splits.train_ids), len(splits.test_ids)
    return rows


def _real_coords(half):
    """Real coordinates of half-spectra (coefficients 1..M/2) whose dot
    product is the inner product of the series: sqrt(2) * (Re, Im) of
    coefficients 1..M/2-1, then the real Nyquist coefficient."""
    inner = half[..., :-1] * np.sqrt(2.0)
    return np.concatenate([inner.real, inner.imag, half[..., -1:].real], axis=-1)


def _top_cols(score, k):
    return np.argsort(-score, axis=1, kind="stable")[:, :k]


def example2_oracle(ds, splits, k_values):
    """Mean top-k precision of rankers that read the generator's own draws.

    `ds` is `gen_example2(**EXAMPLE2_ARGS)`; pool and queries are the
    train and test partitions of `splits`, as in `sweep`.

    In real Fourier coordinates every `example2` series is y_i = b + n_i,
    with b the shared base and n_i its scaled noise, so for a query r and
    a pool series u

        corr(r, u) = (|b|^2 + <b,n_r> + <b,n_u> + <n_r,n_u>) / (|y_r| |y_u|).

    Three scores rank the pool for each held-out query:

    * "full": every term, i.e. the exact correlation (precision 1);
    * "per-series": every term but the cross term <n_r,n_u>, which is
      all that a score built from each series on its own can know;
    * "rank-8": an 8-dimensional embedding, y_i's projection on b plus
      the 7 noise coordinates with the largest pool variance, each
      divided by |y_i|; it keeps the per-series part to rank 1 and the
      strongest slice of the cross term.

    The cross term is spread over ~110 noise coordinates and, for a
    fixed query, varies across the pool about twice as much as the
    per-series part, so even the rank-8 oracle stays near 0.1 at k=10.
    Returns {(name, k): precision}.
    """
    base, noise = _example2_half_spectra(**EXAMPLE2_ARGS)
    b, n = _real_coords(base), _real_coords(noise)
    y = b + n
    pool_rows, query_rows = ds.rows_for(splits.train_ids), ds.rows_for(splits.test_ids)
    y_q, y_p, n_q, n_p = y[query_rows], y[pool_rows], n[query_rows], n[pool_rows]
    norms = np.outer(np.linalg.norm(y_q, axis=1), np.linalg.norm(y_p, axis=1))

    per_series = (b @ b + (n_q @ b)[:, None] + (n_p @ b)[None, :]) / norms
    strongest = np.argsort(-np.mean(n_p**2, axis=0), kind="stable")[:7]
    b_hat = b / np.linalg.norm(b)
    rank_8 = (
        np.outer(y_q @ b_hat, y_p @ b_hat) + n_q[:, strongest] @ n_p[:, strongest].T
    ) / norms
    scores = {
        "full": per_series + (n_q @ n_p.T) / norms,
        "per-series": per_series,
        "rank-8": rank_8,
    }

    h = ds.normalized_matrix()
    truth = h[query_rows] @ h[pool_rows].T
    out = {}
    for k in k_values:
        true_top = _top_cols(truth, k)
        for name, score in scores.items():
            hits = [np.intersect1d(a, t).size for a, t in zip(_top_cols(score, k), true_top)]
            out[(name, k)] = float(np.mean(hits)) / k
    return out


@pytest.fixture(scope="module")
def example2_oracle_rho(example2_data):
    return example2_oracle(*example2_data, k_values=(10, 100))


@pytest.fixture(scope="module")
def trained_small(tmp_path_factory):
    """A small trained model for the gap-bound and round-trip checks."""
    ds = gen_example1(250, 32, seed=0)
    splits = split(ds, seed=0)
    params = train(ds, splits, desk_config(m=8, loss_kind=APPROXIMATE, seed=0, iterations=500))
    return ds, splits, params


# -------------------------------------------------- 1: distance identities

def test_criterion_01_identity_suite():
    # through the batch path the pipeline runs: `normalize_rows`, then the
    # FFT of `features_matrix`, against correlations computed apart from it
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_corr, worst_parseval = 0.0, 0.0
    for big_m in (64, 256, 1024):
        raw = [
            rng.standard_normal(big_m) * rng.uniform(0.5, 20) + rng.uniform(-50, 50)
            for _ in range(2000)  # pairs (raw[2i], raw[2i + 1])
        ]
        h = normalize_rows(np.array(raw), np.arange(2000))
        hs, hr = h[0::2], h[1::2]
        d2 = np.sum((hs - hr) ** 2, axis=1)
        corr = corr_direct(np.array(raw[0::2]), np.array(raw[1::2]))
        worst_corr = max(worst_corr, float(np.max(np.abs(corr - (1.0 - d2 / 2.0)))))
        # coefficients 1..M/2 hold the spectrum: DC is zero for a normalized row,
        # each coefficient below Nyquist has its mirror in the upper half, and
        # the Nyquist M/2 is counted once
        f = features_matrix(h)
        energy = 2.0 * np.sum(f**2, axis=1) - np.sum(f[:, -2:] ** 2, axis=1)
        worst_parseval = max(worst_parseval, float(np.max(np.abs(energy - np.sum(h**2, axis=1)))))
    wall = time.perf_counter() - t0
    ok = worst_corr <= 1e-9 and worst_parseval <= 1e-9 and wall < 10.0
    record(
        1,
        ok,
        f"corr-vs-distance max dev {worst_corr:.3g}, Parseval max dev "
        f"{worst_parseval:.3g} over 3000 pairs, M in {{64,256,1024}} ({wall:.1f}s)",
    )


# ------------------------------------------------------ 2: gradient checks

def _loss_with_kink_diag(params, batch):
    """Reference loss recomputation plus distance-to-kink diagnostics."""
    w0, w1 = params.weights
    b0, b1 = params.biases

    def emb(f):
        z = f @ w0.T + b0
        v = np.maximum(z, 0.0) @ w1.T + b1
        n = np.linalg.norm(v, axis=1)
        return v / (n + 1e-12)[:, None], z, n

    b = len(batch.target)
    if len(batch.f) == 3 * b:  # the rows of s, r and u
        y_s, z1, n1 = emb(batch.f[:b])
        y_r, z2, n2 = emb(batch.f[b : 2 * b])
        y_u, z3, n3 = emb(batch.f[2 * b :])
        d_rs = np.sum((y_r - y_s) ** 2, axis=1)
        d_ru = np.sum((y_r - y_u) ** 2, axis=1)
        e = 2.0 * (d_rs - d_ru) - batch.target
        z_all, n_all = np.concatenate([z1, z2, z3], axis=None), np.concatenate([n1, n2, n3])
    else:  # the rows of s and r
        y_s, z1, n1 = emb(batch.f[:b])
        y_r, z2, n2 = emb(batch.f[b:])
        e = 2.0 * np.sum((y_s - y_r) ** 2, axis=1) - batch.target
        z_all, n_all = np.concatenate([z1, z2], axis=None), np.concatenate([n1, n2])
    margin = min(np.abs(z_all).min(), np.abs(e).min(), n_all.min())
    return float(np.mean(np.abs(e))), float(margin)


def _fd_gradient_check(params, batch, step=1e-5, kink_margin=1e-7):
    base, m_base = _loss_with_kink_diag(params, batch)
    assert base == pytest.approx(batch_loss(params, batch), abs=1e-12)
    analytic = loss_and_gradient(params, batch)[1]
    flat = params.flat
    rel_errs, excluded = [], 0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up, m_up = _loss_with_kink_diag(params, batch)
        flat[i] = keep - step
        down, m_down = _loss_with_kink_diag(params, batch)
        flat[i] = keep
        # the secant is only a derivative estimate when the whole
        # interval, center included, stays clear of every kink
        if min(m_base, m_up, m_down) <= kink_margin:
            excluded += 1
        else:
            fd = (up - down) / (2 * step)
            rel_errs.append(abs(analytic[i] - fd) / max(abs(fd), 1e-8))
    return max(rel_errs, default=0.0), excluded, len(rel_errs)


def test_criterion_02_gradient_check():
    t0 = time.perf_counter()
    worst, total_excluded, total_kept = 0.0, 0, 0
    for i in range(20):
        rng = np.random.default_rng(500 + i)
        params = init_params(8, 8, 4, seed=500 + i)
        h = rng.standard_normal((6, 8))
        h -= h.mean(axis=1, keepdims=True)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        f = features_matrix(h)
        if i % 2 == 0:  # alternate the two loss shapes across the 20 configs
            batch = pair_batch_from(h, f, np.array([0, 2, 4]), np.array([1, 3, 5]))
        else:
            batch = triple_batch_from(h, f, np.array([0, 3]), np.array([1, 4]), np.array([2, 5]))
        rel, excl, kept = _fd_gradient_check(params, batch)
        worst = max(worst, rel)
        total_excluded += excl
        total_kept += kept
    wall = time.perf_counter() - t0
    ok = worst <= 1e-5 and wall < 30.0
    record(
        2,
        ok,
        f"backprop vs central differences: max rel err {worst:.3g} over "
        f"{total_kept} coordinates (20 configs, both losses, {total_excluded} "
        f"near-kink coords excluded, {wall:.1f}s)",
    )


# ------------------------------------------- 3: index equals brute force

def test_criterion_03_index_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for n in (100, 2000):
        for m in (2, 8, 16):
            rng = np.random.default_rng(n * 100 + m)
            points = rng.standard_normal((n, m))
            ids = rng.permutation(n).astype(np.int64)
            tree = KdTree(points, ids)
            for k in (1, 10, 100):
                kk = min(k, n)
                for _ in range(50):
                    q = rng.standard_normal(m)
                    res = tree.top_k(q, kk)
                    d2 = np.sum((points - q) ** 2, axis=1)
                    want = ids[np.lexsort((ids, d2))[:kk]]
                    assert np.array_equal(res.ids, want), (n, m, k)
                    checked += 1
    wall = time.perf_counter() - t0
    record(
        3,
        wall < 60.0,
        f"k-d tree ids and order match brute force on {checked} queries "
        f"(n in {{100,2000}}, m in {{2,8,16}}, k in {{1,10,100}}, {wall:.1f}s)",
    )


# --------------------------------- 4: per-query gap bounded by 2*eps-hat

def test_criterion_04_gap_bounded_by_worst_pair_error(trained_small):
    ds, splits, params = trained_small
    emb = LearnedEmbedder(params)
    h = ds.normalized_matrix()
    train_rows = ds.rows_for(splits.train_ids)
    pool_rows, query_rows = train_rows[:100], train_rows[100:200]
    pool = Dataset(ids=ds.ids[pool_rows], values=ds.values[pool_rows])

    e_pool = emb.embed_matrix(h[pool_rows])
    e_query = emb.embed_matrix(h[query_rows])
    d2_true = _true_d2(h[query_rows], h[pool_rows])
    d2_est = 2.0 * (
        np.sum(e_query**2, axis=1)[:, None]
        - 2.0 * (e_query @ e_pool.T)
        + np.sum(e_pool**2, axis=1)[None, :]
    )
    eps_hat = float(np.max(np.abs(d2_est - d2_true)))  # 100x100 = 1e4 pairs

    tree = KdTree(e_pool, pool.ids)
    worst_gap, k = 0.0, 10
    for qi, d2 in enumerate(d2_true):
        fhat = pool.rows_for(tree.top_k(e_query[qi], k).ids)
        worst_gap = max(worst_gap, _gap(d2, fhat, rank(d2, pool.ids, k), k))
    ok = worst_gap <= 2.0 * eps_hat + 1e-9
    record(
        4,
        ok,
        f"every query gap <= 2*eps-hat: worst gap {worst_gap:.3g} vs bound "
        f"{2 * eps_hat:.3g} (eps-hat {eps_hat:.3g} over 10^4 pairs, k={k})",
    )


# --------------------------------------- 5: beats DFT on quarter-copy data

def test_criterion_05_learned_beats_dft_on_example1(example1_desk):
    ratios = {m: example1_desk[m][0] / example1_desk[m][1] for m in (4, 8)}
    wall = example1_desk["wall_s"]
    ok = all(r <= 0.5 for r in ratios.values()) and wall < 300.0
    record(
        5,
        ok,
        "desk-profile approximation loss vs DFT baseline on the quarter-copy "
        f"family: ratio {ratios[4]:.3f} at m=4, {ratios[8]:.3f} at m=8 "
        f"(required <= 0.5, {wall:.0f}s)",
    )


# ------------------------------- 6: discrimination on low-noise-coefficient

def test_example2_oracle_is_sound(example2_data, example2_oracle_rho):
    ds, splits = example2_data
    base, noise = _example2_half_spectra(**EXAMPLE2_ARGS)
    rebuilt = _inverse_real_spectrum(_mirror_half_spectrum(base[np.newaxis, :] + noise, ds.length))
    assert np.array_equal(rebuilt, ds.values)
    n_pool, n_q = len(splits.train_ids), len(splits.test_ids)
    for k in (10, 100):
        assert example2_oracle_rho[("full", k)] == 1.0
        p = k / n_pool
        hi = p + 3 * np.sqrt(p * (1 - p) / (n_q * k))
        assert example2_oracle_rho[("per-series", k)] > hi


def test_criterion_06_example2_discrimination(example2_sweep, example2_oracle_rho):
    """DFT sits at chance and the learned order embedder clearly beats it.

    "Clearly" is at least half-way from chance to the per-series oracle at
    every k (see `example2_oracle`), and at k=100 also +0.1 over DFT. A
    fixed +0.1 at k=10 would ask for more than the rank-8 oracle gets.
    """
    rows, n_pool, n_q = example2_sweep, example2_sweep["n_pool"], example2_sweep["n_queries"]
    oracle = example2_oracle_rho
    wall = rows["wall_s"]
    checks, ok = [], True
    for k in (10, 100):
        p = k / n_pool
        sigma = np.sqrt(p * (1 - p) / (n_q * k))
        lo, hi = p - 3 * sigma, p + 3 * sigma
        dft_rho = rows[("dft", k)].rho
        order_rho = rows[("learned-order", k)].rho
        per_series, rank8 = oracle[("per-series", k)], oracle[("rank-8", k)]
        bar = p + 0.5 * (per_series - p)
        in_band = lo <= dft_rho <= hi
        above_bar = order_rho >= bar
        separated = k == 10 or order_rho >= dft_rho + 0.1
        ok = ok and in_band and above_bar and separated
        margin = (
            f", gap {order_rho - dft_rho:+.4f} vs +0.1 {'ok' if separated else 'SHORT'}"
            if k == 100
            else ""
        )
        checks.append(
            f"k={k}: dft rho {dft_rho:.4f} {'in' if in_band else 'OUTSIDE'} "
            f"[{lo:.4f},{hi:.4f}], order rho {order_rho:.4f} "
            f"(bar {bar:.4f} {'ok' if above_bar else 'SHORT'}{margin}; "
            f"oracles: per-series {per_series:.4f}, rank-8 {rank8:.4f})"
        )
    ok = ok and wall < 300.0
    record(6, ok, "; ".join(checks) + f" ({wall:.0f}s)")


# --------------------------------------------- 7: order loss beats approx

def test_criterion_07_order_beats_approx(example2_sweep):
    order_rho = example2_sweep[("learned-order", 100)].rho
    approx_rho = example2_sweep[("learned-approx", 100)].rho
    ok = order_rho >= approx_rho
    record(
        7,
        ok,
        f"mean precision at m=8, k=100: order {order_rho:.4f} >= "
        f"approximation {approx_rho:.4f} (same seeds)",
    )


# ----------------------------------------------------- 8: query latency

def test_criterion_08_query_latency():
    stats = latency_benchmark(n=10_000, m=16, k=100, n_queries=200, seed=0)
    total_ms = stats["q50_us"] / 1e3
    ok = total_ms < 10.0
    record(
        8,
        ok,
        f"median end-to-end query {total_ms:.2f}ms at n=10^4, m=16, k=100 "
        f"(embed {stats['embed_q50_us'] / 1e3:.2f}ms + traverse "
        f"{stats['traverse_q50_us'] / 1e3:.2f}ms; required < 10ms)",
    )


# ---------------------------------------- 9: manifest-replay reproducibility

def test_criterion_09_manifest_reproducibility(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "--family", "example1", "--n", "200", "--length", "32",
                 "--output", str(data)]) == 0
    model = tmp_path / "model.bin"
    assert main(["train", "--data", str(data), "--m", "4", "--desk",
                 "--iterations", "200", "--model-out", str(model)]) == 0
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(data), "--methods", "dft,downsample",
                 "--m-values", "4", "--k-values", "5", "--no-timing", "--desk",
                 "--report-out", str(report)]) == 0
    index = tmp_path / "learned.cix1"  # version 3: it holds the model
    assert main(["index", "--data", str(data), "--method", "learned-order", "--model", str(model),
                 "--output", str(index)]) == 0
    model_bytes, report_bytes, index_bytes = model.read_bytes(), report.read_bytes(), index.read_bytes()
    assert replay_manifest(str(tmp_path / "model.bin.manifest.json")) == 0
    assert replay_manifest(str(tmp_path / "report.csv.manifest.json")) == 0
    assert replay_manifest(str(tmp_path / "learned.cix1.manifest.json")) == 0
    capsys.readouterr()
    model_same = model.read_bytes() == model_bytes
    report_same = report.read_bytes() == report_bytes
    index_same = index.read_bytes() == index_bytes
    ok = model_same and report_same and index_same
    record(
        9,
        ok,
        "manifest replay bit-identical: model "
        f"{'yes' if model_same else 'NO'}, report {'yes' if report_same else 'NO'}, "
        f"learned index {'yes' if index_same else 'NO'}",
    )


# --------------------------------------------- 10: artifact round-trips

def test_criterion_10_artifact_round_trips(trained_small, tmp_path):
    ds, splits, params = trained_small
    m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(params, str(m1))
    save_model(load_model(str(m1)), str(m2))
    model_ok = m1.read_bytes() == m2.read_bytes()

    emb = LearnedEmbedder(params)
    tree = KdTree(emb.embed_matrix(ds.normalized_matrix()), ds.ids)
    i1, i2 = tmp_path / "i1.bin", tmp_path / "i2.bin"
    save_index(tree, str(i1), meta={"method": "learned-approx", "m": 8})
    loaded, meta = load_index(str(i1))
    save_index(loaded, str(i2), meta=meta)
    index_ok = i1.read_bytes() == i2.read_bytes()
    # version 3, which holds the model
    save_index(tree, str(i1), meta={"method": "learned-approx", "m": 8}, model=params)
    loaded, meta, held = load_index(str(i1), with_model=True)
    save_index(loaded, str(i2), meta=meta, model=held)
    index_ok &= i1.read_bytes() == i2.read_bytes()

    q = emb.embed_matrix(ds.normalized_matrix())[0]
    answers_ok = np.array_equal(tree.top_k(q, 25).ids, loaded.top_k(q, 25).ids)
    ok = model_ok and index_ok and answers_ok
    record(
        10,
        ok,
        f"save/load/save byte-identical: model {'yes' if model_ok else 'NO'}, "
        f"index {'yes' if index_ok else 'NO'}; reloaded answers match "
        f"{'yes' if answers_ok else 'NO'}",
    )

"""Training: losses, manual backprop vs finite differences, ADAM, Xavier,
and the training loop contract.
"""

import numpy as np
import pytest

from corrspace.core import TimeSeries, normalize
from corrspace.datasets import Dataset, SplitDataset, gen_example1, split
from corrspace.embed import NetworkParams, features_matrix, forward_trace
from corrspace.errors import DegenerateOutput, InsufficientData, UsageError
from corrspace.train import (
    ADAM_EPS,
    APPROXIMATE,
    ORDER,
    AdamState,
    Batch,
    TrainConfig,
    adam_step,
    batch_loss,
    desk_config,
    init_adam,
    init_params,
    loss_and_gradient,
    pair_batch_from,
    train,
    triple_batch_from,
    xavier_init,
)

rng_mod = np.random.default_rng(100)


def norm_ts(values, rid=0):
    return normalize(TimeSeries(id=rid, values=np.asarray(values, dtype=np.float64)))


def rows(*series):
    """The normalized values of the given series, one row each."""
    return np.vstack([s.values for s in series])


def pair_loss(p, h, s, r):
    """Approximate loss of the pair (h[s], h[r]) through the batch path."""
    return batch_loss(p, pair_batch_from(h, features_matrix(h), [s], [r]))


def triple_loss(p, h, s, r, u):
    """Order loss of the triple (h[s], h[r], h[u]), h[r] the reference."""
    return batch_loss(p, triple_batch_from(h, features_matrix(h), [s], [r], [u]))


def smooth_forward(p, h):
    """Embeddings of the rows of h with the smoothed normalization the losses
    use, which a zero pre-normalization output does not make fail."""
    return forward_trace(p, features_matrix(h))[3]


def tiny_dataset(n=40, big_m=16, seed=0):
    ds = gen_example1(n, big_m, seed=seed)
    return ds, split(ds, seed=seed)


def numeric_gradient(params, batch, step=1e-5):
    """Central finite differences over every coordinate of `params.flat`."""
    flat = params.flat
    g = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = batch_loss(params, batch)
        flat[i] = keep - step
        down = batch_loss(params, batch)
        flat[i] = keep
        g[i] = (up - down) / (2 * step)
    return g


# ----------------------------------------------------------------- configs

def test_train_config_defaults():
    cfg = TrainConfig(m=8)
    assert cfg.learning_rate == 0.01
    assert cfg.batch_size == 256
    assert cfg.iterations == 10000
    assert cfg.hidden_size == 1024
    assert cfg.loss_kind == APPROXIMATE


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(m=0)
    with pytest.raises(ValueError):
        TrainConfig(m=4, loss_kind="nope")
    for rate in (0.0, np.nan, np.inf):  # a non-finite rate would write a non-finite model
        with pytest.raises(ValueError):
            TrainConfig(m=4, learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(m=4, iterations=-1)
    TrainConfig(m=4, iterations=0)  # zero iterations = init only, allowed


@pytest.mark.parametrize("args, message", [
    ({"m": 0}, "m, hidden_size and batch_size must be positive"),
    ({"m": 4, "loss_kind": "nope"}, "loss_kind must be 'approximate' or 'order'"),
    ({"m": 4, "iterations": -1}, "bad iterations/learning_rate/seed"),
])
def test_train_config_errors_are_usage_errors(args, message):
    # typed where they are raised: `corrspace train` exits 2 on them as they are
    with pytest.raises(UsageError) as exc:
        TrainConfig(**args)
    assert str(exc.value) == message and isinstance(exc.value, ValueError)


def test_desk_config_profile():
    cfg = desk_config(m=4, loss_kind=ORDER, seed=3)
    assert (cfg.hidden_size, cfg.iterations, cfg.batch_size) == (128, 2000, 64)
    assert desk_config(m=4, iterations=10).iterations == 10  # overridable


# ------------------------------------------------------------------- losses

def test_loss_approximate_identical_pair_is_zero():
    p = init_params(8, 8, 4, seed=0)
    s = norm_ts(np.random.default_rng(1).standard_normal(8))
    assert pair_loss(p, rows(s), 0, 0) == 0.0


def test_loss_approximate_antipodal_plugin():
    # hand-built net that reproduces its input: W0 stacks [I; -I] so ReLU
    # keeps both signs, W1 = [I, -I] undoes the split. Then f(s) and f(-s)
    # are antipodal unit vectors: dist^2 = 4 while corr(s, -s) = -1, so the
    # loss is |2*4 - 2*(1 - -1)| = 4.
    w0 = np.vstack([np.eye(4), -np.eye(4)])
    w1 = np.hstack([np.eye(4), -np.eye(4)])
    p = NetworkParams(weights=[w0, w1], biases=[np.zeros(8), np.zeros(4)], seed=0)
    raw = np.array([0.3, -1.2, 0.7, 0.4, -0.9, 1.5, 0.1, -0.8])
    s = norm_ts(raw)
    r = norm_ts(-raw, rid=1)
    h = rows(s, r)
    f = features_matrix(h)[:, :4]  # the net reads the first 4 of the 8 features
    np.testing.assert_allclose(f[1], -f[0], atol=1e-12)
    assert batch_loss(p, pair_batch_from(h, f, [0], [1])) == pytest.approx(4.0, abs=1e-9)


def test_loss_approximate_matches_recomputation():
    p = init_params(8, 6, 3, seed=2)
    rng = np.random.default_rng(3)
    for trial in range(10):
        s, r = norm_ts(rng.standard_normal(8)), norm_ts(rng.standard_normal(8), 1)
        y_s, y_r = smooth_forward(p, rows(s, r))
        corr = float(np.dot(s.values, r.values))
        want = abs(2.0 * np.sum((y_s - y_r) ** 2) - 2.0 * (1.0 - corr))
        assert pair_loss(p, rows(s, r), 0, 1) == pytest.approx(want, abs=1e-9)


def test_loss_approximate_symmetric():
    p = init_params(8, 6, 3, seed=4)
    rng = np.random.default_rng(5)
    h = rows(norm_ts(rng.standard_normal(8)), norm_ts(rng.standard_normal(8), 1))
    assert pair_loss(p, h, 0, 1) == pytest.approx(pair_loss(p, h, 1, 0), abs=1e-12)


def test_loss_order_u_equals_s_is_zero():
    rng = np.random.default_rng(7)
    for seed in range(5):
        p = init_params(8, 6, 3, seed=seed)
        h = rows(norm_ts(rng.standard_normal(8)), norm_ts(rng.standard_normal(8), 1))
        assert triple_loss(p, h, 0, 1, 0) == 0.0


def test_loss_order_all_identical_is_zero():
    p = init_params(8, 6, 3, seed=1)
    s = norm_ts(np.random.default_rng(9).standard_normal(8))
    assert triple_loss(p, rows(s), 0, 0, 0) == 0.0


def test_loss_order_matches_recomputation():
    p = init_params(8, 6, 3, seed=6)
    rng = np.random.default_rng(11)
    for trial in range(10):
        s = norm_ts(rng.standard_normal(8))
        r = norm_ts(rng.standard_normal(8), 1)
        u = norm_ts(rng.standard_normal(8), 2)
        y_s, y_r, y_u = smooth_forward(p, rows(s, r, u))
        gap_emb = np.sum((y_r - y_s) ** 2) - np.sum((y_r - y_u) ** 2)
        gap_corr = float(np.dot(r.values, u.values) - np.dot(r.values, s.values))
        want = abs(2.0 * gap_emb - 2.0 * gap_corr)
        assert triple_loss(p, rows(s, r, u), 0, 1, 2) == pytest.approx(want, abs=1e-9)


def test_loss_order_swap_symmetry():
    p = init_params(8, 6, 3, seed=8)
    rng = np.random.default_rng(13)
    h = rows(*(norm_ts(rng.standard_normal(8), i) for i in range(3)))
    assert triple_loss(p, h, 0, 1, 2) == pytest.approx(triple_loss(p, h, 2, 1, 0), abs=1e-12)


def test_losses_nonnegative():
    rng = np.random.default_rng(15)
    for seed in range(5):
        p = init_params(8, 4, 2, seed=seed)
        h = rows(*(norm_ts(rng.standard_normal(8), i) for i in range(3)))
        assert pair_loss(p, h, 0, 1) >= 0.0
        assert triple_loss(p, h, 0, 1, 2) >= 0.0


# ----------------------------------------------------------------- gradient

def test_gradient_zero_when_loss_zero():
    # identical pairs: distance 0, target 0, |0| with sign(0) = 0 subgradient
    p = init_params(8, 8, 4, seed=0)
    f = features_matrix(rows(norm_ts(np.random.default_rng(17).standard_normal(8))))
    batch = Batch(f=np.vstack([f, f]), target=np.zeros(1))
    assert np.all(loss_and_gradient(p, batch)[1] == 0.0)


def test_gradient_of_duplicated_batch_equals_single():
    p = init_params(8, 8, 4, seed=1)
    rng = np.random.default_rng(19)
    h = np.vstack([norm_ts(rng.standard_normal(8), i).values for i in range(2)])
    f = features_matrix(h)
    single = pair_batch_from(h, f, np.array([0]), np.array([1]))
    double = pair_batch_from(h, f, np.array([0, 0]), np.array([1, 1]))
    np.testing.assert_allclose(loss_and_gradient(p, single)[1], loss_and_gradient(p, double)[1], rtol=0, atol=1e-12)


def test_gradient_finite_at_degenerate_norm():
    # a zero final layer collapses every pre-normalization output to the
    # origin; the smoothed normalization must still yield finite gradients
    p = init_params(8, 8, 4, seed=0)
    p.weights[-1][:] = 0.0
    rng = np.random.default_rng(25)
    h = np.vstack([norm_ts(rng.standard_normal(8), i).values for i in range(4)])
    f = features_matrix(h)
    batch = pair_batch_from(h, f, np.array([0, 2]), np.array([1, 3]))
    assert np.all(np.isfinite(loss_and_gradient(p, batch)[1]))


@pytest.mark.parametrize("loss_kind", [APPROXIMATE, ORDER])
def test_gradient_matches_finite_differences(loss_kind):
    rng = np.random.default_rng(21)
    for seed in range(4):
        p = init_params(8, 8, 4, seed=seed)
        h = np.vstack([norm_ts(rng.standard_normal(12), i).values for i in range(6)])
        f = features_matrix(h)[:, :8]
        if loss_kind == APPROXIMATE:
            batch = pair_batch_from(h, f, np.array([0, 2, 4]), np.array([1, 3, 5]))
        else:
            batch = triple_batch_from(h, f, np.array([0, 3]), np.array([1, 4]), np.array([2, 5]))
        analytic = loss_and_gradient(p, batch)[1]
        numeric = numeric_gradient(p, batch)
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() <= 1e-5, f"seed {seed}: max rel err {rel.max():.3g}"


def test_loss_and_gradient_consistent_with_batch_loss():
    p = init_params(8, 8, 4, seed=3)
    rng = np.random.default_rng(23)
    h = np.vstack([norm_ts(rng.standard_normal(8), i).values for i in range(4)])
    f = features_matrix(h)
    batch = pair_batch_from(h, f, np.array([0, 2]), np.array([1, 3]))
    loss, _ = loss_and_gradient(p, batch)
    assert loss == pytest.approx(batch_loss(p, batch), abs=1e-15)


# --------------------------------------------------------------------- adam

def scalar_net():
    """A 1 -> 1 -> 1 network whose first weight, p.flat[0], starts at 0."""
    return NetworkParams(weights=[np.zeros((1, 1)), np.ones((1, 1))], biases=[np.zeros(1), np.zeros(1)], seed=0)


def test_adam_zero_gradient_keeps_params():
    p = init_params(4, 3, 2, seed=0)
    before = p.flat.copy()
    state = init_adam(p)
    adam_step(p, np.zeros_like(p.flat), state, lr=0.5)
    np.testing.assert_array_equal(before, p.flat)
    assert state.t == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step: delta = lr * g / (|g| + eps)
    p = scalar_net()
    state = init_adam(p)
    g = 0.37
    grad = np.zeros_like(p.flat)
    grad[0] = g
    adam_step(p, grad, state, lr=0.01)
    want = -0.01 * g / (abs(g) + ADAM_EPS)
    assert p.weights[0][0, 0] == pytest.approx(want, rel=1e-9)


def test_adam_two_hand_steps():
    # two updates on a scalar, recomputed by hand with the standard recursion
    p = scalar_net()
    state = init_adam(p)
    lr, b1, b2 = 0.1, 0.9, 0.999
    g1, g2 = 0.5, -0.2
    m = v = 0.0
    x = 0.0
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + ADAM_EPS)
    for g in (g1, g2):
        grad = np.zeros_like(p.flat)
        grad[0] = g
        adam_step(p, grad, state, lr=lr)
    assert p.weights[0][0, 0] == pytest.approx(x, rel=1e-12)
    assert state.t == 2


def test_adam_step_keeps_the_bits_of_the_plain_expression():
    # the in-place update keeps the bits of the plain textbook expression,
    # over steps with gradients of very different scales
    p = init_params(6, 5, 3, seed=0)
    want, m1, m2 = p.flat.copy(), np.zeros_like(p.flat), np.zeros_like(p.flat)
    state = init_adam(p)
    rng = np.random.default_rng(9)
    for t in range(1, 8):
        grad = rng.standard_normal(p.flat.shape) * 10.0 ** rng.integers(-9, 4, size=p.flat.shape)
        adam_step(p, grad, state, lr=0.01)
        m1 = m1 * 0.9 + (1.0 - 0.9) * grad
        m2 = m2 * 0.999 + (1.0 - 0.999) * grad * grad
        want -= 0.01 * (m1 / (1.0 - 0.9**t)) / (np.sqrt(m2 / (1.0 - 0.999**t)) + ADAM_EPS)
        assert p.flat.tobytes() == want.tobytes(), t
        assert state.m1.tobytes() == m1.tobytes() and state.m2.tobytes() == m2.tobytes()


def test_adam_state_shapes():
    p = init_params(6, 5, 3, seed=0)
    state = init_adam(p)
    assert isinstance(state, AdamState)
    assert state.m1.shape == state.m2.shape == p.flat.shape == (5 * 7 + 3 * 6,)


# ------------------------------------------------------------------- xavier

def test_xavier_bound_shape_4_2():
    w = xavier_init((4, 2), seed=0)
    assert w.shape == (4, 2)
    assert np.all(np.abs(w) <= 1.0)  # sqrt(6/(4+2)) = 1


def test_xavier_deterministic():
    np.testing.assert_array_equal(xavier_init((8, 8), seed=5), xavier_init((8, 8), seed=5))


def test_xavier_uniform_statistics():
    w = xavier_init((1000, 1000), seed=7)
    bound = np.sqrt(6.0 / 2000)
    assert np.abs(w).max() <= bound
    # mean of 1e6 uniform samples: sigma = bound/sqrt(3)/1000
    sigma = bound / np.sqrt(3.0) / 1000.0
    assert abs(w.mean()) <= 3 * sigma


def test_init_params_zero_biases():
    p = init_params(8, 16, 4, seed=9)
    assert np.all(p.biases[0] == 0.0) and np.all(p.biases[1] == 0.0)
    assert p.weights[0].shape == (16, 8)
    assert p.weights[1].shape == (4, 16)
    assert p.seed == 9


# -------------------------------------------------------------------- train

def test_train_zero_iterations_returns_init():
    ds, sp = tiny_dataset()
    cfg = desk_config(m=4, iterations=0)
    params = train(ds, sp, cfg)
    want = init_params(16, cfg.hidden_size, 4, cfg.seed)
    for a, b in zip(params.weights, want.weights):
        np.testing.assert_array_equal(a, b)


def test_train_deterministic():
    ds, sp = tiny_dataset()
    cfg = desk_config(m=4, iterations=50)
    a = train(ds, sp, cfg)
    b = train(ds, sp, cfg)
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_array_equal(x, y)


def test_train_insufficient_data():
    ds = gen_example1(12, 16, seed=0)
    sp = SplitDataset(
        train_ids=ds.ids[:2], val_ids=ds.ids[2:7], test_ids=ds.ids[7:], seed=0
    )
    with pytest.raises(InsufficientData):
        train(ds, sp, desk_config(m=4))


def test_train_rejects_non_finite_series():
    # NaN in five training rows used to train to a model whose every embedding is NaN
    ds, sp = tiny_dataset()
    rows = ds.rows_for(sp.train_ids[:5])
    ds.values[rows, 3] = np.nan
    with pytest.raises(DegenerateOutput, match=f"series {ds.ids[rows.min()]} "):  # the first in row order
        train(ds, sp, desk_config(m=4, iterations=300))


def test_train_order_loss_ten_fold_reduction(tmp_path):
    # small quarter-copy dataset: a 4-dim embedding can represent the series
    # family, so the order loss collapses by far more than 10x from init
    ds = gen_example1(500, 8, seed=0)
    sp = split(ds, seed=0)
    log_path = tmp_path / "log.csv"
    train(ds, sp, desk_config(m=4, loss_kind=ORDER, seed=0), log_path=str(log_path))
    lines = log_path.read_text().strip().splitlines()
    header, first, last = lines[0], lines[1].split(","), lines[-1].split(",")
    assert header == "iter,train_loss,val_loss,wall_ms"
    assert float(first[1]) >= 10.0 * float(last[1])


def test_train_log_schema_and_cadence(tmp_path):
    ds, sp = tiny_dataset()
    log_path = tmp_path / "log.csv"
    train(ds, sp, desk_config(m=4, iterations=250), log_path=str(log_path))
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == "iter,train_loss,val_loss,wall_ms"
    iters = [int(line.split(",")[0]) for line in lines[1:]]
    assert iters == [0, 100, 200, 250]  # every 100th plus the final iteration
    for line in lines[1:]:
        _, tr, vl, ms = line.split(",")
        assert np.isfinite(float(tr)) and np.isfinite(float(vl)) and float(ms) >= 0.0


def test_training_reduces_loss_on_example1():
    ds, sp = tiny_dataset(n=200, big_m=16, seed=1)
    cfg = desk_config(m=4, loss_kind=APPROXIMATE, seed=1, iterations=500)
    params = train(ds, sp, cfg)
    init = init_params(16, cfg.hidden_size, 4, cfg.seed)
    h = ds.normalized_matrix()
    rng = np.random.default_rng(0)
    pick = rng.choice(ds.rows_for(sp.test_ids), size=(2, 10), replace=False)
    batch = pair_batch_from(h, features_matrix(h), pick[0], pick[1])
    assert batch_loss(params, batch) < batch_loss(init, batch)

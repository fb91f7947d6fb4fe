"""Training for the learned embedder.

Losses compare twice the squared embedding distance (the symmetry-corrected
estimate of 2 - 2*corr) against the exact correlation target:

    approximate: |2*||f(s)-f(r)||^2 - 2*(1 - corr(s,r))|
    order:       |2*(||f(r)-f(s)||^2 - ||f(r)-f(u)||^2) - 2*(corr(r,u) - corr(r,s))|

Backpropagation is written out by hand (the network is two matmuls, a ReLU
and a norm); the absolute value uses the sign subgradient (0 at 0) and ReLU
uses subgradient 0 at the kink, so gradients are deterministic everywhere.
"""

import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, SplitDataset
from .embed import (
    APPROXIMATE, ORDER, SMOOTH_EPS, NetworkParams, feature_width, features_matrix, forward_trace, layer_views,
)
from .errors import InsufficientData
from .files import atomic_write

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

VAL_EVERY = 100
_VAL_SET_SIZE = 512


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer/network settings; defaults follow the full-scale recipe."""

    m: int
    loss_kind: str = APPROXIMATE
    learning_rate: float = 0.01
    batch_size: int = 256
    iterations: int = 10000
    hidden_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in (APPROXIMATE, ORDER):
            raise ValueError(f"loss_kind must be {APPROXIMATE!r} or {ORDER!r}")
        if self.m < 1 or self.hidden_size < 1 or self.batch_size < 1:
            raise ValueError("m, hidden_size and batch_size must be positive")
        if self.iterations < 0 or not 0 < self.learning_rate < np.inf or self.seed < 0:  # NaN fails too
            raise ValueError("bad iterations/learning_rate/seed")


def desk_config(m, loss_kind=APPROXIMATE, seed=0, **overrides) -> TrainConfig:
    """Small profile (hidden 128, 2000 iterations, batch 64) for CI-speed runs."""
    args = dict(m=m, loss_kind=loss_kind, seed=seed, hidden_size=128, iterations=2000, batch_size=64)
    args.update(overrides)
    return TrainConfig(**args)


def xavier_init(shape, seed) -> np.ndarray:
    """Uniform on [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    fan_out, fan_in = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(input_width: int, hidden_size: int, m: int, seed: int) -> NetworkParams:
    """Xavier weights, zero biases, for input -> hidden (ReLU) -> m."""
    rng = np.random.default_rng(seed)
    weights = [xavier_init((hidden_size, input_width), rng), xavier_init((m, hidden_size), rng)]
    biases = [np.zeros(hidden_size), np.zeros(m)]
    return NetworkParams(weights=weights, biases=biases, seed=seed)


@dataclass(frozen=True)
class PairBatch:
    f_s: np.ndarray  # (B, input_width) features of s
    f_r: np.ndarray
    target: np.ndarray  # 2*(1 - corr(s, r)), shape (B,)


@dataclass(frozen=True)
class TripleBatch:
    f_s: np.ndarray
    f_r: np.ndarray  # the reference series
    f_u: np.ndarray
    target: np.ndarray  # 2*(corr(r, u) - corr(r, s)), shape (B,)


def pair_batch_from(h: np.ndarray, f: np.ndarray, idx_s, idx_r) -> PairBatch:
    """Assemble a pair batch from normalized rows `h` and feature rows `f`."""
    corr = np.einsum("ij,ij->i", h[idx_s], h[idx_r])
    return PairBatch(f_s=f[idx_s], f_r=f[idx_r], target=2.0 * (1.0 - corr))


def triple_batch_from(h: np.ndarray, f: np.ndarray, idx_s, idx_r, idx_u) -> TripleBatch:
    corr_rs = np.einsum("ij,ij->i", h[idx_r], h[idx_s])
    corr_ru = np.einsum("ij,ij->i", h[idx_r], h[idx_u])
    return TripleBatch(f_s=f[idx_s], f_r=f[idx_r], f_u=f[idx_u], target=2.0 * (corr_ru - corr_rs))


def _backward(p: NetworkParams, acts, v, n, y_bar) -> np.ndarray:
    """Parameter gradient given dL/dy, one array laid out like `p.flat`."""
    nn = n + SMOOTH_EPS
    proj = np.sum(y_bar * v, axis=1, keepdims=True)
    # clamp the assembled denominator, not n alone: nn^2 * tiny underflows
    delta = y_bar / nn - proj / np.maximum(nn * nn * n, 1e-300) * v
    grad = np.empty_like(p.flat)
    _, g_w, g_b = layer_views(grad, [w.shape for w in p.weights])
    for i in range(len(p.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=g_w[i])
        np.sum(delta, axis=0, out=g_b[i])
        if i:
            delta = (delta @ p.weights[i]) * (acts[i] > 0.0)  # ReLU(z) > 0 exactly when z > 0
    return grad


def _forward_loss(p: NetworkParams, batch):
    """(acts, v, n, inner, gaps) for a PairBatch or TripleBatch: the forward
    trace of its stacked rows, each element's signed loss term and the
    embedding gaps it was computed from, (y_s − y_r,) for pairs and
    (y_r − y_s, y_r − y_u) for triples."""
    b = batch.target.shape[0]
    if isinstance(batch, PairBatch):
        acts, v, n, y = forward_trace(p, np.vstack([batch.f_s, batch.f_r]))
        diff = y[:b] - y[b:]
        inner = 2.0 * np.sum(diff * diff, axis=1) - batch.target
        return acts, v, n, inner, (diff,)
    acts, v, n, y = forward_trace(p, np.vstack([batch.f_s, batch.f_r, batch.f_u]))
    d_rs = y[b : 2 * b] - y[:b]
    d_ru = y[b : 2 * b] - y[2 * b :]
    inner = 2.0 * (np.sum(d_rs * d_rs, axis=1) - np.sum(d_ru * d_ru, axis=1)) - batch.target
    return acts, v, n, inner, (d_rs, d_ru)


def _output_gradient(inner, gaps):
    """dL/dy of the stacked rows, from `_forward_loss`'s inner and gaps."""
    g = np.sign(inner)[:, np.newaxis] * (4.0 / len(inner))
    if len(gaps) == 1:
        (diff,) = gaps
        return np.vstack([g * diff, -g * diff])
    d_rs, d_ru = gaps
    return np.vstack([-g * d_rs, g * (d_rs - d_ru), g * d_ru])


def batch_loss(p: NetworkParams, batch) -> float:
    """Mean per-element loss over the batch."""
    return float(np.mean(np.abs(_forward_loss(p, batch)[3])))


def loss_and_gradient(p: NetworkParams, batch):
    """(mean loss, parameter gradient laid out like `p.flat`) for a PairBatch or TripleBatch."""
    acts, v, n, inner, gaps = _forward_loss(p, batch)
    return float(np.mean(np.abs(inner))), _backward(p, acts, v, n, _output_gradient(inner, gaps))


@dataclass
class AdamState:
    m1: np.ndarray  # first and second moment estimates, laid out like `p.flat`
    m2: np.ndarray
    work: np.ndarray  # (2, len(p.flat)) scratch for `adam_step`
    t: int = 0


def init_adam(p: NetworkParams) -> AdamState:
    return AdamState(m1=np.zeros_like(p.flat), m2=np.zeros_like(p.flat), work=np.empty((2, p.flat.size)))


def adam_step(p: NetworkParams, grad: np.ndarray, state: AdamState, lr: float) -> NetworkParams:
    """One in-place ADAM update with bias correction of all of `p.flat`,
    given the gradient laid out like it.

    p -= lr·(m1/c1) / (√(m2/c2) + ε), each operation in that order, written
    into `state.work` so that a step allocates nothing.
    """
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    step, root = state.work
    state.m1 *= ADAM_BETA1
    state.m1 += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    state.m2 *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    state.m2 += np.multiply(step, grad, out=step)
    np.divide(state.m1, c1, out=step)
    step *= lr
    np.divide(state.m2, c2, out=root)
    np.sqrt(root, out=root)
    root += ADAM_EPS
    p.flat -= np.divide(step, root, out=step)
    return p


def _sample_batch(rng, loss_kind, rows, batch_size, h, f):
    """A pair or triple batch of `rows` of h and f, drawn uniformly with replacement."""
    pair = loss_kind == APPROXIMATE
    idx = rows[rng.integers(0, len(rows), size=(2 if pair else 3, batch_size))]
    return pair_batch_from(h, f, *idx) if pair else triple_batch_from(h, f, *idx)


def train(ds: Dataset, splits: SplitDataset, cfg: TrainConfig, log_path=None) -> NetworkParams:
    """Run cfg.iterations ADAM steps on batches sampled from the train split.

    Pairs/triples are drawn uniformly with replacement (collisions allowed;
    they contribute zero loss). Validation loss on a fixed sampled set is
    logged every 100 iterations as CSV `iter,train_loss,val_loss,wall_ms`.
    No early stopping, no model selection: the final parameters are returned.
    """
    train_rows = ds.rows_for(splits.train_ids)
    if len(train_rows) < 3:
        raise InsufficientData(f"need at least 3 training series, got {len(train_rows)}")
    h = ds.normalized_matrix()
    f = features_matrix(h)
    params = init_params(feature_width(ds.length), cfg.hidden_size, cfg.m, cfg.seed)
    rng = np.random.default_rng((cfg.seed, 0))

    val_rows = ds.rows_for(splits.val_ids)
    val_rng = np.random.default_rng((cfg.seed, 1))
    val_batch = _sample_batch(val_rng, cfg.loss_kind, val_rows, _VAL_SET_SIZE, h, f) if len(val_rows) else None

    state = init_adam(params)
    t0 = time.perf_counter()
    log_rows = []

    def record(it, train_loss):
        val_loss = batch_loss(params, val_batch) if val_batch is not None else float("nan")
        log_rows.append((it, train_loss, val_loss, (time.perf_counter() - t0) * 1e3))

    if log_path is not None:
        batch0 = _sample_batch(np.random.default_rng((cfg.seed, 2)), cfg.loss_kind, train_rows, cfg.batch_size, h, f)
        record(0, batch_loss(params, batch0))

    for it in range(1, cfg.iterations + 1):
        batch = _sample_batch(rng, cfg.loss_kind, train_rows, cfg.batch_size, h, f)
        loss, grad = loss_and_gradient(params, batch)
        adam_step(params, grad, state, cfg.learning_rate)
        if log_path is not None and (it % VAL_EVERY == 0 or it == cfg.iterations):
            record(it, loss)

    if log_path is not None:
        with atomic_write(log_path) as fh:
            fh.write("iter,train_loss,val_loss,wall_ms\n")
            for it, tr, vl, ms in log_rows:
                fh.write(f"{it},{tr:.9g},{vl:.9g},{ms:.3f}\n")
    return params

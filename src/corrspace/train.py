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
from .embed import SMOOTH_EPS, NetworkParams, feature_width, features_matrix, forward_trace
from .errors import InsufficientData

APPROXIMATE = "approximate"
ORDER = "order"

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
        if self.iterations < 0 or self.learning_rate <= 0 or self.seed < 0:
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


def _backward(p: NetworkParams, acts, v, n, y_bar):
    """Parameter gradients in [W0, b0, W1, b1, ...] order given dL/dy."""
    nn = n + SMOOTH_EPS
    proj = np.sum(y_bar * v, axis=1, keepdims=True)
    # clamp the assembled denominator, not n alone: nn^2 * tiny underflows
    delta = y_bar / nn - proj / np.maximum(nn * nn * n, 1e-300) * v
    grads = [None] * (2 * len(p.weights))
    for i in range(len(p.weights) - 1, -1, -1):
        grads[2 * i] = delta.T @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i:
            delta = (delta @ p.weights[i]) * (acts[i] > 0.0)  # ReLU(z) > 0 exactly when z > 0
    return grads


def _pair_pieces(p, batch):
    b = batch.target.shape[0]
    acts, v, n, y = forward_trace(p, np.vstack([batch.f_s, batch.f_r]))
    diff = y[:b] - y[b:]
    inner = 2.0 * np.sum(diff * diff, axis=1) - batch.target
    return acts, v, n, inner, diff, b


def _triple_pieces(p, batch):
    b = batch.target.shape[0]
    acts, v, n, y = forward_trace(p, np.vstack([batch.f_s, batch.f_r, batch.f_u]))
    d_rs = y[b : 2 * b] - y[:b]
    d_ru = y[b : 2 * b] - y[2 * b :]
    inner = 2.0 * (np.sum(d_rs * d_rs, axis=1) - np.sum(d_ru * d_ru, axis=1)) - batch.target
    return acts, v, n, inner, d_rs, d_ru, b


def batch_loss(p: NetworkParams, batch) -> float:
    """Mean per-element loss over the batch."""
    if isinstance(batch, PairBatch):
        inner = _pair_pieces(p, batch)[3]
    else:
        inner = _triple_pieces(p, batch)[3]
    return float(np.mean(np.abs(inner)))


def loss_and_gradient(p: NetworkParams, batch):
    """(mean loss, parameter gradients) for a PairBatch or TripleBatch."""
    if isinstance(batch, PairBatch):
        acts, v, n, inner, diff, b = _pair_pieces(p, batch)
        g = np.sign(inner)[:, np.newaxis] * (4.0 / b)
        y_bar = np.vstack([g * diff, -g * diff])
    else:
        acts, v, n, inner, d_rs, d_ru, b = _triple_pieces(p, batch)
        g = np.sign(inner)[:, np.newaxis] * (4.0 / b)
        y_bar = np.vstack([-g * d_rs, g * (d_rs - d_ru), g * d_ru])
    return float(np.mean(np.abs(inner))), _backward(p, acts, v, n, y_bar)


def _param_slots(p: NetworkParams) -> list:
    slots = []
    for w, b in zip(p.weights, p.biases):
        slots.extend([w, b])
    return slots


@dataclass
class AdamState:
    m1: list
    m2: list
    t: int = 0


def init_adam(p: NetworkParams) -> AdamState:
    slots = _param_slots(p)
    return AdamState(m1=[np.zeros_like(s) for s in slots], m2=[np.zeros_like(s) for s in slots])


def adam_step(p: NetworkParams, grads, state: AdamState, lr: float) -> NetworkParams:
    """One in-place ADAM update with bias correction."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for slot, g, m1, m2 in zip(_param_slots(p), grads, state.m1, state.m2):
        m1 *= ADAM_BETA1
        m1 += (1.0 - ADAM_BETA1) * g
        m2 *= ADAM_BETA2
        m2 += (1.0 - ADAM_BETA2) * g * g
        slot -= lr * (m1 / c1) / (np.sqrt(m2 / c2) + ADAM_EPS)
    return p


def _sample_batch(rng, loss_kind, n, batch_size, h, f):
    if loss_kind == APPROXIMATE:
        idx = rng.integers(0, n, size=(2, batch_size))
        return pair_batch_from(h, f, idx[0], idx[1])
    idx = rng.integers(0, n, size=(3, batch_size))
    return triple_batch_from(h, f, idx[0], idx[1], idx[2])


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
    h_all = ds.normalized_matrix()
    f_all = features_matrix(h_all)

    h, f = h_all[train_rows], f_all[train_rows]
    params = init_params(feature_width(ds.length), cfg.hidden_size, cfg.m, cfg.seed)
    rng = np.random.default_rng((cfg.seed, 0))

    val_rows = ds.rows_for(splits.val_ids)
    val_batch = None
    if len(val_rows):
        val_rng = np.random.default_rng((cfg.seed, 1))
        n_draw = 2 if cfg.loss_kind == APPROXIMATE else 3
        vidx = val_rows[val_rng.integers(0, len(val_rows), size=(n_draw, _VAL_SET_SIZE))]
        if cfg.loss_kind == APPROXIMATE:
            val_batch = pair_batch_from(h_all, f_all, vidx[0], vidx[1])
        else:
            val_batch = triple_batch_from(h_all, f_all, vidx[0], vidx[1], vidx[2])

    state = init_adam(params)
    t0 = time.perf_counter()
    log_rows = []

    def record(it, train_loss):
        val_loss = batch_loss(params, val_batch) if val_batch is not None else float("nan")
        log_rows.append((it, train_loss, val_loss, (time.perf_counter() - t0) * 1e3))

    if log_path is not None:
        batch0 = _sample_batch(np.random.default_rng((cfg.seed, 2)), cfg.loss_kind, len(train_rows), cfg.batch_size, h, f)
        record(0, batch_loss(params, batch0))

    for it in range(1, cfg.iterations + 1):
        batch = _sample_batch(rng, cfg.loss_kind, len(train_rows), cfg.batch_size, h, f)
        loss, grads = loss_and_gradient(params, batch)
        adam_step(params, grads, state, cfg.learning_rate)
        if log_path is not None and (it % VAL_EVERY == 0 or it == cfg.iterations):
            record(it, loss)

    if log_path is not None:
        with open(log_path, "w") as fh:
            fh.write("iter,train_loss,val_loss,wall_ms\n")
            for it, tr, vl, ms in log_rows:
                fh.write(f"{it},{tr:.9g},{vl:.9g},{ms:.3f}\n")
    return params

"""Embedding families: learned dense network, DFT truncation, down-sampling.

All three map an l2-normalized series to an m-dimensional real vector whose
squared Euclidean distances, after the uniform x2 symmetry correction
(2*||f(s)-f(r)||^2, because a real spectrum carries every coefficient twice),
estimate 2 - 2*corr(s, r).
"""

import struct
from dataclasses import dataclass

import numpy as np

from .core import NormalizedSeries, dft
from .errors import CorruptArtifact, DegenerateOutput, DimensionMismatch, InvalidM

SMOOTH_EPS = 1e-12
MODEL_MAGIC = b"CHR1"


def feature_width(series_length: int) -> int:
    """Width of the network input for series of the given length."""
    return 2 * (series_length // 2)


def features(ns: NormalizedSeries) -> np.ndarray:
    """Frequency-domain features: interleaved Re/Im of coefficients 1..floor(M/2).

    The DC term is zero for normalized input and the upper half of the
    spectrum duplicates the lower by conjugate symmetry, so this keeps every
    informative coefficient exactly once.
    """
    return features_matrix(ns.values[np.newaxis, :])[0]


def features_matrix(values: np.ndarray) -> np.ndarray:
    """Vectorized `features` over a (n, M) matrix of normalized series."""
    n, big_m = values.shape
    c = np.fft.fft(values, axis=1) / np.sqrt(big_m)
    half = c[:, 1 : big_m // 2 + 1]
    out = np.empty((n, 2 * half.shape[1]), dtype=np.float64)
    out[:, 0::2] = half.real
    out[:, 1::2] = half.imag
    return out


@dataclass
class NetworkParams:
    """Dense-layer weights/biases plus the seed they were initialized from.

    weights[i] has shape (fan_out, fan_in); biases[i] has shape (fan_out,).
    Layer 0 is input->hidden (ReLU), the last layer is linear, and the final
    output is projected onto the unit sphere.
    """

    weights: list
    biases: list
    seed: int

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases layer counts differ")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")
        for prev, nxt in zip(self.weights[:-1], self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError("layer shapes do not chain")

    @property
    def input_width(self):
        return self.weights[0].shape[1]

    @property
    def output_width(self):
        return self.weights[-1].shape[0]


def forward(p: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Embed one feature vector: unit-norm output, strict on degenerate inputs."""
    y = forward_batch(p, np.asarray(x, dtype=np.float64)[np.newaxis, :], smooth=False)
    return y[0]


def forward_batch(p: NetworkParams, x: np.ndarray, smooth: bool) -> np.ndarray:
    """Embed a (n, input_width) batch.

    With smooth=False a pre-normalization norm below 1e-12 raises
    DegenerateOutput; with smooth=True the norm denominator gets +1e-12 so
    training gradients stay finite.
    """
    if x.shape[1] != p.input_width:
        raise DimensionMismatch(f"input width {x.shape[1]} != network {p.input_width}")
    h = x
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    v = h @ p.weights[-1].T + p.biases[-1]
    norms = np.linalg.norm(v, axis=1)
    if not smooth and np.any(norms < SMOOTH_EPS):
        raise DegenerateOutput("pre-normalization output has near-zero norm")
    return v / (norms + SMOOTH_EPS)[:, np.newaxis]


def embed_dft_baseline(ns: NormalizedSeries, m: int) -> np.ndarray:
    """DFT-truncation baseline: coefficients 1..m/2 flattened to m reals.

    Each coordinate is scaled by sqrt(2) so that 2*||emb(s)-emb(r)||^2 equals
    4*d_{m/2}^2, the symmetry-corrected estimate of 2 - 2*corr.
    """
    return _dft_baseline_matrix(ns.values[np.newaxis, :], m)[0]


def _dft_baseline_matrix(values: np.ndarray, m: int) -> np.ndarray:
    big_m = values.shape[1]
    if m < 2 or m % 2 != 0 or m >= big_m:
        raise InvalidM(f"m={m} must be even and in [2, M) for M={big_m}")
    feats = features_matrix(values)
    return np.sqrt(2.0) * feats[:, :m]


def embed_downsample(ns: NormalizedSeries, m: int) -> np.ndarray:
    """Down-sampling baseline: every floor(j*M/m)-th value, rescaled by sqrt(M/m)."""
    return _downsample_matrix(ns.values[np.newaxis, :], m)[0]


def _downsample_matrix(values: np.ndarray, m: int) -> np.ndarray:
    big_m = values.shape[1]
    if m < 1 or m > big_m:
        raise InvalidM(f"m={m} outside [1, M={big_m}]")
    idx = (np.arange(m) * big_m) // m
    return values[:, idx] * np.sqrt(big_m / m)


class LearnedEmbedder:
    """Embedder backed by a trained (or initialized) network."""

    name = "learned"

    def __init__(self, params: NetworkParams):
        self.params = params
        self.m = params.output_width

    def _features(self, values_matrix):
        feats = features_matrix(values_matrix)
        want = self.params.input_width
        if feats.shape[1] < want:
            raise DimensionMismatch(
                f"series yield {feats.shape[1]} features, network expects {want}"
            )
        return feats[:, :want]

    def embed(self, ns: NormalizedSeries) -> np.ndarray:
        return forward_batch(self.params, self._features(ns.values[np.newaxis, :]), smooth=False)[0]

    def embed_matrix(self, values_matrix: np.ndarray) -> np.ndarray:
        return forward_batch(self.params, self._features(values_matrix), smooth=False)


class DftTruncationEmbedder:
    name = "dft"

    def __init__(self, m: int):
        self.m = m

    def embed(self, ns: NormalizedSeries) -> np.ndarray:
        return embed_dft_baseline(ns, self.m)

    def embed_matrix(self, values_matrix: np.ndarray) -> np.ndarray:
        return _dft_baseline_matrix(values_matrix, self.m)


class DownSampleEmbedder:
    name = "downsample"

    def __init__(self, m: int):
        self.m = m

    def embed(self, ns: NormalizedSeries) -> np.ndarray:
        return embed_downsample(ns, self.m)

    def embed_matrix(self, values_matrix: np.ndarray) -> np.ndarray:
        return _downsample_matrix(values_matrix, self.m)


def save_model(p: NetworkParams, path) -> None:
    """Write the CHR1 model file.

    Little-endian layout: magic "CHR1", u32 layer count, then per layer
    u32 rows, u32 cols, rows*cols f64 row-major weights, rows f64 biases;
    trailing u64 training seed. Round-trips bit-exactly.
    """
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(p.weights)))
        for w, b in zip(p.weights, p.biases):
            rows, cols = w.shape
            fh.write(struct.pack("<II", rows, cols))
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        fh.write(struct.pack("<Q", p.seed))


def load_model(path) -> NetworkParams:
    """Read a CHR1 model file written by `save_model`.

    A file that is not a whole CHR1 model raises `CorruptArtifact`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MODEL_MAGIC:
        raise CorruptArtifact(f"{path}: not a CHR1 model file")
    off = 4

    def need(size):
        if off + size > len(data):
            raise CorruptArtifact(f"{path}: needs {size} bytes at byte {off}, the file has {len(data)}")

    need(4)
    (n_layers,) = struct.unpack_from("<I", data, off)
    off += 4
    weights, biases = [], []
    for _ in range(n_layers):
        need(8)
        rows, cols = struct.unpack_from("<II", data, off)
        off += 8
        need(8 * rows * (cols + 1))
        w = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=off).reshape(rows, cols)
        off += 8 * rows * cols
        b = np.frombuffer(data, dtype="<f8", count=rows, offset=off)
        off += 8 * rows
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    need(8)
    (seed,) = struct.unpack_from("<Q", data, off)
    off += 8
    if off != len(data):
        raise CorruptArtifact(f"{path}: {len(data) - off} bytes after the model")
    if n_layers == 0:
        raise CorruptArtifact(f"{path}: model has no layers")
    try:
        return NetworkParams(weights=weights, biases=biases, seed=seed)
    except ValueError as exc:  # layer shapes that do not chain
        raise CorruptArtifact(f"{path}: {exc}")

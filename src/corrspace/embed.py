"""Embedding families: learned dense network, DFT truncation, down-sampling.

All three map an l2-normalized series to an m-dimensional real vector whose
squared Euclidean distances, after the uniform x2 symmetry correction
(2*||f(s)-f(r)||^2, because a real spectrum carries every coefficient twice),
estimate 2 - 2*corr(s, r).
"""

import struct

import numpy as np

from .errors import CorruptArtifact, DegenerateOutput, DimensionMismatch, InvalidM, UsageError, open_input

SMOOTH_EPS = 1e-12
MODEL_MAGIC = b"CHR1"
# The widest count the CHR1 and CIX1 headers store (u32: a layer's rows and
# columns, an index's n and m) and the model's u64 training seed.
U32, U64 = 2**32 - 1, 2**64 - 1

# Values per FFT block in `features_matrix`. The FFT of a block holds two
# complex copies of it (the cast input and the output): 2 MB a block, where
# one FFT over 20 000 x 128 values held 78 MB. Each row's transform is
# computed on its own, so blocking leaves every bit as it was.
_FFT_BLOCK = 2**16


def feature_width(series_length: int) -> int:
    """Width of the network input for series of the given length."""
    return 2 * (series_length // 2)


def features_matrix(values: np.ndarray) -> np.ndarray:
    """Frequency-domain features of a (n, M) matrix of normalized series:
    interleaved Re/Im of coefficients 1..floor(M/2), `feature_width(M)` columns.

    The DC term is zero for normalized input and the upper half of the
    spectrum duplicates the lower by conjugate symmetry, so this keeps every
    informative coefficient exactly once.
    """
    n, big_m = values.shape
    out = np.empty((n, feature_width(big_m)), dtype=np.float64)
    step = max(1, _FFT_BLOCK // big_m)
    for lo in range(0, n, step):
        c = np.fft.fft(values[lo : lo + step], axis=1)
        c /= np.sqrt(big_m)
        half = c[:, 1 : big_m // 2 + 1]
        out[lo : lo + step, 0::2] = half.real
        out[lo : lo + step, 1::2] = half.imag
    return out


def layer_views(buf: np.ndarray, shapes) -> tuple:
    """(blocks, weights, biases): views of the 1-d `buf` laid out [W0, b0, W1, b1, ...]
    for layers of (fan_out, fan_in) `shapes`; blocks[i] is layer i's [W|b].
    The one place that knows the layout (CHR1 stores each block in order)."""
    blocks, off = [], 0
    for rows, cols in shapes:
        blocks.append(buf[off : off + rows * (cols + 1)])
        off += rows * (cols + 1)
    weights = [block[: rows * cols].reshape(rows, cols) for block, (rows, cols) in zip(blocks, shapes)]
    biases = [block[rows * cols :] for block, (rows, cols) in zip(blocks, shapes)]
    return blocks, weights, biases


class NetworkParams:
    """Dense-layer weights/biases plus the seed they were initialized from.

    weights[i] has shape (fan_out, fan_in); biases[i] has shape (fan_out,).
    Layer 0 is input->hidden (ReLU), the last layer is linear, and the final
    output is projected onto the unit sphere. The arrays are copied into one
    float64 buffer, `flat`, and `weights` and `biases` become views into it.
    """

    def __init__(self, weights: list, biases: list, seed: int):
        if len(weights) != len(biases):
            raise UsageError("weights/biases layer counts differ")
        for w, b in zip(weights, biases):
            if w.shape[0] != b.shape[0]:
                raise UsageError(f"bias shape {b.shape} does not match weight {w.shape}")
        for prev, nxt in zip(weights[:-1], weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise UsageError("layer shapes do not chain")
        given = weights + biases
        self.flat = np.empty(sum(a.size for a in given))
        _, self.weights, self.biases = layer_views(self.flat, [w.shape for w in weights])
        for view, array in zip(self.weights + self.biases, given):
            view[...] = array
        self.seed = seed

    @property
    def input_width(self):
        return self.weights[0].shape[1]

    @property
    def output_width(self):
        return self.weights[-1].shape[0]


def forward_trace(p: NetworkParams, x: np.ndarray):
    """Forward pass over a (n, input_width) batch: (acts, v, n, y).

    acts[i] is the input to layer i (acts[0] is x), v the last layer's
    output, n its row norms and y = v / (n + SMOOTH_EPS) the embedding.
    Each hidden activation gets its bias and ReLU in place.
    """
    if x.shape[1] != p.input_width:
        raise DimensionMismatch(f"input width {x.shape[1]} != network {p.input_width}")
    acts = [x]
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        a = acts[-1] @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    v = acts[-1] @ p.weights[-1].T + p.biases[-1]
    n = np.linalg.norm(v, axis=1, keepdims=True)
    return acts, v, n, v / (n + SMOOTH_EPS)


def forward_batch(p: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Embed a (n, input_width) batch onto the unit sphere.

    A pre-normalization norm below 1e-12 raises DegenerateOutput.
    """
    _, _, n, y = forward_trace(p, x)
    if np.any(n < SMOOTH_EPS):
        raise DegenerateOutput("pre-normalization output has near-zero norm")
    return y


class LearnedEmbedder:
    """Embedder backed by a trained (or initialized) network.

    The series length must give exactly the network's input width
    (`feature_width`); any other length raises DimensionMismatch.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self.m = params.output_width

    def embed_matrix(self, values_matrix: np.ndarray) -> np.ndarray:
        return forward_batch(self.params, features_matrix(values_matrix))


class DftTruncationEmbedder:
    """DFT-truncation baseline: coefficients 1..m/2 flattened to m reals.

    Each coordinate is scaled by sqrt(2) so that 2*||emb(s)-emb(r)||^2 equals
    4*d_{m/2}^2, the symmetry-corrected estimate of 2 - 2*corr.
    """

    def __init__(self, m: int):
        self.m = m

    def embed_matrix(self, values_matrix: np.ndarray) -> np.ndarray:
        big_m = values_matrix.shape[1]
        if self.m < 2 or self.m % 2 != 0 or self.m >= big_m:
            raise InvalidM(f"m={self.m} must be even and in [2, M) for M={big_m}")
        return np.sqrt(2.0) * features_matrix(values_matrix)[:, : self.m]


class DownSampleEmbedder:
    """Down-sampling baseline: every floor(j*M/m)-th value, rescaled by sqrt(M/m)."""

    def __init__(self, m: int):
        self.m = m

    def embed_matrix(self, values_matrix: np.ndarray) -> np.ndarray:
        big_m = values_matrix.shape[1]
        if self.m < 1 or self.m > big_m:
            raise InvalidM(f"m={self.m} outside [1, M={big_m}]")
        idx = (np.arange(self.m) * big_m) // self.m
        return values_matrix[:, idx] * np.sqrt(big_m / self.m)


# the losses a learned embedder trains with (`train.TrainConfig.loss_kind`)
APPROXIMATE = "approximate"
ORDER = "order"

# the embedders by method: those built from m alone, and the learned ones by
# the loss they train with
FIXED_EMBEDDERS = {"dft": DftTruncationEmbedder, "downsample": DownSampleEmbedder}
LOSS_OF = {"learned-approx": APPROXIMATE, "learned-order": ORDER}
METHODS = ("exact", *FIXED_EMBEDDERS, *LOSS_OF)


def embedder_for(method, m, params=None):
    """The embedder of `method`: a fixed one of width `m`, or the learned one
    of the model `params` (`NetworkParams`), which a learned method requires."""
    if method in FIXED_EMBEDDERS:
        return FIXED_EMBEDDERS[method](m)
    if params is None:
        raise UsageError(f"method {method} requires a model")
    return LearnedEmbedder(params)


def model_bytes(p: NetworkParams, path) -> bytes:
    """The CHR1 bytes of `p`, which `save_model` writes to a model file and
    `save_index` into a version-3 index.

    Little-endian layout: magic "CHR1", u32 layer count, then per layer
    u32 rows, u32 cols, its [W|b] block: rows*cols f64 row-major weights,
    rows f64 biases; trailing u64 training seed. Round-trips bit-exactly.
    Parameters that are not all finite, which `parse_model` would refuse,
    raise `DegenerateOutput`, saying that `path` was not written.
    """
    if not np.isfinite(p.flat).all():
        raise DegenerateOutput(f"{path}: not written: the model holds a non-finite weight or bias")
    blocks, _, _ = layer_views(p.flat, [w.shape for w in p.weights])
    parts = [MODEL_MAGIC, struct.pack("<I", len(blocks))]
    for w, block in zip(p.weights, blocks):
        parts += [struct.pack("<II", *w.shape), block.astype("<f8", copy=False).tobytes()]
    parts.append(struct.pack("<Q", p.seed))
    return b"".join(parts)


def save_model(p: NetworkParams, path) -> None:
    """Write the CHR1 model file (`model_bytes`); nothing is written when it raises."""
    data = model_bytes(p, path)
    from .files import atomic_write  # imported here: a query loads no writer

    with atomic_write(path, "wb") as fh:
        fh.write(data)


def parse_model(data, source) -> NetworkParams:
    """The model of the CHR1 bytes `data`, read from `source` (a file, or
    an index's model block): the one CHR1 reader.

    Bytes that are not a whole CHR1 model, or whose weights or biases are
    not all finite, raise `CorruptArtifact`.
    """
    if data[:4] != MODEL_MAGIC:
        raise CorruptArtifact(f"{source}: not a CHR1 model file")
    off = 4

    def need(size):
        if off + size > len(data):
            raise CorruptArtifact(f"{source}: needs {size} bytes at byte {off}, the file has {len(data)}")

    need(4)
    (n_layers,) = struct.unpack_from("<I", data, off)
    off += 4
    weights, biases = [], []
    for _ in range(n_layers):
        need(8)
        rows, cols = struct.unpack_from("<II", data, off)
        off += 8
        need(8 * rows * (cols + 1))
        block = np.frombuffer(data, dtype="<f8", count=rows * (cols + 1), offset=off)
        off += block.nbytes
        if not np.isfinite(block).all():
            raise CorruptArtifact(f"{source}: layer {len(weights)} holds a non-finite weight or bias")
        _, (w,), (b,) = layer_views(block, [(rows, cols)])
        weights.append(w)
        biases.append(b)
    need(8)
    (seed,) = struct.unpack_from("<Q", data, off)
    off += 8
    if off != len(data):
        raise CorruptArtifact(f"{source}: {len(data) - off} bytes after the model")
    if n_layers == 0:
        raise CorruptArtifact(f"{source}: model has no layers")
    try:
        return NetworkParams(weights=weights, biases=biases, seed=seed)  # copies the blocks into `flat`
    except ValueError as exc:  # layer shapes that do not chain
        raise CorruptArtifact(f"{source}: {exc}")


def load_model(path) -> NetworkParams:
    """Read a CHR1 model file written by `save_model`.

    A missing file raises `MissingArtifact`; a file that is not a whole CHR1
    model, or whose weights or biases are not all finite, `CorruptArtifact`
    (`parse_model`).
    """
    with open_input(path, "model file", "rb") as fh:
        return parse_model(fh.read(), path)

"""Normalization: `normalize_rows`, the package's one normalization routine,
and `is_constant`, its rule for a series whose correlation is undefined.

For rows normalized this way (zero mean, hence a zero DC coefficient):

    corr(s, r) = 1 - ||s_hat - r_hat||^2 / 2
    ||x||^2    = ||DFT_scaled(x)||^2        (Parseval, 1/sqrt(M) scale: `embed.features_matrix`)

so squared distance between truncated frequency vectors estimates 2 - 2*corr.
`normalize` takes a `TimeSeries` to a `NormalizedSeries`: `normalize_rows` on one row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeries, DegenerateOutput, UsageError

_NORM_BLOCK = 2**16  # values per block of `normalize_rows`
# A row's sum of squares inside this range was summed without overflow and
# with underflow negligible next to it; outside it (or NaN), the row is redone
# at a power-of-two scale
_SUMSQ_LOW, _SUMSQ_HIGH = 2.0**-960, 2.0**960


@dataclass(frozen=True)
class TimeSeries:
    """A raw, finite, real-valued series with a stable record id."""

    id: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise UsageError("series must be a 1-d sequence of length >= 2")
        if not np.all(np.isfinite(v)):
            raise UsageError(f"series {self.id}: non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class NormalizedSeries:
    """l2-normalized series: zero mean, unit Euclidean norm."""

    values: np.ndarray


def is_constant(hi, lo):
    """The package's one constant rule, from a series' max `hi` and min `lo`
    (scalars or per-row arrays): all its values are equal, so its correlation
    is undefined."""
    return hi == lo


def normalize_rows(values: np.ndarray, ids, rows=slice(None)) -> np.ndarray:
    """The rows of the (n, M) matrix `values` at `rows` (all by default),
    each centred to zero mean and scaled to unit Euclidean norm.

    This is the package's one normalization; `ids` name the rows in errors.
    It works through `_NORM_BLOCK` values at a time and each row's bits do
    not depend on the block. A row whose sum of squares is NaN or outside
    [2^-960, 2^960] (values from about 1e154 up, or too small to square
    without underflow) is redone from its raw values scaled by the power of
    two that brings its largest |value| into [0.5, 1). That scaling is exact,
    so the result is what the row would give at an ordinary magnitude.

    Raises DegenerateOutput for a row holding a non-finite value and
    ConstantSeries for a constant row (`is_constant`), naming its id.
    """
    rows = np.arange(len(values))[rows]
    out = np.empty((len(rows), values.shape[1]))
    step = max(1, _NORM_BLOCK // values.shape[1])
    for start in range(0, len(rows), step):
        at = rows[start : start + step]
        block = values[at]
        hi, lo = block.max(axis=1), block.min(axis=1)
        finite = np.isfinite(hi) & np.isfinite(lo)
        if np.count_nonzero(finite) < len(at):
            raise DegenerateOutput(f"series {ids[at[np.argmin(finite)]]} holds a non-finite value")
        constant = is_constant(hi, lo)
        if np.count_nonzero(constant):
            raise ConstantSeries(f"series {ids[at[np.argmax(constant)]]} is constant (stddev = 0)")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # such rows are redone
            sumsq = _centre_and_scale(block)
        in_range = (sumsq >= _SUMSQ_LOW) & (sumsq <= _SUMSQ_HIGH)  # false for NaN
        if np.count_nonzero(in_range) < len(at):
            far = np.flatnonzero(~in_range)
            _, exponent = np.frexp(np.maximum(np.abs(hi[far]), np.abs(lo[far])))
            scaled = values[at[far]] * np.ldexp(1.0, -exponent)[:, np.newaxis]
            _centre_and_scale(scaled)
            block[far] = scaled
        out[start : start + step] = block
    return out


def _centre_and_scale(x: np.ndarray) -> np.ndarray:
    """Normalize the rows of `x` in place; returns each row's centred sum of squares."""
    x -= np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]  # the bits of x.mean(axis=1), with less overhead
    sumsq = np.add.reduce(x * x, axis=1)
    x /= np.sqrt(sumsq)[:, np.newaxis]
    return sumsq


def normalize(s: TimeSeries) -> NormalizedSeries:
    """Subtract the mean and scale to unit Euclidean norm: `normalize_rows` on one row.

    No command calls it: it stays as the op of the benchmark's `query`
    workload and a target of its tracer.

    Raises ConstantSeries when all values are equal (the Pearson correlation
    of a constant series is undefined).
    """
    return NormalizedSeries(values=normalize_rows(s.values[np.newaxis], (s.id,))[0])

"""Dataset ingestion (CSV / UCR-style TSV), splitting, synthetic generators.

The synthetic families build a spectrum directly and inverse-transform it:

* `gen_example1`: the second quarter of the spectrum copies the first, so
  exactly one quarter of the coefficients carries all pairwise-distance
  information and 4*d_{M/4}^2 == 2 - 2*corr holds for every pair.
* `gen_example2`: all series share a base spectrum; the first `m`
  coefficients get noise of scale `eps` while the rest get unit-scale noise,
  so truncating to the first coefficients is as good as guessing.
"""

import csv
import io
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import is_constant, normalize_rows
from .errors import EmptyFile, InvalidM, MissingArtifact, ParseError, RaggedRows, TooSmall, UsageError, open_input
from .files import atomic_write

log = logging.getLogger(__name__)

@dataclass
class Dataset:
    """Uniform-length series as an (n, M) matrix with stable int ids."""

    ids: np.ndarray
    values: np.ndarray
    provenance: str = ""
    n_constant_dropped: int = 0

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise UsageError("values must be a (n, M) matrix")
        if self.ids.shape[0] != self.values.shape[0]:
            raise UsageError("ids/values row counts differ")
        if len(np.unique(self.ids)) != len(self.ids):
            raise UsageError("record ids must be unique")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def length(self):
        return self.values.shape[1]

    def rows_for(self, ids) -> np.ndarray:
        """Row indices for the given record ids, in the given order.

        Raises MissingArtifact naming the first id the dataset lacks.
        """
        want = np.asarray(ids, dtype=np.int64)
        order = np.argsort(self.ids)
        at = np.searchsorted(self.ids, want, sorter=order)
        found = at < len(order)
        found[found] = self.ids[order[at[found]]] == want[found]
        if not found.all():
            raise MissingArtifact(f"id {want[np.argmin(found)]} not in {self.provenance or 'the dataset'}")
        return order[at]

    def normalized_matrix(self, rows=slice(None)) -> np.ndarray:
        """The series at `rows` (all by default) l2-normalized, one per row (`normalize_rows`)."""
        return normalize_rows(self.values, self.ids, rows)


@dataclass
class SplitDataset:
    """Disjoint train/validation/test record-id partitions."""

    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray
    seed: int
    ratios: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        self.train_ids = np.asarray(self.train_ids, dtype=np.int64)
        self.val_ids = np.asarray(self.val_ids, dtype=np.int64)
        self.test_ids = np.asarray(self.test_ids, dtype=np.int64)
        all_ids = np.concatenate([self.train_ids, self.val_ids, self.test_ids])
        if len(np.unique(all_ids)) != len(all_ids):
            raise UsageError("split partitions overlap")


_DELIMITERS = {"csv": ",", "csv_id": ",", "ucr": "\t"}
_INT64_BOUND = 2**63  # an id v becomes an int64 iff -2**63 <= v < 2**63
_EXACT_ID_BOUND = 2.0**53  # a float64 holds every integer of smaller magnitude exactly


def _lines_within_field_limit(fh):
    """The lines of `fh`, raising ValueError at the first longer than `csv`'s field limit."""
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit:  # it could hold a field numpy takes and the loop refuses
            raise ValueError(f"a line longer than {limit} characters")
        yield line


def _vectorised_rows(fh, fmt):
    """`(ids, values, n_constant)` by the rules of `_loop_rows`, from one call to numpy's C reader on `fh`.

    Returns None when that reader cannot take the file, when a row breaks a
    rule whose error names its line (a repeated id, a line past `csv`'s
    field limit), since only the loop tracks lines, or when an id reaches
    2**53 in magnitude, where its float64 may not be the integer written.
    The reader accepts a subset of what the loop accepts (no quotes,
    underscores or non-ASCII digits), and its float conversion is correctly
    rounded like `float`, so every value it returns has the bits the loop
    would give.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on a file with no data rows
            lines = _lines_within_field_limit(fh)
            table = np.loadtxt(lines, delimiter=_DELIMITERS[fmt], comments=None, ndmin=2, dtype=np.float64)
    except (ValueError, Warning):  # a byte that is not UTF-8 is a lone surrogate, which no number holds
        return None
    if not np.isfinite(table).all():
        return None
    if fmt == "csv_id":
        first = table[:, 0]
        if not (np.abs(first) < _EXACT_ID_BOUND).all():
            return None
        ids = first.astype(np.int64)  # truncates toward zero, as `int` does
    else:
        ids = np.arange(len(table))
    values = table if fmt == "csv" else table[:, 1:]
    if values.shape[1] < 4:
        return None
    keep = ~is_constant(values.max(axis=1), values.min(axis=1))
    if len(np.unique(ids[keep])) < np.count_nonzero(keep):
        return None
    return ids[keep], values[keep], len(table) - int(np.count_nonzero(keep))


def _not_utf8_or(error, lineno, text):
    """A ParseError at `lineno` when `text` holds a byte that is not UTF-8 (a lone surrogate), else `error`."""
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError(lineno, f"not UTF-8 text ({exc.reason})")
    return error


def _loop_rows(fh, fmt):
    """`(ids, values, n_constant)` row by row from the start of `fh`, raising the typed error of the first bad line."""
    fh.seek(0)  # numpy's pass may have read some of it
    fh.reconfigure(newline="")  # line ends kept, as `csv` needs; numpy's pass takes lines 2x as fast without
    record = []  # the lines `csv` has read since it gave the last row, kept as `rows` reads them
    ids, data, line_of = [], [], {}  # line_of: kept id -> its line
    width, n_constant, lineno = None, 0, 0
    rows = csv.reader((record.append(line) or line for line in fh), delimiter=_DELIMITERS[fmt])
    try:
        for lineno, row in enumerate(rows, start=1):
            text = "".join(record)
            record.clear()
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise _not_utf8_or(RaggedRows(lineno, f"expected {width} columns, got {len(row)}"), lineno, text)
            try:
                nums = [float(tok) for tok in row]
            except ValueError as exc:
                raise _not_utf8_or(ParseError(lineno, str(exc)), lineno, text) from None
            for tok, num in zip(row, nums):
                if not math.isfinite(num):
                    raise ParseError(lineno, f"non-finite value {tok!r}")
            if fmt == "csv_id":
                try:
                    rid = int(row[0])  # exact at any size
                except ValueError:
                    rid = int(nums[0])  # a token such as "3.0"
                if not -_INT64_BOUND <= rid < _INT64_BOUND:
                    raise ParseError(lineno, f"id {row[0]!r} is outside the int64 range")
                vals = nums[1:]
            elif fmt == "ucr":
                rid, vals = len(ids) + n_constant, nums[1:]  # label column dropped
            else:
                rid, vals = len(ids) + n_constant, nums
            if len(vals) < 4:
                raise ParseError(lineno, f"series length {len(vals)} < 4")
            if is_constant(max(vals), min(vals)):
                n_constant += 1
                continue
            if rid in line_of:
                raise ParseError(lineno, f"id {rid} repeats the id of line {line_of[rid]}")
            line_of[rid] = lineno
            ids.append(rid)
            data.append(vals)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise _not_utf8_or(ParseError(lineno + 1, str(exc)), lineno + 1, "".join(record)) from None
    return ids, data, n_constant


def load_csv(path, fmt: str = "csv") -> Dataset:
    """Load a dataset from disk.

    fmt "csv":    comma-separated doubles, one series per row, ids = row order.
    fmt "csv_id": like "csv" with a leading integer id column.
    fmt "ucr":    tab-separated UCR style; the leading class label is dropped.

    The file is read as UTF-8. A missing path, or a directory, raises
    `MissingArtifact`. Constant rows are rejected with a warning and counted
    in `n_constant_dropped`; they would make the correlation undefined. A
    non-finite value anywhere, or a line that is not UTF-8, is a `ParseError`.

    The file is opened once, and its one text handle is parsed in one
    vectorised pass. A file that pass cannot take or that breaks a row rule
    is read again from the handle's start line by line, which gives the same
    values or raises the error naming the first bad line. A file that cannot
    be rewound (a pipe) is first read into memory as bytes.
    """
    if fmt not in _DELIMITERS:
        raise UsageError(f"unknown format {fmt!r}")
    with open_input(path, "data file", "rb") as raw:
        buffer = raw if raw.seekable() else io.BytesIO(raw.read())
        with io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape") as fh:
            rows = _vectorised_rows(fh, fmt)
            ids, values, n_constant = _loop_rows(fh, fmt) if rows is None else rows

    if n_constant:
        log.warning("%s: dropped %d constant series", path, n_constant)
    if len(ids) == 0:
        raise EmptyFile(f"{path}: {'all rows were constant' if n_constant else 'no data rows'}")
    return Dataset(
        ids=ids,
        values=values,
        provenance=f"{fmt}:{path}",
        n_constant_dropped=n_constant,
    )


def save_csv(ds: Dataset, path) -> None:
    """Write as `csv_id` rows, each value as `repr(float)`.

    That is the shortest decimal string that reads back to the same double
    (Steele & White 1990; Gay 1990), so `load_csv` gives the same bits; a
    value read from a few printed digits is written with those digits, not
    17. Rows are converted one at a time, so the matrix is never held as
    Python floats.
    """
    with atomic_write(path, newline="") as fh:
        fh.writelines(
            f"{rid}," + ",".join(map(repr, row.tolist())) + "\n" for rid, row in zip(ds.ids.tolist(), ds.values)
        )


def ratios_ok(ratios) -> bool:
    """True for three nonnegative ratios summing to 1; NaN fails the sum."""
    return len(ratios) == 3 and min(ratios) >= 0 and abs(sum(ratios) - 1.0) <= 1e-9


def split(ds: Dataset, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> SplitDataset:
    """Seeded shuffle, then partition record ids; remainder goes to train."""
    n = ds.n
    if n < 10:
        raise TooSmall(f"need at least 10 series to split, got {n}")
    if not ratios_ok(ratios):
        raise UsageError("ratios must be three values summing to 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_val - n_test
    shuffled = ds.ids[perm]
    return SplitDataset(
        train_ids=shuffled[:n_train],
        val_ids=shuffled[n_train : n_train + n_val],
        test_ids=shuffled[n_train + n_val :],
        seed=seed,
        ratios=tuple(ratios),
    )


def _inverse_real_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Invert a scaled, conjugate-symmetric spectrum to a real series."""
    big_m = coeffs.shape[-1]
    x = np.fft.ifft(coeffs, axis=-1) * np.sqrt(big_m)
    if np.max(np.abs(x.imag)) > 1e-9:
        raise AssertionError("spectrum was not conjugate-symmetric")
    return x.real


def _mirror_half_spectrum(half: np.ndarray, big_m: int) -> np.ndarray:
    """Build a full length-M spectrum from coefficients 1..M/2 (DC = 0)."""
    n = half.shape[0]
    coeffs = np.zeros((n, big_m), dtype=np.complex128)
    coeffs[:, 1 : big_m // 2 + 1] = half
    coeffs[:, big_m // 2 + 1 :] = np.conj(half[:, -2::-1])
    return coeffs


def gen_example1(n: int, big_m: int, seed: int = 0) -> Dataset:
    """Series whose spectrum repeats its first quarter in the second.

    Coefficients 1..M/4-1 are random complex; the quarter-boundary
    coefficient M/4 (and with it the Nyquist M/2) is zero so the inverse
    transform is real and 4*d_{M/4}^2 == 2 - 2*corr holds exactly.
    """
    if big_m < 8 or big_m % 4 != 0:
        raise InvalidM(f"M={big_m} must be a multiple of 4, at least 8")
    rng = np.random.default_rng(seed)
    q = big_m // 4
    quarter = np.zeros((n, q), dtype=np.complex128)
    quarter[:, : q - 1] = (
        rng.standard_normal((n, q - 1)) + 1j * rng.standard_normal((n, q - 1))
    ) / np.sqrt(2.0)
    half = np.concatenate([quarter, quarter], axis=1)  # indices 1..M/2, Nyquist = 0
    values = _inverse_real_spectrum(_mirror_half_spectrum(half, big_m))
    return Dataset(
        ids=np.arange(n),
        values=values,
        provenance=f"gen_example1(n={n}, M={big_m}, seed={seed})",
    )


def _example2_half_spectra(n: int, big_m: int, m: int, eps: float, seed: int):
    """The random draws behind `gen_example2`, as half-spectra (coefficients 1..M/2).

    Returns `(base, noise)`: the shared base, shape (M/2,), and each series'
    scaled noise `noise * scale * sigma`, shape (n, M/2). Series i has the
    half-spectrum `base + noise[i]`.
    """
    if big_m < 8 or big_m % 2 != 0:
        raise InvalidM(f"M={big_m} must be even, at least 8")
    if not 1 <= m < big_m // 2:
        raise InvalidM(f"m={m} outside [1, M/2) for M={big_m}")
    rng = np.random.default_rng(seed)
    n_half = big_m // 2  # coefficients 1..M/2; the last one is the (real) Nyquist

    base = np.empty(n_half, dtype=np.complex128)
    base[:-1] = (rng.standard_normal(n_half - 1) + 1j * rng.standard_normal(n_half - 1)) / np.sqrt(2.0)
    base[-1] = rng.standard_normal()
    base[:m] = 0.0
    sigma = rng.uniform(0.5, 1.5, size=n_half)

    noise = np.empty((n, n_half), dtype=np.complex128)
    noise[:, :-1] = (
        rng.standard_normal((n, n_half - 1)) + 1j * rng.standard_normal((n, n_half - 1))
    ) / np.sqrt(2.0)
    noise[:, -1] = rng.standard_normal(n)

    scale = np.ones(n_half)
    scale[:m] = eps
    return base, noise * (scale * sigma)[np.newaxis, :]


def gen_example2(n: int, big_m: int, m: int, eps: float = 0.01, seed: int = 0) -> Dataset:
    """Shared base spectrum, eps-scale noise on coefficients 1..m, unit elsewhere.

    The base is zero on coefficients 1..m: series norms vary across the pool,
    and a nonzero shared value there would couple that norm spread into the
    truncated coordinates after per-series normalization, handing the
    truncation baseline a ranking signal this family is built to deny it.
    """
    base, noise = _example2_half_spectra(n, big_m, m, eps, seed)
    half = base[np.newaxis, :] + noise
    values = _inverse_real_spectrum(_mirror_half_spectrum(half, big_m))
    return Dataset(
        ids=np.arange(n),
        values=values,
        provenance=f"gen_example2(n={n}, M={big_m}, m={m}, eps={eps}, seed={seed})",
    )

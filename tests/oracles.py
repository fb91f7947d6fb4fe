"""Reference math for the tests, in plain numpy and apart from the package:
the scaled DFT as the direct O(M^2) sum, and Pearson correlation from the
covariance formula and from `np.corrcoef`. Nothing here imports corrspace,
so a test that compares against it does not check the code with itself.
"""

import numpy as np


def dft_direct(x):
    """Scaled DFT (1/sqrt(M)) * sum_l x_l e^{-2pi i jl/M} of a series, or of
    each row of a matrix, by the O(M^2) sum, independent of np.fft."""
    x = np.asarray(x, dtype=np.float64)
    big_m = x.shape[-1]
    j = np.arange(big_m)
    w = np.exp(-2j * np.pi * np.outer(j, j) / big_m)  # symmetric, so x @ w == w @ x for a series
    return (x @ w) / np.sqrt(big_m)


def corr_direct(a, b):
    """Pearson correlation of two series, or of each row of `a` with the same
    row of `b`: covariance over the product of the spreads."""
    da = np.asarray(a, dtype=np.float64)
    db = np.asarray(b, dtype=np.float64)
    da = da - da.mean(axis=-1, keepdims=True)
    db = db - db.mean(axis=-1, keepdims=True)
    return np.sum(da * db, axis=-1) / np.sqrt(np.sum(da * da, axis=-1) * np.sum(db * db, axis=-1))


def corr_matrix(q, pool):
    """Pearson correlation of every row of `q` (or the one series `q`) with
    every row of `pool`, one row per query, by `np.corrcoef`."""
    q = np.atleast_2d(q)
    return np.corrcoef(q, pool)[: len(q), len(q) :]


def by_correlation(q, pool, ids, without=None):
    """(ids, correlations) of the rows of `pool` with the series `q`, most
    correlated first and ties by id, leaving out the id `without`."""
    ids = np.asarray(ids)
    corr = corr_matrix(q, pool)[0]
    order = np.lexsort((ids, -corr))
    order = order[ids[order] != without]
    return ids[order], corr[order]

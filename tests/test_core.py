"""Core math on the batch path the pipeline runs: `normalize_rows`, the
scaled DFT inside `features_matrix`, and the distance identities they give.

Expected values come from `oracles` (direct formula evaluation, brute-force
sums in plain numpy), never from the functions under test.
"""

import numpy as np
import pytest

from corrspace.core import normalize_rows
from corrspace.embed import features_matrix
from corrspace.errors import ConstantSeries
from oracles import corr_direct, dft_direct


def norm(*rows):
    """`normalize_rows` of the given series, one per row."""
    values = np.array(rows, dtype=np.float64)
    return normalize_rows(values, np.arange(len(values)))


def spectrum(h):
    """Coefficients 1..floor(M/2) of each row of `h`, from its `features_matrix` columns."""
    f = features_matrix(np.atleast_2d(h))
    return f[:, 0::2] + 1j * f[:, 1::2]


def truncated_d2(h_s, h_r, m):
    """Squared distance over coefficients 1..m (DC excluded) of two rows, from their features."""
    f = features_matrix(np.vstack([h_s, h_r]))
    d = f[0, : 2 * m] - f[1, : 2 * m]
    return float(np.dot(d, d))


def interleave(c):
    """Re/Im of the complex coefficients `c`, interleaved as `features_matrix` lays them out."""
    out = np.empty(2 * c.size)
    out[0::2], out[1::2] = c.real, c.imag
    return out


# ---------------------------------------------------------- normalize_rows

def test_normalize_ramp():
    h = norm([1.0, 2.0, 3.0])
    np.testing.assert_allclose(h[0], np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_normalize_constant_raises():
    with pytest.raises(ConstantSeries):
        norm([5.0, 5.0, 5.0])


def test_normalize_invariants_random():
    rng = np.random.default_rng(7)
    raw = [rng.standard_normal(64) * rng.uniform(0.1, 100) + rng.uniform(-50, 50) for _ in range(50)]
    for row in norm(*raw):
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-9
        assert abs(row.sum()) <= 1e-9


# -------------------------------------- correlation of normalized rows

def test_pearson_perfect_linear():
    h = norm([1, 2, 3], [2, 4, 6])
    assert float(h[0] @ h[1]) == pytest.approx(1.0)


def test_pearson_reversed_ramp():
    h = norm([1, 2, 3], [3, 2, 1])
    assert float(h[0] @ h[1]) == pytest.approx(-1.0)


def test_pearson_against_raw_formula():
    rng = np.random.default_rng(11)
    for trial in range(20):
        a = rng.standard_normal(100)
        b = rng.standard_normal(100) + 0.5 * a
        h = norm(a, b)
        assert float(h[0] @ h[1]) == pytest.approx(corr_direct(a, b), abs=1e-12)


def test_pearson_matches_numpy_corrcoef():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    h = norm(a, b)
    assert float(h[0] @ h[1]) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)


def test_pearson_distance_identity():
    # corr == 1 - ||s_hat - r_hat||^2 / 2 for every non-constant pair
    rng = np.random.default_rng(13)
    for trial in range(200):
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        h = norm(a, b)
        rhs = 1.0 - float(np.sum((h[0] - h[1]) ** 2)) / 2.0
        assert abs(corr_direct(a, b) - rhs) <= 1e-9


# ------------------------------------------------ the FFT of features_matrix

def test_dft_impulse():
    np.testing.assert_allclose(spectrum([1.0, 0.0, 0.0, 0.0])[0], np.full(2, 0.5 + 0j), atol=1e-12)


def test_dft_constant_is_dc_only():
    np.testing.assert_allclose(features_matrix(np.full((1, 8), 3.0)), 0, atol=1e-12)


def test_dft_matches_direct_sum():
    rng = np.random.default_rng(17)
    for n in (4, 9, 32, 100):
        x = rng.standard_normal(n)
        want = interleave(dft_direct(x)[1 : n // 2 + 1])
        np.testing.assert_allclose(features_matrix(x[np.newaxis])[0], want, atol=1e-9)


def test_dft_parseval_and_conjugate_symmetry():
    # the features keep coefficients 1..M/2; DC is the mean's, and the upper
    # half mirrors the lower, so a coefficient below Nyquist counts twice
    rng = np.random.default_rng(19)
    for trial in range(1000):
        x = rng.standard_normal(rng.choice([8, 16, 33, 64]))
        big_m = x.size
        c = spectrum(x)[0]
        energy = x.sum() ** 2 / big_m + 2.0 * np.sum(np.abs(c) ** 2)
        if big_m % 2 == 0:
            energy -= abs(c[-1]) ** 2  # Nyquist, counted once
        assert abs(energy - np.sum(x * x)) <= 1e-9
        upper = dft_direct(x)
        for j in (1, big_m // 3, big_m // 2):
            assert abs(c[j - 1] - np.conj(upper[big_m - j])) <= 1e-9


def test_dft_of_normalized_has_zero_dc():
    rng = np.random.default_rng(23)
    for row in norm(*rng.standard_normal((100, 48))):
        assert abs(dft_direct(row)[0]) <= 1e-9


# ------------------------------------- truncated distance over the features

def test_truncated_distance_identity_case():
    h = norm(np.random.default_rng(29).standard_normal(16))[0]
    for m in range(1, 8):
        assert truncated_d2(h, h, m) == 0.0


def test_truncated_distance_monotone_and_symmetric():
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal(32), rng.standard_normal(32)
    prev = 0.0
    for m in range(1, 16):
        d = truncated_d2(a, b, m)
        assert d >= prev
        assert d == pytest.approx(truncated_d2(b, a, m))
        prev = d


def test_truncated_distance_against_direct_sum():
    rng = np.random.default_rng(37)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    ca, cb = dft_direct(a), dft_direct(b)
    for m in (1, 5, 19):
        want = float(np.sum(np.abs(ca[1 : m + 1] - cb[1 : m + 1]) ** 2))
        assert truncated_d2(a, b, m) == pytest.approx(want, abs=1e-9)


def test_full_spectrum_sum_equals_two_minus_two_corr():
    # sum over j=1..M-1 of |a_j - b_j|^2 == 2 - 2*corr for normalized input
    rng = np.random.default_rng(41)
    for trial in range(50):
        s, r = rng.standard_normal(64), rng.standard_normal(64)
        d = np.diff(spectrum(norm(s, r)), axis=0)[0]
        total = 2.0 * float(np.sum(np.abs(d) ** 2)) - abs(d[-1]) ** 2  # Nyquist counted once
        assert abs(total - (2.0 - 2.0 * corr_direct(s, r))) <= 1e-8


def test_truncated_distance_bounded_by_full_distance():
    # if corr(s, r) > 1 - eps^2/2 then d_m^2 < eps^2, because d_m^2 never
    # exceeds the full-spectrum sum 2 - 2*corr
    rng = np.random.default_rng(43)
    for trial in range(100):
        s = rng.standard_normal(32)
        r = s + rng.uniform(0.01, 2.0) * rng.standard_normal(32)
        sh, rh = norm(s, r)
        target = 2.0 - 2.0 * corr_direct(s, r)
        for m in (1, 4, 15):
            assert truncated_d2(sh, rh, m) <= target + 1e-12


def test_example1_structured_pair_identity():
    # hand-built spectra with the second quarter copying the first:
    # 4 * d_{M/4}^2 == 2 - 2*corr  (built here from scratch, not via datasets)
    rng = np.random.default_rng(47)
    big_m = 64
    q = big_m // 4

    def make_series():
        c = np.zeros(big_m, dtype=np.complex128)
        quarter = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
        c[1:q] = quarter
        c[q + 1 : 2 * q] = quarter  # copy; c[q] = c[2q] = 0 keeps it real-friendly
        c[2 * q + 1 :] = np.conj(c[1 : 2 * q][::-1])
        x = np.fft.ifft(c) * np.sqrt(big_m)
        assert np.max(np.abs(x.imag)) < 1e-9
        return x.real

    for trial in range(20):
        s, r = make_series(), make_series()
        sh, rh = norm(s, r)
        assert abs(4.0 * truncated_d2(sh, rh, q) - (2.0 - 2.0 * corr_direct(s, r))) <= 1e-8

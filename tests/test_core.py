"""Core math: normalization, Pearson correlation, scaled DFT, truncated distance.

Expected values come from independent recomputation inside the tests (direct
formula evaluation, brute-force sums), never from the functions under test.
"""

import numpy as np
import pytest

from corrspace.core import (
    FrequencyVector,
    TimeSeries,
    dft,
    distance_sq,
    normalize,
    pearson,
    truncated_distance_sq,
)
from corrspace.errors import ConstantSeries, InvalidM, LengthMismatch


def ts(values, rid=0):
    return TimeSeries(id=rid, values=np.asarray(values, dtype=np.float64))


def dft_direct(x):
    """O(M^2) evaluation of the scaled transform, independent of np.fft."""
    x = np.asarray(x, dtype=np.float64)
    big_m = x.size
    j = np.arange(big_m)
    w = np.exp(-2j * np.pi * np.outer(j, j) / big_m)
    return (w @ x) / np.sqrt(big_m)


# ---------------------------------------------------------------- normalize

def test_normalize_ramp():
    ns = normalize(ts([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(ns.values, np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_normalize_constant_raises():
    with pytest.raises(ConstantSeries):
        normalize(ts([5.0, 5.0, 5.0]))


def test_normalize_invariants_random():
    rng = np.random.default_rng(7)
    for trial in range(50):
        raw = rng.standard_normal(64) * rng.uniform(0.1, 100) + rng.uniform(-50, 50)
        ns = normalize(ts(raw, rid=trial))
        assert abs(np.linalg.norm(ns.values) - 1.0) <= 1e-9
        assert abs(ns.values.sum()) <= 1e-9


# ------------------------------------------------------------------ pearson

def test_pearson_perfect_linear():
    assert pearson(ts([1, 2, 3]), ts([2, 4, 6], 1)) == pytest.approx(1.0)


def test_pearson_reversed_ramp():
    assert pearson(ts([1, 2, 3]), ts([3, 2, 1], 1)) == pytest.approx(-1.0)


def test_pearson_against_raw_formula():
    # independent oracle: covariance over product of norms, straight from
    # the definition, no shared code with the implementation
    rng = np.random.default_rng(11)
    for trial in range(20):
        a = rng.standard_normal(100)
        b = rng.standard_normal(100) + 0.5 * a
        num = np.sum((a - a.mean()) * (b - b.mean()))
        den = np.sqrt(np.sum((a - a.mean()) ** 2) * np.sum((b - b.mean()) ** 2))
        assert pearson(ts(a), ts(b, 1)) == pytest.approx(num / den, abs=1e-12)


def test_pearson_matches_numpy_corrcoef():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    assert pearson(ts(a), ts(b, 1)) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson(ts([1, 2, 3]), ts([1, 2, 3, 4], 1))
    with pytest.raises(ConstantSeries):
        pearson(ts([1, 2, 3]), ts([4, 4, 4], 1))


def test_pearson_distance_identity():
    # corr == 1 - ||s_hat - r_hat||^2 / 2 for every non-constant pair
    rng = np.random.default_rng(13)
    for trial in range(200):
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        lhs = pearson(ts(a), ts(b, 1))
        rhs = 1.0 - distance_sq(normalize(ts(a)), normalize(ts(b, 1))) / 2.0
        assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------- dft

def test_dft_impulse():
    np.testing.assert_allclose(dft([1.0, 0.0, 0.0, 0.0]).coeffs, np.full(4, 0.5 + 0j), atol=1e-12)


def test_dft_constant_is_dc_only():
    c = dft(np.full(8, 3.0)).coeffs
    assert c[0] == pytest.approx(3.0 * np.sqrt(8))
    np.testing.assert_allclose(c[1:], 0, atol=1e-12)


def test_dft_matches_direct_sum():
    rng = np.random.default_rng(17)
    for n in (4, 9, 32, 100):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(dft(x).coeffs, dft_direct(x), atol=1e-9)


def test_dft_parseval_and_conjugate_symmetry():
    rng = np.random.default_rng(19)
    for trial in range(1000):
        x = rng.standard_normal(rng.choice([8, 16, 33, 64]))
        c = dft(x).coeffs
        assert abs(np.sum(np.abs(c) ** 2) - np.sum(x * x)) <= 1e-9
        big_m = x.size
        for j in (1, big_m // 3, big_m - 1):
            assert abs(c[j] - np.conj(c[big_m - j])) <= 1e-9


def test_dft_of_normalized_has_zero_dc():
    rng = np.random.default_rng(23)
    for trial in range(100):
        ns = normalize(ts(rng.standard_normal(48), rid=trial))
        assert abs(dft(ns.values).coeffs[0]) <= 1e-9


def test_dft_rejects_short_input():
    with pytest.raises(InvalidM):
        dft([1.0, 2.0])


# ------------------------------------------------- truncated_distance_sq

def test_truncated_distance_identity_case():
    a = dft(np.random.default_rng(29).standard_normal(16))
    for m in range(1, 8):
        assert truncated_distance_sq(a, a, m) == 0.0


def test_truncated_distance_monotone_and_symmetric():
    rng = np.random.default_rng(31)
    a, b = dft(rng.standard_normal(32)), dft(rng.standard_normal(32))
    prev = 0.0
    for m in range(1, 16):
        d = truncated_distance_sq(a, b, m)
        assert d >= prev
        assert d == pytest.approx(truncated_distance_sq(b, a, m))
        prev = d


def test_truncated_distance_against_direct_sum():
    rng = np.random.default_rng(37)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    ca, cb = dft_direct(a), dft_direct(b)
    for m in (1, 5, 19):
        want = float(np.sum(np.abs(ca[1 : m + 1] - cb[1 : m + 1]) ** 2))
        assert truncated_distance_sq(dft(a), dft(b), m) == pytest.approx(want, abs=1e-9)


def test_truncated_distance_m_range():
    a = dft(np.arange(16.0))
    for bad in (0, 8, 9, 100):  # M/2 = 8 is already out (strict)
        with pytest.raises(InvalidM):
            truncated_distance_sq(a, a, bad)
    with pytest.raises(LengthMismatch):
        truncated_distance_sq(a, dft(np.arange(8.0)), 2)


def test_full_spectrum_sum_equals_two_minus_two_corr():
    # sum over j=1..M-1 of |a_j - b_j|^2 == 2 - 2*corr for normalized input
    rng = np.random.default_rng(41)
    for trial in range(50):
        s, r = rng.standard_normal(64), rng.standard_normal(64)
        sh, rh = normalize(ts(s)).values, normalize(ts(r, 1)).values
        ca, cb = dft(sh).coeffs, dft(rh).coeffs
        total = float(np.sum(np.abs(ca[1:] - cb[1:]) ** 2))
        assert abs(total - (2.0 - 2.0 * pearson(ts(s), ts(r, 1)))) <= 1e-8


def test_truncated_distance_bounded_by_full_distance():
    # if corr(s, r) > 1 - eps^2/2 then d_m^2 < eps^2, because d_m^2 never
    # exceeds the full-spectrum sum 2 - 2*corr
    rng = np.random.default_rng(43)
    for trial in range(100):
        s = rng.standard_normal(32)
        r = s + rng.uniform(0.01, 2.0) * rng.standard_normal(32)
        sh, rh = normalize(ts(s)).values, normalize(ts(r, 1)).values
        target = 2.0 - 2.0 * pearson(ts(s), ts(r, 1))
        for m in (1, 4, 15):
            assert truncated_distance_sq(dft(sh), dft(rh), m) <= target + 1e-12


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
        sh, rh = normalize(ts(s)).values, normalize(ts(r, 1)).values
        d2 = truncated_distance_sq(dft(sh), dft(rh), q)
        assert abs(4.0 * d2 - (2.0 - 2.0 * pearson(ts(s), ts(r, 1)))) <= 1e-8


def test_frequency_vector_len():
    assert len(FrequencyVector(coeffs=np.zeros(12, dtype=complex))) == 12

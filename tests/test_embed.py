"""Embedders: frequency features, dense network forward, the two baselines,
and the CHR1 model file format.
"""

import struct

import numpy as np
import pytest

from corrspace.core import normalize_rows
from corrspace.embed import (
    MODEL_MAGIC,
    DftTruncationEmbedder,
    DownSampleEmbedder,
    LearnedEmbedder,
    NetworkParams,
    feature_width,
    features_matrix,
    forward_batch,
    load_model,
    embedder_for,
    save_model,
)
from corrspace.errors import DegenerateOutput, DimensionMismatch, InvalidM, UsageError
from corrspace.train import init_params
from oracles import corr_direct, dft_direct


def norm_ts(values, rid=0):
    """One series l2-normalized by `normalize_rows`."""
    return normalize_rows(np.asarray(values, dtype=np.float64)[np.newaxis], (rid,))[0]


def rand_normalized(rng, big_m):
    return norm_ts(rng.standard_normal(big_m))


def dft_emb(ns, m):
    return DftTruncationEmbedder(m).embed_matrix(ns[np.newaxis])[0]


def downsample_emb(ns, m):
    return DownSampleEmbedder(m).embed_matrix(ns[np.newaxis])[0]


# ----------------------------------------------------------------- features

def test_feature_width():
    assert feature_width(4) == 4
    assert feature_width(128) == 128
    assert feature_width(9) == 8  # odd M: coefficients 1..4


def test_features_of_ramp():
    ns = norm_ts([1.0, 2.0, 3.0, 4.0])
    c = dft_direct(ns)  # oracle: same values the features must carry
    got = features_matrix(ns[np.newaxis])[0]
    np.testing.assert_allclose(got, [c[1].real, c[1].imag, c[2].real, c[2].imag], atol=1e-12)


def test_features_against_direct_dft():
    rng = np.random.default_rng(3)
    for big_m in (8, 11, 64):
        x = rand_normalized(rng, big_m)
        c = dft_direct(x)
        want = np.empty(2 * (big_m // 2))
        want[0::2] = c[1 : big_m // 2 + 1].real
        want[1::2] = c[1 : big_m // 2 + 1].imag
        np.testing.assert_allclose(features_matrix(x[np.newaxis])[0], want, atol=1e-9)


def test_features_parseval_bookkeeping():
    # normalized input: 2*||features||^2 - |c_{M/2}|^2 == 1 for even M
    # (every coefficient below Nyquist appears twice in the spectrum)
    rng = np.random.default_rng(5)
    rows = np.vstack([rand_normalized(rng, 32) for _ in range(50)])
    for f in features_matrix(rows):
        nyq_sq = f[-2] ** 2 + f[-1] ** 2
        assert abs(2.0 * np.dot(f, f) - nyq_sq - 1.0) <= 1e-9


def test_features_matrix_consistent_with_single():
    rng = np.random.default_rng(7)
    rows = np.vstack([rand_normalized(rng, 16) for _ in range(5)])
    fm = features_matrix(rows)
    for i in range(5):
        np.testing.assert_array_equal(fm[i], features_matrix(rows[i : i + 1])[0])


def test_features_matrix_blocks_match_one_fft():
    # more rows than one FFT block: blocking must not move a bit
    rows = np.random.default_rng(8).standard_normal((1100, 128))
    c = np.fft.fft(rows, axis=1) / np.sqrt(128)
    want = np.empty((1100, 128))
    want[:, 0::2], want[:, 1::2] = c[:, 1:65].real, c[:, 1:65].imag
    np.testing.assert_array_equal(features_matrix(rows), want)


# ------------------------------------------------------------------ forward

def test_forward_zero_params_degenerate():
    p = NetworkParams(weights=[np.zeros((3, 4)), np.zeros((2, 3))], biases=[np.zeros(3), np.zeros(2)], seed=0)
    with pytest.raises(DegenerateOutput):
        forward_batch(p, np.ones((1, 4)))


def test_forward_identity_net_on_nonnegative_input():
    # ReLU is inactive on nonnegative input, so an identity-weight network
    # reduces to plain unit-norm projection
    p = NetworkParams(weights=[np.eye(4), np.eye(4)], biases=[np.zeros(4), np.zeros(4)], seed=0)
    x = np.array([[1.0, 2.0, 0.0, 3.0]])
    np.testing.assert_allclose(forward_batch(p, x), x / np.linalg.norm(x), atol=1e-12)


def test_forward_matches_straight_line_recomputation():
    rng = np.random.default_rng(11)
    for trial in range(10):
        p = init_params(8, 6, 3, seed=trial)
        x = rng.standard_normal(8)
        h = np.maximum(p.weights[0] @ x + p.biases[0], 0.0)
        v = p.weights[1] @ h + p.biases[1]
        want = v / (np.linalg.norm(v) + 1e-12)
        np.testing.assert_allclose(forward_batch(p, x[np.newaxis])[0], want, atol=1e-12)


def test_forward_unit_norm_and_purity():
    rng = np.random.default_rng(13)
    p = init_params(16, 32, 8, seed=1)
    for trial in range(100):
        x = rng.standard_normal((1, 16))
        y = forward_batch(p, x)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-7
        np.testing.assert_array_equal(y, forward_batch(p, x))


def test_forward_batch_width_check():
    p = init_params(8, 4, 2, seed=0)
    with pytest.raises(DimensionMismatch):
        forward_batch(p, np.zeros((1, 5)))


def test_network_params_shape_validation():
    with pytest.raises(ValueError):
        NetworkParams(weights=[np.zeros((3, 4))], biases=[np.zeros(2)], seed=0)
    with pytest.raises(ValueError):
        NetworkParams(
            weights=[np.zeros((3, 4)), np.zeros((2, 5))],  # 5 != 3, does not chain
            biases=[np.zeros(3), np.zeros(2)],
            seed=0,
        )


# ------------------------------------------------------------- dft baseline

def test_dft_baseline_identical_series():
    ns = norm_ts(np.random.default_rng(17).standard_normal(16))
    assert np.linalg.norm(dft_emb(ns, 4) - dft_emb(ns, 4)) == 0.0


def test_dft_baseline_scale_against_core_oracle():
    # ||emb(s) - emb(r)||^2 == 2 * d_{m/2}^2, i.e. the corrected distance
    # 2*||.||^2 equals 4 * d_{m/2}^2, the distance over coefficients 1..m/2
    rng = np.random.default_rng(19)
    s, r = rand_normalized(rng, 32), rand_normalized(rng, 32)
    for m in (2, 8, 14):
        d2 = np.sum((dft_emb(s, m) - dft_emb(r, m)) ** 2)
        want = 2.0 * (
            np.sum(np.abs(dft_direct(s)[1 : m // 2 + 1] - dft_direct(r)[1 : m // 2 + 1]) ** 2)
        )
        assert d2 == pytest.approx(want, abs=1e-9)


def test_dft_baseline_example1_pair_exact():
    # quarter-copy spectra: at m = M/2 the corrected baseline distance
    # reproduces 2 - 2*corr exactly
    rng = np.random.default_rng(23)
    big_m, q = 32, 8

    def make():
        c = np.zeros(big_m, dtype=np.complex128)
        quarter = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
        c[1:q] = quarter
        c[q + 1 : 2 * q] = quarter
        c[2 * q + 1 :] = np.conj(c[1 : 2 * q][::-1])
        return (np.fft.ifft(c) * np.sqrt(big_m)).real

    for trial in range(10):
        s_raw, r_raw = make(), make()
        s, r = norm_ts(s_raw), norm_ts(r_raw, 1)
        d2 = np.sum((dft_emb(s, big_m // 2) - dft_emb(r, big_m // 2)) ** 2)
        corr = corr_direct(s_raw, r_raw)
        assert abs(2.0 * d2 - (2.0 - 2.0 * corr)) <= 1e-8


def test_dft_baseline_distance_monotone_in_m():
    rng = np.random.default_rng(29)
    s, r = rand_normalized(rng, 64), rand_normalized(rng, 64)
    prev = 0.0
    for m in (2, 4, 8, 16, 32):
        d2 = float(np.sum((dft_emb(s, m) - dft_emb(r, m)) ** 2))
        assert d2 >= prev - 1e-15
        prev = d2


def test_dft_baseline_m_validation():
    ns = norm_ts(np.arange(8.0))
    for bad in (0, 1, 3, 8, 9):  # odd or out of [2, M)
        with pytest.raises(InvalidM):
            dft_emb(ns, bad)


# ------------------------------------------------------------- down-sample

def test_downsample_full_m_is_identity():
    ns = norm_ts(np.random.default_rng(31).standard_normal(12))
    np.testing.assert_allclose(downsample_emb(ns, 12), ns, atol=1e-15)


def test_downsample_ramp_indices_and_scale():
    ns = norm_ts(np.arange(8.0))
    want = ns[[0, 2, 4, 6]] * np.sqrt(2.0)
    np.testing.assert_allclose(downsample_emb(ns, 4), want, atol=1e-15)


def test_downsample_identical_series_distance_zero():
    ns = norm_ts(np.random.default_rng(37).standard_normal(20))
    for m in (1, 3, 7, 20):
        assert np.linalg.norm(downsample_emb(ns, m) - downsample_emb(ns, m)) == 0.0


def test_downsample_m_validation():
    ns = norm_ts(np.arange(8.0))
    for bad in (0, 9):
        with pytest.raises(InvalidM):
            downsample_emb(ns, bad)


# ---------------------------------------------------------------- embedders

def test_embedder_names_and_m():
    p = init_params(8, 4, 3, seed=0)
    assert LearnedEmbedder(p).m == 3
    assert DftTruncationEmbedder(4).m == 4
    assert DownSampleEmbedder(5).m == 5


@pytest.mark.parametrize("method", ["learned-order", "learned-approx"])
def test_learned_method_without_a_model_is_a_usage_error(method):
    with pytest.raises(UsageError, match=f"method {method} requires a model"):
        embedder_for(method, 4)


def test_learned_embedder_rejects_too_long_series():
    # a network trained on length-8 series (8 features) does not take the
    # 16 features of a length-16 series
    p = init_params(8, 4, 3, seed=0)
    ns = rand_normalized(np.random.default_rng(41), 16)
    with pytest.raises(DimensionMismatch):
        LearnedEmbedder(p).embed_matrix(ns[np.newaxis])


def test_learned_embedder_rejects_too_short_series():
    p = init_params(16, 4, 3, seed=0)
    ns = norm_ts(np.arange(8.0))  # only 8 features, network wants 16
    with pytest.raises(DimensionMismatch):
        LearnedEmbedder(p).embed_matrix(ns[np.newaxis])


def test_embed_matrix_agrees_with_embed():
    rng = np.random.default_rng(43)
    rows = np.vstack([rand_normalized(rng, 16) for _ in range(6)])
    for emb in (DftTruncationEmbedder(6), DownSampleEmbedder(5)):
        got = emb.embed_matrix(rows)
        for i in range(6):
            np.testing.assert_array_equal(got[i], emb.embed_matrix(rows[i : i + 1])[0])
    # the learned path goes through BLAS matmuls whose accumulation order may
    # differ with batch shape; identical to the last ulp is not guaranteed
    learned = LearnedEmbedder(init_params(16, 8, 4, seed=2))
    got = learned.embed_matrix(rows)
    for i in range(6):
        np.testing.assert_allclose(got[i], learned.embed_matrix(rows[i : i + 1])[0], rtol=0, atol=1e-12)


# ------------------------------------------------------------- model format

def test_model_round_trip_bit_exact(tmp_path):
    p = init_params(12, 7, 4, seed=99)
    path = tmp_path / "model.chr1"
    save_model(p, path)
    q = load_model(path)
    assert q.seed == 99
    assert len(q.weights) == 2
    for a, b in zip(p.weights + p.biases, q.weights + q.biases):
        np.testing.assert_array_equal(a, b)
    # byte-stable: saving the loaded model reproduces the file exactly
    path2 = tmp_path / "model2.chr1"
    save_model(q, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_layout(tmp_path):
    # parse the binary layout independently of load_model
    p = init_params(3, 2, 2, seed=5)
    path = tmp_path / "m.chr1"
    save_model(p, path)
    blob = path.read_bytes()
    assert blob[:4] == MODEL_MAGIC == b"CHR1"
    (n_layers,) = struct.unpack_from("<I", blob, 4)
    assert n_layers == 2
    rows, cols = struct.unpack_from("<II", blob, 8)
    assert (rows, cols) == (2, 3)
    w0 = np.frombuffer(blob, dtype="<f8", count=6, offset=16).reshape(2, 3)
    np.testing.assert_array_equal(w0, p.weights[0])
    (seed,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    assert seed == 5


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("at", ["weight", "bias"])
def test_save_model_refuses_non_finite_parameters(tmp_path, value, at):
    # `load_model` refuses such a file, so none is written
    p = init_params(3, 2, 2, seed=5)
    (p.weights if at == "weight" else p.biases)[1][0] = value
    path = tmp_path / "m.chr1"
    with pytest.raises(DegenerateOutput, match="non-finite"):
        save_model(p, path)
    assert not path.exists()


def test_load_model_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.chr1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_model(path)

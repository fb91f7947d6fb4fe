"""k-d tree index: exactness against brute force, tie handling, radius
queries, and the on-disk format.
"""

import hashlib
import json
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrspace import index
from corrspace.datasets import Dataset
from corrspace.embed import DftTruncationEmbedder, NetworkParams, load_model, save_model
from corrspace.errors import (
    CorruptArtifact,
    DegenerateOutput,
    DimensionMismatch,
    EmptyInput,
    MissingArtifact,
    RepeatedId,
)
from corrspace.index import (
    INDEX_MAGIC,
    KdTree,
    load_index,
    rank,
    save_index,
    threshold_radius_sq,
)
from corrspace.train import init_params


def brute_top_k(points, ids, q, k):
    """Reference answer: squared distances, ties broken by ascending id."""
    d2 = np.sum((points - q) ** 2, axis=1)
    order = np.lexsort((ids, d2))[:k]
    return ids[order], d2[order]


def assert_same_answer(res, want_ids, want_d2):
    # ids and their order are exact; the distances come from a different
    # (expanded-inner-product) kernel than the oracle, so compare to 1e-9
    np.testing.assert_array_equal(res.ids, want_ids)
    np.testing.assert_allclose(res.distances_sq, want_d2, rtol=0, atol=1e-9)


def random_tree(n, m, seed, integer=False):
    rng = np.random.default_rng(seed)
    if integer:
        points = rng.integers(0, 3, size=(n, m)).astype(np.float64)
    else:
        points = rng.standard_normal((n, m))
    ids = rng.permutation(n).astype(np.int64)
    return KdTree(points, ids), points, ids


# -------------------------------------------------------------- construction

def test_single_point():
    tree = KdTree(np.array([[1.0, 2.0]]))
    assert tree.n == 1 and tree.m == 2 and tree.height == 1
    res = tree.top_k(np.array([0.0, 0.0]), 1)
    assert list(res.ids) == [0]
    assert res.distances_sq[0] == pytest.approx(5.0)


def test_empty_rejected():
    with pytest.raises(EmptyInput):
        KdTree(np.empty((0, 3)))


def test_dimension_mismatch_on_query():
    tree = KdTree(np.random.default_rng(0).standard_normal((10, 4)))
    with pytest.raises(DimensionMismatch):
        tree.top_k(np.zeros(3), 1)
    with pytest.raises(DimensionMismatch):
        tree.within_radius(np.zeros(5), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_degenerate(bad):
    tree = KdTree(np.random.default_rng(0).standard_normal((1000, 4)))
    q = np.array([bad, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateOutput):
        tree.top_k(q, 5)
    with pytest.raises(DegenerateOutput):
        tree.within_radius(q, 1.0)


def test_negative_radius_is_refused():
    tree = KdTree(np.random.default_rng(0).standard_normal((10, 4)))
    with pytest.raises(ValueError, match="radius² must be nonnegative"):
        tree.within_radius(np.zeros(4), -1e-12)


def test_k_out_of_range():
    tree = KdTree(np.random.default_rng(0).standard_normal((10, 4)))
    with pytest.raises(ValueError):
        tree.top_k(np.zeros(4), 0)
    # too-large k is capped: the full ranking comes back
    assert len(tree.top_k(np.zeros(4), 11)) == 10


def test_height_bound():
    # balanced median splits: height <= ceil(log2 n) + 1
    for n in (1, 2, 3, 63, 64, 65, 500, 1000):
        tree = KdTree(np.random.default_rng(n).standard_normal((n, 3)))
        assert tree.height <= math.ceil(math.log2(n)) + 1 if n > 1 else tree.height == 1


def test_ids_default_to_row_numbers():
    pts = np.random.default_rng(1).standard_normal((20, 2))
    tree = KdTree(pts)
    res = tree.top_k(pts[7], 1)
    assert list(res.ids) == [7]
    assert res.distances_sq[0] == 0.0


# -------------------------------------------------------------------- top_k

def test_indexed_points_find_themselves():
    tree, points, ids = random_tree(1000, 16, seed=3)
    for row in np.random.default_rng(4).choice(1000, size=50, replace=False):
        res = tree.top_k(points[row], 1)
        assert res.ids[0] == ids[row]
        assert res.distances_sq[0] == 0.0


def test_k_equals_n_gives_full_sorted_ranking():
    tree, points, ids = random_tree(120, 4, seed=5)
    q = np.random.default_rng(6).standard_normal(4)
    res = tree.top_k(q, 120)
    assert_same_answer(res, *brute_top_k(points, ids, q, 120))
    assert np.all(np.diff(res.distances_sq) >= 0.0)


@pytest.mark.parametrize("n,m", [(50, 2), (400, 8), (1000, 16)])
def test_top_k_matches_brute_force(n, m):
    tree, points, ids = random_tree(n, m, seed=n + m)
    rng = np.random.default_rng(99)
    for k in (1, 5, min(n, 64)):
        for _ in range(25):
            q = rng.standard_normal(m)
            assert_same_answer(tree.top_k(q, k), *brute_top_k(points, ids, q, k))


def test_top_k_with_heavy_ties():
    # integer coordinates force exact distance ties; id order must decide
    tree, points, ids = random_tree(300, 3, seed=11, integer=True)
    rng = np.random.default_rng(12)
    for _ in range(40):
        q = rng.integers(0, 3, size=3).astype(np.float64)
        for k in (1, 10, 50):
            res = tree.top_k(q, k)
            want_ids, want_d2 = brute_top_k(points, ids, q, k)
            np.testing.assert_array_equal(res.ids, want_ids)
            # small-integer coordinates: both kernels are exact here
            np.testing.assert_array_equal(res.distances_sq, want_d2)


def test_duplicate_points_tie_break_by_id():
    points = np.zeros((5, 2))
    ids = np.array([42, 7, 99, 3, 55], dtype=np.int64)
    tree = KdTree(points, ids)
    res = tree.top_k(np.array([1.0, 0.0]), 3)
    assert list(res.ids) == [3, 7, 42]


def test_repeated_id_is_rejected():
    # (d², id) is a total order only over unique ids
    with pytest.raises(RepeatedId, match="id 5"):
        KdTree(np.arange(6.0).reshape(3, 2), ids=[5, 7, 5])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_rank_equals_lexsort(n, seed, data):
    # mostly few distinct d² (negative ones and -0.0 among them, as an
    # unclipped 2 − 2·corr can give), so ties are the rule; ids are a
    # shuffled sample, not in input order
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        d2 = rng.choice(np.array([-2.0**-51, -0.0, 0.0, 0.25, 1.0, 4.0])[: data.draw(st.integers(1, 6))], n)
    else:
        d2 = rng.standard_normal(n)
    ids = rng.choice(10 * n, size=n, replace=False)
    k = data.draw(st.sampled_from([1, n - 1, n, None]))
    np.testing.assert_array_equal(rank(d2, ids, k), np.lexsort((ids, d2))[:k])


def test_query_result_len():
    tree, _, _ = random_tree(30, 2, seed=13)
    assert len(tree.top_k(np.zeros(2), 7)) == 7


# ------------------------------------------------------------ within_radius

def test_within_radius_zero_at_duplicates():
    points = np.vstack([np.zeros((4, 2)), np.ones((3, 2))])
    ids = np.arange(7, dtype=np.int64)
    tree = KdTree(points, ids)
    res = tree.within_radius(np.zeros(2), 0.0)
    assert sorted(res.ids) == [0, 1, 2, 3]


def test_within_radius_matches_brute_filter():
    tree, points, ids = random_tree(500, 8, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(25):
        q = rng.standard_normal(8)
        r2 = float(rng.uniform(0.5, 30.0))
        res = tree.within_radius(q, r2)
        d2 = np.sum((points - q) ** 2, axis=1)
        keep = d2 <= r2
        want_ids, want_d2 = brute_top_k(points[keep], ids[keep], q, int(keep.sum()))
        assert_same_answer(res, want_ids, want_d2)


def test_within_radius_monotone_in_radius():
    tree, _, _ = random_tree(200, 4, seed=19)
    q = np.random.default_rng(20).standard_normal(4)
    sizes = [len(tree.within_radius(q, r2)) for r2 in (0.0, 0.5, 2.0, 8.0, 1e6)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 200


def test_within_radius_covers_everything_at_diameter():
    tree, points, _ = random_tree(64, 3, seed=21)
    q = points.mean(axis=0)
    diameter_sq = np.max(np.sum((points - q) ** 2, axis=1))
    assert len(tree.within_radius(q, diameter_sq)) == 64


def test_top_k_and_radius_agree_at_kth_distance():
    # with all pairwise distances distinct, the radius query at the k-th
    # top_k distance returns exactly the top-k set
    tree, points, ids = random_tree(150, 6, seed=23)
    q = np.random.default_rng(24).standard_normal(6)
    for k in (1, 10, 40):
        top = tree.top_k(q, k)
        ball = tree.within_radius(q, float(top.distances_sq[-1]))
        assert sorted(ball.ids) == sorted(top.ids)


# ---------------------------------------------------------------- threshold

def test_threshold_radius_sq():
    assert threshold_radius_sq(0.9) == pytest.approx(0.1)
    assert threshold_radius_sq(0.0) == pytest.approx(1.0)
    assert threshold_radius_sq(0.9, slack=2.0) == pytest.approx(0.2)


def test_threshold_radius_rejects_bad_eta():
    with pytest.raises(ValueError):
        threshold_radius_sq(1.5)
    with pytest.raises(ValueError):
        threshold_radius_sq(-1.1)
    with pytest.raises(ValueError):
        threshold_radius_sq(0.5, slack=0.0)


# ------------------------------------------------------------------- format

def test_save_load_round_trip(tmp_path):
    tree, points, ids = random_tree(200, 8, seed=25)
    path = tmp_path / "idx.bin"
    save_index(tree, str(path), meta={"method": "dft", "m": 8})
    loaded, meta = load_index(str(path))
    assert meta == {"method": "dft", "m": 8}
    assert (loaded.n, loaded.m) == (tree.n, tree.m)
    q = np.random.default_rng(26).standard_normal(8)
    for k in (1, 17, 200):
        a, b = tree.top_k(q, k), loaded.top_k(q, k)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances_sq, b.distances_sq)


def test_save_load_empty_meta(tmp_path):
    tree, _, _ = random_tree(10, 2, seed=27)
    path = tmp_path / "idx.bin"
    save_index(tree, str(path))
    _, meta = load_index(str(path))
    assert meta == {}


def test_index_file_layout(tmp_path):
    # buckets of at most 3: 11 points split by axis 0 at 5, then each half
    # by axis 1 at its midpoint (ties by id), so the payload holds the rows
    # in that order and the buckets hold 2, 3, 3 and 3 of them
    rng = np.random.default_rng(29)
    points, ids = rng.standard_normal((11, 3)), rng.permutation(11).astype(np.int64)
    with mock.patch.object(index, "BUCKET", 3):
        tree = KdTree(points, ids)
    path = tmp_path / "idx.bin"
    save_index(tree, str(path), meta={"k": 1})
    blob = path.read_bytes()
    assert blob[:4] == INDEX_MAGIC
    version, n, m = struct.unpack_from("<III", blob, 4)
    assert (version, n, m) == (2, 11, 3)
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    meta = json.loads(blob[20 : 20 + meta_len].decode("utf-8"))
    assert meta == {"k": 1}
    rest = blob[20 + meta_len :]
    assert len(rest) == 11 * 8 * (1 + 3)
    by_x = np.lexsort((ids, points[:, 0]))
    order = np.concatenate([half[np.lexsort((ids[half], points[half, 1]))] for half in (by_x[:5], by_x[5:])])
    got_ids = np.frombuffer(rest[: 11 * 8], dtype="<i8")
    got_pts = np.frombuffer(rest[11 * 8 :], dtype="<f8").reshape(11, 3)
    np.testing.assert_array_equal(got_ids, ids[order])
    np.testing.assert_array_equal(got_pts, points[order])
    np.testing.assert_array_equal(tree._sizes, [2, 3, 3, 3])
    for b, (lo, hi) in enumerate([(0, 2), (2, 5), (5, 8), (8, 11)]):
        np.testing.assert_array_equal(tree._ids[b, : hi - lo], got_ids[lo:hi])


def test_missing_index_file_is_a_missing_artifact(tmp_path):
    for path in (tmp_path / "absent.idx", tmp_path):
        with pytest.raises(MissingArtifact, match="index file not found"):
            load_index(str(path))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_index(str(path))


def test_resave_is_byte_identical(tmp_path):
    tree, _, _ = random_tree(64, 4, seed=31)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_index(tree, str(p1), meta={"m": 4})
    loaded, meta = load_index(str(p1))
    save_index(loaded, str(p2), meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------- scan cutoff regime

def test_small_inputs_use_same_contract():
    # below the leaf-scan cutoff everything is a single brute-forced leaf;
    # answers must be indistinguishable from the tree regime
    for n in (1, 2, 63, 64, 65, 130):
        tree, points, ids = random_tree(n, 5, seed=n)
        q = np.random.default_rng(1000 + n).standard_normal(5)
        k = min(n, 9)
        assert_same_answer(tree.top_k(q, k), *brute_top_k(points, ids, q, k))


# ------------------------------------------------------------ bucketed search

def full_scan(points, ids, q):
    """Every point's d² from the index's own kernel expression, and the (d², id) order."""
    block = points - q
    d2 = np.einsum("ij,ij->i", block, block)
    return d2, np.lexsort((ids, d2))


def assert_bitwise(res, ids, d2):
    np.testing.assert_array_equal(res.ids, ids)
    assert res.distances_sq.tobytes() == d2.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 3000),
    m=st.integers(1, 20),
    grid=st.booleans(),
    bucket=st.sampled_from([2, 3, 16, index.BUCKET]),
    scale=st.sampled_from([1.0, 1.0, 1e-160, 1e150, 3e150, 1e155, 1e300]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_bucketed_search_equals_full_scan_bit_for_bit(n, m, grid, bucket, scale, seed, data):
    # integer-grid points tie heavily and sit on their buckets' box faces;
    # scale 1 is listed twice to keep it the common case. At 1e-160 squares
    # underflow, from 3e150 up ‖q‖² can pass the prefilter's range or
    # overflows, and at 1e300 differences and d² overflow too
    rng = np.random.default_rng(seed)
    def draw(*shape):
        unit = rng.integers(-2, 3, size=shape).astype(np.float64) if grid else rng.standard_normal(shape)
        return unit * scale

    points, ids = draw(n, m), rng.permutation(4 * n)[:n].astype(np.int64)
    with mock.patch.object(index, "BUCKET", bucket):
        tree = KdTree(points, ids)
    q = points[rng.integers(n)] if data.draw(st.booleans()) else draw(m)
    k = data.draw(st.integers(1, n + 5))
    d2, order = full_scan(points, ids, q)
    top = order[:k]
    for seed_factor in (1, 4, 1000):  # 1000 covers every bucket unless BUCKET is 2 or 3: no filtered pass
        with mock.patch.object(index, "_SEED", seed_factor):
            res = tree.top_k(q, k)
        assert_bitwise(res, ids[top], d2[top])
        assert min(k, n) <= res.refined <= res.scanned <= n
    kth = float(d2[top[-1]])
    for r2 in (0.0, kth, math.inf):
        hit = order[d2[order] <= r2]
        res = tree.within_radius(q, r2)
        assert_bitwise(res, ids[hit], d2[hit])
        assert len(hit) <= res.refined <= res.scanned <= n


def test_padding_never_reaches_an_answer():
    # 5 points in buckets of 2 and 3: one padding row, never returned
    points = np.arange(10.0).reshape(5, 2)
    with mock.patch.object(index, "BUCKET", 3):
        tree = KdTree(points)
    assert tree._pts.shape == (2, 3, 2)
    assert sorted(tree.within_radius(np.zeros(2), math.inf).ids) == [0, 1, 2, 3, 4]
    assert sorted(tree.top_k(np.zeros(2), 99).ids) == [0, 1, 2, 3, 4]


def test_point_is_a_copy_of_the_stored_point():
    tree, points, ids = random_tree(1000, 16, seed=7)
    for row in (0, 1, 517, 999):
        got = tree.point(ids[row])
        np.testing.assert_array_equal(got, points[row])
        got[:] = np.nan  # a copy: the tree keeps its point
        np.testing.assert_array_equal(tree.point(ids[row]), points[row])
    assert tree.point(1000) is None and tree.point(-1) is None and tree.point(2**70) is None


def test_point_skips_padding_ids():
    # padding slots carry id -1, which a dataset may also use
    points = np.arange(10.0).reshape(5, 2)
    with mock.patch.object(index, "BUCKET", 3):
        tree = KdTree(points, ids=[3, 9, 4, 0, 1])
        assert tree.point(-1) is None
        tree = KdTree(points, ids=[3, 9, -1, 0, 1])
    assert tree._pts.shape == (2, 3, 2)
    np.testing.assert_array_equal(tree.point(-1), points[2])


def test_buckets_differ_in_size_by_at_most_one():
    for n in (1, 128, 129, 1000, 4097):
        tree, _, _ = random_tree(n, 3, seed=n)
        sizes = tree._sizes
        assert sizes.sum() == n and sizes.max() <= index.BUCKET and sizes.max() - sizes.min() <= 1


def test_padding_slots_and_only_they_hold_nan_and_minus_one(tmp_path):
    for n in (1, 5, 128, 129, 1000, 4097):
        tree, _, _ = random_tree(n, 3, seed=n)
        save_index(tree, str(tmp_path / "i.cix1"))
        for t in (tree, load_index(str(tmp_path / "i.cix1"))[0]):
            padding = np.arange(t._ids.shape[1]) >= t._sizes[:, np.newaxis]
            assert (t._ids == -1).sum() == padding.sum() and (t._ids[padding] == -1).all()
            assert (np.isnan(t._pts).all(axis=2) == padding).all() and not np.isnan(t._pts[~padding]).any()
        np.testing.assert_array_equal(t._pts, tree._pts)
        np.testing.assert_array_equal(t._ids, tree._ids)


def test_scanned_counts_pruned_search():
    tree, points, _ = random_tree(20_000, 4, seed=33)
    res = tree.top_k(points[0], 10)
    assert 10 <= res.scanned < tree.n // 10  # a low-m query prunes almost every bucket
    assert tree.within_radius(points[0], math.inf).scanned == tree.n


def test_seeded_bound_prunes_a_clustered_pool():
    # 40 clusters on the unit sphere at m = 16: a bound from the nearest
    # buckets holding just k points (a seed factor of 1) visited a median of
    # 16 407 of these 20 000 points per top-100, and more than 5 000 on 12 of
    # the 20 queries
    rng = np.random.default_rng(71)
    points = rng.standard_normal((40, 16))[rng.integers(40, size=20_000)] + 0.2 * rng.standard_normal((20_000, 16))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    tree = KdTree(points)
    scanned = [tree.top_k(points[row], 100).scanned for row in range(0, 20_000, 1000)]
    assert max(scanned) < 5000 and np.median(scanned) < 2000


def test_box_bound_survives_rounding_at_huge_offsets():
    # coordinates near 1e8 with gaps near 1e-8 make every subtraction round;
    # the shrunken box bound must still keep every bucket holding a tie
    rng = np.random.default_rng(35)
    points = 1e8 + rng.integers(0, 50, size=(3000, 6)) * 1e-8
    ids = np.arange(3000)
    tree = KdTree(points, ids)
    for row in rng.choice(3000, size=20, replace=False):
        q = points[row] + 3e-9
        d2, order = full_scan(points, ids, q)
        assert_bitwise(tree.top_k(q, 25), ids[order[:25]], d2[order[:25]])
        hit = order[d2[order] <= d2[order[25]]]
        assert_bitwise(tree.within_radius(q, float(d2[order[25]])), ids[hit], d2[hit])


# ---------------------------------------------------------------- prefilter

def assert_matches_full_scan(tree, points, ids, q, ks):
    """top_k at each k and within_radius at each k-th d² equal the full scan bit for bit."""
    d2, order = full_scan(points, ids, q)
    for k in ks:
        top = order[:k]
        assert_bitwise(tree.top_k(q, k), ids[top], d2[top])
        hit = order[d2[order] <= d2[top[-1]]]
        assert_bitwise(tree.within_radius(q, float(d2[top[-1]])), ids[hit], d2[hit])


def test_prefilter_keeps_the_point_on_the_bound():
    # within_radius at the k-th d² puts a point exactly on the bound on every
    # call; twins reflected through q (p − q and p' − q exact negatives, so
    # equal d²) put ties on the top-k bound in buckets the prefilter decides
    rng = np.random.default_rng(41)
    q = rng.integers(-4, 5, size=8) * 0.5
    d = rng.integers(-(2**40), 2**40, size=(1500, 8)) * 2.0**-40
    points = np.vstack([q + d, q - d])
    ids = rng.permutation(len(points)).astype(np.int64)
    tree = KdTree(points, ids)
    assert_matches_full_scan(tree, points, ids, q, range(1, 200, 3))
    unit = rng.standard_normal((5000, 16))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    tree = KdTree(unit, np.arange(5000))
    for row in rng.choice(5000, size=40, replace=False):
        assert_matches_full_scan(tree, unit, np.arange(5000), unit[row] + 0.01 * rng.standard_normal(16), (1, 10, 100))


def test_prefilter_near_duplicates():
    # d² near 1e-30 sits far below the rounding of ‖p‖² − 2⟨p, q⟩ near 1
    rng = np.random.default_rng(43)
    base = rng.standard_normal(6)
    base /= np.linalg.norm(base)
    points = np.vstack([base + rng.standard_normal((800, 6)) * 1e-15, rng.standard_normal((2000, 6))])
    ids = np.arange(len(points))
    tree = KdTree(points, ids)
    for _ in range(20):
        assert_matches_full_scan(tree, points, ids, base + rng.standard_normal(6) * 1e-15, (1, 5, 50, 400))


@pytest.mark.parametrize("scale", [1e149, 1e150, 1e154, 1e155, 1e200, 1e307])
def test_prefilter_near_overflow(scale):
    # ‖p‖² passes 2¹⁰⁰⁰ from about 1e150 and overflows from about 1e154;
    # at q = p both ‖p‖² and ⟨p, −2q⟩ overflow, so est = ∞ − ∞ is NaN and must be kept
    rng = np.random.default_rng(47)
    points = rng.standard_normal((2000, 5)) * scale
    ids = np.arange(2000)
    tree = KdTree(points, ids)
    for row in rng.choice(2000, size=10, replace=False):
        assert_matches_full_scan(tree, points, ids, points[row], (1, 7, 60))
        assert list(tree.within_radius(points[row], 0.0).ids) == [row]
    assert_matches_full_scan(tree, points, ids, np.full(5, -scale), (1, 60))
    assert len(tree.within_radius(points[0], math.inf)) == 2000


def test_prefilter_on_dft_embeddings():
    # truncated-DFT points are not unit norm: their norms spread over (0, 1]
    rng = np.random.default_rng(53)
    h = Dataset(ids=np.arange(3100), values=rng.standard_normal((3100, 64))).normalized_matrix()
    emb = DftTruncationEmbedder(6).embed_matrix(h)
    norms = np.linalg.norm(emb, axis=1)
    assert norms.max() < 1.0 and norms.min() < 0.5 * norms.max()
    points, ids = emb[:3000], np.arange(3000)
    tree = KdTree(points, ids)
    for q in emb[3000:]:
        assert_matches_full_scan(tree, points, ids, q, (1, 10, 100))


def test_prefilter_in_one_dimension():
    rng = np.random.default_rng(59)
    points = np.round(rng.standard_normal((4000, 1)), 3)  # m = 1, with ties
    ids = rng.permutation(4000).astype(np.int64)
    tree = KdTree(points, ids)
    for q in np.vstack([points[:10], rng.standard_normal((10, 1))]):
        assert_matches_full_scan(tree, points, ids, q, (1, 3, 40, 4000))


def test_prefilter_radius_zero_and_infinite():
    rng = np.random.default_rng(61)
    points = np.vstack([rng.standard_normal((3000, 8)), np.repeat(rng.standard_normal((1, 8)), 5, axis=0)])
    tree = KdTree(points)
    assert sorted(tree.within_radius(points[-1], 0.0).ids) == [3000, 3001, 3002, 3003, 3004]
    res = tree.within_radius(points[-1], math.inf)
    assert len(res) == res.refined == res.scanned == 3005


def test_refined_counts_exact_work():
    # at m = 16 on unit vectors the prefilter rules out most points the box bounds keep
    rng = np.random.default_rng(67)
    points = rng.standard_normal((20_000, 16))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    tree = KdTree(points)
    res = tree.within_radius(points[0], 1.0)
    assert len(res) <= res.refined < res.scanned // 2
    res = tree.top_k(points[0], 100)
    assert 100 <= res.refined < res.scanned // 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_degenerate(bad):
    points = np.random.default_rng(71).standard_normal((300, 4))
    points[123, 2] = bad
    with pytest.raises(DegenerateOutput):
        KdTree(points)


def test_save_writes_tree_order_from_the_bucket_layout(tmp_path):
    tree, points, ids = random_tree(1000, 5, seed=37)
    held = sum(v.nbytes for v in vars(tree).values() if isinstance(v, np.ndarray))
    assert held < 2 * points.nbytes  # one copy of the points, not two
    path = tmp_path / "idx.bin"
    save_index(tree, str(path))
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    rest = blob[20 + meta_len :]
    got_ids = np.frombuffer(rest[: 1000 * 8], dtype="<i8")
    got_pts = np.frombuffer(rest[1000 * 8 :], dtype="<f8").reshape(1000, 5)
    # bucket after bucket, each without its padding
    np.testing.assert_array_equal(got_ids, np.concatenate([b[:s] for b, s in zip(tree._ids, tree._sizes)]))
    np.testing.assert_array_equal(got_pts, np.concatenate([b[:s] for b, s in zip(tree._pts, tree._sizes)]))
    by_id = np.argsort(got_ids)  # the same rows as the input
    np.testing.assert_array_equal(got_ids[by_id], np.sort(ids))
    np.testing.assert_array_equal(got_pts[by_id], points[np.argsort(ids)])


def layout(tree):
    """Every array and number a tree holds, as bytes where it is an array."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(tree).items()}


B = index.BUCKET


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 4 * B - 1, 4 * B + 1, 8 * B + 1])
@pytest.mark.parametrize("grid", [False, True])
def test_loaded_layout_equals_the_built_one(tmp_path, n, grid):
    # a version-2 load lays out the stored rows without sorting, and gets
    # the built tree's arrays bit for bit; integer-grid points repeat
    # coordinates, so the build breaks ties by id
    tree, points, ids = random_tree(n, 3, seed=n, integer=grid)
    path = tmp_path / "idx.bin"
    save_index(tree, str(path))
    with mock.patch.object(index, "_build_order", side_effect=AssertionError("rebuilt")):
        loaded, _ = load_index(str(path))
    assert layout(loaded) == layout(tree)


def write_version_1(path, points, ids, meta):
    """A version-1 dump: the same header and sizes, rows in input order."""
    blob = json.dumps(meta, sort_keys=True).encode()
    n, m = points.shape
    head = struct.pack("<4sIIII", INDEX_MAGIC, 1, n, m, len(blob))
    path.write_bytes(head + blob + ids.astype("<i8").tobytes() + points.astype("<f8").tobytes())


@pytest.mark.parametrize("version", [0, 1, 4])
def test_index_version_not_written_is_corrupt(tmp_path, version):
    # only the versions `save_index` writes are read; a version-1 dump held
    # its rows in input order, and is rebuilt with `corrspace index`
    _, points, ids = random_tree(700, 4, seed=43, integer=True)
    path = tmp_path / "v1.bin"
    write_version_1(path, points, ids, {"method": "dft", "m": 4})
    path.write_bytes(path.read_bytes()[:4] + struct.pack("<I", version) + path.read_bytes()[8:])
    with pytest.raises(CorruptArtifact) as exc:
        load_index(str(path))
    assert str(exc.value) == f"{path}: unsupported index version {version}: rebuild it with `corrspace index`"


# ------------------------------------------------------------- artifact fuzz

DFT_META = {"method": "dft", "m": 3, "series_length": 16}
# a learned index's metadata carries the sha256 of the model that built it
LEARNED_META = {
    **DFT_META, "method": "learned-order", "model": "model.chr1", "model_sha256": hashlib.sha256(b"").hexdigest()
}


def small_index(tmp_path, meta=DFT_META):
    tree, _, _ = random_tree(5, 3, seed=39)
    path = tmp_path / "idx.cix1"
    save_index(tree, str(path), meta=meta)
    return path, path.read_bytes()


def small_model(tmp_path):
    path = tmp_path / "model.chr1"
    save_model(init_params(4, 3, 2, seed=41), path)
    return path, path.read_bytes()


def small_learned_index(tmp_path):
    """A version-3 index: it holds the model of output width m = 3 that embedded its points."""
    tree, _, _ = random_tree(5, 3, seed=39)
    path = tmp_path / "idx.cix1"
    save_index(tree, str(path), meta=LEARNED_META, model=init_params(4, 3, 3, seed=41))
    return path, path.read_bytes()


def loads_or_corrupt(loader, path, blob):
    """Loading `blob` either succeeds or raises CorruptArtifact, nothing else."""
    path.write_bytes(blob)
    try:
        loader(str(path))
    except CorruptArtifact:
        return False
    return True


@pytest.mark.parametrize(
    "make,loader", [(small_index, load_index), (small_model, load_model), (small_learned_index, load_index)]
)
def test_truncated_artifact_is_corrupt_at_every_length(tmp_path, make, loader):
    path, blob = make(tmp_path)
    for size in range(len(blob)):
        assert not loads_or_corrupt(loader, path, blob[:size]), size


@pytest.mark.parametrize(
    "make,loader", [(small_index, load_index), (small_model, load_model), (small_learned_index, load_index)]
)
def test_trailing_bytes_are_corrupt(tmp_path, make, loader):
    path, blob = make(tmp_path)
    for tail in (b"\x00", b"junk", bytes(8)):
        assert not loads_or_corrupt(loader, path, blob + tail)


def test_corrupt_index_header_and_meta_bytes_give_only_typed_errors(tmp_path):
    for meta in (DFT_META, LEARNED_META):
        path, blob = small_index(tmp_path, meta)
        (meta_len,) = struct.unpack_from("<I", blob, 16)
        for off in range(20 + meta_len):  # the fixed header and the JSON metadata
            for value in (0x00, 0x7B, 0xFF, blob[off] ^ 0x01):
                loads_or_corrupt(load_index, path, blob[:off] + bytes([value]) + blob[off + 1 :])
        for off in range(4, 20):  # any change to a size field breaks the length check
            assert not loads_or_corrupt(load_index, path, blob[:off] + bytes([blob[off] ^ 0x01]) + blob[off + 1 :])


def test_version_3_index_layout_and_round_trip(tmp_path):
    # version 2's header plus the model block's u64 length, the metadata,
    # the model's CHR1 bytes as `save_model` writes them, then the rows
    path, blob = small_learned_index(tmp_path)
    model_path = tmp_path / "model.chr1"
    save_model(init_params(4, 3, 3, seed=41), model_path)
    model_blob = model_path.read_bytes()
    magic, version, n, m, meta_len, model_len = struct.unpack_from("<4sIIIIQ", blob)
    assert (magic, version, n, m, model_len) == (INDEX_MAGIC, 3, 5, 3, len(model_blob))
    assert json.loads(blob[28 : 28 + meta_len]) == LEARNED_META
    assert blob[28 + meta_len : 28 + meta_len + model_len] == model_blob
    assert len(blob) == 28 + meta_len + model_len + 5 * 8 * (1 + 3)
    tree, meta, model = load_index(str(path), with_model=True)
    assert meta == LEARNED_META and model.flat.tobytes() == load_model(model_path).flat.tobytes()
    save_index(tree, str(path), meta, model)
    assert path.read_bytes() == blob
    # without `with_model` the index loads as any other; saved so, it is version 2
    tree, meta = load_index(str(path))
    save_index(tree, str(path), meta)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (2,)
    assert load_index(str(path), with_model=True)[2] is None


def test_version_3_header_and_model_damage_gives_only_typed_errors(tmp_path):
    path, blob = small_learned_index(tmp_path)
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    for off in range(4, 28):  # any change to a size field or the model length breaks the length check
        assert not loads_or_corrupt(load_index, path, blob[:off] + bytes([blob[off] ^ 0x01]) + blob[off + 1 :])
    model_at = 28 + meta_len
    for off in range(model_at, model_at + 16):  # the model's magic, layer count and first layer's shape
        for value in {0x00, 0x01, 0xFF, blob[off] ^ 0x01} - {blob[off]}:
            assert not loads_or_corrupt(load_index, path, blob[:off] + bytes([value]) + blob[off + 1 :])
    first_weight = model_at + 16
    damaged = blob[:first_weight] + struct.pack("<d", np.nan) + blob[first_weight + 8 :]
    with pytest.raises(CorruptArtifact, match="its model: layer 0 holds a non-finite"):
        path.write_bytes(damaged)
        load_index(str(path))


def test_version_3_model_must_give_the_points_width(tmp_path):
    tree, _, _ = random_tree(5, 3, seed=39)
    path = tmp_path / "idx.cix1"
    save_index(tree, str(path), meta=LEARNED_META, model=init_params(4, 3, 2, seed=41))
    with pytest.raises(CorruptArtifact, match="holds no model of output width 3"):
        load_index(str(path))


def test_save_index_refuses_a_non_finite_model(tmp_path):
    tree, _, _ = random_tree(5, 3, seed=39)
    params = init_params(4, 3, 3, seed=41)
    params.flat[0] = np.nan
    path = tmp_path / "idx.cix1"
    with pytest.raises(DegenerateOutput, match="not written"):
        save_index(tree, str(path), meta=LEARNED_META, model=params)
    assert list(tmp_path.iterdir()) == []


def test_corrupt_model_header_bytes_give_only_typed_errors(tmp_path):
    path, blob = small_model(tmp_path)
    # magic, layer count, then the rows/cols words of both layers
    second = 16 + 8 * (3 * 4 + 3)
    offsets = list(range(16)) + list(range(second, second + 8))
    for off in offsets:
        for value in (0x00, 0x01, 0xFF, blob[off] ^ 0x01):
            loads_or_corrupt(load_model, path, blob[:off] + bytes([value]) + blob[off + 1 :])
    for off in (4, 8, 12, second, second + 4):  # the low byte of each size word
        assert not loads_or_corrupt(load_model, path, blob[:off] + bytes([blob[off] ^ 0x01]) + blob[off + 1 :])


def damage(data, blob, fields):
    """`blob` cut short, with one bit flipped, or with one of the u32 header
    words at byte offsets `fields` rewritten (often to a small value)."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "field"]))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        return blob[: bit // 8] + bytes([blob[bit // 8] ^ 1 << bit % 8]) + blob[bit // 8 + 1 :]
    off = data.draw(st.sampled_from(fields))
    word = data.draw(st.integers(0, 8) | st.integers(0, 2**32 - 1))
    return blob[:off] + struct.pack("<I", word) + blob[off + 4 :]


@settings(max_examples=150, deadline=None)
@given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=4), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_model_fuzz_round_trip_and_damage(widths, seed, data):
    # 1-3 chained layers: save -> load -> save is byte-identical, the loaded
    # layers are views into one buffer, and damage raises only CorruptArtifact
    rng = np.random.default_rng(seed)
    shapes = list(zip(widths[1:], widths[:-1]))
    p = NetworkParams([rng.standard_normal(s) for s in shapes], [rng.standard_normal(s[0]) for s in shapes], seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.chr1"
        save_model(p, path)
        blob = path.read_bytes()
        q = load_model(path)
        assert q.seed == seed and q.flat.tobytes() == p.flat.tobytes()
        assert all(np.shares_memory(a, q.flat) for a in q.weights + q.biases)
        save_model(q, path)
        assert path.read_bytes() == blob
        fields, off = [4], 8  # the layer count, then each layer's rows and cols
        for rows, cols in shapes:
            fields += [off, off + 4]
            off += 8 + 8 * rows * (cols + 1)
        bad = damage(data, blob, fields)
        loads_or_corrupt(load_model, path, bad)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_index_fuzz_round_trip_and_damage(n, m, seed, data):
    # save -> load -> save is byte-identical; damage raises only
    # CorruptArtifact, and a damaged file that still loads (its rows in any
    # order) answers exactly like a scan of its rows
    tree, _, _ = random_tree(n, m, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.cix1"
        save_index(tree, str(path), meta={**data.draw(st.sampled_from([DFT_META, LEARNED_META])), "m": m})
        blob = path.read_bytes()
        loaded, meta = load_index(str(path))
        save_index(loaded, str(path), meta)
        assert path.read_bytes() == blob
        bad = damage(data, blob, [4, 8, 12, 16])  # version, n, m, metadata length
        _, _, n2, m2, meta_len = struct.unpack_from("<4sIIII", bad.ljust(20, b"\0"))
        size = 20 + meta_len + 8 * n2 * (1 + m2)
        if size <= 1 << 20 and data.draw(st.booleans()):  # the size the header describes
            bad = bad[:size].ljust(size, b"\0")
        if not loads_or_corrupt(load_index, path, bad):
            return
        loaded, _ = load_index(str(path))
    rows = loaded._pts.reshape(-1, loaded.m)[loaded._slots]
    ids = loaded._ids.ravel()[loaded._slots]
    q = rows[data.draw(st.integers(0, len(rows) - 1))] if data.draw(st.booleans()) else np.full(loaded.m, 0.5)
    d2, order = full_scan(rows, ids, q)
    k = data.draw(st.integers(1, len(rows)))
    assert_bitwise(loaded.top_k(q, k), ids[order[:k]], d2[order[:k]])
    r2 = float(d2[order[k - 1]])
    hit = order[d2[order] <= r2]
    assert_bitwise(loaded.within_radius(q, r2), ids[hit], d2[hit])


@pytest.mark.parametrize("n, m", [(0, 3), (5, 0)])
def test_index_header_of_no_points_or_no_width_is_corrupt(tmp_path, n, m):
    # a header that describes its own (empty) payload exactly: no size check catches it
    path, blob = small_index(tmp_path)
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    size = 20 + meta_len + 8 * n * (1 + m)
    bad = (blob[:8] + struct.pack("<II", n, m) + blob[16:])[:size].ljust(size, b"\0")
    assert not loads_or_corrupt(load_index, path, bad)


def test_non_finite_index_point_is_corrupt(tmp_path):
    path, blob = small_index(tmp_path)
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    first_point = 20 + meta_len + 5 * 8  # after the header, the metadata and 5 ids
    for bad in (np.nan, np.inf):
        damaged = blob[:first_point] + struct.pack("<d", bad) + blob[first_point + 8 :]
        assert not loads_or_corrupt(load_index, path, damaged)


def test_index_that_repeats_an_id_is_corrupt(tmp_path):
    path, blob = small_index(tmp_path)
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    ids_at = 20 + meta_len  # after the header and the metadata
    repeated = blob[: ids_at + 8] + blob[ids_at : ids_at + 8] + blob[ids_at + 16 :]  # id 1 := id 0
    assert not loads_or_corrupt(load_index, path, repeated)
    with pytest.raises(CorruptArtifact, match="repeats"):
        load_index(str(path))


def test_non_finite_model_weight_is_corrupt(tmp_path):
    path, blob = small_model(tmp_path)
    first_weight = 16  # magic, layer count, then layer 0's rows and cols
    last_bias = len(blob) - 8 - 8  # before the trailing seed
    for off in (first_weight, last_bias):
        for bad in (np.nan, -np.inf):
            damaged = blob[:off] + struct.pack("<d", bad) + blob[off + 8 :]
            assert not loads_or_corrupt(load_model, path, damaged)


def test_bad_meta_json_is_corrupt(tmp_path):
    path, blob = small_index(tmp_path)
    (meta_len,) = struct.unpack_from("<I", blob, 16)
    for bad in (b"{" + b" " * (meta_len - 1), b"[" + b" " * (meta_len - 2) + b"]", b"\xff" * meta_len):
        assert not loads_or_corrupt(load_index, path, blob[:20] + bad + blob[20 + meta_len :])

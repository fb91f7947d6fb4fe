"""Exact k-d tree over embedding vectors, searched bucket by bucket.

Median splits on a cycling dimension, ties broken by record id, so the tree
is deterministic for a fixed input order. Splitting stops at the first level
whose nodes all hold at most `BUCKET` points; those nodes are the buckets.
They all sit at the same depth and differ in size by at most one.

Layout: the points live once, bucket by bucket, in a (buckets, width, m)
array padded with NaN rows to a common width, so any set of buckets is one
fancy index. Beside it sit the ids (padding -1), the bucket sizes, each
bucket's bounding box, and `_slots`, the flat slot of each tree position.
The bucket edges in tree order depend on n alone, so `save_index` writes
the rows in tree order (one gather through `_slots`) and `load_index` lays
them out again without sorting anything.

A query is a few numpy passes. The squared distance from q to each box is
a lower bound for every point in that bucket. `top_k` scans `_SEED`
times as many of the buckets nearest q as it takes to hold k points, and
takes the k-th d² among them as its bound: the k-th d² of any subset is
at least the true one, so no answer lies beyond it, and the more buckets
the tighter it is. `within_radius` takes r². The remaining buckets whose
lower bound is within the bound are then gathered, and each of their
points gets a cheap estimate ‖p‖² − 2⟨p, q⟩ from the stored squared norms
and one matrix-vector product. Only the points whose estimate a proven
rounding margin cannot rule out get their exact d², and `rank` orders the
answer by (d², id). Every returned d² comes from `_dist_sq`, so answers
equal a brute-force scan with that kernel bit for bit, ties included; the
only approximation in the pipeline lives in the embedding itself.
"""

import json
import os
import struct

import numpy as np

from .embed import model_bytes, parse_model
from .errors import CorruptArtifact, DegenerateOutput, DimensionMismatch, EmptyInput, RepeatedId, UsageError, open_input

INDEX_MAGIC = b"CIX1"
# 2: rows in tree order. 3: version 2 plus the model that embedded the rows.
INDEX_VERSION, INDEX_VERSION_WITH_MODEL = 2, 3
_HEADER = struct.Struct("<4sIIII")  # magic, version, n, m, meta length
_MODEL_LENGTH = struct.Struct("<Q")  # version 3: the model block's length, after the header

BUCKET = 128  # most points per bucket (README "Index" has the measurements)
# `top_k` takes its bound from this many times the nearest buckets needed to
# hold k points (README "Index" has the measurements)
_SEED = 4

# Box bounds below this are set to 0, so the rounding argument in
# `KdTree._box_bounds` never meets a subnormal product or sum; the
# prefilter's margin adds it to absorb underflow (`KdTree._filtered_scan`).
_TINY = 2.0**-900
# The prefilter only drops points while ‖q‖² and the bound are at most this,
# so no sum in the estimate or threshold of a point it must keep can overflow.
_HUGE = 2.0**1000


class QueryResult:
    """Matches ordered by ascending distance², ties by ascending id.

    `scanned` counts the points of every bucket the query visited;
    `refined` counts those whose exact distance² it computed.
    """

    def __init__(self, ids: np.ndarray, distances_sq: np.ndarray, scanned: int = 0, refined: int = 0):
        self.ids = ids
        self.distances_sq = distances_sq
        self.scanned = scanned
        self.refined = refined

    def __len__(self):
        return len(self.ids)


def _dist_sq(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance from q to each row, or from each row of a matrix q to
    the same row of `rows`: the one kernel behind every d²."""
    diff = rows - q
    return np.einsum("ij,ij->i", diff, diff)


def rank(d2: np.ndarray, ids: np.ndarray, k: int | None = None) -> np.ndarray:
    """Positions of `d2` in ascending (d², id) order, only the first k if given.

    `d2` holds no NaN and `ids` no repeats, so the order is total. Takes the
    entries up to the k-th d² (`np.partition`) and sorts them by d², or by
    (d², id) when two tie; so the first sort need not be stable.
    """
    cand = np.arange(len(d2))
    if k is not None and k < len(d2):
        cand = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
    sel = d2[cand]
    order = np.argsort(sel)
    if (sel[order[1:]] == sel[order[:-1]]).any():
        order = np.lexsort((ids[cand], sel))
    return cand[order[:k]]


class KdTree:
    def __init__(self, points: np.ndarray, ids=None):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] == 0:
            raise DimensionMismatch(f"points must be (n, m) with m >= 1, got shape {points.shape}")
        n = points.shape[0]
        if n == 0:
            raise EmptyInput("cannot index zero points")
        if ids is None:
            ids = np.arange(n)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != n:
            raise DimensionMismatch("ids/points row counts differ")
        order = _build_order(points, ids, _levels(n))
        self._lay_out(points[order], ids[order])

    @classmethod
    def _from_tree_order(cls, points: np.ndarray, ids: np.ndarray):
        """The tree whose rows, in tree order, are (points, ids): what
        `save_index` writes. Any order searches exactly (boxes and norms are
        computed from the rows), so a wrong one can only make queries slower."""
        tree = cls.__new__(cls)
        tree._lay_out(points, ids)
        return tree

    def _lay_out(self, points, ids):
        """Lay out (n, m) points and their ids, given in tree order, bucket by
        bucket: the bucket edges follow from n alone (`_bucket_edges`)."""
        n, m = points.shape
        if not np.diff(np.sort(ids)).all():  # (d², id) orders points only when ids are unique
            values, counts = np.unique(ids, return_counts=True)
            raise RepeatedId(f"id {values[counts > 1][0]} repeats")
        self._levels = _levels(n)
        bounds = _bucket_edges(n, self._levels)
        sizes = np.diff(bounds)
        n_buckets, width = len(sizes), int(sizes.max())
        # tree position t in bucket b goes to flat slot b·width + (t − bounds[b])
        slot = np.repeat(np.arange(n_buckets) * width - bounds[:-1], sizes) + np.arange(n)
        # bucket sizes differ by at most one, so a bucket pads at most its last slot
        pad = np.flatnonzero(sizes < width) * width + width - 1
        pts = np.empty((n_buckets * width, m))
        pts[slot] = points
        pts[pad] = np.nan
        pad_ids = np.empty(n_buckets * width, dtype=np.int64)
        pad_ids[slot] = ids
        pad_ids[pad] = -1
        # squared norms, NaN for padding; a non-finite coordinate makes one NaN or ∞
        nn = np.einsum("ij,ij->i", pts, pts)
        odd = ~np.isfinite(nn[slot])
        if odd.any() and not np.isfinite(points[odd]).all():
            raise DegenerateOutput("cannot index a non-finite point")
        self._pts = pts.reshape(n_buckets, width, m)
        self._ids = pad_ids.reshape(n_buckets, width)
        self._slots = slot
        self._sizes = sizes
        self._smallest = int(sizes.min())
        # fmin/fmax skip the NaN padding; a loop over slot columns beats a
        # reduction over axis 1 by about 4 ms at 10⁵ points, paying for `_nn`
        self._lo, self._hi = self._pts[:, 0].copy(), self._pts[:, 0].copy()
        for j in range(1, width):
            np.fmin(self._lo, self._pts[:, j], out=self._lo)
            np.fmax(self._hi, self._pts[:, j], out=self._hi)
        # See `_box_bounds`: shrinking by 2(m+2)·2⁻⁵³ absorbs the rounding.
        self._shrink = 1.0 - 2 * (m + 2) * 2.0**-53
        # See `_filtered_scan`.
        self._nn = nn.reshape(n_buckets, width)
        self._rel = 8 * (m + 4) * 2.0**-53

    @property
    def n(self):
        return len(self._slots)

    @property
    def m(self):
        return self._pts.shape[2]

    @property
    def height(self):
        """Levels of the median-split tree, the bucket level included."""
        return self._levels + 1

    def point(self, record_id):
        """A copy of the point stored for `record_id`, or None when the index
        does not hold that id."""
        hits = np.flatnonzero(self._ids.ravel()[self._slots] == record_id)  # tree order: no padding
        return self._pts.reshape(-1, self.m)[self._slots[hits[0]]].copy() if len(hits) else None

    def _check_query(self, q):
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.m,):
            raise DimensionMismatch(f"query shape {q.shape}, index dimension {self.m}")
        if not np.isfinite(q).all():
            raise DegenerateOutput("query vector holds a non-finite value")
        return q

    def _box_bounds(self, q):
        """Per bucket, a number no larger than the computed d² of any of its points.

        Proof. Let p be a point of the bucket and c = clip(q, lo, hi) its
        box's point nearest q. Each c_j lies between q_j and p_j, so
        |c_j − q_j| ≤ |p_j − q_j|, and as rounding is monotone and odd,
        |fl(c_j − q_j)| ≤ |fl(p_j − q_j)|. `_dist_sq` sums m squares of
        these gaps; in whatever order and with or without fused
        multiply-adds, such a sum is within a factor 1 ± γ, γ = mu/(1 − mu),
        u = 2⁻⁵³, of the exact sum of squares, barring underflow. So
        D(c) ≤ (1 + γ)/(1 − γ)·D(p), with D the computed d². With
        s = 1 − 2(m + 2)u, s·(1 + γ)/(1 − γ) < 1, so the exact product
        s·D(c) is below D(p) and, D(p) being a float, the rounded product
        is no larger. Underflow adds at most m·2⁻¹⁰⁷⁴ to either sum; when
        D(c) ≥ 2⁻⁹⁰⁰ the spare 4u in s covers that, and a smaller D(c) is
        taken as 0. So pruning a bucket whose bound exceeds a threshold
        never drops a point whose computed d² is within it.
        """
        nearest = np.minimum(np.maximum(q, self._lo), self._hi)
        lb = _dist_sq(nearest, q)
        return np.where(lb < _TINY, 0.0, lb * self._shrink)

    def _scan(self, buckets, q):
        """(d², ids) of every slot of the given buckets; padding gives NaN."""
        return _dist_sq(self._pts[buckets].reshape(-1, self.m), q), self._ids[buckets].ravel()

    def _filtered_scan(self, buckets, q, bound):
        """(d², ids) of the slots of `buckets` whose computed d² may be ≤ bound.

        Each slot gets est = ‖p‖² + ⟨p, −2q⟩, its stored `_nn` plus one
        matrix-vector product, and is dropped only if est > thr, where
        thr = (bound − ‖q‖²) + 8(m + 4)·2⁻⁵³·(‖q‖² + bound) + 2⁻⁹⁰⁰, or +∞
        when ‖q‖² or bound exceeds H = 2¹⁰⁰⁰. Kept slots get their d² from
        `_dist_sq`. A NaN est (padding, or ∞ − ∞ past H) is never > thr, so
        it is kept; padding then computes to NaN and `_ranked` drops it.

        Proof that a point whose computed d² D is at most B = bound is kept.
        Let u = 2⁻⁵³, γ_j = ju/(1 − ju), and P = ‖p‖², Q = ‖q‖², G = ⟨p, q⟩
        and Δ = P + Q − 2G be exact. Past H, thr = +∞ drops nothing. Else:
        a sum of m products, rounded in any order, with or without fused
        multiply-adds, is within γ_m·Σ|product| of the exact sum, plus
        m·2⁻¹⁰⁷⁴ for underflow (sums that land among the subnormals are
        exact). `_dist_sq` also rounds each p_j − q_j, so
        D ≥ (1 − γ_{m+2})Δ − m·2⁻¹⁰⁷⁴ and Δ ≤ (1 + 2γ_{m+2})B + 2m·2⁻¹⁰⁷⁴.
        As √P ≤ √Q + √Δ, P ≤ 2Q + 2Δ: whatever the data's scale, such a
        point has P below about 2¹⁰⁰³, so no sum below overflows.
        Scaling q by −2 is exact and 2Σ|p_j q_j| ≤ P + Q, so
        nn ≤ (1 + γ_m)P + m·2⁻¹⁰⁷⁴, ⟨p, −2q⟩ ≤ −2G + γ_m(P + Q) + m·2⁻¹⁰⁷⁴
        and est ≤ Δ − Q + γ_{m+1}(2P + Q) + 3m·2⁻¹⁰⁷⁴; with the two bounds
        above, est ≤ B − Q + 7γ_{m+2}(B + Q) + 6m·2⁻¹⁰⁷⁴. The computed ‖q‖²
        is within γ_m·Q + m·2⁻¹⁰⁷⁴ of Q; it and the margin's own three
        roundings shrink the margin by at most a factor 1 − γ_{m+3}, and the
        two outer sums lose at most 3u(B + Q), so
        thr ≥ B − Q + ((8m + 32)(1 − γ_{m+3}) − m − 3)·u·(B + Q)
        + 2⁻⁹⁰⁰(1 − 3u) − (m + 2)·2⁻¹⁰⁷⁴. For m < 2²⁴ the factor on u(B + Q)
        exceeds the 7m + 15 that 7γ_{m+2} needs, and 2⁻⁹⁰⁰ covers the
        underflow terms, so est ≤ thr.
        """
        rows = self._pts[buckets].reshape(-1, self.m)
        with np.errstate(over="ignore", invalid="ignore"):  # past H, est may be ±∞ or NaN
            est = self._nn[buckets].ravel() + np.dot(rows, -2.0 * q)
            qq = float(np.dot(q, q))
        thr = np.inf
        if qq <= _HUGE and bound <= _HUGE:
            thr = (bound - qq) + (self._rel * (qq + bound) + _TINY)
        keep = np.flatnonzero(~(est > thr))
        return _dist_sq(rows[keep], q), self._ids[buckets].ravel()[keep]

    def top_k(self, q, k: int) -> QueryResult:
        """Exact k nearest neighbors (k capped at n), ties by ascending id."""
        q = self._check_query(q)
        if k < 1:
            raise UsageError("k must be at least 1")
        k = min(k, self.n)
        lb = self._box_bounds(q)
        near = np.argsort(lb)
        # the nearest ⌈k / smallest⌉ buckets hold at least k points; `_SEED`
        # times as many give a tighter k-th d², so fewer buckets pass it
        first = _SEED * -(-k // self._smallest)
        d2, ids = self._scan(near[:first], q)
        bound = np.partition(d2, k - 1)[k - 1]  # NaN padding sorts last
        cut = int(np.searchsorted(lb[near], bound, side="right"))
        if cut > first:
            more_d2, more_ids = self._filtered_scan(near[first:cut], q, bound)
            d2, ids = np.concatenate([d2, more_d2]), np.concatenate([ids, more_ids])
        return self._ranked(d2, ids, bound, near[: max(first, cut)], k)

    def within_radius(self, q, r_sq: float) -> QueryResult:
        """All points with distance² ≤ r_sq, ascending (distance², id)."""
        q = self._check_query(q)
        if r_sq < 0:
            raise UsageError("radius² must be nonnegative")
        hits = np.flatnonzero(self._box_bounds(q) <= r_sq)
        return self._ranked(*self._filtered_scan(hits, q, r_sq), r_sq, hits)

    def _ranked(self, d2, ids, bound, buckets, k=None) -> QueryResult:
        """Points among (d², ids) with d² ≤ bound by (d², id), the first k if given.

        `buckets` are the buckets the query visited; d² is NaN exactly for
        padding, so the non-NaN entries are the points refined.
        """
        refined = len(d2) - int(np.count_nonzero(np.isnan(d2)))
        keep = np.flatnonzero(d2 <= bound)  # NaN padding never passes
        d2, ids = d2[keep], ids[keep]
        order = rank(d2, ids, k)
        return QueryResult(
            ids=ids[order], distances_sq=d2[order], scanned=int(self._sizes[buckets].sum()), refined=refined
        )


def _levels(n):
    """Halvings of n points until every node holds at most `BUCKET`."""
    levels = 0
    while -(-n // 2**levels) > BUCKET:
        levels += 1
    return levels


def _halve(bounds):
    """Node edges one level down: each node [lo, hi) splits at (lo + hi) // 2."""
    edges = np.empty(2 * len(bounds) - 1, dtype=np.int64)
    edges[::2] = bounds
    edges[1::2] = (bounds[:-1] + bounds[1:]) // 2
    return edges


def _bucket_edges(n, levels):
    """Edges of the buckets in tree order: [0, n] halved `levels` times."""
    bounds = np.array([0, n])
    for _ in range(levels):
        bounds = _halve(bounds)
    return bounds


def _build_order(pts: np.ndarray, ids: np.ndarray, levels: int):
    """Input rows in tree order; the buckets are `_bucket_edges(n, levels)`.

    Each of the `levels` rounds sorts every node by (coordinate depth % m,
    id) and splits it at its midpoint. A node without ties in that
    coordinate skips the id key: `argsort` alone gives the same order.
    """
    n, m = pts.shape
    order = np.arange(n)
    bounds = np.array([0, n])
    for depth in range(levels):
        axis = depth % m
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            idx = order[lo:hi]
            col = pts[idx, axis]
            sub = np.argsort(col)
            if not (col[sub[1:]] > col[sub[:-1]]).all():  # a tie (or NaN): order it by id
                sub = np.lexsort((ids[idx], col))
            order[lo:hi] = idx[sub]
        bounds = _halve(bounds)
    return order


def threshold_radius_sq(eta: float, slack: float = 1.0) -> float:
    """Radius² for a correlation threshold η: 2‖Δ‖² ≤ 2−2η ⇒ r² = slack·(1−η)."""
    if not -1.0 <= eta <= 1.0:
        raise UsageError("threshold must be a correlation in [-1, 1]")
    if not 0 < slack < np.inf:  # NaN fails too
        raise UsageError("slack must be positive and finite")
    return slack * (1.0 - eta)


def save_index(tree: KdTree, path, meta: dict | None = None, model=None) -> None:
    """Versioned dump of ids + points in tree order, which `load_index` lays
    out again without rebuilding the tree. With `model`, the `NetworkParams`
    that embedded the points, it is a version-3 dump that holds the model's
    CHR1 bytes (`model_bytes`) after the metadata."""
    blob = json.dumps(meta or {}, sort_keys=True).encode()
    if model is None:
        front = _HEADER.pack(INDEX_MAGIC, INDEX_VERSION, tree.n, tree.m, len(blob)) + blob
    else:
        block = model_bytes(model, path)
        front = _HEADER.pack(INDEX_MAGIC, INDEX_VERSION_WITH_MODEL, tree.n, tree.m, len(blob))
        front += _MODEL_LENGTH.pack(len(block)) + blob + block
    from .files import atomic_write  # imported here: a query loads no writer

    with atomic_write(path, "wb") as fh:
        fh.write(front)
        fh.write(tree._ids.ravel()[tree._slots].astype("<i8", copy=False).tobytes())
        fh.write(tree._pts.reshape(-1, tree.m)[tree._slots].astype("<f8", copy=False).tobytes())


def load_index(path, with_model=False):
    """Load a dump written by `save_index`; returns (KdTree, meta), or
    (KdTree, meta, model) `with_model`, where model is the `NetworkParams` a
    version-3 dump holds and None for version 2.

    A missing path, or a directory, raises `MissingArtifact`; a file that is
    not a whole version-2 or version-3 `CIX1` dump, whose points are not all
    finite, whose ids repeat or whose model is not a whole CHR1 model of
    output width m, raises `CorruptArtifact`.
    """
    with open_input(path, "index file", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if head[:4] != INDEX_MAGIC:
            raise CorruptArtifact(f"{path}: not an index file")
        if len(head) < _HEADER.size:
            raise CorruptArtifact(f"{path}: {len(head)} bytes, shorter than the {_HEADER.size}-byte header")
        _, version, n, m, blob_len = _HEADER.unpack(head)
        if version not in (INDEX_VERSION, INDEX_VERSION_WITH_MODEL):
            raise CorruptArtifact(f"{path}: unsupported index version {version}: rebuild it with `corrspace index`")
        if n == 0 or m == 0:  # `save_index` writes neither: `KdTree` holds at least one point of width >= 1
            raise CorruptArtifact(f"{path}: header describes {n} points of width {m}")
        model_len = 0
        if version == INDEX_VERSION_WITH_MODEL:
            word = fh.read(_MODEL_LENGTH.size)
            if len(word) < _MODEL_LENGTH.size:
                raise CorruptArtifact(f"{path}: shorter than the version-3 header")
            (model_len,) = _MODEL_LENGTH.unpack(word)
        want = fh.tell() + blob_len + model_len + 8 * n * (1 + m)
        if size != want:
            raise CorruptArtifact(f"{path}: {size} bytes, but its header describes {want}")
        try:
            meta = json.loads(fh.read(blob_len).decode())
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise CorruptArtifact(f"{path}: unreadable metadata ({exc})")
        if not isinstance(meta, dict):
            raise CorruptArtifact(f"{path}: metadata is not a JSON object")
        model = parse_model(fh.read(model_len), f"{path}: its model") if model_len else None
        if version == INDEX_VERSION_WITH_MODEL and (model is None or model.output_width != m):
            raise CorruptArtifact(f"{path}: holds no model of output width {m}")
        rows = np.empty(8 * n * (1 + m), dtype=np.uint8)  # read straight into an array: no copy of the file
        if fh.readinto(rows) != rows.size:  # the file shrank since `fstat`
            raise CorruptArtifact(f"{path}: shorter than its header describes")
    ids, pts = rows[: 8 * n].view("<i8"), rows[8 * n :].view("<f8").reshape(n, m)
    try:
        tree = KdTree._from_tree_order(pts, ids)
    except (DegenerateOutput, RepeatedId) as exc:  # the tree's own checks: finite points, unique ids
        raise CorruptArtifact(f"{path}: {exc}")
    return (tree, meta, model) if with_model else (tree, meta)

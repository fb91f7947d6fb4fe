"""Exact k-d tree over embedding vectors, searched bucket by bucket.

Median splits on a cycling dimension, ties broken by record id, so the tree
is deterministic for a fixed input order. Splitting stops at the first level
whose nodes all hold at most `BUCKET` points; those nodes are the buckets.
They all sit at the same depth and differ in size by at most one.

Layout: the points live once, bucket by bucket, in a (buckets, width, m)
array padded with NaN rows to a common width, so any set of buckets is one
fancy index. Beside it sit the ids (padding -1), the bucket sizes, each
bucket's bounding box, and `_slots`, the flat slot of each tree position.
The bucket edges in tree order, and so every slot, depend on n alone
(`_layout`): `save_index` writes the runs of real slots between the
padding, which hold the rows in tree order, and `load_index` reads them
straight back into their slots, with no row buffer, sort or scatter.

A query is a few numpy passes. The squared distance from q to each box is
a lower bound for every point in that bucket. `top_k` scans `_SEED`
times as many of the buckets nearest q as it takes to hold k points, and
takes the k-th d² among them as its bound: the k-th d² of any subset is
at least the true one, so no answer lies beyond it, and the more buckets
the tighter it is. `within_radius` takes r². The remaining buckets whose
lower bound is within the bound are then gathered from a float32 copy of
the points and norms, made on the first such gather, and each of their
points gets a cheap estimate ‖p‖² − 2⟨p, q⟩ from one float32
matrix-vector product. Only the points whose estimate a proven rounding
margin cannot rule out are gathered in float64 and get their exact d²;
past the range that proof covers, every point of those buckets gets its
exact d² instead. `rank` orders the answer by (d², id). Every returned d²
comes from `_dist_sq`, so answers equal a brute-force scan with that
kernel bit for bit, ties included; the only approximation in the pipeline
lives in the embedding itself.
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
# `KdTree._box_bounds` never meets a subnormal product or sum.
_TINY = 2.0**-900
# The prefilter estimates in float32 while ‖q‖² and the bound are at most
# this, every |coordinate| of the pool at most its square root and m at most
# `_WIDEST32`; then no float32 sum overflows (`KdTree._filtered_scan`).
_HUGE32 = 2.0**100
_WIDEST32 = 2**16
# The float32 threshold's absolute term: it absorbs float32 underflow.
_TINY32 = 2.0**-120


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
        n, m = points.shape
        if n == 0:
            raise EmptyInput("cannot index zero points")
        if ids is None:
            ids = np.arange(n)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != n:
            raise DimensionMismatch("ids/points row counts differ")
        levels = _levels(n)
        order = _build_order(points, ids, levels)
        pts, pad_ids, slot, pad, _ = _layout(n, m, levels)
        pts.reshape(-1, m)[slot], pad_ids.ravel()[slot] = points[order], ids[order]
        self._lay_out(pts, pad_ids, slot, pad)

    def _lay_out(self, pts, ids, slot, pad):
        """Take a `_layout` whose real slots hold the points and ids in tree
        order: pad it, check it and make the bucket boxes. Any order searches
        exactly (the boxes are computed from the rows), so a wrong one can
        only make queries slower."""
        n_buckets, width, m = pts.shape
        real = ids.ravel()[slot]
        real.sort()  # in place: a load's peak memory falls here
        if not (real[1:] != real[:-1]).all():  # (d², id) orders points only when ids are unique
            values, counts = np.unique(real, return_counts=True)
            raise RepeatedId(f"id {values[counts > 1][0]} repeats")
        pts.reshape(-1, m)[pad] = np.nan
        ids.ravel()[pad] = -1
        sizes = np.full(n_buckets, width)
        sizes[pad // width] -= 1
        self._pts, self._ids, self._slots, self._sizes = pts, ids, slot, sizes
        self._levels = n_buckets.bit_length() - 1  # 2**levels buckets
        self._smallest = int(sizes.min())
        # slot columns 0…smallest−1 hold a point in every bucket, the last
        # column only in full ones; np.minimum/maximum carry a NaN into the
        # box, so the boxes are all finite exactly when the points are. The
        # loop beats a reduction over axis 1: about 4 against 8 ms at 10⁵ points
        self._lo, self._hi = pts[:, 0].copy(), pts[:, 0].copy()
        for j in range(1, self._smallest):
            np.minimum(self._lo, pts[:, j], out=self._lo)
            np.maximum(self._hi, pts[:, j], out=self._hi)
        if width > self._smallest:
            full = np.flatnonzero(sizes == width)
            self._lo[full] = np.minimum(self._lo[full], pts[full, -1])
            self._hi[full] = np.maximum(self._hi[full], pts[full, -1])
        if not (np.isfinite(self._lo).all() and np.isfinite(self._hi).all()):
            raise DegenerateOutput("cannot index a non-finite point")
        # See `_box_bounds`: shrinking by 2(m+2)·2⁻⁵³ absorbs the rounding.
        self._shrink = 1.0 - 2 * (m + 2) * 2.0**-53
        # See `_filtered_scan`.
        self._rel = 4 * (m + 8) * 2.0**-24
        self._f32 = None  # `_copy32`, made by the first filtered scan

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

    def _copy32(self):
        """(points, norms): `_pts` and the squared norm of each of its slots
        (NaN for padding) in float32, or () when m or the pool's largest
        |coordinate| is past the float32 estimate's range. Made on the first
        filtered scan, so building or loading a tree makes neither."""
        if self._f32 is None:
            big = max(-self._lo.min(), self._hi.max())  # the boxes hold every coordinate
            self._f32 = ()
            if self.m <= _WIDEST32 and big <= _HUGE32**0.5:
                flat = self._pts.reshape(-1, self.m)
                nn = np.einsum("ij,ij->i", flat, flat).astype(np.float32).reshape(self._ids.shape)
                self._f32 = (self._pts.astype(np.float32), nn)
        return self._f32

    def _filtered_scan(self, buckets, q, bound):
        """(d², ids) of the slots of `buckets` whose computed d² may be ≤ bound.

        Each slot gets a float32 est = ‖p‖² + ⟨p, −2q⟩, its stored norm from
        `_copy32` plus one matrix-vector product with fl32(−2q), and is
        dropped only if est > thr, with thr computed in float64 as
        thr = (bound − ‖q‖²) + 4(m + 8)·2⁻²⁴·(‖q‖² + bound) + 2⁻¹²⁰.
        Kept slots get their d² from `_dist_sq` over the float64 rows,
        gathered through their flat slots. A NaN est (padding) is never
        > thr, so it is kept; padding then computes to NaN and `_ranked`
        drops it. When ‖q‖² or bound exceeds 2¹⁰⁰, or `_copy32` is (), the
        estimate does not apply: every slot gets its d² from `_scan`.

        Proof that a point whose computed d² D is at most B = bound is kept.
        Let P = ‖p‖², Q = ‖q‖², G = ⟨p, q⟩ and Δ = P + Q − 2G be exact, and
        γ_j = ju/(1 − ju) for a unit roundoff u. A sum of m products, rounded
        in any order, with or without fused multiply-adds, is within
        γ_m·Σ|product| of the exact sum, plus one underflow error per product
        (sums that land among the subnormals are exact). With u = 2⁻⁵³,
        `_dist_sq` also rounds each p_j − q_j, so D ≥ (1 − γ_{m+2})Δ −
        m·2⁻¹⁰⁷⁴ and Δ ≤ (1 + 2γ_{m+2})B + 2m·2⁻¹⁰⁷⁴. As √P ≤ √Q + √Δ,
        P ≤ 2Q + 2Δ.

        Now let u = 2⁻²⁴. As m ≤ 2¹⁶, γ_m ≤ 1.004mu, and each float64 error
        above is at most 2⁻¹²u relative. A float32 rounding that underflows
        errs by at most E = 2⁻¹⁵⁰. Every |p_j| ≤ 2⁵⁰ and Q ≤ 2¹⁰⁰, so no
        float32 value below passes 2¹¹⁹: nothing overflows. Let R = P + Q;
        R ≤ 3(Q + B) + 2⁻¹⁰⁵⁶.
        - The stored norm, fl32 of the float64 ‖p‖² from `_copy32`'s
          `einsum`, is within 2uP + 2E of P.
        - Rounding to float32 gives p̃_j = p_j(1 + α_j) + a_j and
          q̃_j = −2q_j(1 + β_j) + b_j, with |α_j|, |β_j| ≤ u and |a_j|,
          |b_j| ≤ E. So T = Σp̃_j q̃_j is within (2u + u²)R +
          (1 + u)E(Σ|p_j| + 2Σ|q_j|) + mE² of −2G. The E terms are a
          subnormal p_j times q_j and the like: by Cauchy–Schwarz and
          AM–GM, E·Σ|p_j| ≤ E√(mP) ≤ (uP + mE²/u)/2 and
          2E·Σ|q_j| ≤ 2E√(mQ) ≤ uQ + mE²/u. So |T + 2G| ≤ 3.01uR +
          2mE²/u, and likewise Σ|p̃_j q̃_j| ≤ (1 + 4u)R + 2mE²/u.
        - The product S, rounded as above, is within
          γ_m·Σ|p̃_j q̃_j| + (1 + γ_m)mE of T.
        - The final add errs by at most u|nn + S| ≤ u(2.01R + 2(m + 1)E).
        So est ≤ Δ − Q + (1.005m + 7.02)u·R + (1.01m + 3)E + m·2⁻²⁷⁴
        ≤ B − Q + (3.02m + 21.1)u(Q + B) + 2⁻¹³². The computed thr, with
        its computed ‖q‖² and five float64 roundings, is at least
        B − Q + (4m + 31.9)u(Q + B) + 2⁻¹²¹. NumPy compares est with this
        float64 thr either exactly or, by its promotion rules (a Python float
        beside a float32 array, or value-based casting before NumPy 2), after
        rounding thr to the nearest float32, which costs at most
        u|thr| + E ≤ 1.02u(Q + B) + 2⁻¹⁴³. Either way est ≤ thr.
        """
        with np.errstate(over="ignore"):  # an ‖q‖² that overflows to ∞ takes `_scan`
            qq = float(np.dot(q, q))
        bound = float(bound)  # so thr is a float64
        copy = self._copy32() if qq <= _HUGE32 and bound <= _HUGE32 else ()
        if not copy:
            return self._scan(buckets, q)
        pts, nn = copy
        est = nn[buckets].ravel() + pts[buckets].reshape(-1, self.m) @ (-2.0 * q).astype(np.float32)
        thr = (bound - qq) + (self._rel * (qq + bound) + _TINY32)
        width = self._ids.shape[1]
        bucket, slot = np.divmod(np.flatnonzero(~(est > thr)), width)
        slot += buckets[bucket] * width  # the kept points' flat slots
        return _dist_sq(np.take(self._pts.reshape(-1, self.m), slot, axis=0), q), self._ids.ravel()[slot]

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
        if not r_sq >= 0:  # NaN fails too
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


def _layout(n, m, levels):
    """An empty padded layout of n points of width m in `_bucket_edges(n, levels)`.

    Returns `"<f8"` points (buckets, width, m), `"<i8"` ids (buckets,
    width), the flat slot of each tree position, the padding slots (a
    bucket pads at most its last slot) and the (start, stop) runs of real
    slots between them, which hold the tree positions in order.
    """
    bounds = _bucket_edges(n, levels)
    sizes = np.diff(bounds)
    n_buckets, width = len(sizes), int(sizes.max())
    # tree position t in bucket b goes to flat slot b·width + (t − bounds[b])
    slot = np.repeat(np.arange(n_buckets) * width - bounds[:-1], sizes) + np.arange(n)
    pad = np.flatnonzero(sizes < width) * width + width - 1
    cuts = zip([0, *(pad + 1).tolist()], [*pad.tolist(), n_buckets * width])
    runs = [(a, b) for a, b in cuts if a < b]
    return np.empty((n_buckets, width, m), "<f8"), np.empty((n_buckets, width), "<i8"), slot, pad, runs


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

    *_, runs = _layout(tree.n, tree.m, tree._levels)
    with atomic_write(path, "wb") as fh:
        fh.write(front)
        for flat in (tree._ids.ravel(), tree._pts.reshape(-1, tree.m)):
            for a, b in runs:
                fh.write(flat[a:b])


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
        # allocated only now, when the file is known to hold every row
        pts, ids, slot, pad, runs = _layout(n, m, _levels(n))
        for flat in (ids.ravel(), pts.reshape(-1, m)):
            for a, b in runs:
                if fh.readinto(flat[a:b]) != flat[a:b].nbytes:  # the file shrank since `fstat`
                    raise CorruptArtifact(f"{path}: shorter than its header describes")
    tree = KdTree.__new__(KdTree)
    try:
        tree._lay_out(pts, ids, slot, pad)
    except (DegenerateOutput, RepeatedId) as exc:  # the tree's own checks: finite points, unique ids
        raise CorruptArtifact(f"{path}: {exc}")
    return (tree, meta, model) if with_model else (tree, meta)

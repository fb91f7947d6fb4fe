"""Computations the benchmark makes apart from the program, with numpy alone.

The exactness checks (`top_k`, `within`) compute squared distances with the
same expression the index documents, `einsum` over `points - q`, so an exact
index must agree with them bit for bit in ids, order and distances.
"""

import numpy as np

CHUNK = 128  # query rows per block in the quality metrics, bounds memory


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit Euclidean norm per row."""
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.linalg.norm(centered, axis=1, keepdims=True)


def dist2(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    block = points - q
    return np.einsum("ij,ij->i", block, block)


def top_k(points, ids, q, k):
    """The k nearest (ids, d²) by ascending (d², id), from a full scan."""
    d2 = dist2(points, q)
    cand = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1]) if k < len(d2) else np.arange(len(d2))
    order = cand[np.lexsort((ids[cand], d2[cand]))][:k]
    return ids[order], d2[order]


def within(points, ids, q, r_sq):
    """Every point with d² ≤ r_sq as (ids, d²), ascending (d², id)."""
    d2 = dist2(points, q)
    keep = np.flatnonzero(d2 <= r_sq)
    order = np.lexsort((ids[keep], d2[keep]))
    return ids[keep][order], d2[keep][order]


def _smallest_k(score: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row, in ascending order."""
    part = np.argpartition(score, k - 1, axis=1)[:, :k]
    rows = np.arange(score.shape[0])[:, None]
    return part[rows, np.argsort(score[rows, part], axis=1, kind="stable")]


def precision_at_k(emb_pool, h_pool, emb_q, h_q, k=10, self_rows=None):
    """Mean |embedding top-k ∩ exact-correlation top-k| / k over the queries.

    `self_rows[i]` is the pool row of query i when the query is itself a
    pool member; that row is excluded from both rankings.
    """
    hits = []
    for lo in range(0, len(h_q), CHUNK):
        hi = min(lo + CHUNK, len(h_q))
        corr = h_q[lo:hi] @ h_pool.T
        eq = emb_q[lo:hi]
        d2 = (emb_pool * emb_pool).sum(1)[None, :] + (eq * eq).sum(1)[:, None] - 2.0 * (eq @ emb_pool.T)
        if self_rows is not None:
            rows = np.arange(hi - lo)
            corr[rows, self_rows[lo:hi]] = -np.inf
            d2[rows, self_rows[lo:hi]] = np.inf
        exact, approx = _smallest_k(-corr, k), _smallest_k(d2, k)
        hits.extend(len(np.intersect1d(a, b)) / k for a, b in zip(exact, approx))
    return float(np.mean(hits))


def approx_loss(emb_a, emb_b, h_a, h_b):
    """Mean |2·‖f(s) − f(r)‖² − (2 − 2·corr(s, r))| over row-aligned pairs."""
    diff = emb_a - emb_b
    corr = np.einsum("ij,ij->i", h_a, h_b)
    return float(np.mean(np.abs(2.0 * np.einsum("ij,ij->i", diff, diff) - (2.0 - 2.0 * corr))))


def disjoint_pairs(n: int, n_pairs: int, rng) -> tuple:
    """Row pairs (a, b) that share no row, from a seeded permutation."""
    perm = rng.permutation(n)[: 2 * n_pairs]
    return perm[0::2], perm[1::2]

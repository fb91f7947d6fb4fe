"""Seeded clustered series: the benchmark's stand-in for a real collection.

A factor model. `FACTORS` smooth latent series (AR(1), phi = `PHI`) are
shared by every cluster; each cluster's centre is its own random mix of
them, and a member is that centre plus white noise of scale `NOISE`
(relative to the centre's standard deviation), then a random gain and
offset so the raw values are not already normalised. Cluster sizes are
uniform on `CLUSTER_SIZES`. Members of one cluster correlate at about
1 / (1 + NOISE**2); with these settings the exact 10th-best correlation of
a series within a 100 000-series pool is about 0.77.

Search cost depends on the embedding dimension and on how the points
cluster, so both are fixed here rather than left to chance.
"""

import numpy as np

LENGTH = 128
FACTORS = 6
PHI = 0.7
NOISE = 0.6
CLUSTER_SIZES = (20, 80)


def clustered(n: int, seed: int) -> np.ndarray:
    """(n, LENGTH) raw float64 series, rows in a seeded random order."""
    rng = np.random.default_rng((seed, 0x5EED))
    shocks = rng.standard_normal((FACTORS, LENGTH))
    factors = np.empty_like(shocks)
    factors[:, 0] = shocks[:, 0]
    for t in range(1, LENGTH):
        factors[:, t] = PHI * factors[:, t - 1] + shocks[:, t]
    factors /= factors.std(axis=1, keepdims=True)

    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(CLUSTER_SIZES[0], CLUSTER_SIZES[1] + 1)))
    sizes[-1] -= sum(sizes) - n
    centres = rng.standard_normal((len(sizes), FACTORS)) @ factors
    centres /= centres.std(axis=1, keepdims=True)

    members = np.repeat(centres, sizes, axis=0)
    members += NOISE * rng.standard_normal((n, LENGTH))
    gain = np.exp(rng.uniform(-1.0, 2.0, size=(n, 1)))
    offset = rng.uniform(-50.0, 50.0, size=(n, 1))
    return (members * gain + offset)[rng.permutation(n)]

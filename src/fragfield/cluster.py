"""Seeded k-means with deterministic empty-cluster handling and balancing.

A small, fully deterministic implementation (k-means++ seeding, Lloyd
iterations, farthest-point reseeding of emptied clusters) so that cluster
assignments are bit-reproducible from a seed across platforms.  The balanced
variant post-processes labels by moving points out of oversized clusters
into the nearest undersized one until sizes differ by at most one, which is
what batched spatial sampling needs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["kmeans", "balanced_kmeans"]

_N_ITER = 100  # Lloyd iteration cap


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a centroid; any choice works
            centroids[c] = points[int(rng.integers(n))]
            continue
        idx = int(rng.choice(n, p=d2 / total))
        centroids[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def kmeans(points, k: int, *, rng):
    """Cluster rows of ``points`` into ``k`` groups.

    Returns ``(labels, centroids)``.  ``rng`` is a numpy Generator (or seed).
    Clusters that empty out during Lloyd iteration are reseeded on the point
    farthest from its current centroid, keeping exactly ``k`` live clusters.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError("points must be a non-empty 2-D array")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(rng)
    centroids = _plus_plus_seed(points, k, rng)
    labels = np.zeros(n, dtype=int)
    for _ in range(_N_ITER):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(d2[np.arange(n), new_labels]))
                centroids[c] = points[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels, centroids


def balanced_kmeans(points, k: int, *, rng):
    """k-means labels rebalanced so cluster sizes differ by at most one.

    After Lloyd converges, points are moved out of oversized clusters into
    the nearest undersized cluster by distance to that cluster's centroid
    (centroids stay fixed during transfers).  Ties resolve to the lowest
    point index, so the result is deterministic.
    """
    points = np.asarray(points, dtype=float)
    labels, centroids = kmeans(points, k, rng=rng)
    n = points.shape[0]
    lo = n // k
    hi = lo + (1 if n % k else 0)
    sizes = np.bincount(labels, minlength=k)
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    while True:
        over = np.flatnonzero(sizes > hi)
        under = np.flatnonzero(sizes < lo)
        if over.size == 0 and under.size == 0:
            break
        if under.size == 0:
            under = np.flatnonzero(sizes < hi)
        if over.size == 0:
            over = np.flatnonzero(sizes > lo)
        movable = np.isin(labels, over)
        cost = d2[np.ix_(movable, under)]
        flat = int(np.argmin(cost))
        p_idx = np.flatnonzero(movable)[flat // under.size]
        target = under[flat % under.size]
        sizes[labels[p_idx]] -= 1
        sizes[target] += 1
        labels[p_idx] = target
    return labels, centroids

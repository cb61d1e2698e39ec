"""K-means clustering of pattern matches (Section IV-B.5).

Each match is embedded as its vector of center distances
``F(M) = <d(c_1, m_1), ..., d(c_|C|, m_|V_P|)>``; K-means over these
vectors groups matches that sit in the same graph region so PT-OPT can
expand around a whole group in one simultaneous traversal.  A tiny
seeded Lloyd's-iterations implementation is included; its distance
kernels run as numpy array passes when numpy is importable and as plain
loops otherwise, with identical results.  ``strategy='random'`` gives
the RND-CLUST baseline of Figure 4(g) and ``strategy='none'`` disables
grouping (NO-CLUST).
"""

import random

try:  # pragma: no cover - exercised via both branches in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

# Cells of one block x clusters distance matrix in the numpy
# assignment step (512 KiB of float64): memory stays bounded however
# many matches are clustered, and a block stays cache-sized.
_BLOCK_CELLS = 1 << 16


def kmeans(vectors, num_clusters, iterations=10, seed=0):
    """Cluster ``vectors`` into at most ``num_clusters`` groups.

    Returns a list of clusters, each a list of vector indices.  Empty
    clusters are dropped.  Deterministic given ``seed``, and identical
    with or without numpy.
    """
    n = len(vectors)
    if n == 0:
        return []
    num_clusters = max(1, min(num_clusters, n))
    rng = random.Random(seed)
    space = _ListSpace(vectors) if _np is None else _ArraySpace(vectors)
    centroids = [list(vectors[i])
                 for i in space.farthest_points(num_clusters, rng)]
    assignment = [0] * n

    for _ in range(max(1, iterations)):
        nearest = space.nearest(centroids)
        changed = nearest != assignment
        assignment = nearest
        # Recompute centroids; keep the old centroid for empty clusters.
        sums = [None] * len(centroids)
        counts = [0] * len(centroids)
        for i, vec in enumerate(vectors):
            c = assignment[i]
            if sums[c] is None:
                sums[c] = list(vec)
            else:
                s = sums[c]
                for j, x in enumerate(vec):
                    s[j] += x
            counts[c] += 1
        for c, s in enumerate(sums):
            if s is not None:
                centroids[c] = [x / counts[c] for x in s]
        if not changed:
            break

    clusters = {}
    for i, c in enumerate(assignment):
        clusters.setdefault(c, []).append(i)
    return list(clusters.values())


def _sqdist(a, b):
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return total


class _ListSpace:
    """Distance kernels over plain lists.

    Both spaces add the squared coordinate differences in coordinate
    order and break ties toward the lowest index, so they return the
    same floats and the same choices.
    """

    def __init__(self, vectors):
        self.vectors = vectors

    def farthest_points(self, num_clusters, rng):
        """Indices of the greedy k-center initialization (a
        deterministic kmeans++ cousin).

        Random initialization collapses when many vectors are identical
        (duplicate seeds leave clusters empty); picking each next
        centroid as the point farthest from the chosen ones guarantees
        distinct centroids whenever distinct vectors exist.
        """
        vectors = self.vectors
        first = rng.randrange(len(vectors))
        chosen = [first]
        min_dist = [_sqdist(v, vectors[first]) for v in vectors]
        while len(chosen) < num_clusters:
            best = max(range(len(vectors)), key=min_dist.__getitem__)
            if min_dist[best] == 0.0:
                break  # fewer distinct vectors than requested clusters
            chosen.append(best)
            for i, v in enumerate(vectors):
                d = _sqdist(v, vectors[best])
                if d < min_dist[i]:
                    min_dist[i] = d
        return chosen

    def nearest(self, centroids):
        """Index of each vector's nearest centroid."""
        out = []
        for vec in self.vectors:
            best_c, best_d = 0, None
            for c, centroid in enumerate(centroids):
                d = _sqdist(vec, centroid)
                if best_d is None or d < best_d:
                    best_c, best_d = c, d
            out.append(best_c)
        return out


class _ArraySpace:
    """The :class:`_ListSpace` kernels vectorized with numpy: O(n * k)
    distances per Lloyd iteration run as array passes, one per
    coordinate, instead of interpreted loops."""

    def __init__(self, vectors):
        # One contiguous row per coordinate.
        self.columns = _np.array(vectors, dtype=float).T.copy()
        self.n = len(vectors)

    def _sqdists(self, point):
        total = _np.zeros(self.n)
        diff = _np.empty(self.n)
        for column, y in zip(self.columns, point):
            _np.subtract(column, y, out=diff)
            diff *= diff
            total += diff
        return total

    def farthest_points(self, num_clusters, rng):
        first = rng.randrange(self.n)
        chosen = [first]
        min_dist = self._sqdists(self.columns[:, first])
        while len(chosen) < num_clusters:
            best = int(min_dist.argmax())
            if min_dist[best] == 0.0:
                break
            chosen.append(best)
            _np.minimum(min_dist, self._sqdists(self.columns[:, best]), out=min_dist)
        return chosen

    def nearest(self, centroids):
        points = _np.array(centroids, dtype=float)
        k = len(points)
        step = max(1, _BLOCK_CELLS // k)
        out = []
        for lo in range(0, self.n, step):
            block = self.columns[:, lo:lo + step]
            total = _np.zeros((block.shape[1], k))
            diff = _np.empty_like(total)
            for column, coords in zip(block, points.T):
                _np.subtract(column[:, None], coords, out=diff)
                diff *= diff
                total += diff
            out.extend(total.argmin(axis=1).tolist())
        return out


def cluster_matches(units, center_index, num_clusters, strategy="kmeans",
                    iterations=10, seed=0, missing_distance=None):
    """Group census matches for simultaneous processing.

    Parameters
    ----------
    units:
        List of :class:`repro.census.base.CensusMatch`.
    center_index:
        A :class:`repro.census.centers.CenterIndex`; required for the
        'kmeans' strategy (its distances define the feature space).
    strategy:
        'kmeans' (OPT-CLUST), 'random' (RND-CLUST) or 'none' (NO-CLUST).

    Returns a list of clusters, each a list of unit indices.
    """
    n = len(units)
    if n == 0:
        return []
    if strategy == "none" or num_clusters >= n:
        return [[i] for i in range(n)]
    if strategy == "random":
        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        num_clusters = max(1, num_clusters)
        clusters = [[] for _ in range(num_clusters)]
        for pos, i in enumerate(order):
            clusters[pos % num_clusters].append(i)
        return [c for c in clusters if c]
    if strategy == "kmeans":
        if not center_index:
            # Without centers there is no feature space; fall back to
            # processing matches independently.
            return [[i] for i in range(n)]
        if missing_distance is None:
            missing_distance = 2 * max(len(u.nodes) for u in units) + 16
        vectors = [
            center_index.feature_vector(sorted(u.nodes, key=repr), missing_distance)
            for u in units
        ]
        return kmeans(vectors, num_clusters, iterations=iterations, seed=seed)
    raise ValueError(f"unknown clustering strategy {strategy!r}")

"""Tests for center selection, the center distance index, and K-means
match clustering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.census import clustering
from repro.census.base import CensusRequest, prepare_matches
from repro.census.centers import CenterIndex, select_centers
from repro.census.clustering import cluster_matches, kmeans
from repro.graph.generators import preferential_attachment
from repro.graph.graph import Graph
from repro.graph.traversal import shortest_path_length
from repro.matching.pattern import Pattern


class TestSelectCenters:
    def test_degree_strategy_picks_hubs(self):
        g = preferential_attachment(200, m=3, seed=1)
        centers = select_centers(g, 5, strategy="degree")
        degrees = sorted((g.degree(n) for n in g.nodes()), reverse=True)
        assert sorted((g.degree(c) for c in centers), reverse=True) == degrees[:5]

    def test_random_strategy_deterministic(self):
        g = preferential_attachment(100, m=2, seed=1)
        assert select_centers(g, 5, "random", seed=3) == select_centers(g, 5, "random", seed=3)

    def test_zero_centers(self):
        g = preferential_attachment(10, m=1, seed=0)
        assert select_centers(g, 0) == []

    def test_unknown_strategy(self):
        g = preferential_attachment(10, m=1, seed=0)
        with pytest.raises(ValueError):
            select_centers(g, 2, "pagerank")


class TestCenterIndex:
    def test_distances_exact(self):
        g = preferential_attachment(80, m=2, seed=2)
        centers = select_centers(g, 3)
        index = CenterIndex(g, centers)
        for c in centers:
            for n in list(g.nodes())[:20]:
                assert index.distance(c, n) == shortest_path_length(g, c, n)

    def test_bound_is_valid_upper_bound(self):
        g = preferential_attachment(80, m=2, seed=3)
        index = CenterIndex(g, select_centers(g, 4))
        nodes = list(g.nodes())
        for m in nodes[:8]:
            for n in nodes[10:18]:
                bound = index.bound(m, n, cap=99)
                true = shortest_path_length(g, m, n)
                if true is not None and bound < 99:
                    assert bound >= true

    def test_unreachable_returns_none(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        index = CenterIndex(g, [1])
        assert index.distance(1, 2) is None

    def test_feature_vector_shape(self):
        g = preferential_attachment(40, m=2, seed=4)
        index = CenterIndex(g, select_centers(g, 3))
        vec = index.feature_vector([0, 1], missing=99)
        assert len(vec) == 6

    def test_empty_index_falsy(self):
        g = preferential_attachment(10, m=1, seed=0)
        assert not CenterIndex(g, [])
        assert CenterIndex(g, [0])


class TestKMeans:
    def test_separates_obvious_clusters(self):
        vectors = [[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]]
        clusters = kmeans(vectors, 2, seed=1)
        as_sets = sorted((sorted(c) for c in clusters), key=len)
        assert sorted(map(tuple, as_sets)) == [(0, 1, 2), (3, 4, 5)]

    def test_empty_input(self):
        assert kmeans([], 3) == []

    def test_more_clusters_than_points(self):
        clusters = kmeans([[1.0], [2.0]], 10, seed=0)
        assert sorted(i for c in clusters for i in c) == [0, 1]

    @given(st.lists(st.lists(st.floats(0, 10), min_size=2, max_size=2), min_size=1,
                    max_size=30), st.integers(1, 5), st.integers(0, 20))
    def test_partition_property(self, vectors, k, seed):
        clusters = kmeans(vectors, k, seed=seed)
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(len(vectors)))

    @pytest.mark.skipif(clustering._np is None, reason="numpy not installed")
    @given(st.lists(st.lists(st.integers(0, 2) | st.sampled_from([0.5, 2.25, 1 / 3]),
                             min_size=3, max_size=3), min_size=1, max_size=60),
           st.integers(1, 20), st.integers(1, 12), st.integers(0, 20))
    def test_numpy_kernels_match_plain_loops(self, vectors, k, iterations, seed):
        # Same floats, same tie-breaking: PT-OPT's clusters (and so its
        # work counters) do not depend on whether numpy is installed.
        vectorized = kmeans(vectors, k, iterations=iterations, seed=seed)
        np_module, clustering._np = clustering._np, None
        try:
            looped = kmeans(vectors, k, iterations=iterations, seed=seed)
        finally:
            clustering._np = np_module
        assert vectorized == looped

    @pytest.mark.skipif(clustering._np is None, reason="numpy not installed")
    def test_numpy_ties_go_to_the_first_centroid(self, monkeypatch):
        # Seed 1 starts from [0.0]; [2.0] is farthest, and [1.0] lies
        # halfway between the two centroids.
        assert kmeans([[0.0], [2.0], [1.0]], 2, iterations=1, seed=1) == [[0, 2], [1]]
        monkeypatch.setattr(clustering, "_np", None)
        assert kmeans([[0.0], [2.0], [1.0]], 2, iterations=1, seed=1) == [[0, 2], [1]]

    @pytest.mark.skipif(clustering._np is None, reason="numpy not installed")
    def test_numpy_assignment_blocks(self, monkeypatch):
        vectors = [[i % 7, i % 3, (i * i) % 5] for i in range(50)]
        whole = kmeans(vectors, 12, seed=3)
        monkeypatch.setattr(clustering, "_BLOCK_CELLS", 25)
        assert kmeans(vectors, 12, seed=3) == whole


class TestClusterMatches:
    def _units(self, graph):
        p = Pattern("edge")
        p.add_edge("A", "B")
        request = CensusRequest(graph, p, 1)
        return prepare_matches(request)

    def test_none_strategy_isolates(self):
        g = preferential_attachment(30, m=2, seed=5)
        units = self._units(g)
        clusters = cluster_matches(units, None, 4, strategy="none")
        assert all(len(c) == 1 for c in clusters)

    def test_random_strategy_partitions(self):
        g = preferential_attachment(30, m=2, seed=5)
        units = self._units(g)
        index = CenterIndex(g, select_centers(g, 2))
        clusters = cluster_matches(units, index, 4, strategy="random", seed=1)
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(len(units)))
        assert len(clusters) <= 4

    def test_kmeans_strategy_partitions(self):
        g = preferential_attachment(40, m=2, seed=6)
        units = self._units(g)
        index = CenterIndex(g, select_centers(g, 3))
        clusters = cluster_matches(units, index, 5, strategy="kmeans", seed=1)
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(len(units)))

    def test_kmeans_without_centers_falls_back(self):
        g = preferential_attachment(20, m=2, seed=7)
        units = self._units(g)
        clusters = cluster_matches(units, CenterIndex(g, []), 3, strategy="kmeans")
        assert all(len(c) == 1 for c in clusters)

    def test_unknown_strategy(self):
        g = preferential_attachment(20, m=2, seed=7)
        units = self._units(g)
        with pytest.raises(ValueError):
            cluster_matches(units, None, 3, strategy="dbscan")

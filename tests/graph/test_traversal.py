"""Tests for BFS traversal primitives and neighborhood extraction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph.csr import freeze
from repro.graph.generators import erdos_renyi, preferential_attachment
from repro.graph.graph import Graph
from repro.graph.traversal import (
    bfs_distances,
    bfs_layer_sets,
    bfs_layers,
    connected_components,
    eccentricity,
    ego_subgraph,
    k_hop_distances,
    k_hop_nodes,
    pairwise_distances,
    shortest_path_length,
)
from repro.graph.views import induced_subgraph, intersection_neighborhood, union_neighborhood
from repro.storage import DiskGraph


def path_graph(n):
    g = Graph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestBFS:
    def test_distances_on_path(self):
        g = path_graph(5)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_depth_truncates(self):
        g = path_graph(5)
        assert bfs_distances(g, 0, max_depth=2) == {0: 0, 1: 1, 2: 2}

    def test_source_included_at_zero(self):
        g = path_graph(3)
        assert bfs_distances(g, 1, max_depth=0) == {1: 0}

    def test_layers_in_bfs_order(self):
        g = path_graph(4)
        layers = list(bfs_layers(g, 0))
        distances = [d for _n, d in layers]
        assert distances == sorted(distances)

    def test_directed_expansion_is_direction_blind(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 2)
        # 3 is reachable from 1 through 2 when ignoring direction.
        assert bfs_distances(g, 1) == {1: 0, 2: 1, 3: 2}

    def test_shortest_path_length(self):
        g = path_graph(6)
        assert shortest_path_length(g, 0, 4) == 4
        assert shortest_path_length(g, 2, 2) == 0
        assert shortest_path_length(g, 0, 5, max_depth=3) is None

    def test_disconnected_returns_none(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        assert shortest_path_length(g, 1, 2) is None


class TestMissingSource:
    ENTRY_POINTS = {
        "bfs_distances": lambda g, s, k: bfs_distances(g, s, max_depth=k),
        "bfs_layer_sets": lambda g, s, k: list(bfs_layer_sets(g, s, max_depth=k)),
        "bfs_layers": lambda g, s, k: list(bfs_layers(g, s, max_depth=k)),
        "k_hop_nodes": k_hop_nodes,
        "k_hop_distances": k_hop_distances,
        "ego_subgraph": ego_subgraph,
        "shortest_path_length": lambda g, s, k: shortest_path_length(g, s, s, max_depth=k),
    }

    @pytest.fixture(params=["dict", "csr", "disk"])
    def graph(self, request, tmp_path):
        g = path_graph(4)
        if request.param == "csr":
            return freeze(g)
        if request.param == "disk":
            store = DiskGraph.create(tmp_path / "g.db", g)
            request.addfinalizer(store.close)
            return store
        return g

    @pytest.mark.parametrize("depth", (0, 2))
    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    def test_raises_on_every_backend_and_depth(self, graph, entry_point, depth):
        with pytest.raises(NodeNotFoundError):
            self.ENTRY_POINTS[entry_point](graph, "nope", depth)


class TestKHop:
    def test_k_hop_nodes(self):
        g = path_graph(7)
        assert k_hop_nodes(g, 3, 2) == {1, 2, 3, 4, 5}

    def test_k_zero_is_self(self):
        g = path_graph(3)
        assert k_hop_nodes(g, 1, 0) == {1}

    @given(st.integers(10, 60), st.integers(0, 3), st.integers(0, 1000))
    def test_k_hop_monotone_in_k(self, n, k, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        assert k_hop_nodes(g, 0, k) <= k_hop_nodes(g, 0, k + 1)

    def test_ego_subgraph_is_induced(self):
        g = Graph()
        for u, v in [(1, 2), (2, 3), (1, 3), (3, 4)]:
            g.add_edge(u, v)
        sub = ego_subgraph(g, 1, 1)
        assert set(sub.nodes()) == {1, 2, 3}
        # Induced: the 2-3 edge is kept even though neither is the ego.
        assert sub.has_edge(2, 3)
        assert not sub.has_node(4)


class TestViews:
    def test_induced_subgraph_keeps_attrs(self):
        g = Graph()
        g.add_node(1, label="A")
        g.add_edge(1, 2, weight=7)
        sub = induced_subgraph(g, [1, 2])
        assert sub.node_attr(1, "label") == "A"
        assert sub.edge_attr(1, 2, "weight") == 7

    def test_induced_subgraph_directed(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub = induced_subgraph(g, [1, 2])
        assert sub.directed
        assert sub.has_edge(1, 2) and not sub.has_edge(2, 1)
        assert sub.num_edges == 1

    def test_intersection_and_union_neighborhoods(self):
        g = path_graph(5)
        inter = intersection_neighborhood(g, 0, 4, 2)
        union = union_neighborhood(g, 0, 4, 2)
        assert inter == {2}
        assert union == {0, 1, 2, 3, 4}

    @given(st.integers(8, 40), st.integers(0, 2), st.integers(0, 500))
    def test_intersection_subset_of_union(self, n, k, seed):
        g = erdos_renyi(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        inter = intersection_neighborhood(g, 0, 1, k)
        union = union_neighborhood(g, 0, 1, k)
        assert inter <= union


class TestComponents:
    def test_components_partition(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        g.add_node(5)
        comps = sorted(connected_components(g), key=lambda c: min(c))
        assert comps == [{1, 2}, {3, 4}, {5}]

    def test_eccentricity(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_pairwise_distances(self):
        g = path_graph(4)
        d = pairwise_distances(g, nodes=[0, 3])
        assert d[0][3] == 3
        assert d[3][0] == 3

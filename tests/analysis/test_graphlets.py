"""Tests for graphlet orbit profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graphlets import (
    gdd_distance,
    graphlet_degree_distribution,
    graphlet_profiles,
    orbit_counts,
)
from repro.graph.generators import erdos_renyi, preferential_attachment, watts_strogatz
from repro.graph.graph import Graph
from repro.obs import ObsContext


def direct_orbits(graph, node):
    """Reference implementation by direct enumeration."""
    nbrs = set(graph.neighbors(node))
    orbit2 = 0
    for u in nbrs:
        for v in nbrs:
            if repr(u) < repr(v) and graph.has_edge(u, v):
                orbit2 += 1
    # orbit 1: node is the center of an open wedge.
    orbit1 = 0
    nbr_list = sorted(nbrs, key=repr)
    for i, u in enumerate(nbr_list):
        for v in nbr_list[i + 1:]:
            if not graph.has_edge(u, v):
                orbit1 += 1
    # orbit 0: node is an end of an open wedge (node - m - far).
    orbit0 = 0
    for m in nbrs:
        for far in graph.neighbors(m):
            if far != node and far not in nbrs:
                orbit0 += 1
    return orbit0, orbit1, orbit2


class TestOrbitCounts:
    def test_triangle_graph(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        profiles = graphlet_profiles(g)
        assert profiles == {1: (0, 0, 1), 2: (0, 0, 1), 3: (0, 0, 1)}

    def test_path_graph(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        profiles = graphlet_profiles(g)
        assert profiles[1] == (1, 0, 0)
        assert profiles[2] == (0, 1, 0)
        assert profiles[3] == (1, 0, 0)
        assert graphlet_profiles(g, nodes=iter([1, 2])) == {1: (1, 0, 0), 2: (0, 1, 0)}

    def test_star_center(self):
        g = Graph()
        for leaf in (2, 3, 4):
            g.add_edge(1, leaf)
        profiles = graphlet_profiles(g)
        assert profiles[1] == (0, 3, 0)  # C(3,2) open wedges centered at 1
        assert profiles[2] == (2, 0, 0)

    def test_algorithm_is_honoured(self):
        g = preferential_attachment(40, m=2, seed=8)
        g.add_node("isolated")
        with ObsContext() as obs:
            profiles = graphlet_profiles(g, algorithm="pt-bas")
        names = {span.name for root in obs.roots for span in root.walk()}
        assert "census.pt_bas" in names
        assert "census.nd_pvot" not in names
        assert profiles == graphlet_profiles(g)
        assert profiles["isolated"] == (0, 0, 0)

    def test_unknown_orbit(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(ValueError):
            orbit_counts(g, 9)

    @settings(max_examples=20)
    @given(st.integers(5, 22), st.integers(0, 120))
    def test_matches_direct_enumeration(self, n, seed):
        g = erdos_renyi(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        profiles = graphlet_profiles(g)
        for node in g.nodes():
            assert profiles[node] == direct_orbits(g, node)


class TestDistributionsAndDistance:
    def test_distribution_sums_to_node_count(self):
        g = preferential_attachment(60, m=2, seed=1)
        dist = graphlet_degree_distribution(g, 2)
        assert sum(dist.values()) == g.num_nodes

    def test_distance_zero_for_same_graph(self):
        g = preferential_attachment(40, m=2, seed=2)
        assert gdd_distance(g, g) == pytest.approx(0.0)

    def test_distance_separates_graph_families(self):
        # Two PA graphs should be closer to each other than to a ring
        # lattice of the same size.
        pa1 = preferential_attachment(80, m=3, seed=3)
        pa2 = preferential_attachment(80, m=3, seed=4)
        ring = watts_strogatz(80, k=6, beta=0.0, seed=5)
        assert gdd_distance(pa1, pa2) < gdd_distance(pa1, ring)

    def test_distance_symmetric(self):
        a = preferential_attachment(30, m=2, seed=6)
        b = erdos_renyi(30, 60, seed=7)
        assert gdd_distance(a, b) == pytest.approx(gdd_distance(b, a))

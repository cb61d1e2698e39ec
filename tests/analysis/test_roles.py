"""Tests for structural role extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.roles import census_feature_vectors, extract_roles, role_summary
from repro.census import census
from repro.errors import CensusError
from repro.exec.budget import ExecutionBudget
from repro.graph.generators import labeled_preferential_attachment
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern


def star_of_stars():
    """A hub connected to satellite hubs, each with leaves: three clear
    structural roles (center, satellite, leaf)."""
    g = Graph()
    node = 1
    satellites = []
    for _ in range(4):
        sat = node
        node += 1
        g.add_edge(0, sat)
        satellites.append(sat)
        for _ in range(4):
            g.add_edge(sat, node)
            node += 1
    return g, satellites


def single_node():
    p = Pattern("node")
    p.add_node("A")
    return p


def edge():
    p = Pattern("edge")
    p.add_edge("A", "B")
    return p


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def centered_path():
    p = Pattern("path")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_subpattern("center", ["B"])
    return p


def labeled_pair(a, b):
    p = Pattern(f"pair{a}{b}")
    p.add_node("A", label=a)
    p.add_node("B", label=b)
    p.add_edge("A", "B")
    return p


def query_census(graph, query, **kwargs):
    pattern, k, *subpattern = query
    return census(graph, pattern, k, subpattern=subpattern[0] if subpattern else None,
                  **kwargs)


class TestFeatureVectors:
    def test_custom_queries(self):
        g, _sats = star_of_stars()
        vectors = census_feature_vectors(g, [(edge(), 1), (triangle(), 1)])
        assert all(len(v) == 2 for v in vectors.values())
        # Edge count in a leaf's 1-hop net is exactly 1; no triangles.
        leaf = max(g.nodes())
        assert vectors[leaf] == (1, 0)
        # A graph with no edges matches no query anywhere.
        empty = Graph()
        for i in range(4):
            empty.add_node(i)
        assert census_feature_vectors(empty, [(triangle(), 2), (edge(), 2)]) == {
            i: (0, 0) for i in range(4)
        }

    @settings(max_examples=20)
    @given(st.integers(8, 30), st.integers(0, 3), st.integers(0, 150))
    def test_columns_equal_nd_bas(self, n, k, seed):
        # Mixed radii, labeled patterns and a COUNTSP query in one call:
        # each column is exactly that query's census.
        g = labeled_preferential_attachment(n, m=2, seed=seed)
        queries = [(single_node(), 0), (edge(), 0), (single_node(), k), (edge(), k),
                   (triangle(), k), (labeled_pair("A", "B"), k), (labeled_pair("C", "D"), k),
                   (centered_path(), k, "center")]
        vectors = census_feature_vectors(g, queries)
        for i, query in enumerate(queries):
            want = query_census(g, query, algorithm="nd-bas")
            assert {node: v[i] for node, v in vectors.items()} == want, query[0].name

    def test_budget_spends_the_sum_of_its_censuses(self):
        g = labeled_preferential_attachment(80, m=2, seed=3)
        queries = [(edge(), 1), (triangle(), 2), (centered_path(), 1, "center")]
        # The graph keeps its profile index across calls: build it first
        # so that neither side below pays for the build.
        assert len(g.profile_index) == 80
        with ExecutionBudget() as whole:
            census_feature_vectors(g, queries)
        spent = 0
        for query in queries:
            with ExecutionBudget() as budget:
                query_census(g, query, algorithm="nd-pvot")
            spent += budget.ops
        assert whole.ops == spent > 0

    def test_subpattern_feature(self):
        g, _sats = star_of_stars()
        path = Pattern("path")
        path.add_edge("A", "B")
        path.add_edge("B", "C")
        path.add_subpattern("center", ["B"])
        vectors = census_feature_vectors(g, [(path, 0, "center")])
        # The root has degree 4 -> C(4,2)=6 centered wedges.
        assert vectors[0] == (6,)
        leaf = max(g.nodes())
        for nodes in ([0, leaf], iter([0, leaf])):
            assert census_feature_vectors(g, [(path, 0, "center"), (edge(), 0)],
                                          nodes=nodes) == {0: (6, 0), leaf: (0, 0)}

    def test_requires_queries(self):
        g, _sats = star_of_stars()
        with pytest.raises(CensusError):
            census_feature_vectors(g, [])


class TestRoleExtraction:
    def test_separates_leaves_from_hubs(self):
        g, satellites = star_of_stars()
        roles = extract_roles(g, num_roles=2, seed=1)
        leaves = [n for n in g.nodes() if g.degree(n) == 1]
        leaf_roles = {roles[n] for n in leaves}
        assert len(leaf_roles) == 1  # all leaves share a role
        sat_roles = {roles[s] for s in satellites}
        assert len(sat_roles) == 1
        assert leaf_roles != sat_roles

    def test_role_count_bounded(self):
        g, _sats = star_of_stars()
        roles = extract_roles(g, num_roles=3, seed=2)
        assert set(roles) == set(g.nodes())
        assert max(roles.values()) <= 2

    def test_invalid_role_count(self):
        g, _sats = star_of_stars()
        with pytest.raises(CensusError):
            extract_roles(g, num_roles=0)

    def test_summary(self):
        g, _sats = star_of_stars()
        roles = extract_roles(g, num_roles=2, seed=1)
        summary = role_summary(g, roles)
        assert sum(e["size"] for e in summary.values()) == g.num_nodes
        assert all(e["mean_degree"] > 0 for e in summary.values())

    def test_deterministic(self):
        g, _sats = star_of_stars()
        assert extract_roles(g, 3, seed=5) == extract_roles(g, 3, seed=5)

"""CSR snapshots: access-path equivalence and differential correctness.

A :class:`repro.graph.csr.CSRGraph` must be indistinguishable from the
``Graph`` it froze for every read: same nodes, edges, attributes,
adjacency, traversal results, matcher output, and census counts.  The
property tests here drive random labeled/directed graphs through both
backends and compare; the numpy-free census path is exercised by
stubbing :mod:`repro.census.indexed`'s numpy handle.
"""

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.census.indexed
from repro.census import ALGORITHMS
from repro.errors import GraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph, freeze
from repro.graph.generators import (
    erdos_renyi,
    labeled_preferential_attachment,
    preferential_attachment,
)
from repro.graph.graph import Graph
from repro.graph.traversal import (
    bfs_distances,
    bfs_layer_sets,
    bfs_layers,
    connected_components,
    eccentricity,
    k_hop_distances,
    k_hop_nodes,
    shortest_path_length,
)
from repro.matching import find_matches
from repro.matching.pattern import Pattern
from repro.storage import DiskGraph

CENSUS_SERIES = [name for name in ALGORITHMS]
MATCHERS = ("cn", "gql")


def random_labeled_digraph(n, seed, labels="ABC"):
    import random

    rng = random.Random(seed)
    g = Graph(directed=True)
    for i in range(n):
        g.add_node(i, label=rng.choice(labels))
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, weight=rng.random())
    return g


def triangle(labels=(None, None, None)):
    p = Pattern("tri")
    for var, label in zip("ABC", labels):
        p.add_node(var, label=label)
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def directed_path(labels=("A", "B", "C")):
    p = Pattern("dpath")
    for var, label in zip("XYZ", labels):
        p.add_node(var, label=label)
    p.add_edge("X", "Y", directed=True)
    p.add_edge("Y", "Z", directed=True)
    return p


def traversal_results(graph, source, k):
    """What every traversal entry point returns for ``source`` and ``k``."""
    return {
        "bfs_distances": bfs_distances(graph, source, max_depth=k),
        "bfs_distances_unbounded": bfs_distances(graph, source),
        "bfs_layer_sets": list(bfs_layer_sets(graph, source, max_depth=k)),
        "bfs_layers": sorted(bfs_layers(graph, source, max_depth=k), key=repr),
        "k_hop_nodes": k_hop_nodes(graph, source, k),
        "k_hop_distances": k_hop_distances(graph, source, k),
        "shortest_path_length": {
            t: shortest_path_length(graph, source, t, max_depth=k) for t in graph.nodes()
        },
        "eccentricity": eccentricity(graph, source),
        "connected_components": sorted(map(sorted, connected_components(graph))),
    }


def assert_same_reads(graph, csr):
    assert csr.directed == graph.directed
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_edges == graph.num_edges
    assert set(csr.nodes()) == set(graph.nodes())
    assert set(csr.edges()) == set(graph.edges())
    for n in graph.nodes():
        assert csr.node_attrs(n) == graph.node_attrs(n)
        assert set(csr.neighbors(n)) == set(graph.neighbors(n))
        assert set(csr.out_neighbors(n)) == set(graph.out_neighbors(n))
        assert set(csr.in_neighbors(n)) == set(graph.in_neighbors(n))
        assert csr.degree(n) == graph.degree(n)
        assert csr.out_degree(n) == graph.out_degree(n)
        assert csr.in_degree(n) == graph.in_degree(n)
    for u, v in graph.edges():
        assert csr.has_edge(u, v)
        assert csr.edge_attrs(u, v) == graph.edge_attrs(u, v)


class TestAccessPathEquivalence:
    @given(st.integers(5, 30), st.integers(0, 100))
    def test_undirected_reads(self, n, seed):
        g = labeled_preferential_attachment(n, m=2, seed=seed)
        assert_same_reads(g, freeze(g))

    @given(st.integers(5, 25), st.integers(0, 100))
    def test_directed_reads(self, n, seed):
        g = random_labeled_digraph(n, seed)
        assert_same_reads(g, freeze(g))

    @given(st.integers(5, 25), st.integers(0, 100), st.integers(0, 4), st.booleans())
    def test_traversal_agreement(self, n, seed, k, directed):
        g = (random_labeled_digraph(n, seed) if directed
             else labeled_preferential_attachment(n, m=2, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            with DiskGraph.create(Path(tmp) / "g.db", g) as disk:
                backends = {"dict": g, "csr": freeze(g), "disk": disk}
                for name, graph in backends.items():
                    adjacency = {v: set(graph.neighbors(v)) for v in g.nodes()}
                    for source in list(g.nodes())[:5]:
                        assert traversal_results(graph, source, k) == traversal_results(
                            g, source, k
                        ), name
                    # The BFS only reads the sets neighbors() hands out;
                    # the dict backend's are its live adjacency.
                    assert {v: set(graph.neighbors(v)) for v in g.nodes()} == adjacency, name

    def test_label_partitions(self):
        # The label-partitioned adjacency's consumer is the profile
        # index: each label run's width is one profile entry.
        from collections import Counter

        from repro.graph.profiles import NodeProfileIndex

        g = labeled_preferential_attachment(30, m=3, seed=5)
        csr = freeze(g)
        generic = NodeProfileIndex(g)
        for n in g.nodes():
            profile = csr.profile_index.profile(n)
            assert profile == generic.profile(n)
            assert profile == Counter(g.label(nbr) for nbr in g.neighbors(n))
            assert profile["no-such-label"] == 0

    def test_profile_index_matches_generic(self):
        from repro.graph.profiles import NodeProfileIndex

        g = labeled_preferential_attachment(25, m=2, seed=9)
        csr = freeze(g)
        generic = NodeProfileIndex(g)
        for n in g.nodes():
            assert csr.profile_index.profile(n) == generic.profile(n)
        for label in csr.labels():
            assert set(csr.profile_index.nodes_with_label(label)) == set(
                generic.nodes_with_label(label)
            )


class TestSnapshotSemantics:
    def test_freeze_is_idempotent(self):
        g = preferential_attachment(10, m=2, seed=0)
        csr = freeze(g)
        assert freeze(csr) is csr

    def test_mutation_raises(self):
        csr = freeze(preferential_attachment(6, m=2, seed=0))
        with pytest.raises(GraphError):
            csr.add_node(99)
        with pytest.raises(GraphError):
            csr.add_edge(0, 5)
        with pytest.raises(GraphError):
            csr.remove_node(0)
        with pytest.raises(GraphError):
            csr.set_node_attr(0, "x", 1)

    def test_missing_node_raises(self):
        csr = freeze(preferential_attachment(6, m=2, seed=0))
        with pytest.raises(NodeNotFoundError):
            csr.neighbors(99)

    def test_thaw_round_trip(self):
        g = random_labeled_digraph(15, seed=3)
        thawed = freeze(g).thaw()
        assert_same_reads(g, freeze(thawed))
        thawed.add_node("new")  # mutable again
        assert thawed.has_node("new")

    def test_pickle_round_trip(self):
        g = random_labeled_digraph(20, seed=4)
        csr = freeze(g)
        clone = pickle.loads(pickle.dumps(csr))
        assert_same_reads(g, clone)
        p = directed_path()
        assert {m.canonical_key for m in find_matches(clone, p)} == {
            m.canonical_key for m in find_matches(csr, p)
        }

    def test_non_integer_node_ids(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        csr = freeze(g)
        assert_same_reads(g, csr)
        from repro.census import census

        assert census(csr, triangle(), 1) == census(g, triangle(), 1)


class TestDifferentialMatching:
    @pytest.mark.parametrize("matcher", MATCHERS)
    @given(st.integers(6, 24), st.integers(0, 60))
    @settings(max_examples=20)
    def test_matchers_agree_labeled(self, matcher, n, seed):
        g = labeled_preferential_attachment(n, m=2, seed=seed)
        csr = freeze(g)
        pattern = triangle(labels=("A", "B", "C"))
        want = {m.canonical_key for m in find_matches(g, pattern, method=matcher)}
        got = {m.canonical_key for m in find_matches(csr, pattern, method=matcher)}
        assert got == want

    @pytest.mark.parametrize("matcher", MATCHERS)
    @given(st.integers(6, 20), st.integers(0, 60))
    @settings(max_examples=20)
    def test_matchers_agree_directed(self, matcher, n, seed):
        g = random_labeled_digraph(n, seed)
        csr = freeze(g)
        pattern = directed_path()
        want = {m.canonical_key for m in find_matches(g, pattern, method=matcher)}
        got = {m.canonical_key for m in find_matches(csr, pattern, method=matcher)}
        assert got == want


class TestDifferentialCensus:
    @pytest.mark.parametrize("algorithm", CENSUS_SERIES)
    @given(st.integers(6, 24), st.integers(0, 3), st.integers(0, 60))
    @settings(max_examples=15)
    def test_census_agrees_unlabeled(self, algorithm, n, k, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        csr = freeze(g)
        fn = ALGORITHMS[algorithm]
        assert fn(csr, triangle(), k) == fn(g, triangle(), k)

    @pytest.mark.parametrize("algorithm", CENSUS_SERIES)
    @given(st.integers(6, 20), st.integers(1, 2), st.integers(0, 60))
    @settings(max_examples=15)
    def test_census_agrees_directed_labeled(self, algorithm, n, k, seed):
        g = random_labeled_digraph(n, seed)
        csr = freeze(g)
        fn = ALGORITHMS[algorithm]
        assert fn(csr, directed_path(), k) == fn(g, directed_path(), k)

    @given(st.integers(6, 20), st.integers(0, 40))
    def test_census_agrees_er_graph(self, n, seed):
        g = erdos_renyi(n, min(3 * n, n * (n - 1) // 2), seed=seed)
        csr = freeze(g)
        for algorithm in ("nd-pvot", "pt-opt"):
            fn = ALGORITHMS[algorithm]
            assert fn(csr, triangle(), 2) == fn(g, triangle(), 2)

    @pytest.mark.parametrize("isolated", (1, 3))
    def test_trailing_isolated_nodes(self, isolated):
        # Regression: clamping the reduceat start offsets made a
        # trailing isolated node (start offset == len(indices)) truncate
        # the previous node's adjacency slice, so the bit-parallel BFS
        # missed its last neighbor and undercounted the census.
        g = Graph()
        for i in range(3 + isolated):
            g.add_node(i)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(0, 2)
        csr = freeze(g)
        for algorithm in CENSUS_SERIES:
            fn = ALGORITHMS[algorithm]
            counts = fn(csr, triangle(), 1)
            assert counts == fn(g, triangle(), 1), algorithm
            assert counts[0] == counts[1] == counts[2] == 1
            assert all(counts[3 + i] == 0 for i in range(isolated))


class TestNumpyFallback:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(repro.census.indexed, "_np", None)

    def test_reads_and_census_without_numpy(self, no_numpy):
        g = labeled_preferential_attachment(18, m=2, seed=11)
        csr = CSRGraph(g)
        assert_same_reads(g, csr)
        fn = ALGORITHMS["nd-pvot"]
        assert fn(csr, triangle(), 2) == fn(g, triangle(), 2)
        assert fn(g, triangle(), 2) == ALGORITHMS["nd-bas"](g, triangle(), 2)
        for source in list(g.nodes())[:3]:
            assert bfs_distances(csr, source) == bfs_distances(g, source)

    def test_numpy1_without_bitwise_count_falls_back(self, monkeypatch):
        # numpy < 2.0 has no np.bitwise_count; the bit-parallel path
        # must decline instead of raising AttributeError mid-census.
        from repro.census.indexed import pvot_indexed_counts

        monkeypatch.setattr(repro.census.indexed, "_HAS_BITWISE_COUNT", False)
        g = labeled_preferential_attachment(18, m=2, seed=11)
        csr = freeze(g)
        assert pvot_indexed_counts(csr, [], None, [], 2, 0, {}) is None
        # The dict backend declines the same way (no ball index built).
        assert pvot_indexed_counts(g, [], None, [], 2, 0, {}) is None
        fn = ALGORITHMS["nd-pvot"]
        assert fn(csr, triangle(), 2) == fn(g, triangle(), 2)
        assert fn(g, triangle(), 2) == ALGORITHMS["nd-bas"](g, triangle(), 2)

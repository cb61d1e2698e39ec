"""Correctness tests for the CN, GQL, and brute-force matchers.

Brute force is ground truth; CN and GQL must agree with it on every
graph/pattern combination, including labels, direction, negated edges,
predicates, and automorphism handling.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.generators import (
    erdos_renyi,
    labeled_preferential_attachment,
    preferential_attachment,
)
from repro.graph.graph import Graph
from repro.matching import bruteforce_matches, cn_matches, find_matches, gql_matches
from repro.matching.pattern import Pattern
from repro.matching.predicates import Attr, Comparison, Const

MATCHERS = [cn_matches, gql_matches, bruteforce_matches]


def match_keys(matches):
    keys = {m.canonical_key for m in matches}
    assert len(keys) == len(matches), "distinct matches must have distinct keys"
    return keys


def assert_all_agree(graph, pattern):
    reference = match_keys(bruteforce_matches(graph, pattern))
    assert match_keys(cn_matches(graph, pattern)) == reference
    assert match_keys(gql_matches(graph, pattern)) == reference
    return len(reference)


def triangle(labels=(None, None, None)):
    p = Pattern("tri")
    for var, label in zip("ABC", labels):
        p.add_node(var, label=label)
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


class TestBasicStructures:
    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_single_triangle(self, matcher):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        assert len(matcher(g, triangle())) == 1

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_no_triangle_in_path(self, matcher):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        assert matcher(g, triangle()) == []

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_single_node_pattern_matches_every_node(self, matcher):
        g = Graph()
        for i in range(5):
            g.add_node(i)
        p = Pattern("n")
        p.add_node("A")
        assert len(matcher(g, p)) == 5

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_edge_pattern_counts_edges(self, matcher):
        g = preferential_attachment(40, m=2, seed=1)
        p = Pattern("e")
        p.add_edge("A", "B")
        assert len(matcher(g, p)) == g.num_edges

    def test_embeddings_are_distinct_times_automorphisms(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        p = triangle()
        embeddings = cn_matches(g, p, distinct=False)
        assert len(embeddings) == 6  # |Aut(K3)| = 6
        assert len(cn_matches(g, p, distinct=True)) == 1

    def test_find_matches_dispatch(self):
        g = Graph()
        g.add_edge(1, 2)
        p = Pattern("e")
        p.add_edge("A", "B")
        for method in ("cn", "gql", "bruteforce"):
            assert len(find_matches(g, p, method=method)) == 1
        with pytest.raises(ValueError):
            find_matches(g, p, method="nope")


class TestLabels:
    def test_labels_constrain_matches(self):
        g = Graph()
        g.add_node(1, label="X")
        g.add_node(2, label="Y")
        g.add_node(3, label="X")
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        p = Pattern("xy")
        p.add_node("A", label="X")
        p.add_node("B", label="Y")
        p.add_edge("A", "B")
        assert assert_all_agree(g, p) == 2

    def test_label_absent_from_graph(self):
        g = Graph()
        g.add_node(1, label="X")
        p = Pattern("z")
        p.add_node("A", label="Z")
        assert assert_all_agree(g, p) == 0

    def test_mixed_labeled_unlabeled_pattern(self):
        g = labeled_preferential_attachment(60, m=2, seed=2)
        p = Pattern("mixed")
        p.add_node("A", label="A")
        p.add_node("B")  # wildcard
        p.add_edge("A", "B")
        assert_all_agree(g, p)


class TestDirection:
    def test_directed_edge_matches_one_way(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        p = Pattern("arc")
        p.add_edge("A", "B", directed=True)
        matches = cn_matches(g, p)
        assert len(matches) == 1
        assert matches[0].image("A") == 1

    def test_undirected_pattern_edge_on_directed_graph(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        p = Pattern("e")
        p.add_edge("A", "B")
        # Either direction satisfies the undirected constraint.
        assert assert_all_agree(g, p) == 1

    def test_directed_triangle_cycle(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)
        p = Pattern("cyc")
        p.add_edge("A", "B", directed=True)
        p.add_edge("B", "C", directed=True)
        p.add_edge("C", "A", directed=True)
        assert assert_all_agree(g, p) == 1

    def test_feed_forward_loop(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        ffl = Pattern("ffl")
        ffl.add_edge("A", "B", directed=True)
        ffl.add_edge("B", "C", directed=True)
        ffl.add_edge("A", "C", directed=True)
        assert assert_all_agree(g, ffl) == 1
        # The cyclic triad does not match the FFL.
        cyc = Pattern("cyc")
        cyc.add_edge("A", "B", directed=True)
        cyc.add_edge("B", "C", directed=True)
        cyc.add_edge("C", "A", directed=True)
        assert assert_all_agree(g, cyc) == 0


class TestNegatedEdges:
    def test_open_triad(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 4)
        g.add_edge(1, 3)  # closes 1-2-3
        p = Pattern("open")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_edge("A", "C", negated=True)
        keys = match_keys(bruteforce_matches(g, p))
        # Open triads: 1-2-3 is closed; 2-3-4, 1-3-4 (via 3), 2-1-3 closed...
        assert match_keys(cn_matches(g, p)) == keys
        assert match_keys(gql_matches(g, p)) == keys
        closed_nodes = frozenset((1, 2, 3))
        assert all(k[0] != closed_nodes for k in keys)

    def test_directed_negation_one_way(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)  # back edge exists 3->1, not 1->3
        p = Pattern("triad")
        p.add_edge("A", "B", directed=True)
        p.add_edge("B", "C", directed=True)
        p.add_edge("A", "C", directed=True, negated=True)
        # A=1,B=2,C=3: edge 1->3 absent (3->1 exists) -> match.
        assert assert_all_agree(g, p) == 3  # rotations all qualify


class TestPredicates:
    def test_same_label_join_predicate(self):
        g = Graph()
        g.add_node(1, label="X")
        g.add_node(2, label="X")
        g.add_node(3, label="Y")
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        p = Pattern("same")
        p.add_edge("A", "B")
        p.add_predicate(Comparison(Attr("A", "label"), "=", Attr("B", "label")))
        assert assert_all_agree(g, p) == 1

    def test_numeric_single_var_predicate(self):
        g = Graph()
        g.add_node(1, age=20)
        g.add_node(2, age=50)
        g.add_edge(1, 2)
        p = Pattern("old")
        p.add_node("A")
        p.add_predicate(Comparison(Attr("A", "age"), ">", Const(30)))
        assert assert_all_agree(g, p) == 1

    def test_edge_attr_predicate(self):
        g = Graph()
        g.add_edge(1, 2, sign=-1)
        g.add_edge(2, 3, sign=1)
        p = Pattern("neg")
        p.add_edge("A", "B")
        from repro.matching.predicates import EdgeAttr

        p.add_predicate(Comparison(EdgeAttr("A", "B", "sign"), "=", Const(-1)))
        assert assert_all_agree(g, p) == 1


class TestPropertyAgreement:
    @given(st.integers(5, 35), st.integers(0, 300))
    def test_triangle_census_on_random_pa(self, n, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        assert_all_agree(g, triangle())

    @given(st.integers(5, 30), st.integers(0, 300))
    def test_labeled_path_on_random_labeled_graph(self, n, seed):
        g = labeled_preferential_attachment(n, m=2, seed=seed)
        p = Pattern("path")
        p.add_node("A", label="A")
        p.add_node("B", label="B")
        p.add_node("C", label="C")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        assert_all_agree(g, p)

    @given(st.integers(6, 24), st.integers(0, 200))
    def test_square_on_random_er(self, n, seed):
        g = erdos_renyi(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        p = Pattern("sqr")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_edge("C", "D")
        p.add_edge("D", "A")
        assert_all_agree(g, p)

    @given(st.integers(5, 20), st.integers(0, 200))
    def test_negated_triad_on_random_directed(self, n, seed):
        g = erdos_renyi(n, min(2 * n, n * (n - 1)), seed=seed, directed=True)
        p = Pattern("triad")
        p.add_edge("A", "B", directed=True)
        p.add_edge("B", "C", directed=True)
        p.add_edge("A", "C", directed=True, negated=True)
        assert_all_agree(g, p)

    @given(st.integers(5, 25), st.integers(0, 200))
    def test_clq4_on_dense_er(self, n, seed):
        g = erdos_renyi(n, min(3 * n, n * (n - 1) // 2), seed=seed)
        p = Pattern("clq4")
        for i, a in enumerate("ABCD"):
            for b in "ABCD"[i + 1:]:
                p.add_edge(a, b)
        assert_all_agree(g, p)


class TestCNInternals:
    def test_pruning_reduces_candidates(self):
        from repro.matching.cn import build_cn_state

        g = labeled_preferential_attachment(120, m=3, seed=4)
        p = triangle(labels=("A", "B", "C"))
        state = build_cn_state(g, p)
        for var in p.nodes:
            initial = state.stats["initial_candidates"][var]
            pruned = state.stats["pruned_candidates"][var]
            assert pruned <= initial

    def test_empty_candidates_short_circuit(self):
        g = Graph()
        g.add_node(1, label="X")
        p = Pattern("z")
        p.add_node("A", label="Z")
        p.add_node("B", label="Z")
        p.add_edge("A", "B")
        assert cn_matches(g, p) == []

    def test_cn_sets_are_subsets_of_candidates(self):
        from repro.matching.cn import build_cn_state

        g = labeled_preferential_attachment(60, m=2, seed=5)
        p = triangle(labels=("A", "B", "C"))
        state = build_cn_state(g, p)
        for (var, _n), entry in state.cn.items():
            for (other, _eid), s in entry.items():
                assert s <= state.candidates[other]


class TestNoReferenceCycles:
    """A matching pass leaves no garbage for the cyclic collector.

    A recursive closure refers to itself through its cell; left alone,
    that cycle keeps the whole search state alive until a full
    collection runs, and the allocations it holds trigger collections
    over the whole heap.
    """

    @staticmethod
    def garbage_after(run):
        import gc

        gc.collect()
        gc.disable()
        try:
            result = run()
            return gc.collect(), result
        finally:
            gc.enable()

    @pytest.mark.parametrize("method", ["cn", "gql", "bruteforce"])
    @pytest.mark.parametrize("distinct", [True, False])
    def test_find_matches(self, method, distinct):
        g = preferential_attachment(60, m=3, seed=2)
        garbage, matches = self.garbage_after(
            lambda: find_matches(g, triangle(), method=method, distinct=distinct))
        assert matches and garbage == 0

    def test_seeded_and_distance_join(self):
        from repro.matching.distance_join import distance_join_matches
        from repro.matching.seeded import matches_using_node

        g = preferential_attachment(60, m=3, seed=2)
        garbage, matches = self.garbage_after(
            lambda: matches_using_node(g, triangle(), 0))
        assert matches and garbage == 0
        garbage, matches = self.garbage_after(
            lambda: distance_join_matches(g, triangle(), 2))
        assert matches and garbage == 0

"""Tests for censusing several patterns in one call.

``census_feature_vectors`` runs one census per ``(pattern, k[, subpattern])``
query and returns one column per query; these tests read each column back
as a ``{node: count}`` census and check it against the single-pattern one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.roles import census_feature_vectors
from repro.census import census
from repro.graph.generators import labeled_preferential_attachment, preferential_attachment
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern


def node_pattern():
    p = Pattern("node")
    p.add_node("A")
    return p


def edge_pattern():
    p = Pattern("edge")
    p.add_edge("A", "B")
    return p


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def multi(graph, queries, nodes=None):
    """One ``{node: count}`` census per query, keyed by pattern name."""
    vectors = census_feature_vectors(graph, queries, nodes=nodes)
    return {q[0].name: {n: v[i] for n, v in vectors.items()}
            for i, q in enumerate(queries)}


class TestAgreement:
    @settings(max_examples=20)
    @given(st.integers(8, 30), st.integers(0, 3), st.integers(0, 150))
    def test_matches_individual_censuses(self, n, k, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        patterns = [node_pattern(), edge_pattern(), triangle()]
        combined = multi(g, [(p, k) for p in patterns])
        for p in patterns:
            assert combined[p.name] == census(g, p, k, algorithm="nd-bas"), p.name

    def test_labeled_patterns(self):
        g = labeled_preferential_attachment(50, m=2, seed=4)
        a = Pattern("pairAB")
        a.add_node("A", label="A")
        a.add_node("B", label="B")
        a.add_edge("A", "B")
        b = Pattern("pairCD")
        b.add_node("A", label="C")
        b.add_node("B", label="D")
        b.add_edge("A", "B")
        combined = multi(g, [(a, 2), (b, 2)])
        assert combined["pairAB"] == census(g, a, 2, algorithm="nd-bas")
        assert combined["pairCD"] == census(g, b, 2, algorithm="nd-bas")

    def test_subpatterns_per_pattern(self):
        g = preferential_attachment(30, m=2, seed=5)
        path = Pattern("path")
        path.add_edge("A", "B")
        path.add_edge("B", "C")
        path.add_subpattern("center", ["B"])
        combined = multi(g, [(path, 1, "center"), (edge_pattern(), 1)])
        assert combined["path"] == census(g, path, 1, subpattern="center",
                                          algorithm="nd-bas")
        assert combined["edge"] == census(g, edge_pattern(), 1, algorithm="nd-bas")

    def test_focal_subset(self):
        g = preferential_attachment(40, m=2, seed=6)
        focal = [0, 3, 7]
        combined = multi(g, [(triangle(), 2)], nodes=iter(focal))
        assert set(combined["tri"]) == set(focal)
        assert combined["tri"] == census(g, triangle(), 2, focal_nodes=focal,
                                         algorithm="nd-bas")


class TestValidation:
    def test_matchless_pattern_all_zero(self):
        g = preferential_attachment(10, m=1, seed=0)  # a tree: no triangles
        combined = multi(g, [(triangle(), 1), (edge_pattern(), 1)])
        assert all(c == 0 for c in combined["tri"].values())
        assert any(c > 0 for c in combined["edge"].values())

    def test_k_zero(self):
        g = preferential_attachment(12, m=2, seed=1)
        combined = multi(g, [(node_pattern(), 0), (edge_pattern(), 0)])
        assert all(c == 1 for c in combined["node"].values())
        assert all(c == 0 for c in combined["edge"].values())

    def test_single_pattern_degenerates_to_census(self):
        g = preferential_attachment(25, m=2, seed=2)
        combined = multi(g, [(triangle(), 2)])
        assert combined["tri"] == census(g, triangle(), 2, algorithm="nd-pvot")

    def test_all_patterns_matchless(self):
        g = Graph()
        for i in range(4):
            g.add_node(i)
        combined = multi(g, [(triangle(), 2), (edge_pattern(), 2)])
        assert all(c == 0 for counts in combined.values() for c in counts.values())

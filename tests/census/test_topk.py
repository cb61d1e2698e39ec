"""Tests for top-k census evaluation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census import census
from repro.census.topk import census_topk
from repro.graph.generators import labeled_preferential_attachment, preferential_attachment
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def assert_valid_topk(got, graph, pattern, k, K, **kwargs):
    """A top-k result is valid when (1) every reported count is the
    node's exact census count and (2) the multiset of reported counts
    equals the K largest counts of a full census (tied nodes at the
    boundary are interchangeable)."""
    counts = census(graph, pattern, k, algorithm="nd-bas", **kwargs)
    focal = kwargs.get("focal_nodes")
    expected_len = min(K, len(counts))
    assert len(got) == expected_len
    for node, count in got:
        assert counts[node] == count
        if focal is not None:
            assert node in set(focal)
    want_counts = sorted(counts.values(), reverse=True)[:K]
    assert sorted((c for _n, c in got), reverse=True) == want_counts
    assert [c for _n, c in got] == sorted((c for _n, c in got), reverse=True)


class TestExactness:
    @settings(max_examples=25)
    @given(st.integers(10, 40), st.integers(1, 3), st.integers(1, 8), st.integers(0, 150))
    def test_matches_full_census(self, n, k, K, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        got = census_topk(g, triangle(), k, K)
        assert_valid_topk(got, g, triangle(), k, K)

    def test_labeled_pattern(self):
        g = labeled_preferential_attachment(60, m=3, seed=4)
        p = Pattern("tri")
        p.add_node("A", label="A")
        p.add_node("B", label="B")
        p.add_node("C", label="C")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_edge("A", "C")
        assert_valid_topk(census_topk(g, p, 2, 5), g, p, 2, 5)

    def test_with_subpattern(self):
        g = preferential_attachment(40, m=2, seed=7)
        p = Pattern("path")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_subpattern("mid", ["B"])
        got = census_topk(g, p, 1, 4, subpattern="mid")
        assert_valid_topk(got, g, p, 1, 4, subpattern="mid")

    def test_focal_subset(self):
        g = preferential_attachment(50, m=2, seed=9)
        focal = [n for n in range(50) if n % 2 == 0]
        got = census_topk(g, triangle(), 2, 3, focal_nodes=focal)
        assert_valid_topk(got, g, triangle(), 2, 3, focal_nodes=focal)


class TestEdgeCases:
    def test_k_zero_results(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        assert census_topk(g, triangle(), 1, 0) == []

    def test_no_matches_returns_zeros(self):
        g = Graph()
        for i in range(5):
            g.add_node(i)
        top = census_topk(g, triangle(), 2, 3)
        assert len(top) == 3
        assert all(c == 0 for _n, c in top)

    def test_K_exceeds_node_count(self):
        g = preferential_attachment(10, m=2, seed=1)
        top = census_topk(g, triangle(), 1, 100)
        assert len(top) == 10


class TestEarlyTermination:
    def test_saves_exact_evaluations(self):
        # Skewed graph: triangles concentrate at hubs, so the threshold
        # fires long before every node is evaluated.
        g = preferential_attachment(400, m=3, seed=3)
        with ObsContext() as obs:
            top = census_topk(g, triangle(), 2, 5)
        assert obs.registry.counter("census.topk.exact_evaluations").value < g.num_nodes
        assert_valid_topk(top, g, triangle(), 2, 5)

    def test_stats_shape(self):
        g = preferential_attachment(30, m=2, seed=2)
        with ObsContext() as obs:
            census_topk(g, triangle(), 1, 2)
        topk = {name: value for name, value in obs.registry.snapshot()["counters"].items()
                if name.startswith("census.topk.")}
        assert set(topk) == {"census.topk.exact_evaluations", "census.topk.candidates_total"}
        assert 0 < topk["census.topk.exact_evaluations"] <= topk["census.topk.candidates_total"]
        assert topk["census.topk.candidates_total"] == g.num_nodes

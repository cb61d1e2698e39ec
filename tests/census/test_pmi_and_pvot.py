"""Tests for pattern match indexes, ND-PVOT internals, and ND-DIFF
chain behavior."""

import pytest

from repro.census.base import CensusRequest, containment_distances, prepare_matches
from repro.census.nd_bas import nd_bas_census
from repro.census.nd_diff import nd_diff_census
from repro.census.nd_pvot import nd_pvot_census
from repro.census.pmi import PatternMatchIndex
from repro.graph.generators import preferential_attachment
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def path3():
    p = Pattern("p3")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("C", "D")
    return p


class TestPatternMatchIndex:
    def test_pivot_mode_indexes_once(self):
        g = preferential_attachment(40, m=2, seed=1)
        request = CensusRequest(g, triangle(), 1)
        units = prepare_matches(request)
        pmi = PatternMatchIndex(units, pivot_var="A")
        total = sum(len(pmi.matches_at(n)) for n in pmi.anchored_nodes())
        assert total == len(units)

    def test_all_nodes_mode_indexes_every_node(self):
        g = preferential_attachment(40, m=2, seed=1)
        request = CensusRequest(g, triangle(), 1)
        units = prepare_matches(request)
        pmi = PatternMatchIndex(units)
        total = sum(len(pmi.matches_at(n)) for n in pmi.anchored_nodes())
        assert total == 3 * len(units)

    def test_matches_at_unknown_node_empty(self):
        pmi = PatternMatchIndex([])
        assert pmi.matches_at("nope") == ()
        assert len(pmi) == 0


class TestContainmentDistances:
    def test_pivot_minimizes_eccentricity(self):
        request = CensusRequest(Graph(), _request_graph_pattern(), 1)

    def test_path_pivot_is_middle(self):
        g = _line_graph(6)
        request = CensusRequest(g, path3(), 1)
        pivot, max_v, dists = containment_distances(request)
        assert pivot == "B"  # eccentricity 2, tie broken by name
        assert max_v == 2
        assert dists == {"A": 1, "B": 0, "C": 1, "D": 2}

    def test_subpattern_restricts_pivot(self):
        p = path3()
        p.add_subpattern("ends", ["A", "D"])
        g = _line_graph(6)
        request = CensusRequest(g, p, 1, subpattern="ends")
        pivot, max_v, dists = containment_distances(request)
        assert pivot == "A"  # restricted to {A, D}; both ecc 3, name tiebreak
        assert max_v == 3
        assert set(dists) == {"A", "D"}


def _line_graph(n):
    g = Graph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def _request_graph_pattern():
    p = Pattern("n")
    p.add_node("A")
    return p


class TestNDPvot:
    def test_custom_pivot_same_result(self):
        g = preferential_attachment(50, m=2, seed=3)
        p = path3()
        baseline = nd_bas_census(g, p, 2)
        for pivot in "ABCD":
            assert nd_pvot_census(g, p, 2, pivot_var=pivot) == baseline

    def test_invalid_pivot_rejected(self):
        g = preferential_attachment(20, m=2, seed=3)
        with pytest.raises(ValueError):
            nd_pvot_census(g, triangle(), 1, pivot_var="Z")

    def test_pivot_outside_subpattern_rejected(self):
        g = preferential_attachment(20, m=2, seed=3)
        p = path3()
        p.add_subpattern("mid", ["B"])
        with pytest.raises(ValueError):
            nd_pvot_census(g, p, 1, subpattern="mid", pivot_var="A")

    def test_stats_track_bulk_vs_checked(self):
        g = preferential_attachment(60, m=3, seed=4)
        with ObsContext() as obs:
            nd_pvot_census(g, triangle(), 3)
        span = obs.root("census.nd_pvot")
        assert span.attrs["pivot"] in ("A", "B", "C")
        assert span.attrs["max_v"] == 1
        # With k=3 >> pattern radius, most additions are bulk.
        counters = obs.registry.snapshot()["counters"]
        assert counters["census.nd_pvot.bulk_added"] > 0

    def test_bulk_shortcut_consistent_with_explicit(self):
        # k == max_v forces explicit checks everywhere near the rim.
        g = preferential_attachment(40, m=2, seed=5)
        p = path3()
        assert nd_pvot_census(g, p, 2) == nd_bas_census(g, p, 2)


class TestNDDiff:
    def test_chain_restart_on_isolated_focal_nodes(self):
        # Focal nodes that are pairwise non-adjacent force restarts.
        g = _line_graph(10)
        p = Pattern("edge")
        p.add_edge("A", "B")
        focal = [0, 4, 9]
        assert nd_diff_census(g, p, 1, focal_nodes=focal) == nd_bas_census(
            g, p, 1, focal_nodes=focal
        )

    def test_neighbor_chain_path(self):
        g = _line_graph(12)
        p = Pattern("edge")
        p.add_edge("A", "B")
        assert nd_diff_census(g, p, 2) == nd_bas_census(g, p, 2)

    def test_empty_match_set(self):
        g = _line_graph(5)
        counts = nd_diff_census(g, triangle(), 2)
        assert all(c == 0 for c in counts.values())

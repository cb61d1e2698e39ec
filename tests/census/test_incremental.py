"""Tests for incremental census maintenance."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census import census
from repro.census.incremental import IncrementalCensus
from repro.errors import CensusError
from repro.graph.generators import erdos_renyi, preferential_attachment
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def open_triad():
    p = Pattern("open")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C", negated=True)
    return p


def assert_matches_recompute(inc):
    expected = census(inc.graph, inc.pattern, inc.k, subpattern=inc.subpattern,
                      algorithm="nd-bas")
    assert inc.snapshot() == expected


class TestInsertions:
    def test_closing_a_triangle(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        inc = IncrementalCensus(g, triangle(), 1)
        assert inc[1] == 0
        inc.add_edge(1, 3)
        assert inc[1] == 1 and inc[2] == 1 and inc[3] == 1
        assert_matches_recompute(inc)

    def test_far_nodes_untouched(self):
        g = Graph()
        for i in range(9):
            g.add_edge(i, i + 1)  # long path
        inc = IncrementalCensus(g, triangle(), 1)
        before = inc.refreshed_nodes
        inc.add_edge(0, 2)  # triangle at one end
        touched = inc.refreshed_nodes - before
        assert touched < 9  # the far end was not recomputed
        assert_matches_recompute(inc)

    def test_negated_pattern_loses_matches(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        inc = IncrementalCensus(g, open_triad(), 1)
        assert inc[2] == 1  # 1-2-3 is open
        inc.add_edge(1, 3)  # closes it
        assert inc[2] == 0
        assert_matches_recompute(inc)

    def test_new_nodes_via_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        inc = IncrementalCensus(g, triangle(), 2)
        inc.add_edge(3, 4)
        assert inc[3] == 0
        assert_matches_recompute(inc)

    def test_add_isolated_node(self):
        g = Graph()
        g.add_edge(1, 2)
        inc = IncrementalCensus(g, triangle(), 1)
        inc.add_node(99)
        assert inc[99] == 0
        assert_matches_recompute(inc)

    def test_attribute_merge_refreshes(self):
        g = Graph()
        g.add_node(1, label="X")
        g.add_node(2, label="X")
        g.add_node(3, label="Y")
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        p = Pattern("same")
        p.add_edge("A", "B")
        from repro.matching.predicates import Attr, Comparison

        p.add_predicate(Comparison(Attr("A", "label"), "=", Attr("B", "label")))
        inc = IncrementalCensus(g, p, 1)
        assert inc[3] == 0  # 3's 1-hop holds only the mixed-label 2-3 edge
        inc.add_node(3, label="X")  # relabel: 2-3 becomes a same-label edge
        assert inc[3] == 1
        assert inc[1] == 1  # 1's 1-hop sees the 1-2 same-label edge
        assert_matches_recompute(inc)


class TestDeletions:
    def test_breaking_a_triangle(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        inc = IncrementalCensus(g, triangle(), 1)
        assert inc[1] == 1
        inc.remove_edge(1, 3)
        assert inc[1] == 0
        assert_matches_recompute(inc)

    def test_negated_pattern_gains_matches(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        inc = IncrementalCensus(g, open_triad(), 1)
        assert inc[2] == 0
        inc.remove_edge(1, 3)
        assert inc[2] == 1
        assert_matches_recompute(inc)


class TestSubpattern:
    def test_subpattern_counts_maintained(self):
        g = Graph()
        g.add_edge(1, 2)
        p = Pattern("path")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_subpattern("center", ["B"])
        inc = IncrementalCensus(g, p, 0, subpattern="center")
        assert inc[1] == 0
        inc.add_edge(2, 3)
        # 2 is now the center of path 1-2-3.
        assert inc[2] == 1
        assert_matches_recompute(inc)

    def test_distant_subpattern_effect_caught(self):
        # Path pattern with subpattern on one end: an edge insertion two
        # hops away from a focal node can still create a count.
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        p = Pattern("p3")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_subpattern("end", ["A"])
        inc = IncrementalCensus(g, p, 0, subpattern="end")
        before = inc[1]
        inc.add_edge(3, 4)  # creates path 2-3-4 with A=2 ... and others
        assert_matches_recompute(inc)
        assert inc[1] >= before


class TestRandomizedSequences:
    @settings(max_examples=15)
    @given(st.integers(6, 16), st.integers(0, 300), st.integers(0, 300))
    def test_insertion_sequence_matches_recompute(self, n, seed, op_seed):
        g = erdos_renyi(n, n, seed=seed)
        inc = IncrementalCensus(g, triangle(), 1)
        rng = random.Random(op_seed)
        nodes = list(range(n))
        for _ in range(6):
            u, v = rng.sample(nodes, 2)
            if not g.has_edge(u, v):
                inc.add_edge(u, v)
        assert_matches_recompute(inc)

    @settings(max_examples=10)
    @given(st.integers(8, 14), st.integers(0, 200))
    def test_mixed_sequence(self, n, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        inc = IncrementalCensus(g, open_triad(), 1)
        rng = random.Random(seed + 1)
        for step in range(5):
            edges = list(g.edges())
            if step % 2 == 0 and edges:
                u, v = rng.choice(edges)
                inc.remove_edge(u, v)
            else:
                u, v = rng.sample(range(n), 2)
                if not g.has_edge(u, v):
                    inc.add_edge(u, v)
        assert_matches_recompute(inc)


class TestReadAPI:
    def test_unknown_node_raises(self):
        g = Graph()
        g.add_edge(1, 2)
        inc = IncrementalCensus(g, triangle(), 1, focal_nodes=[1])
        with pytest.raises(CensusError):
            inc.count(2)

    def test_len_and_snapshot_isolation(self):
        g = Graph()
        g.add_edge(1, 2)
        inc = IncrementalCensus(g, triangle(), 1)
        snap = inc.snapshot()
        snap[1] = 999
        assert inc[1] != 999
        assert len(inc) == 2


def test_census_layer_does_not_load_the_query_engine():
    # The private match store comes from repro.query.match_store; using
    # it must not pull the query engine into the census layer.
    import repro

    code = (
        "import sys\n"
        "from repro.census import IncrementalCensus\n"
        "from repro.graph.graph import Graph\n"
        "from repro.matching.pattern import Pattern\n"
        "p = Pattern('e'); p.add_edge('A', 'B')\n"
        "g = Graph(); g.add_edge(1, 2)\n"
        "IncrementalCensus(g, p, 1).add_edge(2, 3)\n"
        "assert 'repro.query.engine' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

"""Tests for PT-OPT options, orderings, centers, and clustering toggles.

The relaxation is order-independent, so *every* option combination must
return the ND-BAS counts; the options only change work done.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.census.nd_bas import nd_bas_census
from repro.census.pt_bas import pt_bas_census
from repro.census.pt_opt import PTOptions, pt_opt_census, pt_rnd_census
from repro.graph.generators import labeled_preferential_attachment, preferential_attachment
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


class TestOptionCombinations:
    @pytest.mark.parametrize("order", ["best", "random", "fifo"])
    @pytest.mark.parametrize("shortcuts", [True, False])
    def test_orders_and_shortcuts(self, order, shortcuts):
        g = preferential_attachment(40, m=2, seed=1)
        baseline = nd_bas_census(g, triangle(), 2)
        opts = PTOptions(order=order, distance_shortcuts=shortcuts)
        assert pt_opt_census(g, triangle(), 2, options=opts) == baseline

    @pytest.mark.parametrize("num_centers", [0, 1, 4, 12])
    def test_center_counts(self, num_centers):
        g = preferential_attachment(50, m=2, seed=2)
        baseline = nd_bas_census(g, triangle(), 2)
        assert pt_opt_census(g, triangle(), 2, num_centers=num_centers) == baseline

    @pytest.mark.parametrize("strategy", ["degree", "random"])
    def test_center_strategies(self, strategy):
        g = preferential_attachment(50, m=2, seed=3)
        baseline = nd_bas_census(g, triangle(), 2)
        assert pt_opt_census(g, triangle(), 2, center_strategy=strategy) == baseline

    @pytest.mark.parametrize("clustering", ["kmeans", "random", "none"])
    def test_clustering_strategies(self, clustering):
        g = preferential_attachment(50, m=2, seed=4)
        baseline = nd_bas_census(g, triangle(), 2)
        assert pt_opt_census(g, triangle(), 2, clustering=clustering) == baseline

    @pytest.mark.parametrize("num_clusters", [1, 3, 1000])
    def test_cluster_counts(self, num_clusters):
        g = preferential_attachment(50, m=2, seed=5)
        baseline = nd_bas_census(g, triangle(), 2)
        assert pt_opt_census(g, triangle(), 2, num_clusters=num_clusters) == baseline

    def test_pt_rnd_wrapper(self):
        g = preferential_attachment(40, m=2, seed=6)
        baseline = nd_bas_census(g, triangle(), 2)
        assert pt_rnd_census(g, triangle(), 2) == baseline
        # An order from the options or an override never displaces "random".
        with ObsContext() as obs:
            got = pt_rnd_census(g, triangle(), 2, options=PTOptions(order="fifo"),
                                order="best", num_centers=2)
        assert got == baseline
        assert obs.root("census.pt_opt").attrs["order"] == "random"

    def test_bad_order_rejected(self):
        g = preferential_attachment(20, m=2, seed=6)
        with pytest.raises(ValueError):
            pt_opt_census(g, triangle(), 1, order="dfs")

    def test_overrides_on_options_object(self):
        g = preferential_attachment(30, m=2, seed=7)
        opts = PTOptions(num_centers=2)
        baseline = nd_bas_census(g, triangle(), 1)
        assert pt_opt_census(g, triangle(), 1, options=opts, order="fifo") == baseline


class TestStats:
    def test_stats_populated(self):
        g = preferential_attachment(60, m=2, seed=8)
        with ObsContext() as obs:
            pt_opt_census(g, triangle(), 2)
        counters = obs.registry.snapshot()["counters"]
        assert counters["census.pt_opt.queue_pops"] > 0
        assert counters["census.pt_opt.clusters"] >= 1
        assert counters["census.pt_opt.nodes_touched"] > 0

    def test_best_first_pops_at_most_random(self):
        # The paper's Figure 2 argument: best-first avoids reinsertions.
        g = labeled_preferential_attachment(300, m=3, seed=9)
        p = Pattern("tri")
        p.add_node("A", label="A")
        p.add_node("B", label="B")
        p.add_node("C", label="C")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_edge("A", "C")
        pops = {}
        for order in ("best", "random"):
            opts = PTOptions(order=order, clustering="none", num_centers=0, seed=3)
            with ObsContext() as obs:
                pt_opt_census(g, p, 2, options=opts)
            pops[order] = obs.registry.counter("census.pt_opt.queue_pops").value
        assert pops["best"] <= pops["random"]


class TestAgainstPTBas:
    @given(st.integers(10, 35), st.integers(1, 3), st.integers(0, 120))
    def test_pt_opt_equals_pt_bas(self, n, k, seed):
        g = preferential_attachment(n, m=2, seed=seed)
        assert pt_opt_census(g, triangle(), k) == pt_bas_census(g, triangle(), k)

    def test_shared_center_index_reuse(self):
        from repro.census.centers import CenterIndex, select_centers

        g = preferential_attachment(40, m=2, seed=10)
        index = CenterIndex(g, select_centers(g, 4))
        baseline = nd_bas_census(g, triangle(), 2)
        opts = PTOptions(center_index=index)
        assert pt_opt_census(g, triangle(), 2, options=opts) == baseline

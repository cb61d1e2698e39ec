"""Tests for the exact-count cost planner."""

import random

import pytest

import repro.census.indexed
from repro.census import ALGORITHMS, census
from repro.census.planner import ALPHA, choose_algorithm, predicted_costs, pvot_loop
from repro.graph.csr import freeze
from repro.graph.generators import labeled_preferential_attachment, preferential_attachment
from repro.graph.graph import Graph
from repro.lang.catalog import standard_catalog
from repro.matching import find_matches
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def unlabeled_triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def labeled_triangle():
    p = Pattern("tri")
    p.add_node("A", label="A")
    p.add_node("B", label="B")
    p.add_node("C", label="C")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


@pytest.fixture(scope="module")
def labeled500():
    return labeled_preferential_attachment(500, m=5, seed=0)


@pytest.fixture(scope="module")
def labeled2000():
    return labeled_preferential_attachment(2000, m=5, seed=0)


def chosen(fn):
    """Run ``fn`` under an obs context; return its value and the one
    ``planner.chose.*`` counter it recorded."""
    with ObsContext() as obs:
        value = fn()
    picks = [name for name in obs.registry.snapshot()["counters"]
             if name.startswith("planner.chose.")]
    assert len(picks) == 1, picks
    return value, picks[0][len("planner.chose."):].replace("_", "-")


class TestChoices:
    def test_unselective_pattern_goes_node_driven(self):
        g = preferential_attachment(100, m=2, seed=0)
        assert choose_algorithm(g, unlabeled_triangle(), 2) == "nd-pvot"

    def test_selective_pattern_goes_pattern_driven(self, labeled2000):
        # 10 labeled 4-cliques x 4 nodes x alpha 40 = 1600 PT-BAS balls
        # against 2000 focal balls.
        clq4 = standard_catalog().get("clq4")
        assert len(find_matches(labeled2000, clq4)) == 10
        assert choose_algorithm(labeled2000, clq4, 2) == "pt-bas"

    def test_larger_labeled_patterns_go_node_driven(self, labeled500):
        catalog = standard_catalog()
        for name in ("sqr", "path2"):
            assert choose_algorithm(labeled500, catalog.get(name), 2) == "nd-pvot", name

    def test_tiny_focal_set_goes_node_driven(self):
        g = labeled_preferential_attachment(100, m=2, seed=0)
        assert choose_algorithm(g, labeled_triangle(), 2, focal_nodes=[0, 1]) == "nd-pvot"

    def test_choice_is_registered_algorithm(self):
        g = preferential_attachment(50, m=2, seed=1)
        assert choose_algorithm(g, unlabeled_triangle(), 1) in ALGORITHMS

    def test_auto_produces_correct_counts(self):
        g = labeled_preferential_attachment(40, m=2, seed=2)
        auto = census(g, labeled_triangle(), 2, algorithm="auto")
        ref = census(g, labeled_triangle(), 2, algorithm="nd-bas")
        assert auto == ref

    def test_dict_2000_node_full_focal_clique_goes_pattern_driven(self, labeled2000):
        clq4 = standard_catalog().get("clq4")
        for k in (1, 2, 3):
            assert choose_algorithm(labeled2000, clq4, k) == "pt-bas"
        # A smaller focal set pays fewer ND-PVOT balls than the matches'.
        assert choose_algorithm(labeled2000, clq4, 3, focal_nodes=range(1000)) == "nd-pvot"

    def test_csr_constant_keeps_node_driven(self, labeled500, labeled2000):
        # The indexed ND-PVOT kernel won every measured CSR case.
        catalog = standard_catalog()
        for graph in (labeled500, labeled2000):
            csr = freeze(graph)
            for name in ("clq3", "sqr", "path2"):
                for k in (1, 2, 3):
                    assert choose_algorithm(csr, catalog.get(name), k) == "nd-pvot"

    def test_dict_takes_the_kernel_constant(self, labeled500, labeled2000):
        # The dict backend runs the same kernel, over the focal set's
        # ball, so it plans like CSR.
        catalog = standard_catalog()
        for graph in (labeled500, labeled2000):
            for name in ("clq3", "sqr", "path2"):
                for k in (1, 2, 3):
                    assert choose_algorithm(graph, catalog.get(name), k) == "nd-pvot"

    def test_set_loop_constant_without_the_kernel(self, labeled500, monkeypatch):
        # Without numpy >= 2 ND-PVOT runs its per-node set loop, and the
        # planner prices PT-BAS against that loop: 56 labeled triangles
        # x 3 nodes x alpha 2 = 336 PT-BAS balls against 500 focal balls.
        monkeypatch.setattr(repro.census.indexed, "_HAS_BITWISE_COUNT", False)
        assert pvot_loop() == "set"
        clq3 = standard_catalog().get("clq3")
        assert choose_algorithm(labeled500, clq3, 2) == "pt-bas"
        assert choose_algorithm(labeled500, clq3, 2, focal_nodes=range(300)) == "nd-pvot"


class TestCostModel:
    def test_larger_focal_set_never_flips_back_to_node_driven(self, labeled500):
        p = labeled_triangle()
        for m in (0, 1, 5, 40, 90):
            picks = [choose_algorithm(labeled500, p, 2, focal_nodes=range(f), num_matches=m)
                     for f in range(0, 501, 10)]
            first = picks.index("pt-bas") if "pt-bas" in picks else len(picks)
            assert set(picks[first:]) <= {"pt-bas"}, m
            assert set(picks[:first]) <= {"nd-pvot"}, m

    def test_more_matches_never_flip_to_pattern_driven(self, labeled500):
        p = labeled_triangle()
        for f in (1, 10, 100, 500):
            focal = range(f)
            picks = [choose_algorithm(labeled500, p, 2, focal_nodes=focal, num_matches=m)
                     for m in range(0, 200, 3)]
            first = picks.index("nd-pvot") if "nd-pvot" in picks else len(picks)
            assert set(picks[first:]) <= {"nd-pvot"}, f

    def test_rule_is_alpha_times_matches_times_width_against_focal(self, labeled500):
        p = labeled_triangle()
        alpha = ALPHA[pvot_loop()]
        # Break-even at F = alpha * M * 3.
        m = 20
        edge = int(alpha * m * 3)
        assert choose_algorithm(labeled500, p, 2, focal_nodes=range(edge),
                                num_matches=m) == "nd-pvot"
        assert choose_algorithm(labeled500, p, 2, focal_nodes=range(edge + 1),
                                num_matches=m) == "pt-bas"
        assert predicted_costs(p, m, edge) == {
            "nd-pvot": edge, "pt-bas": alpha * m * 3,
        }

    def test_subpattern_width_counts_containment_nodes(self, labeled500):
        p = labeled_triangle()
        p.add_subpattern("apex", ["A"])
        assert predicted_costs(p, 10, 100, subpattern="apex")["pt-bas"] == (
            ALPHA[pvot_loop()] * 10
        )

    def test_parallel_workers_go_node_driven(self, labeled2000):
        clq4 = standard_catalog().get("clq4")
        assert choose_algorithm(labeled2000, clq4, 2) == "pt-bas"
        for workers in (2, 4, None):
            assert choose_algorithm(labeled2000, clq4, 2, workers=workers) == "nd-pvot"
            assert choose_algorithm(labeled2000, clq4, 2, num_matches=0,
                                    workers=workers) == "nd-pvot"


class TestAutoCensus:
    def test_auto_matches_once_and_adopts_the_list(self, labeled2000):
        clq4 = standard_catalog().get("clq4")
        matches = find_matches(labeled2000, clq4)
        calls = []

        def provider():
            calls.append(1)
            return matches

        with ObsContext() as obs:
            auto = census(labeled2000, clq4, 2, matches=provider)
        assert calls == [1]
        assert "match.cn.matches" not in obs.registry.snapshot()["counters"]
        with ObsContext() as obs:
            assert census(labeled2000, clq4, 2) == auto
        spans = [s.name for root in obs.roots for s in root.walk()]
        assert spans.count("match.cn") == 1
        planner = next(s for root in obs.roots for s in root.walk() if s.name == "planner")
        assert planner.attrs == {"algorithm": "pt-bas", "num_matches": 10, "focal": 2000}
        assert auto == census(labeled2000, clq4, 2, algorithm="nd-pvot")

    def test_auto_accepts_a_focal_iterator(self, labeled500):
        clq3 = standard_catalog().get("clq3")
        got = census(labeled500, clq3, 2, focal_nodes=iter(range(300)))
        assert got == census(labeled500, clq3, 2, focal_nodes=range(300),
                             algorithm="nd-pvot")

    def test_auto_equals_nd_bas_on_random_labeled_graphs(self):
        rng = random.Random(12)
        triangle = labeled_triangle()
        path = Pattern("path")
        path.add_edge("A", "B")
        path.add_edge("B", "C")
        apex = labeled_triangle()
        apex.add_subpattern("apex", ["A", "B"])
        wedge = Pattern("open_wedge")
        wedge.add_node("A", label="A")
        wedge.add_edge("A", "B")
        wedge.add_edge("B", "C")
        wedge.add_edge("A", "C", negated=True)
        cases = [(triangle, None), (path, None), (apex, "apex"), (wedge, None)]
        picks = set()
        for trial in range(24):
            n = rng.randrange(8, 40)
            g = Graph()
            for i in range(n):
                g.add_node(i, label=rng.choice("ABC"))
            for _ in range(rng.randrange(n, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.add_edge(u, v)
            pattern, subpattern = cases[trial % len(cases)]
            k = rng.randrange(0, 3)
            focal = None if trial % 3 else rng.sample(range(n), rng.randrange(1, n))
            got, pick = chosen(lambda: census(g, pattern, k, focal_nodes=focal,
                                              subpattern=subpattern))
            want = census(g, pattern, k, focal_nodes=focal, subpattern=subpattern,
                          algorithm="nd-bas")
            assert got == want, (trial, pattern.name, pick)
            picks.add(pick)
        assert set(picks) == {"nd-pvot", "pt-bas"}


class TestEstimator:
    def test_label_constraints_shrink_estimate(self):
        from repro.census.planner import estimate_matches

        g = labeled_preferential_attachment(200, m=2, seed=0)
        assert estimate_matches(g, labeled_triangle()) < estimate_matches(
            g, unlabeled_triangle()
        )

    def test_absent_label_estimates_zero(self):
        from repro.census.planner import estimate_matches
        from repro.matching.pattern import Pattern

        g = preferential_attachment(50, m=2, seed=0)
        p = Pattern("z")
        p.add_node("A", label="Z")
        assert estimate_matches(g, p) == 0.0

    def test_ballpark_on_unlabeled_triangles(self):
        from repro.census.planner import estimate_matches
        from repro.matching import cn_matches

        g = preferential_attachment(150, m=2, seed=3)
        est = estimate_matches(g, unlabeled_triangle())
        actual = len(cn_matches(g, unlabeled_triangle()))
        # Independence estimates on PA graphs land within an order of
        # magnitude — enough to explain a pairwise strategy.
        assert actual / 10 <= est <= actual * 10 + 10

    def test_empty_graph(self):
        from repro.census.planner import estimate_matches
        from repro.graph.graph import Graph

        assert estimate_matches(Graph(), unlabeled_triangle()) == 0.0

    def test_predicates_discount(self):
        from repro.census.planner import estimate_matches
        from repro.matching.pattern import Pattern
        from repro.matching.predicates import Attr, Comparison

        g = preferential_attachment(80, m=2, seed=1)
        plain = Pattern("e")
        plain.add_edge("A", "B")
        constrained = Pattern("e2")
        constrained.add_edge("A", "B")
        constrained.add_predicate(
            Comparison(Attr("A", "score"), ">", Attr("B", "score"))
        )
        assert estimate_matches(g, constrained) < estimate_matches(g, plain)

"""Tests for query plan explanation."""

import re

import pytest

from repro.graph.generators import labeled_preferential_attachment, preferential_attachment
from repro.lang.catalog import standard_catalog
from repro.matching import find_matches
from repro.obs import ObsContext
from repro.query.engine import QueryEngine

#: A labeled 4-clique with two C corners: one match on the 500-node
#: labeled graph below, so alpha 40 x 1 x 4 = 160 PT-BAS balls < 500.
RARE_CLIQUE = ("PATTERN clq4-abcc {?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; "
               "[?A.label = 'A']; [?B.label = 'B']; [?C.label = 'C']; [?D.label = 'C'];}")


class TestExplain:
    def test_single_table_plan(self):
        g = preferential_attachment(40, m=2, seed=0)
        eng = QueryEngine(g)
        plan = eng.explain("SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 2)) FROM nodes")
        assert "SCAN nodes" in plan
        assert "algorithm=nd-pvot" in plan
        assert "node-driven" in plan
        exact = len(find_matches(g, standard_catalog().get("clq3-unlb")))
        assert f"M={exact} matches, F=40 focal nodes" in plan
        assert "GRAPH: 40 nodes" in plan

    def test_selective_pattern_picks_pattern_driven(self):
        g = labeled_preferential_attachment(500, m=5, seed=0)
        eng = QueryEngine(g)
        eng.define_pattern(RARE_CLIQUE)
        plan = eng.explain("SELECT COUNTP(clq4-abcc, SUBGRAPH(ID, 2)) FROM nodes")
        assert "algorithm=pt-bas" in plan
        assert "pattern-driven" in plan
        assert "predicted cost (bit-parallel ND-PVOT): nd-pvot 500, pt-bas 160" in plan

    def test_pinned_algorithm_reported(self):
        g = preferential_attachment(20, m=2, seed=0)
        eng = QueryEngine(g, algorithm="pt-bas")
        plan = eng.explain("SELECT COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes")
        assert "algorithm=pt-bas" in plan
        assert "pinned" in plan

    def test_pair_query_plan(self):
        g = preferential_attachment(20, m=2, seed=0)
        eng = QueryEngine(g)
        plan = eng.explain(
            "SELECT n1.ID, COUNTP(single_edge, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) "
            "FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID"
        )
        assert "SCAN pairs" in plan
        assert "PAIRWISE CENSUS" in plan
        assert "intersection" in plan
        assert "filtered by WHERE" in plan

    def test_subpattern_and_sort_reported(self):
        g = preferential_attachment(20, m=2, seed=0)
        eng = QueryEngine(g)
        eng.define_pattern(
            "PATTERN triad {?A->?B; ?B->?C; ?A!->?C; SUBPATTERN mid {?B;}}"
        )
        plan = eng.explain(
            "SELECT ID, COUNTSP(mid, triad, SUBGRAPH(ID, 0)) AS c FROM nodes "
            "ORDER BY c DESC LIMIT 5"
        )
        assert "SUBPATTERN mid" in plan
        assert "SORT BY c DESC" in plan
        assert "LIMIT 5" in plan
        assert "1 negated" in plan

    def test_explain_does_not_execute(self):
        # A graph where execution would be slow-ish; explain is instant
        # and, more importantly, has no side effects on the engine.
        g = preferential_attachment(30, m=2, seed=1)
        eng = QueryEngine(g)
        before = eng.catalog.names()
        eng.explain("SELECT COUNTP(clq4-unlb, SUBGRAPH(ID, 3)) FROM nodes")
        assert eng.catalog.names() == before


#: The seven templates of perfbench's census-labeled round.
LABELED_TEMPLATES = [("clq3", 2, 0.5), ("clq3", 2, 1.0), ("sqr", 2, 0.5), ("sqr", 2, 1.0),
                     ("path2", 1, 0.5), ("path2", 2, 0.5), ("path2", 2, 1.0)]


def executed_algorithm(engine, query):
    with ObsContext() as obs:
        engine.execute(query)
    spans = [s for root in obs.roots for s in root.walk() if s.name == "planner"]
    assert len(spans) == 1
    return spans[0].attrs["algorithm"], obs.registry.snapshot()["counters"]


class TestExplainNamesTheExecutedPlan:
    @pytest.fixture(scope="class")
    def graph(self):
        return labeled_preferential_attachment(500, m=5, seed=0)

    @pytest.mark.parametrize("pattern,k,p", LABELED_TEMPLATES)
    def test_explain_algorithm_is_the_executed_one(self, graph, pattern, k, p):
        query = (f"SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) AS c FROM nodes "
                 f"WHERE RND() < {p} ORDER BY c DESC, ID ASC LIMIT 10")
        engine = QueryEngine(graph)
        plan = engine.explain(query)
        explained = re.search(r"algorithm=(\S+)", plan).group(1)
        executed, counters = executed_algorithm(engine, query)
        assert explained == executed
        # EXPLAIN left the match list in the store for execute.
        assert counters["query.match_store.hits"] == 1
        assert "query.match_store.misses" not in counters
        analyzed = QueryEngine(graph).explain_analyze(query)
        assert f"algorithm={executed} " in analyzed
        assert f"ran census.{executed.replace('-', '_')}" in analyzed

    def test_both_candidates_are_exercised(self, graph):
        # Every perfbench template goes to the ND-PVOT kernel; a pattern
        # with one match goes pattern-driven.
        for pattern, k, p in LABELED_TEMPLATES:
            query = (f"SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) AS c "
                     f"FROM nodes WHERE RND() < {p}")
            assert executed_algorithm(QueryEngine(graph), query)[0] == "nd-pvot", query
        engine = QueryEngine(graph)
        engine.define_pattern(RARE_CLIQUE)
        query = "SELECT ID, COUNTP(clq4-abcc, SUBGRAPH(ID, 2)) AS c FROM nodes"
        assert executed_algorithm(engine, query)[0] == "pt-bas"

    def test_pair_query_plans_on_the_aggregate_focal_column(self, graph):
        # The plan prices 60 focal n1 rows, not the 60 x 1 pair rows'
        # 500-node table.
        query = ("SELECT n1.ID, COUNTP(clq3, SUBGRAPH(n1.ID, 2)) AS c "
                 "FROM nodes AS n1, nodes AS n2 WHERE n1.ID < 60 AND n2.ID = 0")
        engine = QueryEngine(graph)
        plan = engine.explain(query)
        assert "algorithm=nd-pvot [M=56 matches, F=60 focal nodes" in plan
        assert executed_algorithm(engine, query)[0] == "nd-pvot"

    def test_analyze_prints_the_recorded_plan(self, graph):
        from repro.query.explain import render_analyzed_plan

        query = "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) AS c FROM nodes"
        engine = QueryEngine(graph)
        with ObsContext() as obs:
            engine.execute(query)
        root = obs.roots[0]
        planner = root.find("planner")
        assert planner.attrs["algorithm"] == "nd-pvot"
        # The replayed plan reads the span, not a fresh plan.
        planner.attrs.update(algorithm="pt-bas", num_matches=3)
        plan = render_analyzed_plan(engine, query, root)
        assert "algorithm=pt-bas [M=3 matches, F=500 focal nodes" in plan

    def test_analyze_of_a_cached_aggregate_names_no_plan(self, graph):
        query = "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) AS c FROM nodes"
        engine = QueryEngine(graph, cache=True)
        engine.execute(query)
        plan = engine.explain_analyze(query)
        assert "algorithm=auto [not planned in this run" in plan
        assert "served from aggregate cache" in plan

"""The engine's match store: reuse of global match lists across queries.

The store's answers must be indistinguishable from a fresh engine's —
on both backends and for every variation a stored list is shared
across (k, WHERE, algorithm) — while budgets, degradation and version
invalidation behave exactly as without it.
"""

import sys
import threading

import pytest

from repro.census import ADOPTS_MATCHES, census, parallel_census
from repro.census.base import CensusRequest, prepare_matches
from repro.errors import BudgetExceeded
from repro.graph.generators import preferential_attachment
from repro.lang.catalog import standard_catalog
from repro.lang.parser import parse_pattern
from repro.matching import Pattern, find_matches
from repro.obs import ObsContext
from repro.query.engine import QueryEngine
from repro.query.match_store import CACHE_ENTRIES

QUERY = ("SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) AS c FROM nodes "
         "WHERE RND() < {p} ORDER BY c DESC, ID ASC LIMIT 8")

SUBPATTERN_QUERY = ("SELECT ID, COUNTSP(hub, wedge, SUBGRAPH(ID, {k})) AS c "
                    "FROM nodes ORDER BY c DESC, ID ASC LIMIT 8")


def wedge():
    p = Pattern("wedge")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_subpattern("hub", ["B"])
    return p


def graph():
    return preferential_attachment(80, m=3, seed=4)


def counters(run):
    with ObsContext() as obs:
        run()
    return dict(obs.counter_table())


VARIATIONS = [
    dict(k=k, p=p, algorithm=algorithm)
    for k in (1, 2)
    for p in (0.3, 1.0)
    for algorithm in ("auto", "nd-pvot", "nd-diff", "pt-bas", "pt-opt", "nd-bas")
]


class TestAnswers:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_shared_engine_equals_fresh_engines(self, backend):
        shared = QueryEngine(graph(), backend=backend, seed=3)
        for v in VARIATIONS:
            q = QUERY.format(pattern="clq3-unlb", k=v["k"], p=v["p"])
            shared.algorithm = v["algorithm"]
            fresh = QueryEngine(graph(), backend=backend, seed=3,
                                algorithm=v["algorithm"])
            assert shared.execute(q).rows == fresh.execute(q).rows, v
        assert len(shared.match_store) == 1

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_subpattern_and_plain_aggregates_share_one_entry(self, backend):
        engine = QueryEngine(graph(), backend=backend)
        engine.define_pattern(wedge())
        plain = QUERY.format(pattern="wedge", k=1, p=1.0)
        for k in (1, 2):
            q = SUBPATTERN_QUERY.format(k=k)
            fresh = QueryEngine(graph(), backend=backend)
            fresh.define_pattern(wedge())
            assert engine.execute(q).rows == fresh.execute(q).rows
        fresh = QueryEngine(graph(), backend=backend)
        fresh.define_pattern(wedge())
        assert engine.execute(plain).rows == fresh.execute(plain).rows
        assert len(engine.match_store) == 1

    def test_second_query_skips_matching(self):
        engine = QueryEngine(graph())
        engine.execute(QUERY.format(pattern="clq3-unlb", k=1, p=1.0))
        seen = counters(lambda: engine.execute(
            QUERY.format(pattern="clq3-unlb", k=2, p=0.5)))
        assert seen["query.match_store.hits"] == 1
        assert "match.cn.matches" not in seen
        assert "query.match_store.misses" not in seen

    def test_pattern_redefinition_misses(self):
        engine = QueryEngine(graph())
        q = QUERY.format(pattern="tri", k=1, p=1.0)
        engine.define_pattern("PATTERN tri {?A-?B; ?B-?C; ?A-?C;}")
        first = engine.execute(q).rows
        engine.catalog.register(parse_pattern("PATTERN tri {?A-?B; ?B-?C;}"), replace=True)
        second = counters(lambda: engine.execute(q))
        assert second["query.match_store.misses"] == 1
        assert engine.execute(q).rows != first

    def test_defining_another_pattern_keeps_stored_lists(self):
        engine = QueryEngine(graph())
        q = QUERY.format(pattern="clq3-unlb", k=1, p=1.0)
        engine.execute(q)
        engine.define_pattern(wedge())
        seen = counters(lambda: engine.execute(q))
        assert seen["query.match_store.hits"] == 1
        assert "query.match_store.misses" not in seen
        # Redefining the stored pattern itself (a fresh object, even one
        # of the same shape) still misses.
        engine.define_pattern(standard_catalog().get("clq3-unlb"))
        seen = counters(lambda: engine.execute(q))
        assert seen["query.match_store.misses"] == 1
        assert "query.match_store.hits" not in seen
        assert len(engine.match_store) == 1

    def test_dict_graph_mutated_in_place_is_never_served_stale(self):
        g = graph()
        engine = QueryEngine(g)
        q = QUERY.format(pattern="clq3-unlb", k=1, p=1.0)
        engine.execute(q)
        # Close triangles around node 0 without refresh_snapshot().
        for u in list(g.neighbors(0))[:4]:
            for v in list(g.neighbors(0))[:4]:
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v)
        assert engine.execute(q).rows == QueryEngine(g.copy()).execute(q).rows

    def test_untracked_graph_bypasses_store(self):
        class Untracked:
            def __init__(self, g):
                self._g = g

            def __getattr__(self, name):
                if name == "version":
                    raise AttributeError(name)
                return getattr(self._g, name)

        g = graph()
        engine = QueryEngine(Untracked(g))
        q = QUERY.format(pattern="clq3-unlb", k=1, p=1.0)
        engine.execute(q)
        g.add_edge(0, 79)
        assert len(engine.match_store) == 0
        assert engine.execute(q).rows == QueryEngine(g.copy()).execute(q).rows


class TestAdoptedLists:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("subpattern", [None, "hub"])
    def test_same_units_order_and_representatives_as_a_fresh_pass(
            self, backend, subpattern):
        engine = QueryEngine(graph(), backend=backend)
        pattern = engine.define_pattern(wedge())
        stored = engine.match_store.matches(
            engine.graph, engine.graph_version, ("wedge", 0, "cn"), pattern,
            "cn", distinct=subpattern is None,
        )
        request = CensusRequest(engine.graph, pattern, 1, subpattern=subpattern)
        adopted = prepare_matches(request, matches=stored)
        fresh = prepare_matches(request)
        assert [(u.index, u.nodes, u.match.mapping) for u in adopted] == [
            (u.index, u.nodes, u.match.mapping) for u in fresh]

    def test_distinct_view_counts_distinct_matches(self):
        engine = QueryEngine(graph())
        q = QUERY.format(pattern="clq3-unlb", k=1, p=1.0)
        seen = counters(lambda: engine.execute(q))
        distinct = len(find_matches(engine.graph, standard_catalog().get("clq3-unlb")))
        assert seen["match.cn.matches"] == distinct
        plan = engine.explain_analyze(QUERY.format(pattern="clq3-unlb", k=2, p=1.0))
        assert "matches reused from match store" in plan

    def test_list_reused_by_every_algorithm_is_left_unmodified(self):
        g = preferential_attachment(20, m=2, seed=4)  # pt-opt clusters in O(M^2)
        pattern = wedge()
        engine = QueryEngine(g)
        engine.define_pattern(pattern)
        for distinct, subpattern in ((True, None), (False, "hub"), (False, None)):
            stored = engine.match_store.matches(
                g, engine.graph_version, ("wedge", 0, "cn"), pattern, "cn", distinct)
            before = [(id(m), dict(m.mapping), m.canonical_key) for m in stored]
            for algorithm in sorted(ADOPTS_MATCHES):
                census(g, pattern, 2, subpattern=subpattern, algorithm=algorithm,
                       matches=stored)
                parallel_census(g, pattern, 1, subpattern=subpattern,
                                algorithm=algorithm, workers=2, executor="thread",
                                matches=stored)
            assert [(id(m), m.mapping, m.canonical_key) for m in stored] == before


class TestBudgets:
    def test_max_results_fires_on_hits_as_on_misses(self):
        engine = QueryEngine(graph())
        q = QUERY.format(pattern="clq3-unlb", k=1, p=1.0)
        with pytest.raises(BudgetExceeded):
            engine.execute(q, budget={"max_results": 5})
        assert len(engine.match_store) == 0, "an aborted pass is never stored"
        engine.execute(q)
        assert len(engine.match_store) == 1
        with pytest.raises(BudgetExceeded):
            engine.execute(q, budget={"max_results": 5})
        embeddings = len(find_matches(engine.graph, standard_catalog().get("clq3-unlb"),
                                      distinct=False))
        engine.execute(q, budget={"max_results": embeddings})

    def test_degrade_catches_a_budget_blown_while_matching(self):
        engine = QueryEngine(preferential_attachment(300, m=4, seed=2))
        q = QUERY.format(pattern="clq4-unlb", k=1, p=1.0)
        seen = {}

        def run():
            seen["table"] = engine.execute(q, budget={"max_ops": 50}, degrade=True)

        metrics = counters(run)
        assert seen["table"].partial
        assert metrics["exec.budget.work_exceeded"] == 1
        assert len(engine.match_store) == 0


class TestBounds:
    def test_store_and_aggregate_cache_are_bounded(self):
        engine = QueryEngine(graph(), cache=True)
        for i in range(CACHE_ENTRIES + 2):
            engine.define_pattern(f"PATTERN edge{i} {{?A-?B;}}")
            engine.execute(QUERY.format(pattern=f"edge{i}", k=1, p=1.0))
        for i in range(CACHE_ENTRIES + 4):
            engine.execute(QUERY.format(pattern="clq3-unlb", k=1, p=0.05 * (i + 1)))
        assert len(engine.match_store) == CACHE_ENTRIES
        assert len(engine._cache) == CACHE_ENTRIES


class TestConcurrentMisses:
    def test_readers_missing_together_share_one_entry(self):
        engine = QueryEngine(graph(), backend="csr")
        queries = [QUERY.format(pattern="clq3-unlb", k=k, p=p)
                   for k in (1, 2) for p in (0.2, 0.5, 1.0)] * 2
        expected = [QueryEngine(graph(), backend="csr").execute(q).rows for q in queries]
        results = [None] * len(queries)
        lists = [None] * len(queries)
        barrier = threading.Barrier(len(queries))
        pattern = engine.catalog.get("clq3-unlb")

        def run(i):
            barrier.wait(timeout=30)
            results[i] = engine.execute(queries[i]).rows
            lists[i] = engine.match_store.matches(
                engine.graph, engine.graph_version,
                ("clq3-unlb", "cn"), pattern, "cn", True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(queries))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected
        assert len(engine.match_store) == 1
        # Every reader ends up with the one stored list.
        assert all(lst is lists[0] for lst in lists)

"""Tests for EXPLAIN ANALYZE and bind-time ORDER BY validation."""

import pytest

from repro.errors import QueryError
from repro.graph.generators import preferential_attachment
from repro.graph.graph import Graph
from repro.lang.parser import parse_script
from repro.obs import ObsContext, format_duration
from repro.query.engine import QueryEngine
from repro.query.explain import render_analyzed_plan


def triangle_chain():
    """A small graph with a few triangles at known spots."""
    g = Graph()
    for i in range(10):
        g.add_node(i, label="U")
    for i in range(9):
        g.add_edge(i, i + 1)
    g.add_edge(0, 2)
    g.add_edge(3, 5)
    return g


class TestParsing:
    def test_explain_analyze_sets_flag(self):
        (stmt,) = parse_script("EXPLAIN ANALYZE SELECT ID FROM nodes")
        assert stmt.analyze is True

    def test_plain_explain_does_not(self):
        (stmt,) = parse_script("EXPLAIN SELECT ID FROM nodes")
        assert stmt.analyze is False

    def test_case_insensitive(self):
        (stmt,) = parse_script("explain analyze select ID from nodes")
        assert stmt.analyze is True


class TestExplainAnalyze:
    SCRIPT = ("EXPLAIN ANALYZE SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) "
              "AS c FROM nodes ORDER BY c DESC LIMIT 3;")

    def test_returns_annotated_plan_table(self):
        eng = QueryEngine(triangle_chain())
        (table,) = eng.execute_script(self.SCRIPT)
        assert table.columns == ["plan"]
        text = "\n".join(row[0] for row in table)
        assert "SCAN nodes" in text
        assert "(actual:" in text
        assert "rows=10" in text
        assert text.splitlines()[-1].startswith("TOTAL:")

    def test_census_line_carries_counters(self):
        eng = QueryEngine(triangle_chain())
        (table,) = eng.execute_script(self.SCRIPT)
        census_line = next(row[0] for row in table if row[0].startswith("CENSUS"))
        assert "matches=2" in census_line  # the two planted triangles
        assert "ran census." in census_line

    def test_nd_pvot_line_names_the_loop_that_ran(self):
        # The dict backend runs ND-PVOT's bit-parallel kernel over an
        # index of the focal set's ball; a CSR snapshot lends its own.
        for backend, index in (("dict", "ball"), ("csr", "snapshot")):
            eng = QueryEngine(triangle_chain(), algorithm="nd-pvot", backend=backend)
            (table,) = eng.execute_script(self.SCRIPT)
            census_line = next(row[0] for row in table if row[0].startswith("CENSUS"))
            assert f"kernel=bit-parallel over {index} index" in census_line
            assert "indexed nodes=10" in census_line

    def test_census_line_says_whether_the_profile_index_was_built(self):
        g = triangle_chain()
        first, second = (
            next(row[0] for row in table if row[0].startswith("CENSUS"))
            for (table,) in (QueryEngine(g).execute_script(self.SCRIPT) for _ in range(2))
        )
        assert "profile index builds=1" in first
        assert "profile index reuses" not in first
        assert "profile index reuses=1" in second
        assert "profile index builds" not in second
        (table,) = QueryEngine(g, backend="csr").execute_script(self.SCRIPT)
        assert "profile index" not in "\n".join(row[0] for row in table)

    def test_actually_executes(self):
        eng = QueryEngine(triangle_chain(), cache=True)
        eng.execute_script(self.SCRIPT)
        assert eng.cache_misses == 1  # the census really ran

    def test_cache_hit_is_reported(self):
        eng = QueryEngine(triangle_chain(), cache=True)
        eng.execute_script(self.SCRIPT)
        (table,) = eng.execute_script(self.SCRIPT)
        text = "\n".join(row[0] for row in table)
        assert "served from aggregate cache" in text
        assert "AGGREGATE CACHE: 1 hits" in text

    def test_ambient_obs_untouched(self):
        from repro.obs import current_obs

        eng = QueryEngine(triangle_chain())
        eng.execute_script(self.SCRIPT)
        assert current_obs().enabled is False
        assert eng.obs is None

    def test_parallel_line_per_aggregate(self):
        # Two parallel aggregates: each gets its own chunk count, workers
        # and chunk figures, not totals pooled over both.
        eng = QueryEngine(preferential_attachment(60, m=3, seed=3), workers=2)
        query = ("SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 2)) AS c, "
                 "COUNTP(path2-unlb, SUBGRAPH(ID, 1)) AS d FROM nodes")
        ctx = ObsContext()
        eng.obs = ctx
        eng.execute(query)
        root = ctx.roots[0]
        expected = []
        for output in ("c", "d"):
            chunks = [s.duration for s in root.find("query.aggregate", output=output).walk()
                      if s.name == "census.parallel.chunk"]
            assert len(chunks) == 2
            lo, mean, hi = (format_duration(x)
                            for x in (min(chunks), sum(chunks) / 2, max(chunks)))
            expected.append(f"PARALLEL {output}: 2 chunks over 2 workers; per-chunk "
                            f"{lo} min / {mean} mean / {hi} max (critical path {hi})")
        plan = render_analyzed_plan(eng, query, root)
        assert [ln for ln in plan.splitlines() if ln.startswith("PARALLEL")] == expected

    def test_disk_graph_reports_storage(self, tmp_path):
        from repro.storage import DiskGraph

        DiskGraph.create(tmp_path / "g.db", triangle_chain()).close()
        # Re-open so the record/page caches start cold and the query
        # actually performs I/O worth reporting.
        with DiskGraph.open(tmp_path / "g.db") as store:
            eng = QueryEngine(store)
            (table,) = eng.execute_script(self.SCRIPT)
            text = "\n".join(row[0] for row in table)
            assert "STORAGE: page cache" in text
            assert "hit rate" in text
            assert "pages read" in text

    def test_pairwise_reasoning_in_plan(self):
        eng = QueryEngine(triangle_chain(), pairwise_algorithm="pt")
        plan = eng.explain(
            "SELECT n1.ID, COUNTP(single_node, SUBGRAPH-UNION(n1.ID, n2.ID, 1)) "
            "FROM nodes AS n1, nodes AS n2"
        )
        line = next(ln for ln in plan.splitlines()
                    if ln.startswith("PAIRWISE CENSUS"))
        assert "strategy=pt" in line
        assert "[" in line and "coverage sets" in line

    def test_pairwise_nd_reasoning(self):
        eng = QueryEngine(triangle_chain(), pairwise_algorithm="nd")
        plan = eng.explain(
            "SELECT n1.ID, COUNTP(single_node, SUBGRAPH-UNION(n1.ID, n2.ID, 1)) "
            "FROM nodes AS n1, nodes AS n2"
        )
        line = next(ln for ln in plan.splitlines()
                    if ln.startswith("PAIRWISE CENSUS"))
        assert "strategy=nd" in line and "pivot-index" in line


class TestOrderByValidation:
    def test_unknown_key_rejected_at_bind_time(self):
        eng = QueryEngine(triangle_chain())
        with pytest.raises(QueryError, match="ORDER BY key 'nope' matches no column"):
            eng.execute("SELECT ID FROM nodes ORDER BY nope")

    def test_rejected_before_any_census_runs(self):
        eng = QueryEngine(preferential_attachment(30, m=2, seed=0), cache=True)
        with pytest.raises(QueryError):
            eng.execute(
                "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 2)) AS c "
                "FROM nodes ORDER BY missing"
            )
        assert eng.cache_misses == 0  # validation fired before evaluation

    def test_aggregate_alias_is_valid_key(self):
        eng = QueryEngine(triangle_chain())
        table = eng.execute(
            "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c "
            "FROM nodes ORDER BY c DESC LIMIT 1"
        )
        assert len(table.rows) == 1

    def test_case_insensitive_key(self):
        eng = QueryEngine(triangle_chain())
        table = eng.execute("SELECT ID FROM nodes ORDER BY id DESC LIMIT 2")
        assert table.rows == [(9,), (8,)]

    def test_default_column_name_is_valid_key(self):
        eng = QueryEngine(triangle_chain())
        (table,) = eng.execute_script(
            "PATTERN wedge {?A-?B; ?B-?C;}\n"
            "SELECT ID, COUNTP(wedge, SUBGRAPH(ID, 1)) FROM nodes "
            "ORDER BY countp_wedge DESC LIMIT 1;"
        )
        assert len(table.rows) == 1

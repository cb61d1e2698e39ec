"""Parallel census executor: identical counts, deterministic merges.

The executor's contract is that chunking focal nodes over workers is
invisible in the results: every algorithm, backend, executor kind, and
worker count returns exactly the serial counts, and the merged
observability counters equal the serial run's.  Thread and serial
executors cover the matrix cheaply; one process-pool test proves the
pickled-snapshot path end to end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census import ALGORITHMS, census
from repro.census.parallel import chunk_focal_nodes, default_workers, parallel_census
from repro.errors import CensusError
from repro.graph.csr import freeze
from repro.graph.generators import (
    labeled_preferential_attachment,
    preferential_attachment,
)
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def triangle(labels=(None, None, None)):
    p = Pattern("tri")
    for var, label in zip("ABC", labels):
        p.add_node(var, label=label)
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


class TestChunking:
    def test_contiguous_cover(self):
        chunks = chunk_focal_nodes(range(10), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_chunks_than_items(self):
        chunks = chunk_focal_nodes([1, 2], 5)
        assert chunks == [[1], [2]]

    def test_empty(self):
        assert chunk_focal_nodes([], 4) == []

    def test_invalid_count(self):
        with pytest.raises(CensusError):
            chunk_focal_nodes([1], 0)

    @given(st.integers(0, 50), st.integers(1, 9))
    def test_partition_property(self, n, chunks):
        parts = chunk_focal_nodes(range(n), chunks)
        assert [x for part in parts for x in part] == list(range(n))
        assert all(parts)
        if parts:
            sizes = [len(p) for p in parts]
            assert max(sizes) - min(sizes) <= 1

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestIdenticalCounts:
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_thread_matches_serial(self, algorithm):
        g = labeled_preferential_attachment(40, m=2, seed=3)
        pattern = triangle(labels=("A", "B", "C"))
        want = ALGORITHMS[algorithm](g, pattern, 2)
        got = parallel_census(
            g, pattern, 2, algorithm=algorithm, workers=4, executor="thread"
        )
        assert got == want

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_worker_counts_agree_on_csr(self, workers):
        csr = freeze(preferential_attachment(50, m=3, seed=1))
        pattern = triangle()
        want = ALGORITHMS["nd-pvot"](csr, pattern, 2)
        got = parallel_census(
            csr, pattern, 2, algorithm="nd-pvot", workers=workers, executor="thread"
        )
        assert got == want

    @given(st.integers(8, 30), st.integers(0, 2), st.integers(0, 50),
           st.integers(2, 5))
    @settings(max_examples=15)
    def test_random_graphs_any_chunking(self, n, k, seed, chunks):
        g = labeled_preferential_attachment(n, m=2, seed=seed)
        pattern = triangle(labels=("A", "B", "C"))
        want = census(g, pattern, k, algorithm="nd-pvot")
        got = parallel_census(
            g, pattern, k, algorithm="nd-pvot", workers=2, executor="thread",
            chunks=chunks,
        )
        assert got == want

    def test_focal_subset_and_subpattern(self):
        g = preferential_attachment(30, m=2, seed=7)
        p = Pattern("path")
        p.add_edge("A", "B")
        p.add_edge("B", "C")
        p.add_subpattern("center", ["B"])
        focal = [n for n in g.nodes() if n % 2 == 0]
        want = census(g, p, 1, focal_nodes=focal, subpattern="center",
                      algorithm="nd-pvot")
        got = parallel_census(
            g, p, 1, focal_nodes=focal, subpattern="center",
            algorithm="nd-pvot", workers=3, executor="thread",
        )
        assert got == want

    def test_process_pool_with_pickled_snapshot(self):
        csr = freeze(labeled_preferential_attachment(40, m=2, seed=5))
        pattern = triangle(labels=("A", "B", "C"))
        want = ALGORITHMS["nd-pvot"](csr, pattern, 2)
        got = parallel_census(
            csr, pattern, 2, algorithm="nd-pvot", workers=2, executor="process"
        )
        assert got == want

    def test_adopted_matches(self):
        from repro.matching import find_matches

        g = preferential_attachment(30, m=2, seed=2)
        pattern = triangle()
        matches = find_matches(g, pattern, method="cn", distinct=True)
        want = census(g, pattern, 2, algorithm="nd-pvot")
        got = parallel_census(
            g, pattern, 2, algorithm="nd-pvot", workers=2, executor="thread",
            matches=matches,
        )
        assert got == want


class TestObservability:
    def _counters(self, fn):
        with ObsContext() as obs:
            fn()
        return obs.registry.snapshot()["counters"]

    def test_merged_counters_match_serial(self):
        g = preferential_attachment(40, m=2, seed=9)
        pattern = triangle()
        serial = self._counters(lambda: ALGORITHMS["nd-pvot"](g, pattern, 2))
        parallel = self._counters(lambda: parallel_census(
            g, pattern, 2, algorithm="nd-pvot", workers=4, executor="thread"
        ))
        # Census-phase work counters merge exactly; matching runs once
        # in the parent either way.  Each chunk indexes its own focal
        # ball, and the balls overlap.
        for name, value in serial.items():
            if name.startswith("census.nd_pvot.") and name != "census.nd_pvot.indexed_nodes":
                assert parallel.get(name) == value, name
        assert serial["census.nd_pvot.indexed_nodes"] == g.num_nodes
        assert parallel["census.nd_pvot.indexed_nodes"] >= g.num_nodes
        assert parallel["census.parallel.chunks"] == 4
        assert parallel["census.parallel.workers"] == 4

    def test_chunk_timings_recorded(self):
        g = preferential_attachment(30, m=2, seed=9)
        with ObsContext() as obs:
            parallel_census(g, triangle(), 2, algorithm="nd-pvot", workers=3,
                            executor="serial")
        hist = obs.registry.histograms()["census.parallel.chunk_seconds"]
        assert hist.count == 3

    @pytest.mark.parametrize("executor", ("serial", "thread", "process"))
    def test_chunk_spans_stitched_into_parent_trace(self, executor):
        # Every executor — including process pools, whose workers cannot
        # share Span objects — ships its chunk span subtrees back and
        # the parent reattaches them under census.parallel.
        g = preferential_attachment(40, m=2, seed=9)
        with ObsContext() as obs:
            parallel_census(g, triangle(), 2, algorithm="nd-pvot", workers=2,
                            executor=executor)
        root = obs.root("census.parallel")
        chunks = [c for c in root.children if c.name == "census.parallel.chunk"]
        assert len(chunks) == 2
        for index, chunk in enumerate(chunks):
            assert chunk.attrs["chunk"] == index
            assert chunk.attrs["focal_nodes"] > 0
            assert chunk.duration > 0
            # The algorithm's own span survived the round-trip.
            assert chunk.find("census.nd_pvot") is not None

    def test_serial_chunk_spans_do_not_leak_into_parent(self):
        # Same-thread chunks used to attach census.nd_pvot spans
        # directly under census.parallel via the ambient current-span;
        # with detached chunk contexts they appear only inside their
        # stitched census.parallel.chunk wrapper.
        g = preferential_attachment(30, m=2, seed=9)
        with ObsContext() as obs:
            parallel_census(g, triangle(), 2, algorithm="nd-pvot", workers=2,
                            executor="serial")
        root = obs.root("census.parallel")
        # The shared matching pass runs in the parent (match.cn); the
        # census spans themselves must only appear inside chunk wrappers.
        assert "census.nd_pvot" not in {c.name for c in root.children}
        assert [c.name for c in root.children].count("census.parallel.chunk") == 2

    @pytest.mark.parametrize("executor", ("serial", "thread", "process"))
    def test_work_counters_and_plan_attrs_merged(self, executor):
        # Work figures travel only as counters and span attrs: every
        # executor (process workers included) sums the chunks' work
        # counters to the serial totals, and each chunk's census span
        # carries the serial run's pivot and max_v.
        g = freeze(preferential_attachment(40, m=2, seed=9))
        pattern = triangle()
        with ObsContext() as serial:
            want = ALGORITHMS["nd-pvot"](g, pattern, 2)
        with ObsContext() as obs:
            got = parallel_census(g, pattern, 2, algorithm="nd-pvot", workers=2,
                                  executor=executor)
        assert got == want
        counters = obs.registry.snapshot()["counters"]
        for name in ("census.nd_pvot.bulk_added", "census.nd_pvot.containment_checks",
                     "census.nd_pvot.bfs_expansions"):
            assert counters[name] == serial.registry.counter(name).value > 0, name
        plan = serial.root("census.nd_pvot").attrs
        chunk_spans = [s for s in obs.root("census.parallel").walk()
                       if s.name == "census.nd_pvot"]
        assert len(chunk_spans) == 2
        for span in chunk_spans:
            assert (span.attrs["pivot"], span.attrs["max_v"]) == (plan["pivot"], plan["max_v"])

    def test_merge_is_deterministic(self):
        g = labeled_preferential_attachment(35, m=2, seed=4)
        pattern = triangle(labels=("A", "B", "C"))
        # Warm the graph's profile index so every run reuses it alike.
        assert len(g.profile_index) == 35
        runs = [
            self._counters(lambda: parallel_census(
                g, pattern, 2, algorithm="nd-pvot", workers=4, executor="thread"
            ))
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestEntryPoints:
    def test_census_workers_dispatch(self):
        g = preferential_attachment(30, m=2, seed=0)
        pattern = triangle()
        want = census(g, pattern, 2, algorithm="nd-pvot")
        got = census(g, pattern, 2, algorithm="nd-pvot", workers=2,
                     executor="thread")
        assert got == want

    def test_workers_none_uses_cpu_count(self):
        g = preferential_attachment(20, m=2, seed=0)
        pattern = triangle()
        want = census(g, pattern, 1, algorithm="nd-pvot")
        got = census(g, pattern, 1, algorithm="nd-pvot", workers=None,
                     executor="thread")
        assert got == want

    def test_unknown_algorithm(self):
        g = preferential_attachment(10, m=2, seed=0)
        with pytest.raises(CensusError):
            parallel_census(g, triangle(), 1, algorithm="nope")

    def test_unknown_executor(self):
        g = preferential_attachment(10, m=2, seed=0)
        with pytest.raises(CensusError):
            parallel_census(g, triangle(), 1, workers=2, executor="carrier-pigeon")

    def test_empty_focal_set(self):
        g = preferential_attachment(10, m=2, seed=0)
        assert parallel_census(g, triangle(), 1, focal_nodes=[], workers=4) == {}

    def test_auto_planner_biases_node_driven(self):
        from repro.census.planner import choose_algorithm

        from repro.lang.catalog import standard_catalog

        g = labeled_preferential_attachment(2000, m=5, seed=0)
        pattern = standard_catalog().get("clq4")
        serial_choice = choose_algorithm(g, pattern, 2)
        parallel_choice = choose_algorithm(g, pattern, 2, workers=4)
        assert parallel_choice == "nd-pvot"
        # The labeled 4-clique is selective (alpha x 10 matches x 4 <
        # 2000 focal nodes), so the serial planner goes pattern-driven:
        # exactly the case the workers bias flips.
        assert serial_choice == "pt-bas"

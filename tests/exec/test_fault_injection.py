"""Fault-injection integration tests: retries, deadlines, degradation.

These are the tests the fault hooks exist for: kill workers and demand
serial-identical counts, expire deadlines inside every algorithm's hot
loop, and verify the degradation path yields honestly-marked partial
results without corrupting observability state.
"""

import multiprocessing
import time

import pytest

from repro.census import ADOPTS_MATCHES, ALGORITHMS, census, parallel_census
from repro.census.base import global_matches
from repro.errors import BudgetExceeded
from repro.exec import (
    ExecutionBudget,
    FaultPlan,
    governed_census,
    install_faults,
)
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def make_graph(n=60, seed=3):
    import random

    rng = random.Random(seed)
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
        other = rng.randrange(n)
        if other != i:
            g.add_edge(i, other)
    return g


def edge_pattern():
    p = Pattern("edge")
    p.add_edge("A", "B")
    return p


def drain_children(timeout=10.0):
    """Wait for pool worker processes to exit; returns the stragglers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestWorkerDeath:
    def test_dead_workers_retry_to_serial_counts(self):
        g = make_graph()
        p = edge_pattern()
        serial = census(g, p, 2, algorithm="nd-pvot")
        plan = FaultPlan().add("parallel.chunk", "die", at=1, scope="worker")
        ctx = ObsContext()
        with ctx, install_faults(plan):
            par = parallel_census(
                g, p, 2, algorithm="nd-pvot", workers=2, executor="process"
            )
        assert par == serial
        counters = dict(ctx.registry.snapshot()["counters"])
        assert counters.get("census.parallel.chunk_retries", 0) >= 1
        assert counters.get("census.parallel.worker_crashes", 0) >= 1
        assert not drain_children()

    def test_every_worker_dying_still_converges(self):
        g = make_graph(n=40)
        p = edge_pattern()
        serial = census(g, p, 1, algorithm="pt-bas")
        # at=None: every chunk hit in any worker dies, so only the
        # parent's serial retries can make progress.
        plan = FaultPlan().add("parallel.chunk", "die", at=None, scope="worker")
        with install_faults(plan):
            par = parallel_census(
                g, p, 1, algorithm="pt-bas", workers=2, executor="process",
                chunks=4,
            )
        assert par == serial
        assert not drain_children()


class TestInjectedDeadlines:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_deadline_expires_in_every_algorithm(self, algorithm):
        g = make_graph(n=30)
        p = edge_pattern()
        # Matching runs before the budget (where the algorithm adopts a
        # match list), so the deadline can only expire in the census
        # phase the fault targets; test_deadline_expires_in_matcher_expansion
        # covers deadlines inside matching.
        options = {}
        if algorithm in ADOPTS_MATCHES:
            options["matches"] = global_matches(g, p)
        # The first BFS/traversal wave sleeps past the deadline; the
        # next cooperative tick must notice.
        plan = FaultPlan().add("census.bfs", "delay", at=1, delay=0.03)
        ctx = ObsContext()
        with ctx, install_faults(plan):
            with pytest.raises(BudgetExceeded) as exc:
                with ExecutionBudget(timeout=0.01):
                    census(g, p, 1, algorithm=algorithm, **options)
        assert exc.value.reason == "deadline"
        counters = dict(ctx.registry.snapshot()["counters"])
        assert counters.get("exec.faults.injected") == 1
        assert counters.get("exec.faults.delay") == 1

    def test_deadline_expires_in_matcher_expansion(self):
        g = make_graph(n=30)
        p = edge_pattern()
        plan = FaultPlan().add("match.expand", "delay", at=1, delay=0.03)
        with install_faults(plan):
            with pytest.raises(BudgetExceeded):
                with ExecutionBudget(timeout=0.01):
                    census(g, p, 1, algorithm="nd-pvot")

    def test_injected_exception_propagates(self):
        g = make_graph(n=20)
        p = edge_pattern()
        plan = FaultPlan().add(
            "census.bfs", "raise", at=2, exc=ValueError("injected")
        )
        with install_faults(plan):
            with pytest.raises(ValueError, match="injected"):
                census(g, p, 1, algorithm="nd-bas")


class TestDegradation:
    def test_degrade_returns_partial_estimates(self):
        g = make_graph(n=40)
        p = edge_pattern()
        plan = FaultPlan().add("census.bfs", "delay", at=1, delay=0.03)
        ctx = ObsContext()
        with ctx, install_faults(plan):
            with ExecutionBudget(timeout=0.01):
                outcome = governed_census(
                    g, p, 1, algorithm="nd-pvot", degrade=True,
                    degrade_sample=30,
                )
        assert outcome.partial and outcome.degraded
        assert "approximate" in outcome.note
        assert set(outcome.counts) == set(g.nodes())
        counters = dict(ctx.registry.snapshot()["counters"])
        assert counters.get("exec.budget.deadline_exceeded") == 1
        assert counters.get("exec.degraded") == 1
        # The obs context survived the mid-run exception: spans closed,
        # counters merged, no partial state.
        assert ctx.roots == [] or all(s.duration is not None for s in ctx.roots)

    def test_without_degrade_the_error_propagates_and_counts(self):
        g = make_graph(n=40)
        p = edge_pattern()
        plan = FaultPlan().add("census.bfs", "delay", at=1, delay=0.03)
        ctx = ObsContext()
        with ctx, install_faults(plan):
            with pytest.raises(BudgetExceeded):
                with ExecutionBudget(timeout=0.01):
                    governed_census(g, p, 1, algorithm="nd-pvot", degrade=False)
        counters = dict(ctx.registry.snapshot()["counters"])
        assert counters.get("exec.budget.deadline_exceeded") == 1
        assert "exec.degraded" not in counters

    def test_ungoverned_governed_census_is_exact(self):
        g = make_graph(n=30)
        p = edge_pattern()
        outcome = governed_census(g, p, 1, algorithm="nd-bas")
        assert not outcome.partial
        assert outcome.counts == census(g, p, 1, algorithm="nd-bas")


class TestPoolShutdown:
    def test_raising_chunk_shuts_pool_down_promptly(self):
        """Regression: a chunk exception used to leave queued chunks
        running to completion (shutdown waited on them); the pool must
        now cancel queued work and reap its workers."""
        g = make_graph(n=80)
        p = edge_pattern()
        # Each fresh worker raises on its first chunk; any chunk a
        # worker would run after that sleeps 1.5 s.  With queued-chunk
        # cancellation nothing ever reaches a sleep on the happy path,
        # so the call must fail fast instead of draining all 8 chunks.
        plan = (
            FaultPlan()
            .add("parallel.chunk", "raise", at=1, scope="worker",
                 exc=RuntimeError("injected chunk failure"))
            .add("parallel.chunk", "delay", at=None, delay=1.5, scope="worker")
        )
        start = time.perf_counter()
        with install_faults(plan):
            with pytest.raises(RuntimeError, match="injected chunk failure"):
                parallel_census(
                    g, p, 1, algorithm="nd-pvot", workers=2,
                    executor="process", chunks=8,
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 4.0, f"queued chunks were not cancelled ({elapsed:.1f}s)"
        assert not drain_children()

"""The bit-parallel ND-PVOT kernel off CSR snapshots.

On a dict graph (or a :class:`repro.storage.DiskGraph`) the kernel runs
over an int index of the focal set's k-hop ball.  Its counts must equal
the kernel on the graph's CSR snapshot, the per-node set loop (forced by
hiding ``np.bitwise_count``, as a numpy 1.x install would) and ND-BAS,
the oracle; the three ND-PVOT runs must also report the same work
counters and spend the same work on an execution budget.
"""

import random

import pytest

import repro.census.indexed
from repro.census import census
from repro.census.base import global_matches
from repro.census.indexed import _ball_index
from repro.census.nd_pvot import nd_pvot_census
from repro.errors import BudgetExceeded
from repro.exec.budget import ExecutionBudget
from repro.graph.csr import freeze
from repro.graph.generators import labeled_preferential_attachment
from repro.graph.graph import Graph
from repro.matching.pattern import Pattern
from repro.obs import ObsContext
from repro.storage import DiskGraph


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def path3():
    p = Pattern("path3")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("C", "D")
    return p


def apex_triangle():
    p = triangle()
    p.add_subpattern("apex", ["A", "B"])
    return p


def open_wedge():
    p = Pattern("open_wedge")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C", negated=True)
    return p


#: (pattern, subpattern): a clique, a path longer than k=1 regions, a
#: COUNTSP subpattern and a negated edge.
CASES = [(triangle(), None), (path3(), None), (apex_triangle(), "apex"),
         (open_wedge(), None)]

NAMINGS = {
    "int": lambda i: i,
    "str": lambda i: f"n{i}",
    "tuple": lambda i: ("v", i),
}


def random_graph(rng, n, directed, naming):
    """A random graph whose last few nodes may stay isolated."""
    name = NAMINGS[naming]
    g = Graph(directed=directed)
    for i in range(n):
        g.add_node(name(i))
    wired = max(1, n - rng.randrange(0, 3))
    for _ in range(rng.randrange(0, 3 * n)):
        u, v = rng.randrange(wired), rng.randrange(wired)
        if u != v:
            g.add_edge(name(u), name(v))
    return g


WORK_COUNTERS = (
    "census.nd_pvot.bulk_added",
    "census.nd_pvot.containment_checks",
    "census.nd_pvot.bfs_expansions",
)


def focal_sets(rng, nodes):
    """Every focal-set shape the kernel must handle."""
    partial = rng.sample(nodes, rng.randrange(1, len(nodes) + 1))
    return {
        "full": None,
        "empty": [],
        "singleton": [rng.choice(nodes)],
        "duplicates": partial + partial[: max(1, len(partial) // 2)],
        "partial": partial,
    }


def pvot(graph, pattern, k, focal, subpattern):
    """ND-PVOT's counts, work figures and ``census.nd_pvot`` span attrs.

    The work figures are the loop-independent ones: the bulk/checked/
    visited counters plus the span's pivot and ``max_v`` (empty when no
    match reached the focal loop).
    """
    with ObsContext() as obs:
        counts = nd_pvot_census(graph, pattern, k, focal_nodes=focal,
                                subpattern=subpattern)
    spans = [s for root in obs.roots for s in root.walk() if s.name == "census.nd_pvot"]
    assert len(spans) == 1
    attrs = spans[0].attrs
    work = {name: value for name, value in obs.registry.snapshot()["counters"].items()
            if name in WORK_COUNTERS}
    work.update((key, attrs[key]) for key in ("pivot", "max_v") if key in attrs)
    return counts, work, attrs


def set_loop(monkeypatch, graph, pattern, k, focal, subpattern):
    with monkeypatch.context() as m:
        m.setattr(repro.census.indexed, "_HAS_BITWISE_COUNT", False)
        return pvot(graph, pattern, k, focal, subpattern)


class TestBallKernelDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_dict_equals_snapshot_equals_set_loop_equals_nd_bas(self, seed, monkeypatch):
        rng = random.Random(seed)
        for trial in range(8):
            n = rng.randrange(2, 26)
            directed = trial % 3 == 0
            naming = list(NAMINGS)[trial % len(NAMINGS)]
            g = random_graph(rng, n, directed, naming)
            pattern, subpattern = CASES[trial % len(CASES)]
            k = trial % 4
            for shape, focal in focal_sets(rng, list(g.nodes())).items():
                where = (seed, trial, shape, k, pattern.name, naming, directed)
                counts, stats, attrs = pvot(g, pattern, k, focal, subpattern)
                snap_counts, snap_stats, snap_attrs = pvot(freeze(g), pattern, k, focal,
                                                           subpattern)
                loop_counts, loop_stats, loop_attrs = set_loop(monkeypatch, g, pattern, k,
                                                               focal, subpattern)
                oracle = census(g, pattern, k, focal_nodes=focal, subpattern=subpattern,
                                algorithm="nd-bas")
                assert counts == snap_counts == loop_counts == oracle, where
                assert stats == snap_stats == loop_stats, where
                if stats:  # a census with matches reached the focal loop
                    assert attrs["kernel"] == "bit-parallel", where
                    assert attrs["index"] == "ball", where
                    assert snap_attrs["index"] == "snapshot", where
                    assert loop_attrs["kernel"] == "set", where

    def test_far_images_outside_the_ball(self):
        # A path 0-1-...-9 and a 3-edge path pattern: from focal node 0
        # at k=2 the ball is {0, 1, 2}, so the match 0-1-2-3, anchored
        # inside it, has an image (3) outside — the sentinel slot.
        g = Graph()
        for i in range(9):
            g.add_edge(i, i + 1)
        pattern = path3()
        index, _indptr, _indices = _ball_index(g, [0], 2, None)
        assert set(index) == {0, 1, 2}
        focal = [0, 5]
        for k in (1, 2, 3):
            counts = nd_pvot_census(g, pattern, k, focal_nodes=focal)
            assert counts == census(g, pattern, k, focal_nodes=focal, algorithm="nd-bas")
        assert nd_pvot_census(g, pattern, 2, focal_nodes=[0]) == {0: 0}
        assert nd_pvot_census(g, pattern, 3, focal_nodes=[0]) == {0: 1}

    def test_ball_keeps_only_the_edges_inside_it(self):
        # A star around 0 whose leaves 1..4 also form a ring: from focal
        # node 1 at k=1 the leaves 2 and 4 sit at exactly k.  Their rows
        # hold the edges back to layer 0 (node 1) only; 0's row is full.
        g = Graph()
        for leaf in range(1, 5):
            g.add_edge(0, leaf)
            g.add_edge(leaf, leaf % 4 + 1)
        index, indptr, indices = _ball_index(g, [1], 1, None)
        assert set(index) == {0, 1, 2, 4}
        assert len(indptr) == len(index) + 2  # plus the empty sentinel row
        rows = {node: sorted(indices[indptr[i]:indptr[i + 1]].tolist())
                for node, i in index.items()}
        assert rows[1] == sorted(index[v] for v in (0, 2, 4))
        for node in (0, 2, 4):
            assert rows[node] == [index[1]]
        assert indptr[-1] == indptr[-2]

    def test_disk_graph(self, tmp_path):
        g = labeled_preferential_attachment(70, m=2, seed=5)
        store = DiskGraph.create(tmp_path / "g.db", g)
        try:
            focal = list(range(0, 70, 3))
            for pattern, subpattern in CASES:
                for k in (1, 2):
                    counts, stats, attrs = pvot(store, pattern, k, focal, subpattern)
                    mem_counts, mem_stats, _ = pvot(g, pattern, k, focal, subpattern)
                    assert counts == mem_counts == census(
                        g, pattern, k, focal_nodes=focal, subpattern=subpattern,
                        algorithm="nd-bas")
                    assert stats == mem_stats
                    assert attrs["index"] == "ball"
        finally:
            store.close()


class TestBallKernelObservability:
    def test_span_and_counter_name_the_loop_and_its_index(self):
        g = labeled_preferential_attachment(90, m=2, seed=1)
        with ObsContext() as obs:
            nd_pvot_census(g, triangle(), 1, focal_nodes=[0, 1])
        span = next(s for root in obs.roots for s in root.walk()
                    if s.name == "census.nd_pvot")
        ball = span.attrs["indexed_nodes"]
        assert span.attrs["kernel"] == "bit-parallel"
        assert span.attrs["index"] == "ball"
        assert 2 < ball < 90
        counters = obs.registry.snapshot()["counters"]
        assert counters["census.nd_pvot.indexed_nodes"] == ball
        with ObsContext() as obs:
            nd_pvot_census(freeze(g), triangle(), 1, focal_nodes=[0, 1])
        span = next(s for root in obs.roots for s in root.walk()
                    if s.name == "census.nd_pvot")
        assert span.attrs["index"] == "snapshot"
        assert span.attrs["indexed_nodes"] == 90


class TestBallKernelBudget:
    @pytest.fixture(scope="class")
    def graph(self):
        # 150 nodes: three 64-source blocks at full focal.
        return labeled_preferential_attachment(150, m=3, seed=4)

    @pytest.mark.parametrize("focal", [None, list(range(0, 150, 2))],
                             ids=["full", "partial"])
    def test_max_ops_trips_kernel_and_set_loop_at_the_same_total(self, graph, focal,
                                                                  monkeypatch):
        pattern = triangle()
        matches = global_matches(graph, pattern)

        def run(g):
            return nd_pvot_census(g, pattern, 2, focal_nodes=focal, matches=matches)

        def forced_set_loop(g):
            with monkeypatch.context() as m:
                m.setattr(repro.census.indexed, "_HAS_BITWISE_COUNT", False)
                return run(g)

        variants = {
            "kernel on dict": lambda: run(graph),
            "kernel on csr": lambda: run(freeze(graph)),
            "set loop": lambda: forced_set_loop(graph),
        }
        totals = {}
        for name, fn in variants.items():
            with ExecutionBudget() as budget:
                counts = fn()
            totals[name] = (budget.ops, counts)
        assert len({ops for ops, _ in totals.values()}) == 1, totals
        assert len({tuple(sorted(c.items())) for _, c in totals.values()}) == 1
        total = totals["set loop"][0]
        for name, fn in variants.items():
            with ExecutionBudget(max_ops=total):
                fn()
            with pytest.raises(BudgetExceeded) as exc:
                with ExecutionBudget(max_ops=total - 1):
                    fn()
            assert exc.value.reason == "work", name

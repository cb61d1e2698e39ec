"""The profile index every backend keeps as ``graph.profile_index``.

``Graph`` and ``DiskGraph`` build a :class:`NodeProfileIndex` on first
use and keep it until ``version`` moves; these tests pin that contract:
reuse while the version stands, a rebuild after every mutator, nothing
cached by a build the budget cut short, nothing shipped by pickling, and
the ``graph.profile_index`` counters and span.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceeded, StorageError
from repro.exec.budget import ExecutionBudget, activate_budget
from repro.graph.csr import freeze
from repro.graph.generators import labeled_preferential_attachment
from repro.graph.graph import Graph
from repro.graph.profiles import NodeProfileIndex
from repro.matching import bruteforce_matches, cn_matches, find_matches
from repro.matching.base import enumerate_candidates
from repro.matching.pattern import Pattern
from repro.obs import ObsContext
from repro.storage import DiskGraph


def labeled_triangle():
    p = Pattern("tri")
    for var, label in zip("ABC", ("L0", "L1", "L1")):
        p.add_node(var, label=label)
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def open_path():
    """?A-?B-?C with ?A and ?C not adjacent (exercises negated edges)."""
    p = Pattern("open")
    for var, label in zip("ABC", ("L0", None, "L1")):
        p.add_node(var, label=label)
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C", negated=True)
    return p


def assert_index_fresh(g):
    """``g.profile_index`` agrees with an index built from scratch."""
    fresh = NodeProfileIndex(g)
    cached = g.profile_index
    assert len(cached) == len(fresh)
    for n in g.nodes():
        assert cached.profile(n) == fresh.profile(n)
    assert cached.labels() == fresh.labels()
    for label in fresh.labels():
        assert set(cached.nodes_with_label(label)) == set(fresh.nodes_with_label(label))


def counters(ctx):
    snap = ctx.registry.snapshot()["counters"]
    return (snap.get("graph.profile_index.builds", 0),
            snap.get("graph.profile_index.reuses", 0))


@pytest.fixture
def mem():
    return labeled_preferential_attachment(60, m=2, num_labels=3, seed=4)


@pytest.fixture(params=["dict", "disk"])
def graph(request, mem, tmp_path):
    if request.param == "dict":
        yield mem
        return
    store = DiskGraph.create(tmp_path / "g.db", mem)
    yield store
    store.close()


class TestReuse:
    def test_same_object_while_version_stands(self, graph):
        first = graph.profile_index
        graph.node_attrs(next(iter(graph.nodes())))  # reads do not bump
        assert graph.profile_index is first

    def test_find_matches_builds_once_per_version(self, graph):
        with ObsContext() as ctx:
            first = find_matches(graph, labeled_triangle())
            second = find_matches(graph, labeled_triangle())
            find_matches(graph, open_path(), method="gql")
        assert {m.canonical_key for m in first} == {m.canonical_key for m in second}
        assert counters(ctx) == (1, 2)
        graph.add_edge(0, 59)
        with ObsContext() as ctx:
            find_matches(graph, labeled_triangle())
            find_matches(graph, labeled_triangle())
        assert counters(ctx) == (1, 1)

    def test_build_span_under_match_cn(self, graph):
        with ObsContext() as ctx:
            cn_matches(graph, labeled_triangle())
            cn_matches(graph, labeled_triangle())
        cold, warm = ctx.roots
        assert cold.name == warm.name == "match.cn"
        build = cold.find("graph.profile_index")
        assert build is not None and build.attrs["nodes"] == 60
        assert build.metrics == {"graph.profile_index.builds": 1}
        assert warm.find("graph.profile_index") is None
        assert warm.metrics["graph.profile_index.reuses"] == 1

    def test_csr_serves_its_own_index(self, mem):
        csr = freeze(mem)
        with ObsContext() as ctx:
            cn_matches(csr, labeled_triangle())
        assert counters(ctx) == (0, 0)


class TestInvalidation:
    def test_dict_every_mutator(self, mem):
        g = mem
        assert_index_fresh(g)
        mutations = [
            lambda: g.add_edge(0, 59),
            lambda: g.remove_edge(0, 59),
            lambda: g.set_node_attr(1, "label", "L9"),
            lambda: g.add_node("new", label="L0"),
            lambda: g.add_edge("new", 2),
            lambda: g.remove_node(2),
        ]
        for mutate in mutations:
            before = g.profile_index
            mutate()
            assert g.profile_index is not before
            assert_index_fresh(g)

    def test_disk_every_mutator(self, mem, tmp_path):
        # DiskGraph has no removal API; its mutators are these three.
        with DiskGraph.create(tmp_path / "g.db", mem) as g:
            assert_index_fresh(g)
            mutations = [
                lambda: g.add_edge(0, 59),
                lambda: g.set_node_attr(1, "label", "L9"),
                lambda: g.add_node("new", label="L0"),
                lambda: g.add_edge("new", 2),
            ]
            for mutate in mutations:
                before = g.profile_index
                mutate()
                assert g.profile_index is not before
                assert_index_fresh(g)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["add", "remove", "relabel", "drop"]),
                              st.integers(0, 19), st.integers(0, 19),
                              st.sampled_from(["L0", "L1", "L2"])),
                    max_size=12))
    def test_cn_equals_bruteforce_across_mutations(self, ops):
        g = labeled_preferential_attachment(20, m=2, num_labels=3, seed=7)
        patterns = [labeled_triangle(), open_path()]
        for op, u, v, label in ops + [("noop", 0, 0, None)]:
            if op == "add" and u != v:
                g.add_edge(u, v)
            elif op == "remove" and g.has_edge(u, v):
                g.remove_edge(u, v)
            elif op == "relabel" and g.has_node(u):
                g.set_node_attr(u, "label", label)
            elif op == "drop" and g.has_node(u):
                g.remove_node(u)
            for p in patterns:
                got = {m.canonical_key for m in cn_matches(g, p)}
                want = {m.canonical_key for m in bruteforce_matches(g, p)}
                assert got == want


class TestSafety:
    def test_budget_cut_build_caches_nothing(self, graph):
        pattern = labeled_triangle()
        with activate_budget(ExecutionBudget(max_ops=1)):
            with pytest.raises(BudgetExceeded):
                enumerate_candidates(graph, pattern)
        with ObsContext() as ctx:
            got = enumerate_candidates(graph, pattern)
        assert counters(ctx) == (1, 0)
        assert got == enumerate_candidates(_to_dict(graph), pattern)

    def test_pickle_ships_no_index(self, graph):
        assert len(graph.profile_index) == 60
        payload = pickle.dumps(graph)
        assert b"NodeProfileIndex" not in payload
        clone = pickle.loads(payload)
        assert clone._profile_index is None
        assert clone.version == graph.version
        with ObsContext() as ctx:
            assert_index_fresh(clone)
        assert counters(ctx) == (1, 0)
        if isinstance(clone, DiskGraph):
            clone.close()

    def test_disk_pickle_refuses_uncommitted_writes(self, mem, tmp_path):
        with DiskGraph.create(tmp_path / "g.db", mem) as g:
            g.add_edge(0, 59)
            with pytest.raises(StorageError, match="uncommitted"):
                pickle.dumps(g)
            g.flush()
            with pickle.loads(pickle.dumps(g)) as clone:
                assert clone.has_edge(0, 59)


def _to_dict(store):
    g = Graph(directed=store.directed)
    for n in store.nodes():
        g.add_node(n, **store.node_attrs(n))
    for u, v in store.edges():
        g.add_edge(u, v)
    return g

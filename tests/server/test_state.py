"""Unit tests for the read/write lock and versioned graph state."""

import random
import threading

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError, QueryError
from repro.graph import Graph
from repro.graph.generators import preferential_attachment
from repro.query.engine import QueryEngine
from repro.server import GraphState, ReadWriteLock


def path_graph(n):
    g = Graph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        with lock.read():
            acquired = threading.Event()

            def second_reader():
                with lock.read():
                    acquired.set()

            t = threading.Thread(target=second_reader)
            t.start()
            assert acquired.wait(timeout=5)
            t.join(timeout=5)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        got_read = threading.Event()
        t = threading.Thread(target=lambda: (lock.acquire_read(), got_read.set()))
        t.start()
        assert not got_read.wait(timeout=0.05)
        lock.release_write()
        assert got_read.wait(timeout=5)
        lock.release_read()
        t.join(timeout=5)

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a steady read stream cannot starve writers."""
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_got = threading.Event()
        late_reader_got = threading.Event()

        writer = threading.Thread(
            target=lambda: (lock.acquire_write(), writer_got.set())
        )
        writer.start()
        for _ in range(500):
            if lock._writers_waiting == 1:
                break
            threading.Event().wait(0.01)

        late_reader = threading.Thread(
            target=lambda: (lock.acquire_read(), late_reader_got.set())
        )
        late_reader.start()
        # The late reader queues behind the announced writer.
        assert not late_reader_got.wait(timeout=0.05)

        lock.release_read()
        assert writer_got.wait(timeout=5), "writer runs before the late reader"
        assert not late_reader_got.is_set()
        lock.release_write()
        assert late_reader_got.wait(timeout=5)
        lock.release_read()
        writer.join(timeout=5)
        late_reader.join(timeout=5)


class TestGraphState:
    def test_apply_bumps_version_atomically(self):
        g = path_graph(4)
        state = GraphState(QueryEngine(g))
        before = state.version
        after = state.apply([
            {"op": "add_edge", "u": 0, "v": 2},
            {"op": "add_edge", "u": 0, "v": 3},
        ])
        assert after == state.version
        assert after == before + 2
        assert g.has_edge(0, 2) and g.has_edge(0, 3)

    def test_apply_refreshes_csr_snapshot(self):
        g = path_graph(4)
        engine = QueryEngine(g, backend="csr")
        state = GraphState(engine)
        q = "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c FROM nodes ORDER BY ID"
        assert all(c == 0 for _, c in engine.execute(q).rows)
        state.apply([{"op": "add_edge", "u": 0, "v": 2}])
        counts = dict(engine.execute(q).rows)
        assert counts[1] == 1, "the frozen snapshot must follow the update"

    def test_maintained_census_routes_updates(self):
        from repro.census.incremental import IncrementalCensus

        g = path_graph(4)
        engine = QueryEngine(g)
        maintained = IncrementalCensus(
            g, engine.catalog.get("clq3-unlb"), 1, matcher="cn"
        )
        state = GraphState(engine, maintained=maintained)
        assert maintained.num_embeddings() == 0
        state.apply([{"op": "add_edge", "u": 0, "v": 2}])
        # The new edge closes the triangle {0, 1, 2}; the maintained
        # census saw it because the update went *through* it.
        assert maintained.num_embeddings() > 0
        assert set(maintained.snapshot()) >= {0, 1, 2}
        assert g.has_edge(0, 2)
        with pytest.raises(QueryError, match="remove_node"):
            state.apply([{"op": "remove_node", "node": 3}])


def graph_image(g):
    edges = set(g.edges()) if g.directed else {frozenset(e) for e in g.edges()}
    return set(g.nodes()), edges, g.version


class TestFailedBatchChangesNothing:
    QUERY = "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c FROM nodes ORDER BY ID"

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("bad_op, error", [
        ({"op": "remove_edge", "u": 0, "v": 999}, EdgeNotFoundError),
        ({"op": "remove_node", "node": 999}, NodeNotFoundError),
        ({"op": "add_edge", "u": 3, "v": 3}, GraphError),
    ])
    def test_mixed_batch(self, backend, bad_op, error):
        g = preferential_attachment(30, m=2, seed=7)
        engine = QueryEngine(g, backend=backend)
        state = GraphState(engine)
        engine.execute(self.QUERY)  # stores a match list
        before = graph_image(g)
        version, snapshot = state.version, engine.graph
        batch = [{"op": "add_edge", "u": 0, "v": 29},
                 {"op": "add_node", "node": 500},
                 {"op": "remove_edge", "u": 1, "v": next(iter(g.neighbors(1)))},
                 bad_op]
        with pytest.raises(error):
            state.apply(batch)
        assert graph_image(g) == before
        assert state.version == version
        assert engine.graph is snapshot
        assert engine.execute(self.QUERY).rows == \
            QueryEngine(g.copy(), backend=backend).execute(self.QUERY).rows

    def test_remove_node_under_maintained_census(self):
        from repro.census.incremental import IncrementalCensus

        g = path_graph(4)
        engine = QueryEngine(g)
        maintained = IncrementalCensus(g, engine.catalog.get("clq3-unlb"), 1)
        state = GraphState(engine, maintained=maintained)
        before, counts = graph_image(g), maintained.snapshot()
        with pytest.raises(QueryError, match="remove_node"):
            state.apply([{"op": "add_edge", "u": 0, "v": 2},
                          {"op": "remove_node", "node": 3}])
        assert graph_image(g) == before
        assert maintained.snapshot() == counts
        assert maintained.num_embeddings() == 0


def sequential_error(g, batch):
    """The error class applying ``batch`` op by op to a copy raises."""
    shadow = g.copy()
    try:
        for op in batch:
            args = (op["u"], op["v"]) if "u" in op else (op["node"],)
            getattr(shadow, op["op"])(*args)
    except GraphError as exc:
        return type(exc), shadow
    return None, shadow


def check_like_sequential(g, batch):
    """``GraphState.apply`` ends where op-by-op application does, or
    raises the same error and leaves ``g`` untouched."""
    expected, shadow = sequential_error(g, batch)
    before = graph_image(g)
    state = GraphState(QueryEngine(g))
    if expected is None:
        state.apply(batch)
        assert graph_image(g)[:2] == graph_image(shadow)[:2], batch
    else:
        with pytest.raises(expected):
            state.apply(batch)
        assert graph_image(g) == before, batch
    return expected


def edge(kind, u, v):
    return {"op": kind, "u": u, "v": v}


def node(kind, n):
    return {"op": kind, "node": n}


@pytest.mark.parametrize("batch, fails", [
    ([edge("add_edge", 0, 9), node("remove_node", 0), edge("remove_edge", 0, 9)], True),
    ([node("remove_node", 0), edge("add_edge", 0, 9), edge("remove_edge", 0, 9)], False),
    ([node("remove_node", 1), edge("remove_edge", 1, 2)], True),
    ([node("remove_node", 1), node("add_node", 1), edge("remove_edge", 1, 2)], True),
    ([edge("remove_edge", 1, 2), edge("remove_edge", 2, 1)], True),
    ([edge("remove_edge", 1, 2), edge("add_edge", 2, 1), edge("remove_edge", 1, 2)], False),
    ([node("add_node", 9), node("remove_node", 9), node("remove_node", 9)], True),
    ([edge("add_edge", 8, 9), node("remove_node", 8), node("remove_node", 9)], False),
])
def test_batch_sees_its_own_earlier_ops(batch, fails):
    assert (check_like_sequential(path_graph(4), batch) is not None) == fails


def random_op(rng, nodes):
    kind = rng.choice(["add_node", "add_edge", "remove_edge", "remove_edge",
                       "remove_node"])
    if kind in ("add_node", "remove_node"):
        return node(kind, rng.randrange(nodes + 1))
    return edge(kind, rng.randrange(nodes + 1), rng.randrange(nodes + 1))


@pytest.mark.parametrize("directed", [False, True])
def test_batch_fails_exactly_when_sequential_ops_would(directed):
    # Few nodes, so batches often touch what their earlier ops changed
    # (self-loops included).
    rng = random.Random(11)
    nodes = 5
    failures = 0
    for _ in range(1000):
        g = Graph(directed=directed)
        for _ in range(6):
            u, v = rng.sample(range(nodes), 2)
            g.add_edge(u, v)
        batch = [random_op(rng, nodes) for _ in range(rng.randint(2, 6))]
        failures += check_like_sequential(g, batch) is not None
    assert 0 < failures < 1000


class TestMaintainedCensusThroughState:
    """Random batches through ``GraphState.apply``: after every batch the
    maintained counts equal a fresh nd-bas census."""

    NODES = 18

    @staticmethod
    def patterns():
        from repro.matching import Pattern

        tri = Pattern("tri")
        tri.add_edge("A", "B")
        tri.add_edge("B", "C")
        tri.add_edge("A", "C")
        wedge = Pattern("wedge")
        wedge.add_node("A", label="a")
        wedge.add_edge("A", "B")
        wedge.add_edge("B", "C")
        wedge.add_edge("A", "C", negated=True)
        wedge.add_subpattern("mid", ["B"])
        return {
            "plain": (tri, 2, None, None),
            "negated": (wedge, 1, None, None),
            "subpattern": (wedge, 1, "mid", None),
            "focal": (tri, 1, None, range(0, 18, 3)),
        }

    def random_batch(self, rng, g):
        """2-5 ops, each valid after the ones before it; ids up to
        ``NODES + 2`` so some ops create nodes that later ops use."""
        shadow = g.copy()
        batch = []
        for _ in range(rng.randint(2, 5)):
            kind = rng.choice(["add_node", "add_edge", "add_edge", "remove_edge",
                               "remove_edge"])
            edges = sorted(shadow.edges())
            if kind == "remove_edge" and edges:
                u, v = rng.choice(edges)
                op = edge("remove_edge", u, v)
                shadow.remove_edge(u, v)
            elif kind == "add_node":
                op = node("add_node", rng.randrange(self.NODES + 2))
                if rng.random() < 0.7:
                    op["attrs"] = {"label": rng.choice("ab")}
                shadow.add_node(op["node"], **op.get("attrs", {}))
            else:
                u, v = (rng.choice(edges) if edges and rng.random() < 0.2
                        else rng.sample(range(self.NODES + 2), 2))
                op = edge("add_edge", u, v)
                if rng.random() < 0.4:
                    op["attrs"] = {"kind": rng.choice("xy")}
                shadow.add_edge(u, v, **op.get("attrs", {}))
            batch.append(op)
        return batch

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("shape", ["plain", "negated", "subpattern", "focal"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_counts_equal_fresh_census(self, backend, shape, shared):
        from repro.census import IncrementalCensus, census

        pattern, k, subpattern, focal = self.patterns()[shape]
        rng = random.Random(f"{backend}-{shape}-{shared}")
        g = preferential_attachment(self.NODES, m=2, seed=rng.randrange(100))
        for n in g.nodes():
            g.add_node(n, label=rng.choice("ab"))
        engine = QueryEngine(g, backend=backend)
        engine.define_pattern(pattern)
        maintained = IncrementalCensus(
            g, pattern, k, focal_nodes=focal, subpattern=subpattern,
            store=engine.match_store if shared else None,
        )
        state = GraphState(engine, maintained=maintained)
        query = f"SELECT ID, COUNTP({pattern.name}, SUBGRAPH(ID, 1)) AS c FROM nodes"
        for step in range(10):
            if step % 3 == 0:
                engine.execute(query)  # the census' entry, when shared
            state.apply(self.random_batch(rng, g))
            expected = census(g, pattern, k, focal_nodes=focal, subpattern=subpattern,
                              algorithm="nd-bas")
            assert maintained.snapshot() == expected, step
        assert engine.execute(query).rows == \
            QueryEngine(g.copy(), catalog=engine.catalog).execute(query).rows

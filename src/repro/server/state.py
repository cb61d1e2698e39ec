"""Versioned graph state shared by the daemon's request threads.

The serving contract is **no stale version is ever served**: every
query response names the graph version it was computed at, and that
version must be the server's current one for the whole execution.  Two
pieces enforce it:

- a :class:`ReadWriteLock`: queries hold the read side while they
  execute, mutations take the write side — so a mutation can never
  slide under a running census, and a query can never observe a
  half-applied batch of updates;
- the **graph mutation version** (:attr:`repro.graph.Graph.version`,
  surfaced as :attr:`QueryEngine.graph_version`), bumped by every
  mutation and baked into cache and coalescing keys.

Mutations are routed through :class:`repro.census.IncrementalCensus`
when the server maintains one (the maintained counts then update with
work proportional to the affected region, amortizing updates the same
way coalescing amortizes queries) and finish with
``engine.refresh_snapshot()`` so a CSR-backed engine re-freezes and the
aggregate cache drops entries for the old version.  The engine's match
store (:mod:`repro.query.match_store`) is repaired op by op alongside,
so its match lists carry over to the new version.
"""

import threading

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError, QueryError


class ReadWriteLock:
    """Many concurrent readers or one writer, writer-preferring.

    Writers announce themselves before blocking, and new readers queue
    behind announced writers — a steady query stream therefore cannot
    starve updates.  Not reentrant on either side.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self):
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self):
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    def read(self):
        return _Side(self.acquire_read, self.release_read)

    def write(self):
        return _Side(self.acquire_write, self.release_write)


class _Side:
    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release):
        self._acquire = acquire
        self._release = release

    def __enter__(self):
        self._acquire()
        return self

    def __exit__(self, *exc):
        self._release()
        return False


#: Mutation operations POST /update accepts, mapped to appliers.
UPDATE_OPS = ("add_node", "add_edge", "remove_edge", "remove_node")


class GraphState:
    """The daemon's single source of truth: graph + engine + lock.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.query.engine.QueryEngine`; its
        ``base_graph`` is the mutable graph updates apply to.
    maintained:
        Optional :class:`~repro.census.IncrementalCensus` over the same
        graph.  When present, edge/node mutations are routed *through*
        it (so its embeddings and counts stay current incrementally)
        instead of hitting the graph directly.
    """

    def __init__(self, engine, maintained=None):
        self.engine = engine
        self.graph = engine.base_graph
        self.maintained = maintained
        self.lock = ReadWriteLock()

    @property
    def version(self):
        """The graph version queries currently observe."""
        return self.engine.graph_version

    def read(self):
        """Shared-lock scope for query execution."""
        return self.lock.read()

    def apply(self, ops):
        """Apply a batch of mutations atomically; returns the new version.

        The whole batch runs under the write lock and ends with one
        ``refresh_snapshot()``, so concurrent queries see either the
        pre-batch or the post-batch graph, never a prefix.  The batch is
        checked whole before its first op runs, so a batch that would
        fail changes nothing (and drops the stored match lists); a
        passing batch has its stored lists repaired after every op.
        """
        engine = self.engine
        with self.lock.write():
            repair = engine.match_store.begin_repair(self.graph, engine.graph_version)
            try:
                self._check(ops)
                for op in ops:
                    self._apply_one(op, repair)
            except BaseException:
                repair.abandon()
                raise
            engine.refresh_snapshot()
            engine.match_store.commit(repair, engine.graph_version)
            return engine.graph_version

    def _check(self, ops):
        """Raise the error ``ops`` would raise midway, before any op runs.

        Replays the batch over an overlay of the graph: each op sees the
        nodes and edges that the batch's own earlier ops add or remove.
        """
        graph = self.graph
        directed = getattr(graph, "directed", False)
        nodes = {}  # node -> present after the ops checked so far
        edges = {}  # edge key -> present after the ops checked so far
        removed = set()  # nodes removed, with all their graph edges

        def edge_key(u, v):
            return (u, v) if directed else frozenset((u, v))

        def has_node(node):
            return nodes[node] if node in nodes else graph.has_node(node)

        def has_edge(u, v):
            key = edge_key(u, v)
            if key in edges:
                return edges[key]
            return not (u in removed or v in removed) and graph.has_edge(u, v)

        for op in ops:
            kind = op["op"]
            if kind == "add_node":
                nodes[op["node"]] = True
            elif kind == "add_edge":
                u, v = op["u"], op["v"]
                if u == v:
                    raise GraphError(f"self-loop on {u!r} is not allowed")
                nodes[u] = nodes[v] = True
                edges[edge_key(u, v)] = True
            elif kind == "remove_edge":
                u, v = op["u"], op["v"]
                if not has_edge(u, v):
                    raise EdgeNotFoundError(u, v)
                edges[edge_key(u, v)] = False
            elif kind == "remove_node":
                node = op["node"]
                if self.maintained is not None:
                    raise QueryError(
                        "remove_node is not supported while a maintained "
                        "census is configured"
                    )
                if not has_node(node):
                    raise NodeNotFoundError(node)
                nodes[node] = False
                removed.add(node)
                edges = {key: present for key, present in edges.items()
                         if node not in key}
            else:  # protocol validation should have caught this
                raise GraphError(f"unknown update op {kind!r}")

    def _apply_one(self, op, repair):
        kind = op["op"]
        graph = self.graph
        target = self.maintained if self.maintained is not None else graph
        attrs = op.get("attrs", {})
        if kind == "add_node":
            node = op["node"]
            existed = graph.has_node(node)
            target.add_node(node, **attrs)
            repair.apply("node_added", node, existed, attrs)
        elif kind == "add_edge":
            u, v = op["u"], op["v"]
            existed = graph.has_edge(u, v)
            new_nodes = [x for x in (u, v) if not graph.has_node(x)]
            target.add_edge(u, v, **attrs)
            repair.apply("edge_added", u, v, existed, attrs, new_nodes)
        elif kind == "remove_edge":
            target.remove_edge(op["u"], op["v"])
            repair.apply("edge_removed", op["u"], op["v"])
        else:  # remove_node; _check refused it under a maintained census
            graph.remove_node(op["node"])
            repair.apply("node_removed", op["node"])

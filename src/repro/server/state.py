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

Mutations go through the engine's match store
(:meth:`repro.query.match_store.MatchStore.apply`), which applies each
op and repairs the stored match lists so they carry over to the new
version, and finish with ``engine.refresh_snapshot()`` so a CSR-backed
engine re-freezes and the aggregate cache drops entries for the old
version.  A maintained :class:`repro.census.IncrementalCensus` reads
its pattern's list from the same store and then refreshes only the
counts in the affected region (amortizing updates the same way
coalescing amortizes queries).
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


#: Mutation operations POST /update accepts, named as the graph methods.
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
        graph, refreshed after every batch.  Reading its matches from
        ``engine.match_store`` it shares the batch's repair; from another
        store, its refresh re-matches.
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
        fail changes nothing (and drops the stored match lists, as one
        failing midway would); a passing batch has its stored lists
        repaired after every op.
        """
        engine, maintained = self.engine, self.maintained
        with self.lock.write():
            try:
                self._check(ops)
            except (GraphError, QueryError):
                engine.match_store.clear()
                raise
            changed = engine.match_store.apply(self.graph, ops)
            engine.refresh_snapshot()
            if maintained is not None:
                maintained.refresh(changed)
            return engine.graph_version

    def _check(self, ops):
        """Raise the error ``ops`` would raise midway, before any op runs.

        Replays the batch over an overlay of the graph: each op sees the
        nodes and edges that the batch's own earlier ops add or remove.
        Ops the graph has no method for, and node ids it cannot hold
        (its ``node_types``, when it declares them), are refused too.
        """
        graph = self.graph
        node_types = getattr(graph, "node_types", object)
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
            if kind not in UPDATE_OPS or not hasattr(graph, kind):
                raise GraphError(f"{type(graph).__name__} has no {kind!r} update")
            ends = (op["node"],) if kind.endswith("_node") else (op["u"], op["v"])
            for node in ends:
                if not isinstance(node, node_types):
                    raise GraphError(f"{type(graph).__name__} cannot hold node id {node!r}")
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
            else:  # remove_node
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

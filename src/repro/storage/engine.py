"""``DiskGraph``: the disk-resident adjacency-list graph store.

Each node is one JSON record in the store's append-only log:

- undirected: ``{"id", "a": attrs, "adj": [[neighbor, eattrs|null]]}``
  where the edge attribute dict is stored on the edge's *canonical*
  endpoint (the same tie-break rule as the in-memory graph) and
  ``null`` on the mirror side;
- directed: ``{"id", "a": attrs, "out": [[neighbor, eattrs]], "in":
  [neighbor, ...]}`` with edge attributes on the source record.

Updates append a fresh version of the record and repoint the in-memory
directory (node id -> offset); ``flush()`` serializes the directory as
one more record and commits its offset in the header — shadow-paging
style, so a crash before flush leaves the previous consistent state.

``DiskGraph`` implements the same access-path surface as
:class:`repro.graph.Graph`; matchers and census algorithms run on it
unchanged, paying buffer-pool and decode costs the way the paper's
Neo4j-backed prototype did.  A small decoded-record LRU sits above the
page cache (an object cache above the buffer pool).
"""

from collections import OrderedDict

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError, StorageError
from repro.graph.graph import LABEL_KEY
from repro.storage.pager import Pager
from repro.storage.records import RecordLog


class DiskGraph:
    """A graph stored in a single paged file."""

    #: The node id types a record can hold.
    node_types = (int, str)

    def __init__(self, pager, cache_pages=256, record_cache=1024):
        self._pager = pager
        self._cache_pages = cache_pages
        self._log = RecordLog(pager, cache_pages=cache_pages)
        self.directed = pager.directed
        self._directory = {}
        self._num_edges = 0
        self._version = 0
        self._flushed_version = 0
        self._profile_index = None
        self._record_cache = OrderedDict()
        self._record_cache_cap = max(1, record_cache)
        if pager.dir_offset:
            self._load_directory(pager.dir_offset)

    # Pickling ships the path and reopens the committed store on the
    # other side (repro.census.parallel ships graphs to worker
    # processes); no cache, the profile index included, travels along.
    def __getstate__(self):
        if self._version != self._flushed_version:
            raise StorageError(
                f"{self._pager.path!r} has uncommitted writes; flush() before pickling"
            )
        return {
            "path": self._pager.path,
            "cache_pages": self._cache_pages,
            "record_cache": self._record_cache_cap,
            "version": self._version,
        }

    def __setstate__(self, state):
        self.__init__(Pager(state["path"]), cache_pages=state["cache_pages"],
                      record_cache=state["record_cache"])
        self._version = self._flushed_version = state["version"]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path, graph=None, directed=False, cache_pages=256,
               record_cache=1024):
        """Create a new store at ``path``; bulk-load ``graph`` if given."""
        if graph is not None:
            directed = graph.directed
        pager = Pager(path, create=True, directed=directed)
        store = cls(pager, cache_pages=cache_pages, record_cache=record_cache)
        if graph is not None:
            store._bulk_load(graph)
        store.flush()
        return store

    @classmethod
    def open(cls, path, cache_pages=256, record_cache=1024):
        """Open an existing store."""
        return cls(Pager(path, create=False), cache_pages=cache_pages,
                   record_cache=record_cache)

    def flush(self):
        """Commit all pending state (directory + dirty pages + header)."""
        entries = sorted(self._directory.items(), key=lambda kv: repr(kv[0]))
        offset = self._log.append_json(
            {"type": "dir", "edges": self._num_edges, "entries": [[k, v] for k, v in entries]}
        )
        self._pager.dir_offset = offset
        self._log.flush()
        self._flushed_version = self._version

    def close(self):
        self.flush()
        self._pager.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def cache_stats(self):
        """Buffer-pool statistics (hits/misses/evictions)."""
        return self._log.cache.stats()

    def io_stats(self):
        """Combined buffer-pool and physical page I/O counters.

        The ``page_cache.*`` keys mirror :meth:`cache_stats`; the
        ``pager.*`` keys count pages that actually reached the file.
        The query engine snapshots this around each statement to report
        per-query cache hit rates in ``EXPLAIN ANALYZE``.
        """
        stats = {f"page_cache.{k}": v for k, v in self._log.cache.stats().items()}
        stats.update({f"pager.{k}": v for k, v in self._pager.io_stats().items()})
        return stats

    def compact(self, dest_path, cache_pages=256):
        """Rewrite only the live record versions into a fresh store.

        The append-only log accumulates dead record versions as nodes
        are updated; compaction copies each node's current record once,
        typically shrinking the file substantially.  Returns the new
        (already flushed) :class:`DiskGraph`.
        """
        pager = Pager(dest_path, create=True, directed=self.directed)
        fresh = DiskGraph(pager, cache_pages=cache_pages)
        for node in self._directory:
            fresh._write_record(node, self._read_record(node))
        fresh._num_edges = self._num_edges
        fresh.flush()
        return fresh

    def file_size(self):
        """Current store file size in bytes (committed log tail)."""
        return self._pager.log_end

    def _load_directory(self, offset):
        doc = self._log.read_json(offset)
        if doc.get("type") != "dir":
            raise StorageError(f"offset {offset} is not a directory record")
        self._directory = {_key(node): rec_offset for node, rec_offset in doc["entries"]}
        self._num_edges = doc.get("edges", 0)

    def _bulk_load(self, graph):
        for n in graph.nodes():
            self.add_node(n, **graph.node_attrs(n))
        for u, v in graph.edges():
            self.add_edge(u, v, **graph.edge_attrs(u, v))

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------
    def _read_record(self, node):
        rec = self._record_cache.get(node)
        if rec is not None:
            self._record_cache.move_to_end(node)
            return rec
        try:
            offset = self._directory[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        rec = self._log.read_json(offset)
        self._record_cache[node] = rec
        if len(self._record_cache) > self._record_cache_cap:
            self._record_cache.popitem(last=False)
        return rec

    @property
    def version(self):
        """Monotonic mutation counter (process-local, not persisted).

        Every record write — node/edge insertion, attribute update —
        bumps it, mirroring :attr:`repro.graph.Graph.version` so
        version-keyed consumers (the engine's aggregate cache, the
        serving layer, :attr:`profile_index`) work identically over
        disk-resident graphs.
        """
        return self._version

    @property
    def profile_index(self):
        """The CN matcher's :class:`~repro.graph.profiles.NodeProfileIndex`,
        built on first use (one read of every record) and kept until
        :attr:`version` moves."""
        from repro.graph.profiles import versioned_profile_index

        self._profile_index = versioned_profile_index(self, self._profile_index)
        return self._profile_index[1]

    def _write_record(self, node, rec):
        self._version += 1
        offset = self._log.append_json(rec)
        self._directory[node] = offset
        self._record_cache[node] = rec
        self._record_cache.move_to_end(node)
        if len(self._record_cache) > self._record_cache_cap:
            self._record_cache.popitem(last=False)

    def _canonical(self, u, v):
        """The endpoint that owns an undirected edge's attributes."""
        try:
            return u if u <= v else v
        except TypeError:
            return u if repr(u) <= repr(v) else v

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node, **attrs):
        if not isinstance(node, self.node_types):
            raise GraphError(
                f"DiskGraph node ids must be int or str, got {type(node).__name__}"
            )
        if node in self._directory:
            if attrs:
                rec = dict(self._read_record(node))
                rec["a"] = {**rec["a"], **attrs}
                self._write_record(node, rec)
            return
        rec = {"id": node, "a": dict(attrs)}
        if self.directed:
            rec["out"] = []
            rec["in"] = []
        else:
            rec["adj"] = []
        self._write_record(node, rec)

    def has_node(self, node):
        return node in self._directory

    def nodes(self):
        return iter(self._directory)

    def node_attrs(self, node):
        return self._read_record(node)["a"]

    def node_attr(self, node, key, default=None):
        return self._read_record(node)["a"].get(key, default)

    def set_node_attr(self, node, key, value):
        rec = dict(self._read_record(node))
        rec["a"] = {**rec["a"], key: value}
        self._write_record(node, rec)

    def label(self, node):
        return self.node_attr(node, LABEL_KEY)

    @property
    def num_nodes(self):
        return len(self._directory)

    @property
    def num_edges(self):
        return self._num_edges

    def __len__(self):
        return len(self._directory)

    def __contains__(self, node):
        return node in self._directory

    def __iter__(self):
        return iter(self._directory)

    def labels(self):
        return {self.node_attr(n, LABEL_KEY) for n in self._directory}

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u, v, **attrs):
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        if self.has_edge(u, v):
            if attrs:
                self._merge_edge_attrs(u, v, attrs)
            return
        if self.directed:
            rec_u = dict(self._read_record(u))
            rec_u["out"] = rec_u["out"] + [[v, dict(attrs)]]
            self._write_record(u, rec_u)
            rec_v = dict(self._read_record(v))
            rec_v["in"] = rec_v["in"] + [u]
            self._write_record(v, rec_v)
        else:
            owner = self._canonical(u, v)
            rec_u = dict(self._read_record(u))
            rec_u["adj"] = rec_u["adj"] + [[v, dict(attrs) if owner == u else None]]
            self._write_record(u, rec_u)
            rec_v = dict(self._read_record(v))
            rec_v["adj"] = rec_v["adj"] + [[u, dict(attrs) if owner == v else None]]
            self._write_record(v, rec_v)
        self._num_edges += 1

    def _merge_edge_attrs(self, u, v, attrs):
        if self.directed:
            rec = dict(self._read_record(u))
            rec["out"] = [
                [nbr, {**(ea or {}), **attrs}] if nbr == v else [nbr, ea]
                for nbr, ea in rec["out"]
            ]
            self._write_record(u, rec)
        else:
            owner = self._canonical(u, v)
            other = v if owner == u else u
            rec = dict(self._read_record(owner))
            rec["adj"] = [
                [nbr, {**(ea or {}), **attrs}] if nbr == other else [nbr, ea]
                for nbr, ea in rec["adj"]
            ]
            self._write_record(owner, rec)

    def has_edge(self, u, v):
        if u not in self._directory or v not in self._directory:
            return False
        rec = self._read_record(u)
        if self.directed:
            return any(nbr == v for nbr, _ea in rec["out"])
        return any(nbr == v for nbr, _ea in rec["adj"])

    def edge_attrs(self, u, v):
        if self.directed:
            rec = self._read_record(u)
            for nbr, ea in rec["out"]:
                if nbr == v:
                    return ea if ea is not None else {}
            raise EdgeNotFoundError(u, v)
        owner = self._canonical(u, v)
        other = v if owner == u else u
        rec = self._read_record(owner)
        for nbr, ea in rec["adj"]:
            if nbr == other:
                return ea if ea is not None else {}
        raise EdgeNotFoundError(u, v)

    def edge_attr(self, u, v, key, default=None):
        return self.edge_attrs(u, v).get(key, default)

    def edges(self):
        """Iterate edges once each (canonical endpoint first when
        undirected)."""
        for n in self._directory:
            rec = self._read_record(n)
            if self.directed:
                for nbr, _ea in rec["out"]:
                    yield (n, nbr)
            else:
                for nbr, ea in rec["adj"]:
                    if ea is not None:
                        yield (n, nbr)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node):
        rec = self._read_record(node)
        if self.directed:
            return {nbr for nbr, _ea in rec["out"]} | set(rec["in"])
        return {nbr for nbr, _ea in rec["adj"]}

    def out_neighbors(self, node):
        rec = self._read_record(node)
        if self.directed:
            return {nbr for nbr, _ea in rec["out"]}
        return {nbr for nbr, _ea in rec["adj"]}

    def in_neighbors(self, node):
        rec = self._read_record(node)
        if self.directed:
            return set(rec["in"])
        return {nbr for nbr, _ea in rec["adj"]}

    def degree(self, node):
        return len(self.neighbors(node))

    def out_degree(self, node):
        return len(self.out_neighbors(node))

    def in_degree(self, node):
        return len(self.in_neighbors(node))

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (
            f"<DiskGraph {kind} nodes={self.num_nodes} edges={self.num_edges} "
            f"path={self._pager.path!r}>"
        )


def _key(node):
    # JSON round-trips int and str node ids unchanged.
    return node

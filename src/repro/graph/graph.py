"""In-memory attributed graph.

The :class:`Graph` class stores an adjacency-list representation of a
directed or undirected graph whose nodes and edges carry arbitrary
attribute dictionaries.  Node identifiers may be any hashable value.

This is the reference implementation of the graph access-path API that
every algorithm in the package is written against; the disk-resident
engine in :mod:`repro.storage` implements the same surface.
"""

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError

#: Attribute key conventionally holding a node's label.  The matching
#: algorithms treat a missing label as the single anonymous label ``None``
#: (the paper's "unlabeled" case).
LABEL_KEY = "label"


class Graph:
    """A directed or undirected graph with node and edge attributes.

    Parameters
    ----------
    directed:
        When true, ``add_edge(u, v)`` creates an arc from ``u`` to ``v``
        and ``neighbors`` distinguishes in- from out-neighbors.
    """

    __slots__ = ("directed", "_node_attrs", "_succ", "_pred", "_edge_attrs",
                 "_num_edges", "_version", "_profile_index")

    def __init__(self, directed=False):
        self.directed = bool(directed)
        self._node_attrs = {}
        self._succ = {}
        # For undirected graphs _pred aliases _succ so that in_neighbors
        # and out_neighbors coincide without extra bookkeeping.
        self._pred = {} if self.directed else self._succ
        self._edge_attrs = {}
        self._num_edges = 0
        self._version = 0
        self._profile_index = None

    # Pickling ships the graph, not its derived profile index (see
    # repro.census.parallel, which ships graphs to worker processes).
    def __getstate__(self):
        return {key: getattr(self, key) for key in self.__slots__
                if key != "_profile_index"}

    def __setstate__(self, state):
        for key, value in state.items():
            setattr(self, key, value)
        self._profile_index = None

    @property
    def version(self):
        """Monotonic mutation counter.

        Bumped by every mutating operation that changes the graph
        (node/edge insertion or removal, attribute updates through the
        mutator methods).  Consumers — the query engine's aggregate
        cache, the serving layer's snapshot protocol, the graph's own
        :attr:`profile_index` — key derived state on this value so a
        mutated graph can never be mistaken for the one the state was
        computed from.  Writes through the live dicts returned by
        :meth:`node_attrs` / :meth:`edge_attrs` bypass the counter (a
        label written that way leaves the profile index stale); use
        :meth:`set_node_attr` / :meth:`add_edge` to keep versioned
        consumers coherent.
        """
        return self._version

    @property
    def profile_index(self):
        """The CN matcher's :class:`~repro.graph.profiles.NodeProfileIndex`,
        built on first use and kept until :attr:`version` moves."""
        from repro.graph.profiles import versioned_profile_index

        self._profile_index = versioned_profile_index(self, self._profile_index)
        return self._profile_index[1]

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node, **attrs):
        """Add ``node`` (a no-op if present), updating its attributes."""
        if node not in self._node_attrs:
            self._node_attrs[node] = {}
            self._succ[node] = set()
            if self.directed:
                self._pred[node] = set()
            self._version += 1
        if attrs:
            self._node_attrs[node].update(attrs)
            self._version += 1

    def remove_node(self, node):
        """Remove ``node`` and all incident edges."""
        self._require_node(node)
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        if self.directed:
            for u in list(self._pred[node]):
                self.remove_edge(u, node)
        del self._node_attrs[node]
        del self._succ[node]
        if self.directed:
            del self._pred[node]
        self._version += 1

    def has_node(self, node):
        return node in self._node_attrs

    def nodes(self):
        """Iterate over node identifiers."""
        return iter(self._node_attrs)

    def node_attrs(self, node):
        """Return the live attribute dict of ``node``."""
        self._require_node(node)
        return self._node_attrs[node]

    def node_attr(self, node, key, default=None):
        """Return one attribute of ``node`` (``default`` if absent)."""
        self._require_node(node)
        return self._node_attrs[node].get(key, default)

    def set_node_attr(self, node, key, value):
        self._require_node(node)
        self._node_attrs[node][key] = value
        self._version += 1

    def label(self, node):
        """Return the node's label attribute (``None`` when unlabeled)."""
        return self.node_attr(node, LABEL_KEY)

    @property
    def num_nodes(self):
        return len(self._node_attrs)

    def __len__(self):
        return len(self._node_attrs)

    def __contains__(self, node):
        return node in self._node_attrs

    def __iter__(self):
        return iter(self._node_attrs)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u, v, **attrs):
        """Add an edge (arc when directed) from ``u`` to ``v``.

        Endpoints are created implicitly.  Self-loops are rejected: the
        paper's patterns and neighborhoods are over simple graphs.
        Re-adding an existing edge merges attributes.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        key = self._edge_key(u, v)
        if key not in self._edge_attrs:
            self._edge_attrs[key] = {}
            self._num_edges += 1
            self._succ[u].add(v)
            self._pred[v].add(u)
            self._version += 1
        if attrs:
            self._edge_attrs[key].update(attrs)
            self._version += 1

    def remove_edge(self, u, v):
        key = self._edge_key(u, v)
        if key not in self._edge_attrs:
            raise EdgeNotFoundError(u, v)
        del self._edge_attrs[key]
        self._num_edges -= 1
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._version += 1

    def has_edge(self, u, v):
        """True if the edge (arc from ``u`` to ``v`` when directed) exists."""
        return self._edge_key(u, v) in self._edge_attrs

    def edges(self):
        """Iterate over edges as ``(u, v)`` tuples.

        For undirected graphs each edge appears once, with endpoints in
        the order the edge was first added.
        """
        return iter(self._edge_attrs)

    def edge_attrs(self, u, v):
        """Return the live attribute dict of the edge ``(u, v)``."""
        key = self._edge_key(u, v)
        try:
            return self._edge_attrs[key]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def edge_attr(self, u, v, key, default=None):
        return self.edge_attrs(u, v).get(key, default)

    @property
    def num_edges(self):
        return self._num_edges

    def _edge_key(self, u, v):
        if self.directed:
            return (u, v)
        # Canonical undirected key: order by hash then repr so any
        # hashable node type works deterministically.
        if u == v:
            return (u, v)
        try:
            return (u, v) if u <= v else (v, u)
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node):
        """All neighbors of ``node``; for directed graphs, the union of
        in- and out-neighbors (the paper's k-hop neighborhoods ignore
        direction when expanding)."""
        self._require_node(node)
        if not self.directed:
            return self._succ[node]
        return self._succ[node] | self._pred[node]

    def out_neighbors(self, node):
        self._require_node(node)
        return self._succ[node]

    def in_neighbors(self, node):
        self._require_node(node)
        return self._pred[node]

    def degree(self, node):
        """Number of distinct neighbors (direction-blind)."""
        return len(self.neighbors(node))

    def out_degree(self, node):
        return len(self.out_neighbors(node))

    def in_degree(self, node):
        return len(self.in_neighbors(node))

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def copy(self):
        """Deep-enough copy: attribute dicts are copied one level deep."""
        g = Graph(directed=self.directed)
        for n, attrs in self._node_attrs.items():
            g.add_node(n, **attrs)
        for (u, v), attrs in self._edge_attrs.items():
            g.add_edge(u, v, **attrs)
        return g

    def labels(self):
        """The set of distinct node labels present (may include ``None``)."""
        return {attrs.get(LABEL_KEY) for attrs in self._node_attrs.values()}

    def _require_node(self, node):
        if node not in self._node_attrs:
            raise NodeNotFoundError(node)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"<Graph {kind} nodes={self.num_nodes} edges={self.num_edges}>"

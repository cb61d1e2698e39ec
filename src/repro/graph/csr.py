"""Read-optimized CSR graph snapshots.

:func:`freeze` converts any graph implementing the access-path API into
a :class:`CSRGraph`: an immutable snapshot whose adjacency lives in
int-indexed compressed-sparse-row arrays (``array('q')`` index and
offset vectors — no third-party dependency).  The snapshot implements
the same access-path surface as :class:`repro.graph.graph.Graph`, so
every matcher, census algorithm and :mod:`repro.graph.traversal` BFS
runs on it unchanged.  It does two jobs beyond that surface:

- **zero-copy union adjacency for ND-PVOT** — the direction-blind
  adjacency is one pair of CSR vectors (:meth:`CSRGraph.union_adjacency`)
  over the dense node indexes of :attr:`CSRGraph.node_index`, which the
  bit-parallel kernel in :mod:`repro.census.indexed` views in place
  instead of indexing the graph per call;
- **a ready profile index for CN** — each node's union-adjacency slice
  is grouped by neighbor label, so node profiles (the CN matcher's
  candidate filter) are read off slice widths, and ``nodes_with_label``
  is a bucket built at freeze time.  :attr:`CSRGraph.profile_index`
  serves them with the :class:`repro.graph.profiles.NodeProfileIndex`
  API, the attribute ``enumerate_candidates`` reads on every backend.

``neighbors()`` hands out per-node frozensets of ids built once per
snapshot, so the direction-blind union a directed dict graph recomputes
per call is materialized once.

Snapshots are cheap to share with worker processes: pickling keeps only
the canonical arrays and attribute dicts and rebuilds derived caches
lazily on first use (see :mod:`repro.census.parallel`).
"""

from array import array
from collections import Counter

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.graph import LABEL_KEY, Graph


def freeze(graph):
    """Snapshot ``graph`` into a :class:`CSRGraph` (no-op when frozen)."""
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph(graph)


class CSRProfileIndex:
    """Node profiles served from a CSR snapshot's label partitions.

    Same surface as :class:`repro.graph.profiles.NodeProfileIndex`, but
    nothing is computed per query: profiles are slice widths of the
    label-partitioned adjacency and label buckets were built at freeze
    time.
    """

    __slots__ = ("_csr",)

    def __init__(self, csr):
        self._csr = csr

    def profile(self, node):
        return self._csr._profiles()[self._csr._index[node]]

    def nodes_with_label(self, label):
        return self._csr._by_label.get(label, frozenset())

    def labels(self):
        return set(self._csr._by_label)

    def candidates(self, label, pattern_profile):
        from repro.graph.profiles import profile_contains

        profiles = self._csr._profiles()
        index = self._csr._index
        return [
            n
            for n in self._csr._by_label.get(label, ())
            if profile_contains(profiles[index[n]], pattern_profile)
        ]

    def __len__(self):
        return len(self._csr)


class CSRGraph:
    """An immutable, read-optimized snapshot of a graph.

    Node identifiers, attributes, and edge attributes are preserved (the
    attribute dicts are shared with the source graph, not copied); the
    mutation half of the :class:`Graph` API raises :class:`GraphError`.
    Use :meth:`thaw` to get a mutable copy back.
    """

    __slots__ = (
        "directed",
        "_ids",
        "_index",
        "_node_attrs",
        "_edge_attrs",
        "_num_edges",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_all_indptr",
        "_all_indices",
        "_label_slices",
        "_by_label",
        # Derived caches, rebuilt lazily after unpickling.
        "_nbr_all",
        "_nbr_out",
        "_nbr_in",
        "_profile_cache",
        "_profile_index_cache",
    )

    def __init__(self, graph):
        self.directed = bool(graph.directed)
        self._ids = list(graph.nodes())
        self._index = {n: i for i, n in enumerate(self._ids)}
        self._node_attrs = {n: graph.node_attrs(n) for n in self._ids}
        self._edge_attrs = {}
        for u, v in graph.edges():
            self._edge_attrs[self._edge_key(u, v)] = graph.edge_attrs(u, v)
        self._num_edges = graph.num_edges

        index = self._index
        label_rank = {}
        for n in self._ids:
            label = self._node_attrs[n].get(LABEL_KEY)
            if label not in label_rank:
                label_rank[label] = None
        for rank, label in enumerate(sorted(label_rank, key=repr)):
            label_rank[label] = rank
        labels_of = [self._node_attrs[n].get(LABEL_KEY) for n in self._ids]

        self._out_indptr, self._out_indices = self._build_adjacency(
            (sorted(index[x] for x in graph.out_neighbors(n)) for n in self._ids)
        )
        if self.directed:
            self._in_indptr, self._in_indices = self._build_adjacency(
                (sorted(index[x] for x in graph.in_neighbors(n)) for n in self._ids)
            )
        else:
            self._in_indptr, self._in_indices = self._out_indptr, self._out_indices

        # Union adjacency, label-partitioned: each node's slice is sorted
        # by (neighbor label rank, neighbor index); _label_slices[i] maps
        # the slice up into per-label runs.
        all_indptr = array("q", [0])
        all_indices = array("q")
        label_slices = []
        pos = 0
        for n in self._ids:
            nbrs = sorted(
                (index[x] for x in graph.neighbors(n)),
                key=lambda j: (label_rank[labels_of[j]], j),
            )
            all_indices.extend(nbrs)
            runs = []
            start = 0
            while start < len(nbrs):
                label = labels_of[nbrs[start]]
                end = start
                while end < len(nbrs) and labels_of[nbrs[end]] == label:
                    end += 1
                runs.append((label, pos + start, pos + end))
                start = end
            label_slices.append(tuple(runs))
            pos += len(nbrs)
            all_indptr.append(pos)
        self._all_indptr, self._all_indices = all_indptr, all_indices
        self._label_slices = label_slices

        by_label = {}
        for n, label in zip(self._ids, labels_of):
            by_label.setdefault(label, []).append(n)
        self._by_label = {label: frozenset(ns) for label, ns in by_label.items()}

        self._init_caches()

    @staticmethod
    def _build_adjacency(rows):
        indptr = array("q", [0])
        indices = array("q")
        pos = 0
        for row in rows:
            indices.extend(row)
            pos += len(row)
            indptr.append(pos)
        return indptr, indices

    def _init_caches(self):
        self._nbr_all = None
        self._nbr_out = None
        self._nbr_in = None
        self._profile_cache = None
        self._profile_index_cache = None

    # ------------------------------------------------------------------
    # Pickling: ship only canonical state; caches rebuild lazily.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "directed": self.directed,
            "_ids": self._ids,
            "_index": self._index,
            "_node_attrs": self._node_attrs,
            "_edge_attrs": self._edge_attrs,
            "_num_edges": self._num_edges,
            "_out_indptr": self._out_indptr,
            "_out_indices": self._out_indices,
            "_in_indptr": self._in_indptr,
            "_in_indices": self._in_indices,
            "_all_indptr": self._all_indptr,
            "_all_indices": self._all_indices,
            "_label_slices": self._label_slices,
            "_by_label": self._by_label,
        }

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)
        if not self.directed:
            self._in_indptr, self._in_indices = self._out_indptr, self._out_indices
        self._init_caches()

    # ------------------------------------------------------------------
    # Derived caches
    # ------------------------------------------------------------------
    def _id_sets(self, indptr, indices):
        """Per-node frozensets of neighbor ids, one per CSR row."""
        ids = self._ids
        flat = [ids[j] for j in indices]
        return [frozenset(flat[indptr[i]:indptr[i + 1]]) for i in range(len(ids))]

    def _neighbor_sets(self, kind):
        if kind == "all":
            sets = self._nbr_all
            if sets is None:
                sets = self._nbr_all = self._id_sets(self._all_indptr, self._all_indices)
        elif kind == "out":
            sets = self._nbr_out
            if sets is None:
                sets = self._nbr_out = (
                    self._id_sets(self._out_indptr, self._out_indices)
                    if self.directed else self._neighbor_sets("all")
                )
        else:
            sets = self._nbr_in
            if sets is None:
                sets = self._nbr_in = (
                    self._id_sets(self._in_indptr, self._in_indices)
                    if self.directed else self._neighbor_sets("all")
                )
        return sets

    def _profiles(self):
        profiles = self._profile_cache
        if profiles is None:
            profiles = []
            for runs in self._label_slices:
                c = Counter()
                for label, start, end in runs:
                    c[label] = end - start
                profiles.append(c)
            self._profile_cache = profiles
        return profiles

    @property
    def profile_index(self):
        """A ready-made profile index (NodeProfileIndex API)."""
        idx = self._profile_index_cache
        if idx is None:
            idx = self._profile_index_cache = CSRProfileIndex(self)
        return idx

    # ------------------------------------------------------------------
    # Int-indexed views for the bit-parallel ND-PVOT kernel
    # ------------------------------------------------------------------
    @property
    def node_index(self):
        """Mapping from node id to its dense CSR index (do not mutate)."""
        return self._index

    def union_adjacency(self):
        """The direction-blind adjacency as raw CSR vectors
        ``(indptr, indices)`` over node indexes — ``array('q')`` values
        that numpy views zero-copy (``np.frombuffer``)."""
        return self._all_indptr, self._all_indices

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def _require_node(self, node):
        if node not in self._index:
            raise NodeNotFoundError(node)

    def _frozen(self, op):
        raise GraphError(
            f"cannot {op}: CSRGraph is an immutable snapshot (thaw() for a "
            "mutable copy)"
        )

    def add_node(self, node, **attrs):
        self._frozen("add a node")

    def remove_node(self, node):
        self._frozen("remove a node")

    def set_node_attr(self, node, key, value):
        self._frozen("set a node attribute")

    def has_node(self, node):
        return node in self._index

    def nodes(self):
        return iter(self._ids)

    def node_attrs(self, node):
        self._require_node(node)
        return self._node_attrs[node]

    def node_attr(self, node, key, default=None):
        self._require_node(node)
        return self._node_attrs[node].get(key, default)

    def label(self, node):
        return self.node_attr(node, LABEL_KEY)

    @property
    def num_nodes(self):
        return len(self._ids)

    def __len__(self):
        return len(self._ids)

    def __contains__(self, node):
        return node in self._index

    def __iter__(self):
        return iter(self._ids)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u, v, **attrs):
        self._frozen("add an edge")

    def remove_edge(self, u, v):
        self._frozen("remove an edge")

    def has_edge(self, u, v):
        return self._edge_key(u, v) in self._edge_attrs

    def edges(self):
        return iter(self._edge_attrs)

    def edge_attrs(self, u, v):
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
        # Mirrors Graph._edge_key so snapshots of the same graph agree.
        if self.directed:
            return (u, v)
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
        # The BFS and the matchers call this once per visited node: one
        # index lookup, no helper calls once the sets are built.
        try:
            i = self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return (self._nbr_all or self._neighbor_sets("all"))[i]

    def out_neighbors(self, node):
        self._require_node(node)
        return self._neighbor_sets("out")[self._index[node]]

    def in_neighbors(self, node):
        self._require_node(node)
        return self._neighbor_sets("in")[self._index[node]]

    def degree(self, node):
        self._require_node(node)
        i = self._index[node]
        return self._all_indptr[i + 1] - self._all_indptr[i]

    def out_degree(self, node):
        self._require_node(node)
        i = self._index[node]
        return self._out_indptr[i + 1] - self._out_indptr[i]

    def in_degree(self, node):
        self._require_node(node)
        i = self._index[node]
        return self._in_indptr[i + 1] - self._in_indptr[i]

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def thaw(self):
        """A mutable :class:`Graph` copy (attribute dicts copied one level)."""
        g = Graph(directed=self.directed)
        for n in self._ids:
            g.add_node(n, **self._node_attrs[n])
        for (u, v), attrs in self._edge_attrs.items():
            g.add_edge(u, v, **attrs)
        return g

    def copy(self):
        """Alias of :meth:`thaw`: copies of a snapshot are mutable."""
        return self.thaw()

    def labels(self):
        return set(self._by_label)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (
            f"<CSRGraph {kind} nodes={self.num_nodes} edges={self.num_edges} "
            f"labels={len(self._by_label)}>"
        )

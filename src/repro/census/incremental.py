"""Incremental census maintenance under graph updates.

The paper's group followed this work with declarative analysis of
evolving/noisy networks; this module maintains a census result as the
graph changes, with work proportional to the affected region instead of
the whole graph:

- the **matches** are the pattern's entry in a
  :class:`repro.query.match_store.MatchStore` (a private one by
  default; the serving daemon shares its query engine's).  Updates go
  through :meth:`MatchStore.apply`, which mutates the graph and repairs
  the entry locally, so no global re-matching happens after
  construction unless the store evicts the entry;

- the **counts** are refreshed only for focal nodes within the affected
  radius of the changed nodes, before and after the update, via
  ND-PVOT over the stored matches.

Correctness is property-tested against full recomputation on random
update sequences.
"""

from repro.census.nd_pvot import nd_pvot_census
from repro.errors import CensusError
from repro.graph.traversal import k_hop_nodes


class IncrementalCensus:
    """A census result kept current under graph updates.

    Parameters mirror :func:`repro.census.census`, plus the ``store``
    the matches are read from.  Mutate the graph through this class, or
    through ``store.apply`` followed by :meth:`refresh` (no
    ``remove_node``), so the matches and counts stay in step.
    """

    def __init__(self, graph, pattern, k, focal_nodes=None, subpattern=None,
                 matcher="cn", store=None):
        pattern.validate()
        if store is None:
            from repro.query.match_store import MatchStore

            store = MatchStore()
        self.graph = graph
        self.pattern = pattern
        self.k = k
        self.subpattern = subpattern
        self.matcher = matcher
        self.store = store
        focal = list(focal_nodes) if focal_nodes is not None else None
        self._focal = set(focal) if focal is not None else None
        self.counts = self._census(focal, self._matches())
        self.refreshed_nodes = 0  # cumulative work statistic

    def num_embeddings(self):
        """Embeddings of the pattern when the counts were last refreshed."""
        return self._num_embeddings

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_node(self, node, **attrs):
        """Add a node or update its attributes."""
        self._apply({"op": "add_node", "node": node, "attrs": attrs})

    def add_edge(self, u, v, **attrs):
        """Insert an edge (or merge attributes onto an existing one)."""
        self._apply({"op": "add_edge", "u": u, "v": v, "attrs": attrs})

    def remove_edge(self, u, v):
        """Delete an edge and refresh the affected counts."""
        self._apply({"op": "remove_edge", "u": u, "v": v})

    def _apply(self, op):
        self.refresh(self.store.apply(self.graph, [op]))

    def refresh(self, changed):
        """Re-count after a batch that changed the nodes ``changed``
        (what :meth:`MatchStore.apply` returned).

        The focal nodes re-counted are those within the affected radius
        of a changed node after the batch.  That covers the same region
        before it: a shortest path from a focal node to its nearest
        changed node holds no edge the batch removed (that edge's
        endpoints changed, and one is nearer), so the path survives.
        """
        if not changed:
            return
        matches = self._matches()
        nodes = self._region(changed)
        if nodes:
            self.counts.update(self._census(nodes, matches))
            self.refreshed_nodes += len(nodes)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _region(self, nodes):
        """Focal nodes whose count can see a change at ``nodes``.

        Without a subpattern, a changed match always contains a changed
        element, so radius ``k`` suffices; with a subpattern the match
        may extend beyond the containment set, so the radius widens by
        the pattern diameter.
        """
        radius = self.k
        if self.subpattern is not None:
            radius += self.pattern.diameter()
        region = set()
        for node in set(nodes):
            if self.graph.has_node(node):
                region |= k_hop_nodes(self.graph, node, radius)
        if self._focal is not None:
            region &= self._focal
        return region

    def _matches(self):
        matches = self.store.matches(
            self.graph, self.graph.version, (self.pattern.name, self.matcher),
            self.pattern, self.matcher, distinct=False,
        )
        self._num_embeddings = len(matches)
        return matches

    def _census(self, focal, matches):
        return nd_pvot_census(
            self.graph, self.pattern, self.k, focal_nodes=focal,
            subpattern=self.subpattern, matcher=self.matcher, matches=matches,
        )

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def count(self, node):
        try:
            return self.counts[node]
        except KeyError:
            raise CensusError(f"{node!r} is not a maintained focal node") from None

    def snapshot(self):
        """A copy of the current counts."""
        return dict(self.counts)

    def __getitem__(self, node):
        return self.count(node)

    def __len__(self):
        return len(self.counts)

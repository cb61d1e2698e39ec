"""Incremental census maintenance under graph updates.

The paper's group followed this work with declarative analysis of
evolving/noisy networks; this module maintains a census result as the
graph changes, with work proportional to the affected region instead of
the whole graph.  Two structures are maintained:

- the **embedding set** (a :class:`repro.matching.seeded.EmbeddingSet`:
  all match embeddings with a per-node inverted index).  Updates touch
  it locally: revalidation of the embeddings around the changed
  element, plus seeded matching anchored on it (see the class for the
  rules per update kind);

- the **counts**, refreshed only for focal nodes within the affected
  radius (``k``, widened by the pattern diameter when a subpattern lets
  matches extend beyond the neighborhood) via ND-PVOT over the
  maintained embeddings — no global re-matching ever happens after
  construction.

Correctness is property-tested against full recomputation on random
update sequences.
"""

from repro.census.nd_pvot import nd_pvot_census
from repro.errors import CensusError
from repro.graph.traversal import k_hop_nodes
from repro.matching import find_matches
from repro.matching.seeded import EmbeddingSet


class IncrementalCensus:
    """A census result kept current under graph updates.

    Parameters mirror :func:`repro.census.census`.  Mutate the graph
    *through this class* (``add_edge`` / ``remove_edge`` / ``add_node``)
    so the maintained embeddings and counts stay in step.
    """

    def __init__(self, graph, pattern, k, focal_nodes=None, subpattern=None,
                 matcher="cn"):
        pattern.validate()
        self.graph = graph
        self.pattern = pattern
        self.k = k
        self.subpattern = subpattern
        self.matcher = matcher
        self._focal = list(focal_nodes) if focal_nodes is not None else None

        self.embeddings = EmbeddingSet(
            graph, pattern,
            find_matches(graph, pattern, method=matcher, distinct=False),
        )

        self.counts = self._census(focal=self._focal)
        self.refreshed_nodes = 0  # cumulative work statistic

    def num_embeddings(self):
        return len(self.embeddings)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_node(self, node, **attrs):
        """Add a node or update its attributes."""
        existed = self.graph.has_node(node)
        self.graph.add_node(node, **attrs)
        self.embeddings.node_added(node, existed, attrs)
        if not existed:
            if self._focal is None:
                self.counts[node] = 0
                self._refresh({node})
        elif attrs:
            self._refresh(self._affected(node, node))

    def add_edge(self, u, v, **attrs):
        """Insert an edge (or merge attributes onto an existing one)."""
        existed = self.graph.has_edge(u, v)
        new_nodes = [x for x in (u, v) if not self.graph.has_node(x)]
        self.graph.add_edge(u, v, **attrs)
        if self._focal is None:
            for x in new_nodes:
                self.counts.setdefault(x, 0)
        self.embeddings.edge_added(u, v, existed, attrs, new_nodes)
        if not existed or attrs:
            self._refresh(self._affected(u, v))

    def remove_edge(self, u, v):
        """Delete an edge and refresh the affected counts."""
        region = self._affected(u, v)  # pre-deletion adjacency
        self.graph.remove_edge(u, v)
        self.embeddings.edge_removed(u, v)
        self._refresh(region | self._affected(u, v))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _affected(self, u, v):
        """Focal nodes whose count can see a change at (u, v).

        Without a subpattern, a changed match always contains the
        changed element, so radius ``k`` suffices; with a subpattern the
        match may extend beyond the containment set, so the radius
        widens by the pattern diameter.
        """
        radius = self.k
        if self.subpattern is not None:
            radius += self.pattern.diameter()
        region = set()
        for endpoint in {u, v}:
            if self.graph.has_node(endpoint):
                region |= k_hop_nodes(self.graph, endpoint, radius)
        if self._focal is not None:
            region &= set(self._focal)
        else:
            region &= set(self.counts)
        return region

    def _census(self, focal):
        return nd_pvot_census(
            self.graph, self.pattern, self.k, focal_nodes=focal,
            subpattern=self.subpattern, matcher=self.matcher,
            matches=self.embeddings.matches(),
        )

    def _refresh(self, nodes):
        nodes = [n for n in nodes if self.graph.has_node(n)]
        if not nodes:
            return
        self.counts.update(self._census(focal=nodes))
        self.refreshed_nodes += len(nodes)

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

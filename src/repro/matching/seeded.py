"""Seeded (anchored) matching, embedding revalidation, and embedding
sets kept current under graph updates.

Incremental maintenance needs two primitives:

- :func:`seeded_matches` — all embeddings of a pattern in which given
  variables are pinned to given nodes (e.g. "all matches that use the
  edge just inserted", found by pinning each positive pattern edge's
  endpoints to the new edge's endpoints);
- :func:`validate_embedding` — recheck one existing embedding against
  the current graph (edges may have disappeared, negated edges may now
  exist, labels/attributes may have changed).

:class:`EmbeddingSet` applies them: it holds every embedding of one
pattern and repairs itself locally after each graph mutation.  The
match store (:mod:`repro.query.match_store`) keeps each repaired entry
in one; the query engine and :class:`repro.census.IncrementalCensus`
both read their matches from a store.
"""

from repro.errors import PatternError
from repro.graph.graph import LABEL_KEY
from repro.matching.base import Match, check_new_binding, dedupe_matches, neighbor_set
from repro.matching.order import earlier_neighbors
from repro.matching.predicates import EdgeAttr


def validate_embedding(graph, pattern, mapping):
    """True when ``mapping`` is currently a valid match of ``pattern``."""
    nodes = list(mapping.values())
    if len(set(nodes)) != len(nodes):
        return False
    for var, node in mapping.items():
        if not graph.has_node(node):
            return False
        want = pattern.label_of(var)
        if want is not None and graph.node_attr(node, LABEL_KEY) != want:
            return False
    for e in pattern.positive_edges():
        nu, nv = mapping[e.u], mapping[e.v]
        if e.directed and graph.directed:
            if not graph.has_edge(nu, nv):
                return False
        else:
            if not (graph.has_edge(nu, nv) or (graph.directed and graph.has_edge(nv, nu))):
                return False
    for e in pattern.negative_edges():
        nu, nv = mapping[e.u], mapping[e.v]
        if e.directed and graph.directed:
            if graph.has_edge(nu, nv):
                return False
        else:
            if graph.has_edge(nu, nv) or (graph.directed and graph.has_edge(nv, nu)):
                return False
    for p in pattern.predicates:
        if not p.evaluate(mapping, graph):
            return False
    return True


def _seeded_order(pattern, seeds):
    """A variable order starting with the seeded variables, every later
    prefix connected through positive edges (seeds themselves need not
    be mutually connected — they are pinned, not searched)."""
    order = list(seeds)
    placed = set(order)
    remaining = set(pattern.nodes) - placed
    while remaining:
        frontier = [
            v for v in remaining
            if any(o in placed for o, _e in pattern.positive_neighbors(v))
        ]
        if not frontier:
            raise PatternError(
                "pattern is disconnected from the seeded variables"
            )
        chosen = min(frontier)
        order.append(chosen)
        placed.add(chosen)
        remaining.discard(chosen)
    return order


def seeded_matches(graph, pattern, seeds, distinct=False):
    """All embeddings of ``pattern`` with ``seeds`` (var -> node) pinned.

    The seeded bindings are validated first (labels, injectivity,
    mutual edges among seeded variables, predicates); the remaining
    variables are searched by neighbor-set intersection.
    """
    pattern.validate()
    for var in seeds:
        if var not in pattern.nodes:
            raise PatternError(f"unknown seed variable ?{var}")

    order = _seeded_order(pattern, seeds)
    back_edges = [earlier_neighbors(pattern, order, i) for i in range(len(order))]
    num_seeds = len(seeds)

    # Validate the seeded prefix in one shot: labels, single-var
    # predicates, mutual structure.
    assignment = {}
    bound = []
    for i, var in enumerate(order[:num_seeds]):
        node = seeds[var]
        if not graph.has_node(node):
            return []
        want = pattern.label_of(var)
        if want is not None and graph.node_attr(node, LABEL_KEY) != want:
            return []
        probe = {var: node}
        if not all(p.evaluate(probe, graph)
                   for p in pattern.single_var_predicates(var)):
            return []
        for earlier, edge in back_edges[i]:
            if node not in neighbor_set(graph, assignment[earlier], earlier, edge):
                return []
        if not check_new_binding(graph, pattern, assignment, var, node, bound):
            return []
        assignment[var] = node
        bound.append(var)

    matches = []

    def extend(i):
        if i == len(order):
            matches.append(Match(assignment, pattern))
            return
        var = order[i]
        pool = None
        for earlier, edge in back_edges[i]:
            s = neighbor_set(graph, assignment[earlier], earlier, edge)
            pool = set(s) if pool is None else pool & set(s)
            if not pool:
                return
        if pool is None:  # unreachable for connected patterns
            pool = set(graph.nodes())
        want = pattern.label_of(var)
        for node in pool:
            if want is not None and graph.node_attr(node, LABEL_KEY) != want:
                continue
            probe = {var: node}
            if not all(p.evaluate(probe, graph)
                       for p in pattern.single_var_predicates(var)):
                continue
            if check_new_binding(graph, pattern, assignment, var, node, bound):
                assignment[var] = node
                bound.append(var)
                extend(i + 1)
                bound.pop()
                del assignment[var]

    try:
        extend(num_seeds)
    finally:
        del extend  # break the closure's self-reference cycle
    if distinct:
        matches = dedupe_matches(matches)
    return matches


def matches_using_edge(graph, pattern, u, v):
    """All embeddings whose image uses the database edge ``(u, v)``.

    Tries every positive pattern edge in both orientations (and the
    reverse database direction for undirected pattern edges on directed
    graphs), deduplicating identical embeddings.
    """
    seen = {}
    for e in pattern.positive_edges():
        orientations = [(u, v), (v, u)]
        for nu, nv in orientations:
            for m in seeded_matches(graph, pattern, {e.u: nu, e.v: nv}):
                key = frozenset(m.mapping.items())
                seen.setdefault(key, m)
    return list(seen.values())


def matches_using_node(graph, pattern, node):
    """All embeddings whose image contains ``node``."""
    seen = {}
    for var in pattern.nodes:
        for m in seeded_matches(graph, pattern, {var: node}):
            key = frozenset(m.mapping.items())
            seen.setdefault(key, m)
    return list(seen.values())


def _embedding_key(match):
    return frozenset(match.mapping.items())


class EmbeddingSet:
    """Every embedding of one pattern, repaired locally under updates.

    Embeddings are kept in insertion order with a per-node inverted
    index.  After mutating ``graph``, call the matching repair method;
    each one touches only the embeddings around the changed element:

    - :meth:`edge_added`: embeddings containing both endpoints are
      revalidated when a negated edge or an edge-attribute predicate
      may now fail (or the edge's attributes changed), and new
      embeddings are found by seeding every positive pattern edge, and
      every variable pair an edge-attribute predicate reads, on the
      new edge — every genuinely new match maps one of them onto it;
    - :meth:`edge_removed`: embeddings containing both endpoints are
      revalidated (matches using the edge die), and embeddings newly
      enabled by the absence are found by seeding the negated edges'
      and the edge-attribute predicates' variable pairs on it;
    - :meth:`node_added`: a new node, or a node whose attributes
      changed, is revalidated and seeded;
    - :meth:`node_removed`: embeddings containing the node die; no
      other embedding can change, since a negated edge or a predicate
      only ever relates nodes of the same embedding.

    :meth:`matches` returns the embeddings in insertion order: the
    order of the list the set was built from, with repairs dropping
    entries in place and appending new ones at the end.
    """

    def __init__(self, graph, pattern, matches=()):
        self.graph = graph
        self.pattern = pattern
        # Variable pairs whose database adjacency a predicate reads.
        self._edge_read_pairs = sorted({
            (operand.u, operand.v)
            for p in pattern.predicates
            for operand in (p.lhs, p.rhs)
            if isinstance(operand, EdgeAttr)
        })
        self._negated_pairs = [(e.u, e.v) for e in pattern.negative_edges()]
        self._embeddings = {}
        self._by_node = {}
        for m in matches:
            self.add(m)

    def __len__(self):
        return len(self._embeddings)

    def matches(self):
        """The current embeddings, as a new list."""
        return list(self._embeddings.values())

    def add(self, match):
        key = _embedding_key(match)
        if key in self._embeddings:
            return
        self._embeddings[key] = match
        for node in match.mapping.values():
            self._by_node.setdefault(node, set()).add(key)

    def _drop(self, key):
        match = self._embeddings.pop(key)
        for node in match.mapping.values():
            bucket = self._by_node[node]
            bucket.discard(key)
            if not bucket:
                del self._by_node[node]

    def _containing(self, *nodes):
        """Keys of the embeddings whose image contains every node given."""
        buckets = [self._by_node.get(node, ()) for node in nodes]
        return set(buckets[0]).intersection(*buckets[1:])

    def _revalidate(self, keys):
        for key in keys:
            if not validate_embedding(self.graph, self.pattern,
                                      self._embeddings[key].mapping):
                self._drop(key)

    # -- repairs, called after the graph mutation ----------------------
    def edge_added(self, u, v, existed=False, attrs=None, new_nodes=()):
        """Repair after ``graph.add_edge(u, v, **attrs)``.

        ``existed`` says whether the edge was already present (then only
        an attribute change can matter) and ``new_nodes`` lists the
        endpoints the call created.
        """
        for node in new_nodes:
            # Covers patterns without edges, which never use the edge.
            self.node_added(node)
        if existed and not attrs:
            return
        if existed or self._negated_pairs or self._edge_read_pairs:
            # Edge-attribute predicates may flip, negated edges may now
            # be violated; either way the embedding holds both ends.
            self._revalidate(self._containing(u, v))
        for m in matches_using_edge(self.graph, self.pattern, u, v):
            self.add(m)
        self._seed_pairs(self._edge_read_pairs, u, v)

    def edge_removed(self, u, v):
        """Repair after ``graph.remove_edge(u, v)``."""
        self._revalidate(self._containing(u, v))
        self._seed_pairs(self._negated_pairs + self._edge_read_pairs, u, v)

    def _seed_pairs(self, pairs, u, v):
        for a, b in pairs:
            for nu, nv in ((u, v), (v, u)):
                for m in seeded_matches(self.graph, self.pattern, {a: nu, b: nv}):
                    self.add(m)

    def node_added(self, node, existed=False, attrs=None):
        """Repair after ``graph.add_node(node, **attrs)``."""
        if existed:
            if not attrs:
                return
            self._revalidate(self._containing(node))
        for m in matches_using_node(self.graph, self.pattern, node):
            self.add(m)

    def node_removed(self, node):
        """Repair after ``graph.remove_node(node)``."""
        for key in self._containing(node):
            self._drop(key)

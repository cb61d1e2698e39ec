"""Shared census machinery.

A census algorithm receives the database graph, a pattern, a radius
``k``, a focal node set, and (optionally) a subpattern name, and returns
``{focal_node: count}``.  The counting unit is a *census match*:

- without a subpattern: a distinct match subgraph of the pattern, all of
  whose nodes lie in ``S(n, k)``;
- with a subpattern: a pair (match subgraph, subpattern image) whose
  subpattern image lies in ``S(n, k)`` — two automorphic embeddings
  placing the subpattern on different nodes count separately, which is
  what "triads in which ?B is the coordinator" requires.
"""

from repro.errors import CensusError
from repro.matching import find_matches
from repro.obs import current_obs


class CensusMatch:
    """One counting unit of a census.

    ``nodes`` is the containment set (the subpattern image, or all match
    nodes), ``match`` the underlying representative embedding.
    """

    __slots__ = ("match", "nodes", "index")

    def __init__(self, match, nodes, index):
        self.match = match
        self.nodes = nodes
        self.index = index

    def __repr__(self):
        return f"<CensusMatch #{self.index} nodes={sorted(map(repr, self.nodes))}>"


def validate_arguments(pattern, k, subpattern=None):
    """Raise :class:`CensusError` for a negative radius or an unknown
    subpattern (and whatever ``pattern.validate()`` raises)."""
    if k < 0:
        raise CensusError(f"neighborhood radius must be >= 0, got {k}")
    pattern.validate()
    if subpattern is not None and subpattern not in pattern.subpatterns:
        raise CensusError(
            f"pattern {pattern.name!r} has no subpattern {subpattern!r} "
            f"(has: {sorted(pattern.subpatterns)})"
        )


class CensusRequest:
    """Validated, normalized census arguments shared by all algorithms."""

    def __init__(self, graph, pattern, k, focal_nodes=None, subpattern=None):
        validate_arguments(pattern, k, subpattern)
        self.graph = graph
        self.pattern = pattern
        self.k = k
        if focal_nodes is None:
            self.focal_nodes = list(graph.nodes())
        else:
            self.focal_nodes = list(focal_nodes)
            missing = [n for n in self.focal_nodes if not graph.has_node(n)]
            if missing:
                raise CensusError(f"focal nodes not in graph: {missing[:5]}")
        self.subpattern = subpattern

    def containment_vars(self):
        """Pattern variables whose images must lie in the neighborhood."""
        if self.subpattern is None:
            return tuple(self.pattern.nodes)
        return self.pattern.subpatterns[self.subpattern]

    def zero_counts(self):
        return {n: 0 for n in self.focal_nodes}


def global_matches(graph, pattern, subpattern=None, matcher="cn"):
    """The global match list a census of ``pattern`` adopts.

    Distinct embeddings are needed when a subpattern is present so that
    automorphic placements of the subpattern survive; without one, one
    embedding per match subgraph.
    """
    return find_matches(graph, pattern, method=matcher, distinct=subpattern is None)


def prepare_matches(request, matcher="cn", matches=None):
    """Find (or adopt) global pattern matches and convert them into
    census counting units, deduplicated appropriately.

    With a subpattern, embeddings are deduplicated by (subgraph,
    subpattern image); without one, by subgraph.
    """
    if matches is None:
        matches = global_matches(request.graph, request.pattern, request.subpattern, matcher)

    containment = request.containment_vars()
    units = []
    if request.subpattern is None:
        # Adopted match lists may contain automorphic embeddings of the
        # same subgraph; the census counting unit is the subgraph.
        seen_subgraphs = set()
        for m in matches:
            if m.canonical_key in seen_subgraphs:
                continue
            seen_subgraphs.add(m.canonical_key)
            units.append(CensusMatch(m, m.nodes(), len(units)))
        current_obs().add("census.match_units", len(units))
        return units

    seen = set()
    for m in matches:
        image = frozenset(m.mapping[v] for v in containment)
        key = (m.canonical_key, image)
        if key in seen:
            continue
        seen.add(key)
        units.append(CensusMatch(m, image, len(units)))
    current_obs().add("census.match_units", len(units))
    return units


def containment_distances(request):
    """Pattern hop distances restricted to the containment variables.

    Used by ND-PVOT's pivot selection and check avoidance: returns
    ``(pivot_var, max_v, {var: d(pivot, var)})`` where distances are in
    the pattern graph and ``max_v`` is the largest distance from the
    pivot to any containment variable.
    """
    pattern = request.pattern
    containment = request.containment_vars()
    dists = pattern.distances()
    best_pivot = None
    best_ecc = None
    for x in containment:
        ecc = max(dists[x][y] for y in containment)
        if best_ecc is None or (ecc, x) < (best_ecc, best_pivot):
            best_pivot, best_ecc = x, ecc
    pivot_dists = {y: dists[best_pivot][y] for y in containment}
    return best_pivot, best_ecc, pivot_dists

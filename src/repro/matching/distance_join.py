"""Distance-join pattern matching (Zou, Chen & Özsu — Section VI).

A variant the paper's related work discusses: a pattern edge does not
require a database *edge* between the matched nodes, only a shortest
path of length at most ``delta``.  Negated pattern edges symmetrically
require distance *greater* than ``delta`` (or disconnection).

``distance_join_matches`` returns :class:`repro.matching.base.Match`
objects, so the results compose with the census machinery:
``distance_census`` counts distance-matches per ego by feeding them to
ND-PVOT's adopted-matches path.
"""

from repro.census.pt_bas import pt_bas_census
from repro.graph.graph import LABEL_KEY
from repro.graph.traversal import k_hop_distances
from repro.matching.base import Match, dedupe_matches
from repro.matching.order import connected_order, earlier_neighbors


def distance_join_matches(graph, pattern, delta, distinct=True):
    """All matches of ``pattern`` under distance-join semantics.

    Every positive pattern edge constrains its endpoints' images to be
    within ``delta`` hops (direction is ignored: hop distance is over
    the direction-blind adjacency, matching the paper's neighborhood
    definition); every negated edge requires the images to be farther
    than ``delta`` apart.  Labels and predicates keep exact semantics.

    ``delta=1`` (on undirected patterns) degenerates to ordinary
    matching.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    pattern.validate()
    order = connected_order(pattern)
    back_edges = [earlier_neighbors(pattern, order, i) for i in range(len(order))]

    # Ball cache: node -> {node within delta: distance}.
    balls = {}

    def ball(node):
        b = balls.get(node)
        if b is None:
            b = k_hop_distances(graph, node, delta)
            balls[node] = b
        return b

    def label_ok(var, node):
        want = pattern.label_of(var)
        return want is None or graph.node_attr(node, LABEL_KEY) == want

    def single_preds_ok(var, node):
        preds = pattern.single_var_predicates(var)
        if not preds:
            return True
        probe = {var: node}
        return all(p.evaluate(probe, graph) for p in preds)

    matches = []
    assignment = {}

    def constraints_ok(var, node):
        # Distance constraints against every bound variable.
        for e in pattern.edges:
            if var not in (e.u, e.v):
                continue
            other = e.v if e.u == var else e.u
            if other not in assignment:
                continue
            near = node in ball(assignment[other])
            if e.negated:
                if near:
                    return False
            else:
                if not near:
                    return False
        # Multi-variable predicates that just became bound.
        probe = dict(assignment)
        probe[var] = node
        for p in pattern.multi_var_predicates():
            variables = p.variables()
            if var in variables and all(x in probe for x in variables):
                if not p.evaluate(probe, graph):
                    return False
        return True

    def extend(i):
        if i == len(order):
            matches.append(Match(assignment, pattern))
            return
        var = order[i]
        if i == 0:
            pool = graph.nodes()
        else:
            pool = None
            for earlier, _edge in back_edges[i]:
                b = set(ball(assignment[earlier]))
                pool = b if pool is None else pool & b
                if not pool:
                    return
        used = set(assignment.values())
        for node in pool:
            if node in used:
                continue
            if not label_ok(var, node) or not single_preds_ok(var, node):
                continue
            if not constraints_ok(var, node):
                continue
            assignment[var] = node
            extend(i + 1)
            del assignment[var]

    try:
        extend(0)
    finally:
        del extend  # break the closure's self-reference cycle
    if distinct:
        matches = dedupe_matches(matches)
    return matches


def distance_census(graph, pattern, k, delta, focal_nodes=None, subpattern=None):
    """Per-ego census of distance-join matches.

    Counts, for every focal node, the distance-matches whose containment
    nodes all lie within ``k`` hops — the ego-centric census over the
    relaxed matching semantics.  Evaluated with PT-BAS: ND-PVOT's bulk
    shortcut assumes pattern distances upper-bound graph distances
    between matched nodes, which distance-join matches do not satisfy.
    """
    matches = distance_join_matches(
        graph, pattern, delta, distinct=subpattern is None
    )
    return pt_bas_census(
        graph, pattern, k, focal_nodes=focal_nodes, subpattern=subpattern,
        matches=matches,
    )

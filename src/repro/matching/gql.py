"""GraphQL-style baseline matcher (He & Singh, SIGMOD 2008).

Reimplements the search strategy the paper compares against: the same
profile-based candidate enumeration as CN, a candidate-set refinement
pass (retain ``n`` in ``C(v)`` only if every pattern neighbor ``v'`` of
``v`` has some candidate adjacent to ``n``), and a backtracking
extraction phase that — crucially — finds extensions for the next
pattern variable by *scanning its full candidate set* and testing
adjacency against the bound prefix.  That scan over "comparatively
large candidate sets" is exactly the cost the paper's candidate
neighbor sets eliminate; keeping everything else identical makes the
F4a/F4b comparison measure that one design choice.
"""

from repro.exec.budget import current_budget
from repro.exec.faults import fault_point
from repro.matching.base import (
    Match,
    check_new_binding,
    count_distinct,
    dedupe_matches,
    enumerate_candidates,
    neighbor_set,
)
from repro.matching.order import connected_order, earlier_neighbors
from repro.obs import current_obs


def refine_candidates(graph, pattern, candidates, max_passes=None):
    """Iteratively enforce neighborhood consistency on candidate sets.

    ``n`` survives in ``C(v)`` only when, for every positive pattern
    neighbor ``v'`` of ``v``, some node adjacent to ``n`` (respecting
    direction) belongs to ``C(v')``.
    """
    if max_passes is None:
        max_passes = len(pattern.nodes)
    budget = current_budget()
    neighbor_lists = {v: pattern.positive_neighbors(v) for v in pattern.nodes}
    passes = 0
    for _ in range(max_passes):
        passes += 1
        changed = False
        for var in pattern.nodes:
            doomed = []
            for n in candidates[var]:
                if budget is not None:
                    budget.tick()
                for other, edge in neighbor_lists[var]:
                    nbrs = neighbor_set(graph, n, var, edge)
                    if not any(x in candidates[other] for x in nbrs):
                        doomed.append(n)
                        break
            for n in doomed:
                candidates[var].discard(n)
                changed = True
        if not changed:
            break
    current_obs().add("match.gql.refine_passes", passes)
    return candidates


def gql_matches(graph, pattern, distinct=True):
    """Find all matches with the GQL-style baseline."""
    pattern.validate()
    obs = current_obs()
    with obs.span("match.gql", pattern=pattern.name):
        return _gql_matches(graph, pattern, distinct, obs)


def _gql_matches(graph, pattern, distinct, obs):
    candidates = enumerate_candidates(graph, pattern)
    candidates = refine_candidates(graph, pattern, candidates)
    if any(not c for c in candidates.values()):
        return []

    order = connected_order(pattern, {v: len(c) for v, c in candidates.items()})
    back_edges = [earlier_neighbors(pattern, order, i) for i in range(len(order))]

    budget = current_budget()
    matches = []
    assignment = {}
    bound = []
    # The full-candidate-set scans below are the cost CN's candidate
    # neighbor sets avoid; their total size is the F4a/F4b x-axis.
    scanned = [0]

    def adjacent(prefix_node, var_prefix, node, edge):
        return node in neighbor_set(graph, prefix_node, var_prefix, edge)

    def extend(i):
        if i == len(order):
            matches.append(Match(assignment, pattern))
            if budget is not None:
                budget.count_result()
            return
        fault_point("match.expand")
        var = order[i]
        # The GQL cost model: scan the whole candidate set of the next
        # variable and filter by adjacency with the bound prefix.
        scanned[0] += len(candidates[var])
        if budget is not None:
            budget.tick(len(candidates[var]))
        for node in candidates[var]:
            ok = True
            for earlier, edge in back_edges[i]:
                if not adjacent(assignment[earlier], earlier, node, edge):
                    ok = False
                    break
            if not ok:
                continue
            if check_new_binding(graph, pattern, assignment, var, node, bound):
                assignment[var] = node
                bound.append(var)
                extend(i + 1)
                bound.pop()
                del assignment[var]

    try:
        extend(0)
    finally:
        del extend  # break the closure's self-reference cycle
    if distinct:
        matches = dedupe_matches(matches)
    obs.add("match.gql.candidates_scanned", scanned[0])
    if obs.enabled:
        obs.add("match.gql.matches",
                len(matches) if distinct else count_distinct(matches))
    return matches

"""Top-k census evaluation (the paper's future work, Section VII).

Find the K egos with the highest pattern census counts without paying
for an exact count at every node.  Threshold-algorithm structure:

1. Find all matches once and index them by the pivot variable; let
   ``a(n')`` be the number of matches anchored at node ``n'``.
2. Diffuse anchor masses: ``ub(n) = sum of a(n') over n' in N_k(n)``.
   Every match counted at ``n`` has its pivot image inside ``N_k(n)``,
   so ``ub`` is a true upper bound on the census count.  Computed with
   one bounded BFS per *anchor* (there are usually far fewer anchors
   than nodes).
3. Walk candidates in decreasing ``ub``, computing exact counts in
   batches (via ND-PVOT on just those focal nodes).  Stop as soon as
   the K-th best exact count reaches the next candidate's upper bound —
   no unexamined node can beat it.

Exactness is a property test: the result always equals the top-K of a
full census.
"""

from repro.census.base import CensusRequest, containment_distances, prepare_matches
from repro.census.nd_pvot import nd_pvot_census
from repro.census.pmi import PatternMatchIndex
from repro.graph.traversal import k_hop_nodes
from repro.matching import find_matches
from repro.obs import current_obs


def census_topk(graph, pattern, k, K, focal_nodes=None, subpattern=None,
                matcher="cn", batch_size=None):
    """The ``K`` focal nodes with the largest census counts.

    Returns a list of ``(node, count)`` sorted by descending count.
    The returned *counts* always equal the top-K counts of a full
    census; when several nodes tie at the K-th count, any of the tied
    nodes may be returned (early termination cannot distinguish members
    of a tie without evaluating all of them).  Counter
    ``census.topk.exact_evaluations`` records how many nodes needed an
    exact count (the saving over a full census is ``len(focal)`` minus
    it) and ``census.topk.candidates_total`` how many were ranked.
    """
    obs = current_obs()
    with obs.span("census.topk", k=k, K=K, pattern=pattern.name):
        top, evaluated, candidates = _census_topk(
            graph, pattern, k, K, focal_nodes, subpattern, matcher, batch_size
        )
        obs.add("census.topk.exact_evaluations", evaluated)
        obs.add("census.topk.candidates_total", candidates)
        return top


def _census_topk(graph, pattern, k, K, focal_nodes, subpattern, matcher,
                 batch_size):
    """``(top-K list, exact evaluations, candidates)``."""
    request = CensusRequest(graph, pattern, k, focal_nodes, subpattern)
    focal = list(request.focal_nodes)
    if K <= 0 or not focal:
        return [], 0, 0

    # One matching pass, shared by the upper-bound diffusion and every
    # exact batch evaluation below.
    raw_matches = find_matches(
        graph, pattern, method=matcher, distinct=request.subpattern is None
    )
    units = prepare_matches(request, matches=raw_matches)
    if not units:
        ranked = sorted(focal, key=repr)[:K]
        return [(n, 0) for n in ranked], 0, 0

    pivot_var, _max_v, _dists = containment_distances(request)
    pmi = PatternMatchIndex(units, pivot_var=pivot_var)

    # Step 2: anchor-mass diffusion.  ub[n] counts matches whose pivot
    # image lies within k hops of n — a superset of the true count.
    ub = {}
    for anchor in pmi.anchored_nodes():
        mass = len(pmi.matches_at(anchor))
        for node in k_hop_nodes(graph, anchor, k):
            ub[node] = ub.get(node, 0) + mass

    focal_set = set(focal)
    ordered = sorted(
        ((n, ub.get(n, 0)) for n in focal),
        key=lambda t: (-t[1], repr(t[0])),
    )

    if batch_size is None:
        batch_size = max(K, 16)

    exact = {}
    results = []
    i = 0
    while i < len(ordered):
        # Termination: the K-th best exact count already matches or
        # beats every unexamined upper bound.
        if len(results) >= K:
            results.sort(key=lambda t: (-t[1], repr(t[0])))
            kth = results[K - 1][1]
            if kth >= ordered[i][1]:
                break
        batch = [n for n, _u in ordered[i : i + batch_size] if n in focal_set]
        counts = nd_pvot_census(
            graph, pattern, k, focal_nodes=batch, subpattern=subpattern,
            matcher=matcher, matches=raw_matches,
        )
        for n in batch:
            exact[n] = counts[n]
            results.append((n, counts[n]))
        i += batch_size

    results.sort(key=lambda t: (-t[1], repr(t[0])))
    return results[:K], len(exact), len(ordered)

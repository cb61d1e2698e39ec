"""PT-BAS: the pattern-driven baseline (Section IV-B).

Processes each match independently: BFS to depth ``k`` from every node
of the match, then intersect the k-hop neighborhoods (smallest first) —
the surviving focal nodes each count the match.  Each edge around a
match may be traversed once per match node — the redundancy PT-OPT's
simultaneous traversal removes.
"""

from repro.census.base import CensusRequest, prepare_matches
from repro.exec.budget import current_budget
from repro.exec.faults import fault_point
from repro.graph.traversal import bfs_layer_sets
from repro.obs import current_obs


def pt_bas_census(graph, pattern, k, focal_nodes=None, subpattern=None, matcher="cn",
                  matches=None):
    """Per-node census, one independent BFS bundle per match.

    Under an enabled obs context, counter ``census.pt_bas.edge_visits``
    receives the number of adjacency-list entries scanned across all
    per-match BFS runs — the disk-I/O proxy the pattern-driven
    optimizations target.
    ``matches`` adopts an existing match list instead of running the
    matcher; unlike ND-PVOT, PT-BAS makes no pattern-distance
    assumptions about the adopted matches, so it also serves relaxed
    semantics such as distance-join matches.
    """
    obs = current_obs()
    with obs.span("census.pt_bas", k=k, pattern=pattern.name):
        request = CensusRequest(graph, pattern, k, focal_nodes, subpattern)
        counts = request.zero_counts()
        units = prepare_matches(request, matcher=matcher, matches=matches)
        if not units:
            return counts

        # Counting edge visits walks every BFS frontier a second time, so
        # it runs only under an enabled obs context.
        count_visits = obs.enabled
        budget = current_budget()
        edge_visits = 0
        focal = set(request.focal_nodes)
        for unit in units:
            fault_point("census.bfs")
            hoods = []
            for m in unit.nodes:
                hood = set()
                for d, layer in enumerate(bfs_layer_sets(graph, m, k)):
                    if budget is not None:
                        budget.tick(len(layer))
                    hood |= layer
                    if count_visits and d < k:
                        edge_visits += sum(graph.degree(x) for x in layer)
                hoods.append(hood)
            # A node counts the match when it lies within k of *every*
            # match node: the intersection of the k-hop neighborhoods,
            # built smallest-first.
            hoods.sort(key=len)
            covered = hoods[0]
            for hood in hoods[1:]:
                covered &= hood
            for n in covered & focal:
                counts[n] += 1
        if count_visits:
            obs.add("census.pt_bas.edge_visits", edge_visits)
        return counts

"""ND-PVOT: pivot indexing (Section IV-A.1, Algorithm 2).

One global matching pass builds the match set; a pattern match index
keyed on a *pivot* variable (the containment variable of minimum
eccentricity among containment variables) lets a BFS from each focal
node pull only the matches anchored at visited nodes.  Containment
checks are then short-circuited with distance arithmetic:

- if ``d(n, n') + max_v <= k``, every anchored match is fully inside
  ``S(n, k)`` — add ``|PMI_v(n')|`` wholesale;
- otherwise only the match nodes whose pattern distance from the pivot
  exceeds ``k - d(n, n')`` need an explicit membership test, because
  pattern distances upper-bound graph distances between match nodes.
"""

from repro.census.base import CensusRequest, containment_distances, prepare_matches
from repro.census.indexed import pvot_indexed_counts
from repro.census.pmi import PatternMatchIndex
from repro.exec.budget import current_budget
from repro.exec.faults import fault_point
from repro.graph.traversal import bfs_layer_sets
from repro.obs import current_obs


def nd_pvot_census(graph, pattern, k, focal_nodes=None, subpattern=None, matcher="cn",
                   pivot_var=None, matches=None):
    """Per-node census by pivot indexing (the paper's best node-driven
    algorithm).

    ``pivot_var`` overrides the min-eccentricity pivot (used by the
    pivot-selection ablation benchmark); the ``census.nd_pvot`` span
    records the pivot used and its eccentricity ``max_v``.  ``matches``
    adopts an existing global match list instead of running the matcher
    (callers such as top-k evaluation amortize one matching pass over
    many census calls).
    """
    obs = current_obs()
    with obs.span("census.nd_pvot", k=k, pattern=pattern.name) as span:
        request = CensusRequest(graph, pattern, k, focal_nodes, subpattern)
        counts = request.zero_counts()
        units = prepare_matches(request, matcher=matcher, matches=matches)
        if not units:
            return counts

        auto_pivot, max_v, pivot_dists = containment_distances(request)
        if pivot_var is None:
            pivot_var = auto_pivot
        else:
            if pivot_var not in request.containment_vars():
                raise ValueError(f"pivot ?{pivot_var} is not a containment variable")
            dists = pattern.distances()[pivot_var]
            pivot_dists = {y: dists[y] for y in request.containment_vars()}
            max_v = max(pivot_dists.values())

        span.set("pivot", pivot_var)
        span.set("max_v", max_v)
        pmi = PatternMatchIndex(units, pivot_var=pivot_var)

        # The images of containment variables at pattern distance >= 1
        # from the pivot, sorted by decreasing distance: an explicit
        # check for a frontier d hops short only tests images whose
        # pivot distance reaches the threshold ``k - d + 1``, and with
        # the images distance-sorted that is a prefix of the tuple —
        # ``prefix_at[d]`` images, precomputed per deferred depth.
        far_vars = [(dv, v) for v, dv in pivot_dists.items() if dv >= 1]
        far_vars.sort(key=lambda p: -p[0])
        far_names = [v for _, v in far_vars]
        # Layers at depth <= k - max_v are guaranteed fully contained;
        # their anchored matches are added wholesale, no checks.
        bulk_depth = k - max_v
        prefix_at = {
            d: sum(1 for dv, _ in far_vars if dv >= k - d + 1)
            for d in range(max(bulk_depth + 1, 0), k + 1)
        }

        # The bit-parallel kernel runs on any graph; the per-node set
        # loop below is left for environments without numpy >= 2.
        budget = current_budget()
        indexed = pvot_indexed_counts(
            graph, request.focal_nodes, pmi, far_names, k, bulk_depth, prefix_at, budget
        )
        if indexed is not None:
            counts.update(indexed.counts)
            bulk, checked, visited = indexed.bulk, indexed.checked, indexed.visited
            span.set("kernel", "bit-parallel")
            span.set("index", indexed.index_source)
            span.set("indexed_nodes", indexed.indexed_nodes)
            obs.add("census.nd_pvot.indexed_nodes", indexed.indexed_nodes)
        else:
            span.set("kernel", "set")
            # Per anchor node, the far-image tuples of its anchored units
            # (aligned with pmi.matches_at order): the containment loop
            # walks plain tuples, no per-unit indirection.
            matches_at = pmi.matches_at
            images_at = {
                n_prime: [
                    tuple(unit.match.mapping[v] for v in far_names)
                    for unit in matches_at(n_prime)
                ]
                for n_prime in pmi.anchored_nodes()
            }
            anchors = set(images_at)
            n_far = len(far_names)

            bulk = checked = visited = 0
            for n in request.focal_nodes:
                fault_point("census.bfs")
                total = 0
                hood = set()
                deferred = []
                for d, layer in enumerate(bfs_layer_sets(graph, n, max_depth=k)):
                    if budget is not None:
                        budget.tick(len(layer))
                    visited += len(layer)
                    hood |= layer
                    hits = layer & anchors
                    if not hits:
                        continue
                    if d <= bulk_depth:
                        for n_prime in hits:
                            added = len(images_at[n_prime])
                            total += added
                            bulk += added
                    else:
                        for n_prime in hits:
                            deferred.append((d, images_at[n_prime]))
                # Explicit checks need the complete N_k(n), so they run
                # after the BFS has finished.
                for d, image_tuples in deferred:
                    m = prefix_at[d]
                    checked += len(image_tuples)
                    if budget is not None:
                        budget.tick(len(image_tuples))
                    if m == n_far:
                        for images in image_tuples:
                            for image in images:
                                if image not in hood:
                                    break
                            else:
                                total += 1
                    else:
                        for images in image_tuples:
                            for image in images[:m]:
                                if image not in hood:
                                    break
                            else:
                                total += 1
                counts[n] = total
        if obs.enabled:
            # checks avoided = matches added wholesale via distance arithmetic.
            obs.add("census.nd_pvot.bulk_added", bulk)
            obs.add("census.nd_pvot.containment_checks", checked)
            obs.add("census.nd_pvot.bfs_expansions", visited)
        return counts

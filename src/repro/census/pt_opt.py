"""PT-OPT / PT-RND: the optimized pattern-driven algorithm (Section IV-B).

Combines every optimization of the paper on top of PT-BAS's idea:

1. *Simultaneous traversal* — one relaxation wave per match (or per
   match cluster) instead of one BFS per match node; ``PMD_m[n]`` holds
   the current upper bound on ``d(m, n)`` for every match node ``m``.
2. *Distance shortcuts* — ``PMD`` among a match's own nodes is seeded
   with pattern distances, which upper-bound graph distances.
3. *Best-first ordering* — the queue pops the node with the smallest
   ``sum_m PMD_m[n]``, implemented with the O(1) array/bucket priority
   queue; ``order='random'`` is PT-RND, ``order='fifo'`` the plain
   breadth-first variant.
4. *Center-based expansion* — high-degree centers enter the queue with
   exact precomputed distances (never reinserted) and tighten the
   initial bounds of newly touched nodes via the triangle inequality.
5. *Pattern match clustering* — K-means over center-distance feature
   vectors groups nearby matches so one traversal serves all of them.

The relaxation is order-independent (values only decrease and every
improvement re-queues the node), so all orderings return identical
counts; ordering only changes the amount of work — which is exactly
what Figures 4(d), 4(f) and 4(g) measure.
"""

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.census.base import CensusRequest, prepare_matches
from repro.census.bucket_queue import BucketQueue, FIFOQueue, RandomQueue
from repro.census.centers import CenterIndex, select_centers
from repro.census.clustering import cluster_matches
from repro.exec.budget import current_budget
from repro.exec.faults import fault_point
from repro.obs import current_obs


@dataclass
class PTOptions:
    """Tuning knobs of the pattern-driven algorithm.

    The defaults are the paper's PT-OPT configuration: best-first order,
    distance shortcuts on, 12 degree-chosen centers, K-means clustering
    with ``#matches / 4`` clusters and 10 Lloyd iterations.
    """

    order: str = "best"  # 'best' | 'random' | 'fifo'
    distance_shortcuts: bool = True
    num_centers: int = 12
    center_strategy: str = "degree"  # 'degree' | 'random'
    clustering: str = "kmeans"  # 'kmeans' | 'random' | 'none'
    num_clusters: Optional[int] = None  # None -> #matches / 4
    clustering_centers: Optional[int] = None  # None -> num_centers
    kmeans_iterations: int = 10
    seed: int = 0
    center_index: Optional[CenterIndex] = None  # precomputed override


def pt_opt_census(graph, pattern, k, focal_nodes=None, subpattern=None,
                  matcher="cn", options=None, matches=None, **overrides):
    """Per-node census with the fully optimized pattern-driven algorithm.

    Keyword overrides are applied on top of ``options`` (or the default
    :class:`PTOptions`), e.g. ``pt_opt_census(g, p, 2, num_centers=4)``.
    ``matches`` adopts an existing global match list instead of running
    the matcher.
    """
    opts = replace(options or PTOptions(), **overrides)
    obs = current_obs()
    with obs.span("census.pt_opt", k=k, pattern=pattern.name, order=opts.order):
        request = CensusRequest(graph, pattern, k, focal_nodes, subpattern)
        counts = request.zero_counts()
        units = prepare_matches(request, matcher=matcher, matches=matches)
        if not units:
            return counts

        bound_centers, cluster_centers = _build_center_indexes(graph, opts)

        num_clusters = opts.num_clusters
        if num_clusters is None:
            num_clusters = max(1, len(units) // 4)
        clusters = cluster_matches(
            units,
            cluster_centers,
            num_clusters,
            strategy=opts.clustering,
            iterations=opts.kmeans_iterations,
            seed=opts.seed,
        )

        focal = set(request.focal_nodes)
        pattern_dists = pattern.distances()
        stats = {"pops": 0, "relaxations": 0, "clusters": len(clusters), "touched": 0,
                 "edge_visits": 0}
        for cluster in clusters:
            _process_cluster(
                graph,
                [units[i] for i in cluster],
                request.k,
                focal,
                counts,
                pattern_dists,
                bound_centers,
                opts,
                stats,
            )
        if obs.enabled:
            # Bucket-queue pops are the paper's "operations" axis for PT
            # variants.
            obs.add("census.pt_opt.queue_pops", stats["pops"])
            obs.add("census.pt_opt.relaxations", stats["relaxations"])
            obs.add("census.pt_opt.clusters", stats["clusters"])
            obs.add("census.pt_opt.nodes_touched", stats["touched"])
            obs.add("census.pt_opt.edge_visits", stats["edge_visits"])
        return counts


def pt_rnd_census(graph, pattern, k, focal_nodes=None, subpattern=None,
                  matcher="cn", options=None, matches=None, **overrides):
    """PT-OPT with random instead of best-first traversal order."""
    opts = replace(options or PTOptions(), **{**overrides, "order": "random"})
    return pt_opt_census(
        graph, pattern, k, focal_nodes=focal_nodes, subpattern=subpattern,
        matcher=matcher, options=opts, matches=matches,
    )


def _build_center_indexes(graph, opts):
    """Center indexes for (a) PMD bounds and (b) clustering features.

    Figure 4(f) varies the number of bound centers while holding the
    clustering feature space fixed; ``clustering_centers`` supports
    that isolation.
    """
    if opts.center_index is not None:
        return opts.center_index, opts.center_index
    n_bounds = max(0, opts.num_centers)
    n_cluster = opts.clustering_centers if opts.clustering_centers is not None else n_bounds
    total = max(n_bounds, n_cluster)
    if total == 0:
        empty = CenterIndex(graph, [])
        return empty, empty
    centers = select_centers(graph, total, strategy=opts.center_strategy, seed=opts.seed)
    full = CenterIndex(graph, centers)
    bound_idx = full if n_bounds == total else CenterIndex(graph, centers[:n_bounds])
    cluster_idx = full if n_cluster == total else CenterIndex(graph, centers[:n_cluster])
    return bound_idx, cluster_idx


def _make_queue(order, max_score, seed):
    if order == "best":
        return BucketQueue(max_score)
    if order == "fifo":
        return FIFOQueue(max_score)
    if order == "random":
        return RandomQueue(max_score, rng=random.Random(seed))
    raise ValueError(f"unknown traversal order {order!r}")


def _process_cluster(graph, cluster_units, k, focal, counts, pattern_dists,
                     centers, opts, stats):
    """One simultaneous traversal around all matches of a cluster."""
    fault_point("census.bfs")
    budget = current_budget()
    inf = k + 1
    sources = sorted({m for unit in cluster_units for m in unit.nodes}, key=repr)
    src_pos = {m: i for i, m in enumerate(sources)}
    num_sources = len(sources)
    max_score = inf * num_sources

    pmd = {}

    # Only centers within k of a source can ever tighten a bound to a
    # useful (<= k) value; restrict the per-source bound lists up front
    # so first-touch initialization stays O(useful centers).
    if centers:
        bound_lists = [centers.useful_for(m, k) for m in sources]
        have_bounds = any(bound_lists)
    else:
        bound_lists = [()] * num_sources
        have_bounds = False

    def ensure(node):
        """First-touch initialization with center triangle bounds."""
        vec = pmd.get(node)
        if vec is None:
            if have_bounds:
                vec = []
                for lst in bound_lists:
                    best = inf
                    for dist_map, d_cm in lst:
                        d_cn = dist_map.get(node)
                        if d_cn is not None and d_cm + d_cn < best:
                            best = d_cm + d_cn
                    vec.append(best)
            else:
                vec = [inf] * num_sources
            pmd[node] = vec
            stats["touched"] += 1
        return vec

    queue = _make_queue(opts.order, max_score, opts.seed)

    # Seed the match nodes (distance shortcuts: pattern distances are
    # upper bounds on graph distances between a match's own nodes).
    for unit in cluster_units:
        inverse = {node: var for var, node in unit.match.mapping.items()}
        for m in unit.nodes:
            vec = ensure(m)
            i = src_pos[m]
            if vec[i] > 0:
                vec[i] = 0
            if opts.distance_shortcuts:
                var_m = inverse[m]
                for other, var_o in inverse.items():
                    j = src_pos.get(other)
                    if j is None:
                        continue
                    d = pattern_dists[var_o].get(var_m)
                    if d is not None and d <= k and d < vec[j]:
                        vec[j] = d
            queue.push(m, sum(vec))

    # Seed the centers with exact distances; they are never reinserted
    # because exact values cannot improve.
    if centers:
        for c in centers.centers:
            vec = ensure(c)
            for i, m in enumerate(sources):
                d = centers.distance(c, m)
                if d is not None and d < vec[i]:
                    vec[i] = min(d, inf)
            queue.push(c, sum(vec))

    while queue:
        node, _score = queue.pop()
        stats["pops"] += 1
        if budget is not None:
            budget.tick()
        vec = pmd[node]
        if min(vec) >= k:
            # 'far' for every source: relaxing neighbors could only
            # produce values > k, which never affect counts.
            continue
        stats["edge_visits"] += len(graph.neighbors(node))
        for nbr in graph.neighbors(node):
            # First touch must enqueue even without an improvement: the
            # center bounds installed by ensure() may already be small
            # enough to propagate further (Algorithm 4 treats PMD=NULL
            # as a change).
            first_touch = nbr not in pmd
            nvec = ensure(nbr)
            changed = False
            for i, v in enumerate(vec):
                cand = v + 1
                if cand <= k and cand < nvec[i]:
                    nvec[i] = cand
                    changed = True
            if changed or first_touch:
                stats["relaxations"] += 1
                queue.push(nbr, sum(nvec))

    # Harvest: a node counts a match when it is within k of every node
    # of that match.
    per_unit_pos = [[src_pos[m] for m in unit.nodes] for unit in cluster_units]
    for node, vec in pmd.items():
        if node not in focal:
            continue
        gained = 0
        for positions in per_unit_pos:
            if all(vec[i] <= k for i in positions):
                gained += 1
        if gained:
            counts[node] += gained

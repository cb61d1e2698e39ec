"""Ego-centric pattern census evaluation algorithms (Section IV).

Node-driven (start from focal nodes, search their neighborhoods):

- :func:`nd_bas_census` — extract ``S(n, k)`` per node and match inside;
  the paper's correctness baseline, "computationally infeasible" at scale.
- :func:`nd_diff_census` — differential counting along chains of
  neighboring focal nodes (GADDI-style shared-neighborhood reuse).
- :func:`nd_pvot_census` — pivot indexing: one global pattern-match pass,
  a pattern-match index keyed by a min-eccentricity pivot, and
  distance-arithmetic short-circuits for containment checks.

Pattern-driven (start from matches, find the nodes that contain them):

- :func:`pt_bas_census` — independent per-match BFS from every match node.
- :func:`pt_opt_census` — simultaneous traversal + distance shortcuts +
  best-first bucket-queue ordering + center-based expansion + K-means
  match clustering (the paper's PT-OPT).  ``PTOptions(order="random")``
  yields PT-RND; other toggles ablate individual optimizations.

All algorithms share one signature and one result shape
(``{focal_node: count}``) and agree exactly — property tests enforce it.
"""

from repro.census.approx import approximate_census, sample_size_for_error
from repro.census.base import CensusMatch, CensusRequest, prepare_matches
from repro.census.incremental import IncrementalCensus
from repro.census.multi import multi_census
from repro.census.centers import CenterIndex, select_centers
from repro.census.clustering import cluster_matches, kmeans
from repro.census.nd_bas import nd_bas_census
from repro.census.nd_diff import nd_diff_census
from repro.census.nd_pvot import nd_pvot_census
from repro.census.pairwise import pairwise_census
from repro.census.parallel import chunk_focal_nodes, default_workers, parallel_census
from repro.census.planner import choose_algorithm
from repro.census.pmi import PatternMatchIndex
from repro.census.pt_bas import pt_bas_census
from repro.census.pt_opt import PTOptions, pt_opt_census, pt_rnd_census
from repro.census.topk import census_topk

ALGORITHMS = {
    "nd-bas": nd_bas_census,
    "nd-diff": nd_diff_census,
    "nd-pvot": nd_pvot_census,
    "pt-bas": pt_bas_census,
    "pt-opt": pt_opt_census,
    "pt-rnd": pt_rnd_census,
}

#: Algorithms that accept ``matches=`` (an adopted global match list).
#: nd-bas matches inside each extracted ego subgraph instead, so it has
#: no global match list to adopt.
ADOPTS_MATCHES = frozenset(ALGORITHMS) - {"nd-bas"}


def census(graph, pattern, k, focal_nodes=None, subpattern=None, algorithm="auto",
           workers=1, matches=None, **options):
    """Count matches of ``pattern`` in every focal node's k-hop neighborhood.

    Parameters
    ----------
    graph, pattern, k:
        The database graph, the pattern to count, and the neighborhood
        radius (``k >= 0``).
    focal_nodes:
        Iterable of nodes to report counts for (default: every node).
    subpattern:
        Name of a subpattern of ``pattern``; when given, only the
        subpattern's image must fall inside the neighborhood
        (the ``COUNTSP`` semantics).
    algorithm:
        One of ``"auto"``, ``"nd-bas"``, ``"nd-diff"``, ``"nd-pvot"``,
        ``"pt-bas"``, ``"pt-opt"``, ``"pt-rnd"``.
    workers:
        Number of parallel workers for the counting phase.  ``1``
        (the default) runs the classic serial algorithm; larger values
        (or ``None`` for the CPU count) chunk the focal nodes across a
        worker pool via :func:`repro.census.parallel.parallel_census`
        (pass ``executor=`` / ``chunks=`` to tune it).
    matches:
        A global match list to adopt instead of running the matching
        pass, or a zero-argument callable returning one.  The callable
        runs only when the chosen algorithm adopts matches (every one
        but nd-bas; see :data:`ADOPTS_MATCHES`), after the planner has
        picked it.  Without a subpattern the list may hold automorphic
        embeddings; the census counts each subgraph once.

    Returns
    -------
    dict mapping each focal node to its count (zeros included).
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(
            graph, pattern, k, focal_nodes, subpattern, workers=workers
        )
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown census algorithm {algorithm!r}; expected one of "
            f"{sorted(ALGORITHMS)} or 'auto'"
        )
    if algorithm not in ADOPTS_MATCHES:
        matches = None
    elif callable(matches):
        matches = matches()
    if matches is not None:
        options["matches"] = matches
    if workers is None or workers > 1:
        return parallel_census(
            graph, pattern, k, focal_nodes=focal_nodes, subpattern=subpattern,
            algorithm=algorithm, workers=workers, **options
        )
    fn = ALGORITHMS[algorithm]
    return fn(graph, pattern, k, focal_nodes=focal_nodes, subpattern=subpattern, **options)


__all__ = [
    "census",
    "ALGORITHMS",
    "ADOPTS_MATCHES",
    "CensusMatch",
    "CensusRequest",
    "prepare_matches",
    "PatternMatchIndex",
    "CenterIndex",
    "select_centers",
    "cluster_matches",
    "kmeans",
    "nd_bas_census",
    "nd_diff_census",
    "nd_pvot_census",
    "pt_bas_census",
    "pt_opt_census",
    "pt_rnd_census",
    "PTOptions",
    "pairwise_census",
    "parallel_census",
    "chunk_focal_nodes",
    "default_workers",
    "choose_algorithm",
    "census_topk",
    "approximate_census",
    "sample_size_for_error",
    "IncrementalCensus",
    "multi_census",
]

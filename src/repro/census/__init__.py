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
from repro.census.base import (
    CensusMatch, CensusRequest, global_matches, prepare_matches, validate_arguments,
)
from repro.census.incremental import IncrementalCensus
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
from repro.obs import current_obs

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
        ``"pt-bas"``, ``"pt-opt"``, ``"pt-rnd"``.  ``"auto"`` picks
        ND-PVOT or PT-BAS by :func:`plan_census` (serial runs match
        first and adopt the list) and records the pick as a
        ``planner.chose.<algorithm>`` counter and a ``planner`` span
        carrying the match and focal counts.
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
        but nd-bas; see :data:`ADOPTS_MATCHES`), before a serial
        ``"auto"`` plan and otherwise after the algorithm is known.
        Without a subpattern the list may hold automorphic embeddings;
        the census counts each subgraph once.

    Returns
    -------
    dict mapping each focal node to its count (zeros included).
    """
    if algorithm == "auto":
        obs = current_obs()
        with obs.span("planner") as span:
            algorithm, focal_nodes, matches, num_matches = plan_census(
                graph, pattern, k, focal_nodes, subpattern, workers, matches,
                options.get("matcher", "cn"),
            )
            span.set("algorithm", algorithm)
            span.set("num_matches", num_matches)
            span.set("focal", graph.num_nodes if focal_nodes is None else len(focal_nodes))
        obs.add("planner.chose." + algorithm.replace("-", "_"))
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


def plan_census(graph, pattern, k, focal_nodes=None, subpattern=None, workers=1,
                matches=None, matcher="cn"):
    """Resolve ``algorithm="auto"``.

    Returns ``(algorithm, focal_nodes, matches, num_matches)``.  A serial
    plan needs the exact match count, so the global match list (the
    adopted one, the provider's, or a fresh matching pass) is resolved
    first and returned for the chosen algorithm to adopt: matching still
    runs once.  A parallel plan is ND-PVOT without matching first
    (``num_matches`` is ``None``).  A focal iterator comes back as a list.
    """
    validate_arguments(pattern, k, subpattern)
    if focal_nodes is not None and not hasattr(focal_nodes, "__len__"):
        focal_nodes = list(focal_nodes)
    num_matches = None
    if workers is not None and workers <= 1:
        if callable(matches):
            matches = matches()
        elif matches is None:
            matches = global_matches(graph, pattern, subpattern, matcher)
        num_matches = len(matches)
    algorithm = choose_algorithm(graph, pattern, k, focal_nodes, subpattern,
                                 num_matches=num_matches, workers=workers)
    return algorithm, focal_nodes, matches, num_matches


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
    "plan_census",
    "census_topk",
    "approximate_census",
    "sample_size_for_error",
    "IncrementalCensus",
]

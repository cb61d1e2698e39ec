"""Structural role identification from census profiles.

The paper's abstract lists *role identification* among the motivating
applications: nodes whose neighborhoods contain similar pattern mixes
play similar structural roles regardless of where they sit in the
graph.  This module builds per-node census feature vectors (graphlet
orbits by default, arbitrary pattern/subpattern queries optionally) and
clusters them with the same K-means used by PT-OPT's match clustering.
"""

import math

from repro.analysis.graphlets import graphlet_profiles
from repro.census import census
from repro.census.clustering import kmeans
from repro.errors import CensusError


def census_feature_vectors(graph, feature_queries, nodes=None):
    """Per-node feature vectors from a list of census queries.

    ``feature_queries`` is a list of ``(pattern, k)`` or ``(pattern, k,
    subpattern_name)`` tuples; each is one ND-PVOT census.
    """
    if not feature_queries:
        raise CensusError("at least one feature query is required")
    if nodes is not None:
        nodes = list(nodes)  # one focal list for every query
    columns = [
        census(graph, q[0], q[1], focal_nodes=nodes,
               subpattern=q[2] if len(q) > 2 else None, algorithm="nd-pvot")
        for q in feature_queries
    ]
    return {n: tuple(col[n] for col in columns) for n in columns[0]}


def _log_scale(vector):
    return [math.log1p(x) for x in vector]


def extract_roles(graph, num_roles, feature_queries=None, nodes=None, seed=0,
                  iterations=15):
    """Assign each node one of ``num_roles`` structural roles.

    Features default to the 3-node graphlet orbit profile; counts are
    log-scaled before K-means so hub magnitudes don't drown shape.
    Returns ``{node: role_id}`` with role ids in ``0..num_roles-1``
    (fewer when clusters collapse).
    """
    if num_roles < 1:
        raise CensusError("num_roles must be >= 1")
    if feature_queries is None:
        profiles = graphlet_profiles(graph, nodes=nodes)
    else:
        profiles = census_feature_vectors(graph, feature_queries, nodes=nodes)

    node_list = sorted(profiles, key=repr)
    vectors = [_log_scale(profiles[n]) for n in node_list]
    clusters = kmeans(vectors, num_roles, iterations=iterations, seed=seed)
    assignment = {}
    for role_id, members in enumerate(clusters):
        for index in members:
            assignment[node_list[index]] = role_id
    return assignment


def role_summary(graph, assignment):
    """Per-role size and mean degree — a quick readout of what each
    discovered role is."""
    summary = {}
    for node, role in assignment.items():
        entry = summary.setdefault(role, {"size": 0, "total_degree": 0})
        entry["size"] += 1
        entry["total_degree"] += graph.degree(node)
    return {
        role: {"size": e["size"], "mean_degree": e["total_degree"] / e["size"]}
        for role, e in summary.items()
    }

"""Attributed graph core: storage-agnostic graph API, traversal, profiles.

The census and matching algorithms in this package only rely on the small
access-path surface defined by :class:`repro.graph.graph.Graph`:

- node iteration and attribute access,
- neighbor iteration (``neighbors`` / ``out_neighbors`` / ``in_neighbors``),
- edge existence and edge attribute access,
- ``profile_index``: the CN matcher's node profiles (kept per
  ``version``; see :mod:`repro.graph.profiles`).

Both the in-memory :class:`Graph` and the disk-resident
:class:`repro.storage.DiskGraph` implement this surface, mirroring the
paper's prototype which ran on top of a disk-based graph engine (Neo4j).
"""

from repro.graph.csr import CSRGraph, CSRProfileIndex, freeze
from repro.graph.graph import Graph
from repro.graph.profiles import NodeProfileIndex, profile_contains
from repro.graph.traversal import (
    bfs_distances,
    bfs_layers,
    connected_components,
    ego_subgraph,
    k_hop_distances,
    k_hop_nodes,
    pairwise_distances,
    shortest_path_length,
)
from repro.graph.views import induced_subgraph, intersection_neighborhood, union_neighborhood

__all__ = [
    "Graph",
    "CSRGraph",
    "CSRProfileIndex",
    "freeze",
    "NodeProfileIndex",
    "profile_contains",
    "bfs_distances",
    "bfs_layers",
    "connected_components",
    "ego_subgraph",
    "k_hop_distances",
    "k_hop_nodes",
    "pairwise_distances",
    "shortest_path_length",
    "induced_subgraph",
    "intersection_neighborhood",
    "union_neighborhood",
]

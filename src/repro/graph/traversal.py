"""Breadth-first traversal primitives.

Everything the census algorithms need reduces to bounded BFS: k-hop
neighbor sets ``N_k(n)``, distance maps, and induced ego subgraphs
``S(n, k)``.  Neighborhood expansion is direction-blind even on directed
graphs, matching the paper's definition of a k-hop neighborhood ("nodes
reachable from n in k hops or less" through any incident edge).

There is one BFS, :func:`bfs_layer_sets`, and every entry point here is
built on it.  It reads nothing but ``has_node`` and ``neighbors`` of the
graph, so the dict :class:`repro.graph.graph.Graph`, a CSR snapshot and
a :class:`repro.storage.DiskGraph` all run the same code.  A source the
graph does not have raises :class:`repro.errors.NodeNotFoundError` at
every depth.
"""

from repro.errors import NodeNotFoundError
from repro.graph.views import induced_subgraph


def bfs_layer_sets(graph, source, max_depth=None):
    """Yield the BFS layers of ``source`` as sets: layer ``d`` holds the
    nodes at distance exactly ``d`` (the source alone is layer 0).

    ``max_depth=None`` explores the whole connected component.  Each
    layer is one C-level union of the previous layer's neighbor sets
    minus the nodes already seen, so the per-edge work runs inside set
    algebra, not in Python bytecode.  The sets ``neighbors()`` returns
    are only read, never updated in place.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    neighbors = graph.neighbors
    seen = {source}
    frontier = {source}
    yield frontier
    d = 0
    while max_depth is None or d < max_depth:
        d += 1
        frontier = set().union(*map(neighbors, frontier))
        frontier -= seen
        if not frontier:
            return
        seen |= frontier
        yield frontier


def bfs_distances(graph, source, max_depth=None):
    """Map each node within ``max_depth`` hops of ``source`` to its distance.

    ``max_depth=None`` explores the whole connected component.  The source
    is included with distance 0.
    """
    dist = {}
    for d, layer in enumerate(bfs_layer_sets(graph, source, max_depth)):
        dist.update(dict.fromkeys(layer, d))
    return dist


def bfs_layers(graph, source, max_depth=None):
    """Yield ``(node, distance)`` pairs in BFS order from ``source``."""
    for d, layer in enumerate(bfs_layer_sets(graph, source, max_depth)):
        for node in layer:
            yield node, d


def k_hop_nodes(graph, source, k):
    """The node set ``N_k(source)``: nodes within ``k`` hops, inclusive."""
    return set().union(*bfs_layer_sets(graph, source, k))


def k_hop_distances(graph, source, k):
    """Alias of :func:`bfs_distances` with a required radius."""
    return bfs_distances(graph, source, max_depth=k)


def ego_subgraph(graph, source, k):
    """The induced subgraph ``S(source, k)`` on the k-hop neighborhood."""
    return induced_subgraph(graph, k_hop_nodes(graph, source, k))


def shortest_path_length(graph, source, target, max_depth=None):
    """Hop distance from ``source`` to ``target`` or ``None`` if farther
    than ``max_depth`` (or disconnected).  Stops at ``target``'s layer."""
    for d, layer in enumerate(bfs_layer_sets(graph, source, max_depth)):
        if target in layer:
            return d
    return None


def pairwise_distances(graph, nodes=None, max_depth=None):
    """All-pairs hop distances restricted to ``nodes`` (default: all).

    Returns ``{u: {v: d}}`` with unreachable pairs absent.  Intended for
    small graphs (pattern graphs, ego nets); cost is O(|nodes| * (V+E)).
    """
    if nodes is None:
        nodes = list(graph.nodes())
    return {u: bfs_distances(graph, u, max_depth=max_depth) for u in nodes}


def connected_components(graph):
    """Yield the node sets of connected components (direction-blind)."""
    seen = set()
    for node in graph.nodes():
        if node in seen:
            continue
        component = set().union(*bfs_layer_sets(graph, node))
        seen |= component
        yield component


def eccentricity(graph, node):
    """Largest hop distance from ``node`` to any reachable node."""
    return sum(1 for _layer in bfs_layer_sets(graph, node)) - 1

"""Graphlet orbit profiles via subpattern census.

Przulj's graphlet degree distributions (cited in Section I as prior
local motif counting) assign each node counts of the *orbits* it
occupies in small connected subgraphs.  For 3-node graphlets there are
three orbits:

- orbit 0 — endpoint of an open wedge (path A-B-C, at A or C),
- orbit 1 — center of an open wedge (at B),
- orbit 2 — member of a triangle.

Each orbit is exactly one ``COUNTSP`` census query: the wedge pattern
with a ``{A}`` or ``{B}`` subpattern (with the A-C edge negated so
wedges are *open*), and the triangle with a ``{A}`` subpattern — a neat
demonstration that the paper's subpattern construct expresses orbit
counting.  Profiles feed a graphlet-degree-distribution distance for
whole-network comparison.
"""

import math

from repro.census import census
from repro.matching.pattern import Pattern

#: Orbit ids of the 3-node connected graphlets.
ORBITS = (0, 1, 2)


def _open_wedge_end():
    p = Pattern("wedge_end")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C", negated=True)
    p.add_subpattern("end", ["A"])
    return p


def _open_wedge_center():
    p = Pattern("wedge_center")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C", negated=True)
    p.add_subpattern("center", ["B"])
    return p


def _triangle_member():
    p = Pattern("triangle_member")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    p.add_subpattern("member", ["A"])
    return p


_ORBIT_QUERIES = {
    0: (_open_wedge_end, "end"),
    1: (_open_wedge_center, "center"),
    2: (_triangle_member, "member"),
}


def orbit_counts(graph, orbit, nodes=None, algorithm="nd-pvot"):
    """Per-node count of one 3-node orbit, via COUNTSP at k=0."""
    try:
        builder, subpattern = _ORBIT_QUERIES[orbit]
    except KeyError:
        raise ValueError(f"unknown orbit {orbit!r}; orbits are {ORBITS}") from None
    return census(graph, builder(), 0, focal_nodes=nodes,
                  subpattern=subpattern, algorithm=algorithm)


def graphlet_profiles(graph, nodes=None, algorithm="nd-pvot"):
    """``{node: (orbit0, orbit1, orbit2)}`` for every (focal) node."""
    if nodes is not None:
        nodes = list(nodes)  # one focal list for all three censuses
    per_orbit = [orbit_counts(graph, orbit, nodes, algorithm) for orbit in ORBITS]
    return {n: tuple(counts[n] for counts in per_orbit) for n in per_orbit[0]}


def graphlet_degree_distribution(graph, orbit, algorithm="nd-pvot"):
    """``{count_value: #nodes with that orbit count}``."""
    counts = orbit_counts(graph, orbit, algorithm=algorithm)
    dist = {}
    for c in counts.values():
        dist[c] = dist.get(c, 0) + 1
    return dist


def gdd_distance(graph_a, graph_b, algorithm="nd-pvot"):
    """A graphlet-degree-distribution distance between two graphs.

    Per orbit: normalize each graph's distribution (scaled by 1/k as in
    Przulj's GDD agreement, then to unit mass) and take the Euclidean
    distance; average over orbits.  0 for identical distributions,
    larger for structurally different networks.
    """
    total = 0.0
    for orbit in ORBITS:
        da = _normalized(graphlet_degree_distribution(graph_a, orbit, algorithm))
        db = _normalized(graphlet_degree_distribution(graph_b, orbit, algorithm))
        keys = set(da) | set(db)
        total += math.sqrt(sum((da.get(k, 0.0) - db.get(k, 0.0)) ** 2 for k in keys))
    return total / len(ORBITS)


def _normalized(dist):
    # Przulj's scaling: weight count-value k by 1/k (k=0 excluded), then
    # normalize to unit mass.
    scaled = {k: v / k for k, v in dist.items() if k > 0}
    mass = sum(scaled.values())
    if mass == 0:
        return {}
    return {k: v / mass for k, v in scaled.items()}

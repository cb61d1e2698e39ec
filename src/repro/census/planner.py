"""Census algorithm selection by a cost over the exact match count.

Section V observes that selectivity and focal-set size decide which
family wins: unselective patterns favor the node-driven pivot algorithm
(Figure 4(c)), selective ones the pattern-driven family (Figure 4(d)),
and only node-driven cost scales with the focal set (Figure 4(e)).

The planner ranks the two algorithms that won every measured case of
their family, ND-PVOT and PT-BAS, by the k-hop balls each one walks:

- ND-PVOT walks one ball per focal node: cost ``F``;
- PT-BAS walks one ball per containment node of every match: cost
  ``alpha * M * |V_c|``, where ``M`` is the exact match count and
  ``|V_c|`` the number of pattern nodes that must lie in the
  neighborhood (all of them unless a subpattern is counted).

The ball size cancels out, so PT-BAS is chosen iff
``alpha * M * |V_c| < F``.  ``alpha`` (:data:`ALPHA`) is the price of
one PT-BAS ball (a BFS plus a set intersection) in units of one ND-PVOT
ball, and depends on which ND-PVOT loop will run, not on the backend:
the bit-parallel kernel of :mod:`repro.census.indexed` (64 focal nodes
per word, over a CSR snapshot's index or over the focal set's k-hop
ball on any other graph), or the per-node set loop, which only runs
without numpy >= 2.  ``M`` is free: both candidates start from the same
global matching pass, so :func:`repro.census.census` runs it before
planning and hands the list to the chosen algorithm.

Calibration of the kernel constant: census phase only (matches
adopted), best of 3, CPython 3.11 and numpy 2 on a 2-CPU x86-64 VM,
162 cases per backend: ``labeled_preferential_attachment`` graphs
(4 labels) of 500, 1000 and 2000 nodes with m = 3 and 5 (generator
seeds 1-6), the ``clq3``, ``sqr`` and ``path2`` patterns, k = 1-3 and
focal fractions 0.1 / 0.5 / 1.0.  A case's break-even ``alpha`` is the
one at which both algorithms take the same time,
``t_pt_bas * F / (t_nd_pvot * M * |V|)``; it only matters where
``M * |V| < F``, the 60 cases per backend where PT-BAS was timed.

=======  =============  ==========================  =====  ==================
backend  PT-BAS faster  break-even alpha, median    alpha  wrong picks
                        at k = 1 / 2 / 3                   (worst loss)
=======  =============  ==========================  =====  ==================
dict     17 of 60       1.9 / 16 / 63               40     17 (7.1x, 11 ms)
csr      6 of 60        5.3 / 21 / 51               40     6 (3.1x, 4.9 ms)
=======  =============  ==========================  =====  ==================

Any ``alpha`` from 30 up gives the same picks on both backends, so one
constant serves both.  Every wrong pick but one lies at k = 1, where
both algorithms finish in milliseconds; the break-even rises with k
because a PT-BAS ball grows with the radius while a 64-source kernel
block barely does.  The set loop keeps the constant of its own
calibration on dict (123 cases, break-even median 2.4, range
1.25-5.85; five wrong picks, all within 1.75x of break-even).

PT-OPT and ND-DIFF are not candidates: in every measured case ND-DIFF
lost to ND-PVOT and PT-OPT to PT-BAS.  With ``workers > 1`` the plan is
ND-PVOT without matching first: focal chunks partition node-driven work
cleanly, while pattern-driven work repeats per chunk.
"""

from repro.census.base import global_matches
from repro.census.indexed import kernel_available
from repro.graph.graph import LABEL_KEY

#: Price of one PT-BAS ball in ND-PVOT balls, per ND-PVOT loop.
ALPHA = {"bit-parallel": 40.0, "set": 2.0}


def pvot_loop():
    """The ND-PVOT loop that will run: ``"bit-parallel"`` or ``"set"``."""
    return "bit-parallel" if kernel_available() else "set"


def predicted_costs(pattern, num_matches, focal_count, subpattern=None):
    """Predicted cost of each candidate, in ND-PVOT k-hop balls."""
    if subpattern is None:
        width = len(pattern.nodes)
    else:
        width = len(pattern.subpatterns[subpattern])
    return {
        "nd-pvot": float(focal_count),
        "pt-bas": ALPHA[pvot_loop()] * num_matches * width,
    }


def choose_algorithm(graph, pattern, k, focal_nodes=None, subpattern=None,
                     num_matches=None, workers=1):
    """Pick a census algorithm name for :func:`repro.census.census`.

    ``num_matches`` is the exact global match count (one per distinct
    subgraph, or per embedding with a subpattern); when omitted the
    planner runs the matching pass itself.  ``workers > 1`` (or
    ``None``, the CPU count) always gives ND-PVOT.
    """
    if workers is None or workers > 1:
        return "nd-pvot"
    if focal_nodes is None:
        focal_count = graph.num_nodes
    else:
        focal_count = len(focal_nodes if hasattr(focal_nodes, "__len__")
                          else list(focal_nodes))
    if num_matches is None:
        num_matches = len(global_matches(graph, pattern, subpattern))
    costs = predicted_costs(pattern, num_matches, focal_count, subpattern)
    return "pt-bas" if costs["pt-bas"] < costs["nd-pvot"] else "nd-pvot"


def estimate_matches(graph, pattern):
    """Independence estimate of the number of match subgraphs.

    ``n^|V| x prod(label selectivities) x prod(deg/n per positive edge)
    / |Aut|-ish`` — with the automorphism factor approximated by 1.
    Returns a float; 0.0 when a required label is absent.  Used to
    explain pairwise strategies; single-node plans use exact counts.
    """
    n = graph.num_nodes
    if n == 0:
        return 0.0
    # Label histogram (one pass).
    label_counts = {}
    for node in graph.nodes():
        label = graph.node_attr(node, LABEL_KEY)
        label_counts[label] = label_counts.get(label, 0) + 1
    total_degree = sum(graph.degree(node) for node in graph.nodes())
    avg_degree = total_degree / n if n else 0.0
    edge_prob = min(1.0, avg_degree / n) if n > 1 else 0.0

    estimate = 1.0
    for var in pattern.nodes:
        want = pattern.label_of(var)
        if want is None:
            estimate *= n
        else:
            estimate *= label_counts.get(want, 0)
        if estimate == 0.0:
            return 0.0
    for _edge in pattern.positive_edges():
        estimate *= edge_prob
    # Non-label predicates prune further; a flat discount per predicate
    # keeps the estimate conservative without attribute statistics.
    non_label_predicates = max(0, len(pattern.predicates) - sum(
        1 for v in pattern.nodes if pattern.label_of(v) is not None
    ))
    estimate *= 0.5 ** non_label_predicates
    return estimate

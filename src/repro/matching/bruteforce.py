"""Brute-force reference matcher.

No indexes, no pruning: backtracking over *all* database nodes for every
pattern variable, checking label, adjacency, negated edges and
predicates as bindings are made.  Exponential — only suitable for the
small graphs used in tests, where it serves as ground truth for both
CN and GQL.
"""

from repro.exec.budget import current_budget
from repro.exec.faults import fault_point
from repro.graph.graph import LABEL_KEY
from repro.matching.base import Match, check_new_binding, dedupe_matches, neighbor_set
from repro.matching.order import connected_order, earlier_neighbors


def bruteforce_matches(graph, pattern, distinct=True):
    """Find all matches of ``pattern`` in ``graph`` by exhaustive search."""
    pattern.validate()
    order = connected_order(pattern)
    back_edges = [earlier_neighbors(pattern, order, i) for i in range(len(order))]
    all_nodes = list(graph.nodes())

    budget = current_budget()
    matches = []
    assignment = {}
    bound = []

    def label_ok(var, node):
        want = pattern.label_of(var)
        return want is None or graph.node_attr(node, LABEL_KEY) == want

    def single_preds_ok(var, node):
        preds = pattern.single_var_predicates(var)
        if not preds:
            return True
        probe = {var: node}
        return all(p.evaluate(probe, graph) for p in preds)

    def extend(i):
        if i == len(order):
            matches.append(Match(assignment, pattern))
            if budget is not None:
                budget.count_result()
            return
        fault_point("match.expand")
        var = order[i]
        for node in all_nodes:
            if budget is not None:
                budget.tick()
            if not label_ok(var, node) or not single_preds_ok(var, node):
                continue
            ok = True
            for earlier, edge in back_edges[i]:
                if node not in neighbor_set(graph, assignment[earlier], earlier, edge):
                    ok = False
                    break
            if not ok:
                continue
            if check_new_binding(graph, pattern, assignment, var, node, bound):
                assignment[var] = node
                bound.append(var)
                extend(i + 1)
                bound.pop()
                del assignment[var]

    try:
        extend(0)
    finally:
        del extend  # break the closure's self-reference cycle
    if distinct:
        matches = dedupe_matches(matches)
    return matches

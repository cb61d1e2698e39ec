"""Shared match machinery: the Match record, candidate filtering, and
incremental constraint checks used by all three matchers."""

from repro.exec.budget import current_budget
from repro.graph.profiles import profile_contains


class Match:
    """One match of a pattern: a mapping from pattern variables to nodes.

    Two embeddings that induce the same database subgraph (same node set
    and same image of every positive pattern edge) share a
    ``canonical_key`` — this is the unit a census counts when
    ``distinct=True``.
    """

    __slots__ = ("mapping", "canonical_key")

    def __init__(self, mapping, pattern):
        self.mapping = dict(mapping)
        images = []
        for e in pattern.positive_edges():
            nu, nv = self.mapping[e.u], self.mapping[e.v]
            if e.directed:
                images.append(("d", nu, nv))
            else:
                images.append(("u", frozenset((nu, nv))))
        self.canonical_key = (frozenset(self.mapping.values()), frozenset(images))

    def image(self, var):
        """Database node matched to pattern variable ``var``."""
        return self.mapping[var]

    def nodes(self):
        """Frozenset of database nodes covered by the match."""
        return self.canonical_key[0]

    def subpattern_nodes(self, pattern, subpattern_name):
        """Images of the named subpattern's variables (μ(V_SP, M))."""
        members = pattern.subpatterns[subpattern_name]
        return frozenset(self.mapping[v] for v in members)

    def __repr__(self):
        inner = ", ".join(f"?{v}->{n!r}" for v, n in sorted(self.mapping.items()))
        return f"<Match {inner}>"

    def __eq__(self, other):
        return isinstance(other, Match) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))


class MatchSet:
    """A list of matches with distinct-subgraph bookkeeping."""

    def __init__(self, matches=()):
        self.matches = list(matches)

    def distinct(self):
        """Collapse automorphic embeddings; keeps first-seen per subgraph."""
        seen = {}
        for m in self.matches:
            seen.setdefault(m.canonical_key, m)
        return MatchSet(seen.values())

    def __len__(self):
        return len(self.matches)

    def __iter__(self):
        return iter(self.matches)

    def __getitem__(self, i):
        return self.matches[i]


def dedupe_matches(matches):
    """Distinct-subgraph filter preserving first-seen order."""
    seen = {}
    for m in matches:
        seen.setdefault(m.canonical_key, m)
    return list(seen.values())


def count_distinct(matches):
    """Number of distinct match subgraphs in ``matches``."""
    return len({m.canonical_key for m in matches})


def neighbor_set(graph, node, var, edge):
    """Database neighbors of ``node`` that could match across ``edge``.

    ``var`` is the pattern endpoint already matched to ``node``; the set
    returned contains nodes eligible for the other endpoint, respecting
    edge direction.
    """
    if not edge.directed or not graph.directed:
        return graph.neighbors(node)
    if edge.u == var:
        return graph.out_neighbors(node)
    return graph.in_neighbors(node)


def pattern_degrees(pattern, var):
    """``(total, out, in)`` neighbor lower bounds for a pattern variable.

    Counts *distinct* neighbor variables (graph degrees count distinct
    neighbors, and parallel pattern edges — ``?A-?B`` plus ``?B->?A`` —
    still bind to a single database neighbor).
    """
    total, outgoing, incoming = set(), set(), set()
    for other, e in pattern.positive_neighbors(var):
        total.add(other)
        if e.directed:
            if e.u == var:
                outgoing.add(other)
            else:
                incoming.add(other)
    return len(total), len(outgoing), len(incoming)


def enumerate_candidates(graph, pattern):
    """Step 1 of both CN and GQL: the profile-filtered candidate sets.

    Returns ``{var: set(database nodes)}``.  Filters applied per node:
    label equality, (out/in/total) degree lower bounds, label-profile
    containment, and single-variable predicates.  Profiles come from
    ``graph.profile_index``, which every backend keeps per graph version.
    """
    profile_index = graph.profile_index
    budget = current_budget()
    candidates = {}
    for var in pattern.nodes:
        label = pattern.label_of(var)
        if label is not None:
            pool = profile_index.nodes_with_label(label)
        else:
            pool = graph.nodes()
        want_profile = pattern.label_profile(var)
        total_deg, out_deg, in_deg = pattern_degrees(pattern, var)
        single_preds = pattern.single_var_predicates(var)
        chosen = set()
        for n in pool:
            if budget is not None:
                budget.tick()
            if graph.degree(n) < total_deg:
                continue
            if graph.directed:
                if graph.out_degree(n) < out_deg or graph.in_degree(n) < in_deg:
                    continue
            if want_profile and not profile_contains(profile_index.profile(n), want_profile):
                continue
            if single_preds:
                assignment = {var: n}
                if not all(p.evaluate(assignment, graph) for p in single_preds):
                    continue
            chosen.add(n)
        candidates[var] = chosen
    return candidates


def check_new_binding(graph, pattern, assignment, var, node, bound_order):
    """Constraints triggered when ``var`` binds to ``node``.

    Checks injectivity against earlier bindings, negated edges whose
    other endpoint is bound, and every predicate that just became fully
    bound.  Positive-edge adjacency is the caller's job (each matcher
    guarantees it differently).
    """
    for earlier in bound_order:
        if assignment[earlier] == node:
            return False
    assignment[var] = node
    try:
        for e in pattern.negative_edges():
            if var not in (e.u, e.v):
                continue
            other = e.v if e.u == var else e.u
            if other not in assignment:
                continue
            nu, nv = assignment[e.u], assignment[e.v]
            if e.directed:
                if graph.has_edge(nu, nv):
                    return False
            else:
                if graph.has_edge(nu, nv) or (graph.directed and graph.has_edge(nv, nu)):
                    return False
        for p in pattern.multi_var_predicates():
            variables = p.variables()
            if var in variables and all(x in assignment for x in variables):
                if not p.evaluate(assignment, graph):
                    return False
        return True
    finally:
        del assignment[var]

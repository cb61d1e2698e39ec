"""The paper's candidate-neighbor (CN) subgraph matcher (Section III).

Four steps, mirroring Algorithm 1:

1. Enumerate profile-filtered candidates ``C(v)`` per pattern node.
2. For each candidate ``n`` of ``v`` and each pattern neighbor ``v'`` of
   ``v``, initialize the candidate-neighbor set
   ``CN(n, v, v') = C(v') ∩ N(n)`` (direction-aware).
3. Simultaneously prune: drop ``n`` from ``C(v)`` when any of its
   candidate-neighbor sets goes empty, and drop ``n'`` from
   ``CN(n, v, v')`` once ``n'`` leaves ``C(v')``; repeat to fixpoint
   (bounded by |V_P| passes).
4. Extract matches forward along a connected order, computing the
   candidates of the next variable as the *intersection of
   candidate-neighbor sets* of its already-bound pattern neighbors —
   the step that gives CN its orders-of-magnitude win over scanning
   full candidate sets.
"""

from repro.exec.budget import current_budget
from repro.exec.faults import fault_point
from repro.matching.base import (
    Match,
    check_new_binding,
    count_distinct,
    dedupe_matches,
    enumerate_candidates,
    neighbor_set,
)
from repro.matching.order import connected_order, earlier_neighbors
from repro.obs import current_obs


class CNState:
    """Intermediate state of the CN matcher, exposed for inspection.

    ``candidates[var]`` is ``C(v)``; ``cn[(var, node)][other]`` is
    ``CN(node, var, other)``.  Benchmarks use ``stats`` to report
    pruning effectiveness.
    """

    def __init__(self, candidates, cn, stats):
        self.candidates = candidates
        self.cn = cn
        self.stats = stats


def build_cn_state(graph, pattern):
    """Run steps 1–3 (candidates, CN init, fixpoint pruning)."""
    pattern.validate()
    candidates = enumerate_candidates(graph, pattern)
    stats = {"initial_candidates": {v: len(c) for v, c in candidates.items()}}

    # CN entries are keyed by (neighbor var, edge id): two parallel
    # pattern edges between the same pair (e.g. ?A-?B plus ?B->?A)
    # impose independent constraints and must not collide.
    edge_ids = {id(e): i for i, e in enumerate(pattern.edges)}
    neighbor_lists = {
        v: [(other, edge, edge_ids[id(edge)]) for other, edge in pattern.positive_neighbors(v)]
        for v in pattern.nodes
    }
    budget = current_budget()
    cn = {}
    for var, cset in candidates.items():
        for n in cset:
            if budget is not None:
                budget.tick()
            entry = {}
            for other, edge, eid in neighbor_lists[var]:
                # `&` allocates a fresh set, so the graph's own neighbor
                # set is never aliased into the mutable CN state.
                entry[(other, eid)] = candidates[other] & neighbor_set(
                    graph, n, var, edge
                )
            cn[(var, n)] = entry

    passes = 0
    check = list(cn)
    while True:
        passes += 1
        if budget is not None:
            budget.tick(sum(len(c) for c in candidates.values()))
        # Drop candidates with an empty candidate-neighbor set.  CN sets
        # only shrink, so after the first pass only the entries that
        # shrank in the last pass can have newly emptied.
        removed = {}
        for key in check:
            if any(not s for s in cn[key].values()):
                var, n = key
                candidates[var].discard(n)
                del cn[key]
                removed.setdefault(var, set()).add(n)
        if not removed:
            break
        # Drop candidate neighbors that are no longer candidates: every
        # CN set is a subset of the candidates as of the last pass, so
        # the stale members are exactly the ones just removed.
        shrunk = set()
        for key, entry in cn.items():
            for (other, _eid), s in entry.items():
                gone = removed.get(other)
                if gone is not None and not s.isdisjoint(gone):
                    s -= gone
                    shrunk.add(key)
        check = shrunk

    stats["pruning_passes"] = passes
    stats["pruned_candidates"] = {v: len(c) for v, c in candidates.items()}

    # Mirror the ad-hoc stats dict onto the metrics registry; CNState.stats
    # stays the primary surface for existing consumers.
    obs = current_obs()
    if obs.enabled:
        obs.add("match.cn.pruning_passes", passes)
        obs.add("match.cn.candidates_initial",
                sum(stats["initial_candidates"].values()))
        obs.add("match.cn.candidates_pruned",
                sum(stats["initial_candidates"].values())
                - sum(stats["pruned_candidates"].values()))
    return CNState(candidates, cn, stats)


def _needs_check(pattern, order, i):
    """Whether binding ``order[i]`` can violate a negated edge or a
    multi-variable predicate (the constraints CN sets do not encode)."""
    var = order[i]
    prefix = set(order[:i])
    for e in pattern.negative_edges():
        if (e.u == var and e.v in prefix) or (e.v == var and e.u in prefix):
            return True
    return any(
        var in p.variables() and p.variables() <= prefix | {var}
        for p in pattern.multi_var_predicates()
    )


def extract_matches(graph, pattern, state, limit=None):
    """Step 4: forward extraction over the pruned CN state.

    Positive-edge adjacency comes from the CN sets and injectivity from
    a ``used`` set; :func:`check_new_binding` runs only where a negated
    edge or a multi-variable predicate becomes fully bound.
    """
    order = connected_order(pattern, {v: len(c) for v, c in state.candidates.items()})
    edge_ids = {id(e): i for i, e in enumerate(pattern.edges)}
    # back_keys[i]: (earlier var, CN key) per positive edge into the prefix.
    back_keys = [
        [(earlier, (var, edge_ids[id(edge)]))
         for earlier, edge in earlier_neighbors(pattern, order, i)]
        for i, var in enumerate(order)
    ]
    checks = [_needs_check(pattern, order, i) for i in range(len(order))]
    cn = state.cn
    depth = len(order)

    budget = current_budget()
    matches = []
    assignment = {}
    used = set()

    def extend(i):
        if limit is not None and len(matches) >= limit:
            return
        if i == depth:
            matches.append(Match(assignment, pattern))
            if budget is not None:
                budget.count_result()
            return
        fault_point("match.expand")
        var = order[i]
        keys = back_keys[i]
        if not keys:
            pool = state.candidates[var]
        else:
            earlier, key = keys[0]
            # A copy: its iteration order fixes the emission order of
            # matches, which PT-OPT's clustering (and its work) follows.
            pool = set(cn[(earlier, assignment[earlier])][key])
            for earlier, key in keys[1:]:
                pool = pool & cn[(earlier, assignment[earlier])][key]
                if not pool:
                    return
        check = checks[i]
        for node in pool:
            if budget is not None:
                budget.tick()
            if node in used:
                continue
            if check and not check_new_binding(graph, pattern, assignment, var, node, ()):
                continue
            assignment[var] = node
            used.add(node)
            extend(i + 1)
            used.discard(node)
            del assignment[var]

    try:
        extend(0)
    finally:
        del extend  # break the closure's self-reference cycle
    return matches


def cn_matches(graph, pattern, distinct=True):
    """Find all matches of ``pattern`` in ``graph`` with the CN algorithm."""
    obs = current_obs()
    with obs.span("match.cn", pattern=pattern.name):
        state = build_cn_state(graph, pattern)
        if any(not c for c in state.candidates.values()):
            return []
        matches = extract_matches(graph, pattern, state)
        if distinct:
            matches = dedupe_matches(matches)
        if obs.enabled:
            obs.add("match.cn.matches",
                    len(matches) if distinct else count_distinct(matches))
        return matches

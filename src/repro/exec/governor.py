"""Budget-governed census execution with a degradation policy.

:func:`governed_census` is the engine's entry point for a ``COUNTP`` /
``COUNTSP`` aggregate: it runs the exact census under the ambient
:class:`~repro.exec.budget.ExecutionBudget` and, when the budget is
exhausted mid-run, optionally *degrades* instead of failing — falling
back to the sampling estimator of :mod:`repro.census.approx` under a
bounded grace budget and marking the outcome partial.  Callers surface
the partial flag on :class:`repro.query.result.ResultTable` and in
``EXPLAIN ANALYZE``.

The exact-to-approximate fallback is honest about what it can promise:
the estimator still needs one matching pass, so the grace budget bounds
it too; if even sampling cannot finish, the *original* budget error
propagates.  (For top-k workloads, :func:`repro.census.topk.census_topk`
is the other existing degradation target — it shares the same ambient
budget checks, so callers can apply the same catch-and-degrade policy
around it.)
"""

from repro.errors import BudgetExceeded
from repro.exec.budget import ExecutionBudget, activate_budget, current_budget
from repro.obs import current_obs

#: Matches sampled by the approximate fallback.
DEFAULT_DEGRADE_SAMPLE = 200

#: Grace multiplier: the fallback gets ``grace * timeout`` wall-clock.
DEFAULT_DEGRADE_GRACE = 4.0

#: Floor on the grace window, seconds.  A 50 ms deadline grants the
#: fallback 200 ms, which cannot even fit one matching pass on midsize
#: graphs; degradation under tiny deadlines is only useful if the
#: estimator gets a fighting chance.
GRACE_FLOOR_SECONDS = 1.0


class CensusOutcome:
    """Result of a governed census: counts plus partiality metadata."""

    __slots__ = ("counts", "partial", "degraded", "note")

    def __init__(self, counts, partial=False, degraded=False, note=None):
        self.counts = counts
        self.partial = partial
        self.degraded = degraded
        self.note = note

    def __repr__(self):
        flag = " partial" if self.partial else ""
        return f"<CensusOutcome rows={len(self.counts)}{flag}>"


def governed_census(graph, pattern, k, focal_nodes=None, subpattern=None,
                    algorithm="auto", matcher="cn", workers=1, degrade=False,
                    degrade_sample=DEFAULT_DEGRADE_SAMPLE,
                    degrade_grace=DEFAULT_DEGRADE_GRACE, seed=0, matches=None):
    """Run a census under the ambient budget, degrading when allowed.

    Returns a :class:`CensusOutcome`.  Without an ambient budget this is
    exactly ``repro.census.census``.  With one, a
    :class:`~repro.errors.BudgetExceeded` from the exact run either
    propagates (``degrade=False``) or triggers the sampling fallback
    (``degrade=True``): estimate counts from ``degrade_sample`` sampled
    matches under a fresh grace budget of ``degrade_grace`` times the
    original timeout, returned with ``partial=True``.

    ``matches`` is forwarded to :func:`repro.census.census` (a list or
    a provider callable); a provider runs inside the governed region,
    so a budget blown while it matches degrades like any other.
    """
    from repro.census import census

    obs = current_obs()
    budget = current_budget()
    try:
        counts = census(
            graph, pattern, k, focal_nodes=focal_nodes, subpattern=subpattern,
            algorithm=algorithm, matcher=matcher, workers=workers,
            matches=matches,
        )
        return CensusOutcome(counts)
    except BudgetExceeded as exc:
        if obs.enabled:
            obs.add(f"exec.budget.{exc.reason}_exceeded", 1)
        if not degrade:
            raise
        return _degrade_to_approx(
            graph, pattern, k, focal_nodes, subpattern, matcher,
            degrade_sample, degrade_grace, seed, budget, exc, obs,
        )


def _degrade_to_approx(graph, pattern, k, focal_nodes, subpattern, matcher,
                       sample, grace, seed, budget, original, obs):
    from repro.census.approx import approximate_census

    grace_budget = None
    if budget is not None and budget.timeout is not None:
        grace_budget = ExecutionBudget(
            timeout=max(grace * budget.timeout, GRACE_FLOOR_SECONDS)
        )
    try:
        # The exhausted primary budget must not govern the fallback;
        # activate the grace budget (or nothing) in its place.
        with activate_budget(grace_budget):
            estimates = approximate_census(
                graph, pattern, k, sample, focal_nodes=focal_nodes,
                subpattern=subpattern, matcher=matcher, seed=seed,
            )
    except BudgetExceeded:
        # Even sampling could not finish: report the primary failure.
        raise original from None
    if obs.enabled:
        obs.add("exec.degraded", 1)
    note = (
        f"approximate: {original.reason} budget exceeded, "
        f"estimated from up to {sample} sampled matches"
    )
    return CensusOutcome(estimates, partial=True, degraded=True, note=note)

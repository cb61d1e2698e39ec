"""The census query engine.

Binds parsed statements to a database graph: PATTERN definitions
register in the engine's catalog; SELECT statements evaluate their
WHERE clause to pick focal nodes (or pairs), dispatch each COUNTP /
COUNTSP aggregate to a census algorithm (chosen by the planner unless
pinned), and assemble a :class:`repro.query.result.ResultTable`.
"""

import functools
import random
from contextlib import nullcontext
from itertools import product

from repro.census import pairwise_census
from repro.errors import QueryError
from repro.exec.budget import ExecutionBudget
from repro.exec.governor import governed_census
from repro.graph.csr import freeze
from repro.lang.ast import Aggregate, ExplainStatement, SelectQuery
from repro.lang.catalog import PatternCatalog, standard_patterns
from repro.lang.expressions import evaluate_where, expression_columns
from repro.lang.parser import parse_query, parse_script
from repro.matching.pattern import Pattern
from repro.obs import activate, current_obs, current_request, get_logger
from repro.query.match_store import LRUCache, MatchStore
from repro.query.result import ResultTable

logger = get_logger("repro.query.engine")


class QueryEngine:
    """Executes pattern census statements against one graph.

    Parameters
    ----------
    graph:
        Any object implementing the graph access-path API (an in-memory
        :class:`repro.graph.Graph` or a :class:`repro.storage.DiskGraph`).
    catalog:
        Pattern namespace; defaults to a fresh catalog preloaded with
        the paper's standard patterns (Figure 3 + Table I basics).
    seed:
        Seeds ``RND()`` in WHERE clauses; each ``execute`` call re-seeds
        so results are reproducible.
    algorithm:
        Census algorithm for single-node neighborhoods ('auto' lets the
        planner pick; see :data:`repro.census.ALGORITHMS`).
    pairwise_algorithm:
        'nd' or 'pt' for intersection/union neighborhoods.
    obs:
        An :class:`repro.obs.ObsContext` to record execution traces and
        metrics into.  ``None`` (the default) uses whatever context is
        ambient (``repro.obs.current_obs()``), which is the disabled
        no-op context unless a caller activated one.
    backend:
        ``'dict'`` queries the graph as given; ``'csr'`` freezes it into
        a :class:`repro.graph.csr.CSRGraph` snapshot at construction
        (call :meth:`refresh_snapshot` after mutating the source graph).
    workers:
        Worker count for ``COUNTP``/``COUNTSP`` censuses; ``1`` is the
        classic serial path, larger values (or ``None`` for the CPU
        count) chunk focal nodes over a process pool (see
        :mod:`repro.census.parallel`).  Pairwise censuses stay serial.
    timeout, max_ops, max_results:
        Per-statement execution budget (see
        :class:`repro.exec.budget.ExecutionBudget`): a wall-clock
        deadline in seconds, a cooperative work-operation cap, and a
        materialized-result cap.  A fresh budget is built for every
        statement; when all three are ``None`` (the default), statements
        run ungoverned — or under whatever budget the caller activated
        ambiently.
    degrade:
        When a budget expires mid-census, fall back to the sampling
        estimator instead of raising :class:`repro.errors.BudgetExceeded`;
        affected results are marked ``partial`` (see
        :mod:`repro.exec.governor`).
    """

    def __init__(self, graph, catalog=None, seed=0, algorithm="auto",
                 pairwise_algorithm="nd", matcher="cn", cache=False, obs=None,
                 backend="dict", workers=1, timeout=None, max_ops=None,
                 max_results=None, degrade=False):
        if backend not in ("dict", "csr"):
            raise QueryError(f"unknown backend {backend!r}; expected 'dict' or 'csr'")
        self.base_graph = graph
        self.backend = backend
        self.workers = workers
        self.graph = freeze(graph) if backend == "csr" else graph
        self.catalog = catalog if catalog is not None else PatternCatalog(standard_patterns())
        self.seed = seed
        self.algorithm = algorithm
        self.pairwise_algorithm = pairwise_algorithm
        self.matcher = matcher
        self.obs = obs
        self.timeout = timeout
        self.max_ops = max_ops
        self.max_results = max_results
        self.degrade = bool(degrade)
        self._snapshot_version = self._source_version()
        # Aggregate-result cache.  Opt-in; entries are keyed on both the
        # catalog version (pattern redefinitions) and the graph mutation
        # version (see :attr:`graph_version`), so neither a redefined
        # pattern nor an in-place graph mutation can be served stale.
        self.cache_enabled = bool(cache)
        self._cache = LRUCache()
        self.cache_hits = 0
        self.cache_misses = 0
        # Global match lists reused by every census aggregate (see
        # repro.query.match_store).  Version-keyed, so it needs a graph
        # that counts its mutations.
        self.match_store = MatchStore()
        self._versioned = hasattr(graph, "version")

    def _source_version(self):
        """Mutation version of the source graph (0 when untracked)."""
        return getattr(self.base_graph, "version", 0)

    @property
    def graph_version(self):
        """Version of the graph data queries currently observe.

        For the dict backend this is the live mutation counter of the
        source graph; for the CSR backend it is the source version
        captured when the snapshot was (re-)frozen — a mutation without
        :meth:`refresh_snapshot` leaves queries on the old snapshot, and
        this property says so.
        """
        if self.backend == "csr":
            return self._snapshot_version
        return self._source_version()

    def clear_cache(self):
        """Drop cached aggregate results and stored match lists."""
        self._cache.clear()
        self.match_store.clear()
        self._cache_gauge()

    def refresh_snapshot(self):
        """Re-freeze the source graph (CSR backend) and drop the cache.

        Stored match lists survive when the graph version did not move.
        """
        if self.backend == "csr":
            self.graph = freeze(self.base_graph)
        self._snapshot_version = self._source_version()
        self._cache.clear()
        self._cache_gauge()
        self.match_store.retain(self.graph_version)

    # ------------------------------------------------------------------
    # Statement entry points
    # ------------------------------------------------------------------
    def define_pattern(self, pattern):
        """Register a :class:`Pattern` or parseable PATTERN text."""
        if isinstance(pattern, str):
            from repro.lang.parser import parse_pattern

            pattern = parse_pattern(pattern)
        if not isinstance(pattern, Pattern):
            raise QueryError(f"cannot register {type(pattern).__name__} as a pattern")
        return self.catalog.register(pattern)

    def execute_script(self, text):
        """Run a script of statements.

        Returns one ResultTable per SELECT / EXPLAIN statement (EXPLAIN
        yields a one-column ``plan`` table).
        """
        results = []
        for statement in parse_script(text):
            if isinstance(statement, Pattern):
                self.catalog.register(statement)
            elif isinstance(statement, ExplainStatement):
                if statement.analyze:
                    plan = self.explain_analyze(statement.query)
                else:
                    plan = self.explain(statement.query)
                results.append(
                    ResultTable(["plan"], [(line,) for line in plan.splitlines()])
                )
            else:
                results.append(self._execute_select(statement))
        return results

    def explain(self, query):
        """Describe the plan for ``query`` without executing it."""
        from repro.query.explain import explain_query

        return explain_query(self, query)

    def explain_analyze(self, query):
        """Execute ``query`` and annotate its plan with measured
        wall-times and operation counts (the ``EXPLAIN ANALYZE``
        statement)."""
        from repro.query.explain import explain_analyze

        return explain_analyze(self, query)

    def execute(self, query, budget=None, degrade=None):
        """Run one SELECT (text or parsed); returns a ResultTable.

        ``budget`` overrides the engine's default per-statement budget
        for this call only: an :class:`~repro.exec.budget.ExecutionBudget`
        spec mapping (``timeout`` / ``max_ops`` / ``max_results`` keys)
        or a ready budget instance.  ``degrade`` likewise overrides the
        engine-level degradation policy (``None`` keeps it).  The serving
        layer uses both to honor per-request limits from headers.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, SelectQuery):
            raise QueryError(f"cannot execute {type(query).__name__}")
        return self._execute_select(query, budget=budget, degrade=degrade)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_select(self, query, budget=None, degrade=None):
        obs = self.obs if self.obs is not None else current_obs()
        if not obs.enabled:
            return self._run_select(query, obs, budget, degrade)
        with activate(obs):
            with obs.span("query.execute") as span:
                trace = current_request()
                if trace is not None:
                    span.set("request_id", trace.request_id)
                io_before = self._io_snapshot()
                try:
                    return self._run_select(query, obs, budget, degrade)
                finally:
                    self._record_io_deltas(obs, io_before)

    def _make_budget(self, override=None):
        """A fresh per-statement budget, or ``None`` when unconfigured.

        ``override`` (a spec mapping or an ExecutionBudget) replaces the
        engine defaults entirely for this statement.
        """
        if override is not None:
            if isinstance(override, ExecutionBudget):
                return override
            return ExecutionBudget(**override)
        if self.timeout is None and self.max_ops is None and self.max_results is None:
            return None
        return ExecutionBudget(
            timeout=self.timeout, max_ops=self.max_ops,
            max_results=self.max_results,
        )

    def _run_select(self, query, obs, budget_override=None, degrade=None):
        aliases = [t.alias for t in query.tables]
        with obs.span("query.bind"):
            self._validate_references(query, aliases)
        rng = random.Random(self.seed)

        # One budget per statement; entering it makes it ambient so the
        # matching/census hot loops pick it up.  Unconfigured engines
        # leave whatever budget the caller activated in force.
        budget = self._make_budget(budget_override)
        degrade = self.degrade if degrade is None else bool(degrade)
        with budget if budget is not None else nullcontext():
            with obs.span("query.scan") as scan_span:
                if query.is_pair_query:
                    bindings = self._pair_bindings(query, aliases, rng)
                else:
                    bindings = self._node_bindings(query, aliases[0], rng)
                scan_span.set("rows", len(bindings))
                obs.add("query.focal_bindings", len(bindings))

            aggregate_values = {}
            partial = False
            notes = []
            for agg in query.aggregates():
                with obs.span("query.aggregate", output=agg.output_name) as agg_span:
                    values, outcome = self._evaluate_aggregate(
                        agg, aliases, bindings, degrade
                    )
                    aggregate_values[id(agg)] = values
                    if outcome is not None and outcome.partial:
                        partial = True
                        notes.append(f"{agg.output_name}: {outcome.note}")
                        agg_span.set("partial", True)

        columns = []
        for item in query.columns:
            if isinstance(item, Aggregate):
                columns.append(item.output_name)
            else:
                columns.append(item.display_name())

        rows = []
        for binding in bindings:
            row = []
            for item in query.columns:
                if isinstance(item, Aggregate):
                    row.append(aggregate_values[id(item)][binding])
                else:
                    row.append(self._column_value(item, aliases, binding))
            rows.append(tuple(row))

        with obs.span("query.sort_limit"):
            table = ResultTable(columns, rows, partial=partial, notes=notes)
            for order in reversed(query.order_by):
                table = table.sorted_by(order.key, descending=not order.ascending)
            if query.limit is not None:
                table = table.head(query.limit)
        logger.debug("executed query: %d rows, %d columns", len(table.rows),
                     len(table.columns))
        return table

    def _io_snapshot(self):
        io_stats = getattr(self.graph, "io_stats", None)
        return dict(io_stats()) if io_stats is not None else None

    def _record_io_deltas(self, obs, before):
        """Attribute storage counters that moved during this statement."""
        if before is None:
            return
        after = self._io_snapshot()
        for key, value in after.items():
            delta = value - before.get(key, 0)
            if delta:
                obs.add("storage." + key, delta)

    def _validate_references(self, query, aliases):
        known = set(aliases)

        def check(ref):
            if ref.alias is not None and ref.alias not in known:
                raise QueryError(
                    f"unknown table alias {ref.alias!r}; query tables are {aliases}"
                )
            if ref.alias is None and len(aliases) > 1:
                raise QueryError(
                    f"column {ref.name!r} must be qualified in a pair query"
                )

        for item in query.columns:
            if isinstance(item, Aggregate):
                if item.pattern_name not in self.catalog:
                    raise QueryError(
                        f"unknown pattern {item.pattern_name!r}; defined: "
                        f"{self.catalog.names()}"
                    )
                pattern = self.catalog.get(item.pattern_name)
                if item.subpattern_name is not None:
                    if item.subpattern_name not in pattern.subpatterns:
                        raise QueryError(
                            f"pattern {item.pattern_name!r} has no subpattern "
                            f"{item.subpattern_name!r}"
                        )
                hood = item.neighborhood
                if hood.kind != "subgraph" and not query.is_pair_query:
                    raise QueryError(
                        f"{hood.kind} neighborhoods require a pair query "
                        "(FROM nodes AS n1, nodes AS n2)"
                    )
                for target in hood.targets:
                    check(target)
            else:
                check(item)
        if query.where is not None:
            for ref in expression_columns(query.where):
                check(ref)
        output_names = set()
        for item in query.columns:
            if isinstance(item, Aggregate):
                output_names.add(item.output_name.lower())
            else:
                output_names.add(item.display_name().lower())
        for order in query.order_by:
            if order.key.lower() not in output_names:
                raise QueryError(
                    f"ORDER BY key {order.key!r} matches no column of the "
                    f"output; available: {sorted(output_names)}"
                )

    def _node_bindings(self, query, alias, rng):
        out = []
        for node in self.graph.nodes():
            if evaluate_where(query.where, self.graph, {alias: node}, rng):
                out.append((node,))
        return out

    def _pair_bindings(self, query, aliases, rng):
        a1, a2 = aliases
        out = []
        nodes = list(self.graph.nodes())
        for n1, n2 in product(nodes, nodes):
            if evaluate_where(query.where, self.graph, {a1: n1, a2: n2}, rng):
                out.append((n1, n2))
        return out

    def _column_value(self, ref, aliases, binding):
        node = binding[self._alias_position(ref, aliases)]
        if ref.is_id:
            return node
        attrs = self.graph.node_attrs(node)
        if ref.name in attrs:
            return attrs[ref.name]
        return attrs.get(ref.name.lower())

    def _alias_position(self, ref, aliases):
        if ref.alias is None:
            return 0
        return aliases.index(ref.alias)

    def _evaluate_aggregate(self, agg, aliases, bindings, degrade=None):
        """Map each row binding to its aggregate count.

        Returns ``(values, outcome)``: ``values`` maps bindings to
        counts; ``outcome`` is the :class:`repro.exec.governor.CensusOutcome`
        of a governed single-node census (``None`` for pairwise
        aggregates, which never degrade — a budget failure there raises).
        """
        pattern = self.catalog.get(agg.pattern_name)
        hood = agg.neighborhood
        degrade = self.degrade if degrade is None else degrade

        if hood.kind == "subgraph":
            target = hood.targets[0]
            pos = self._alias_position(target, aliases)
            focal = {binding[pos] for binding in bindings}
            outcome = self._cached(
                ("subgraph", agg.pattern_name, agg.subpattern_name, hood.k,
                 self.algorithm, frozenset(focal)),
                lambda: governed_census(
                    self.graph,
                    pattern,
                    hood.k,
                    focal_nodes=sorted(focal, key=repr),
                    subpattern=agg.subpattern_name,
                    algorithm=self.algorithm,
                    matcher=self.matcher,
                    workers=self.workers,
                    degrade=degrade,
                    seed=self.seed,
                    matches=self._match_provider(agg, pattern),
                ),
            )
            counts = outcome.counts
            return {binding: counts[binding[pos]] for binding in bindings}, outcome

        pos1 = self._alias_position(hood.targets[0], aliases)
        pos2 = self._alias_position(hood.targets[1], aliases)
        pairs = sorted({(b[pos1], b[pos2]) for b in bindings}, key=repr)
        counts = self._cached(
            (hood.kind, agg.pattern_name, agg.subpattern_name, hood.k,
             self.pairwise_algorithm, frozenset(pairs)),
            lambda: pairwise_census(
                self.graph,
                pattern,
                hood.k,
                pairs=pairs,
                mode=hood.kind,
                subpattern=agg.subpattern_name,
                algorithm=self.pairwise_algorithm,
                matcher=self.matcher,
            ),
        )
        return {b: counts[(b[pos1], b[pos2])] for b in bindings}, None

    def _match_provider(self, agg, pattern):
        """A callable returning the aggregate's global match list from
        the match store; ``None`` when the graph has no version to key
        the store by."""
        if not self._versioned:
            return None
        return functools.partial(self._stored_matches, agg, pattern)

    def _stored_matches(self, agg, pattern):
        """The aggregate's global match list, from the match store."""
        return self.match_store.matches(
            self.graph, self.graph_version,
            (agg.pattern_name, self.matcher),
            pattern, self.matcher, distinct=agg.subpattern_name is None,
        )

    def _cached(self, key, compute):
        if not self.cache_enabled:
            return compute()
        # The catalog version invalidates on pattern redefinition; the
        # graph version invalidates on any in-place mutation, so
        # ``cache=True`` plus a mutation without ``refresh_snapshot()``
        # can no longer silently serve pre-mutation counts.
        key = key + (self.catalog.version, self.graph_version)
        obs = current_obs()
        value = self._cache.get(key)
        if value is not None:
            self.cache_hits += 1
            obs.add("query.aggregate_cache.hits", 1)
            return value
        self.cache_misses += 1
        obs.add("query.aggregate_cache.misses", 1)
        value = compute()
        # A degraded (partial) outcome is an estimate under one
        # particular budget failure; never serve it from the cache.
        if not getattr(value, "partial", False):
            self._cache.put(key, value)
            self._cache_gauge()
        return value

    def _cache_gauge(self):
        current_obs().set_gauge("query.aggregate_cache.entries", len(self._cache))

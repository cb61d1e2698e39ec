"""Query plan explanation.

``explain`` renders what the engine *would* do for a SELECT: how focal
rows are produced, which census algorithm the planner picks per
aggregate and why, and the statistics that informed the choice.
``explain_analyze`` additionally *executes* the query under a fresh
observability context and annotates each plan line with the measured
wall-time and operation counts from the execution trace.  Used by
``QueryEngine.explain`` / ``QueryEngine.explain_analyze`` and the CLI.
"""

import random

from repro.census import plan_census
from repro.census.planner import predicted_costs, pvot_loop
from repro.lang.ast import Aggregate
from repro.obs import ObsContext, format_duration
from repro.query.statistics import GraphStatistics


def explain_query(engine, query, root=None):
    """Return a human-readable plan for ``query`` on ``engine``.

    An ``auto`` census is planned as ``execute`` plans it: on the focal
    rows of the query's WHERE (same seed) and the exact match count,
    taken from the engine's match store so a following ``execute``
    reuses the list.  With ``root``, the ``query.execute`` span of a
    finished run, each aggregate shows the plan recorded on its
    ``planner`` span instead, and nothing is planned or matched.
    """
    if isinstance(query, str):
        from repro.lang.parser import parse_query

        query = parse_query(query)

    stats = GraphStatistics(engine.graph)
    lines = []
    if query.is_pair_query:
        aliases = ", ".join(t.alias for t in query.tables)
        lines.append(
            f"SCAN pairs ({aliases}): cross product of {stats.num_nodes} nodes"
            f"{' filtered by WHERE' if query.where is not None else ''}"
        )
    else:
        alias = query.tables[0].alias
        lines.append(
            f"SCAN nodes ({alias}): {stats.num_nodes} nodes"
            f"{' filtered by WHERE' if query.where is not None else ''}"
        )

    bindings = None
    for item in query.columns:
        if not isinstance(item, Aggregate):
            continue
        pattern = engine.catalog.get(item.pattern_name)
        hood = item.neighborhood
        if hood.kind == "subgraph":
            workers = getattr(engine, "workers", 1)
            if engine.algorithm == "auto" and root is not None:
                # A replay never plans: matching here could take as long
                # as the run being explained.
                plan = _recorded_plan(root, item.output_name)
                if plan is None:
                    algorithm = "auto"
                    reason = ("not planned in this run: served from the aggregate "
                              "cache, or stopped before the plan")
                else:
                    algorithm = plan["algorithm"]
                    reason = _planner_reason(pattern, item.subpattern_name, plan)
            elif engine.algorithm == "auto":
                if bindings is None:
                    bindings = _bindings(engine, query)
                plan = _plan_aggregate(engine, item, pattern, bindings, workers)
                algorithm = plan["algorithm"]
                reason = _planner_reason(pattern, item.subpattern_name, plan)
            else:
                algorithm = engine.algorithm
                reason = "pinned by engine configuration"
            parallel = "" if workers == 1 else (
                f", workers={'auto' if workers is None else workers}"
                " (focal chunks over a worker pool)"
            )
            lines.append(
                f"CENSUS {item.output_name}: pattern={pattern.name} "
                f"({len(pattern.nodes)} vars, {len(pattern.positive_edges())} edges, "
                f"{len(pattern.negative_edges())} negated, "
                f"{len(pattern.predicates)} predicates), k={hood.k}, "
                f"algorithm={algorithm}{parallel} [{reason}]"
            )
        else:
            reason = _pairwise_reason(engine.graph, pattern, engine.pairwise_algorithm)
            lines.append(
                f"PAIRWISE CENSUS {item.output_name}: pattern={pattern.name}, "
                f"{hood.kind} of k={hood.k} neighborhoods, "
                f"strategy={engine.pairwise_algorithm} [{reason}]"
            )
        if item.subpattern_name:
            members = pattern.subpatterns[item.subpattern_name]
            lines.append(
                f"  SUBPATTERN {item.subpattern_name}: containment restricted "
                f"to {{{', '.join('?' + m for m in members)}}}"
            )

    if query.order_by:
        keys = ", ".join(
            f"{o.key} {'ASC' if o.ascending else 'DESC'}" for o in query.order_by
        )
        lines.append(f"SORT BY {keys}")
    if query.limit is not None:
        lines.append(f"LIMIT {query.limit}")
    lines.append(
        f"GRAPH: {stats.num_nodes} nodes, {stats.num_edges} edges, "
        f"{stats.num_labels} labels, avg degree {stats.avg_degree:.1f}"
    )
    return "\n".join(lines)


def _bindings(engine, query):
    """The row bindings ``execute`` scans: same WHERE, same seed."""
    aliases = [t.alias for t in query.tables]
    rng = random.Random(engine.seed)
    if query.is_pair_query:
        return aliases, engine._pair_bindings(query, aliases, rng)
    return aliases, engine._node_bindings(query, aliases[0], rng)


def _plan_aggregate(engine, agg, pattern, bindings, workers):
    """Plan one ``auto`` census as ``execute`` does: on the aggregate's
    focal nodes and the match store's list."""
    aliases, rows = bindings
    pos = engine._alias_position(agg.neighborhood.targets[0], aliases)
    focal = sorted({row[pos] for row in rows}, key=repr)
    algorithm, _, _, num_matches = plan_census(
        engine.graph, pattern, agg.neighborhood.k, focal, agg.subpattern_name,
        workers, engine._match_provider(agg, pattern), engine.matcher,
    )
    return {"algorithm": algorithm, "num_matches": num_matches, "focal": len(focal)}


def _recorded_plan(root, output):
    """The ``planner`` span attrs of aggregate ``output`` under ``root``,
    or ``None`` when no plan was made or it did not finish."""
    span = root.find("query.aggregate", output=output)
    planner = span.find("planner") if span is not None else None
    if planner is None or "algorithm" not in planner.attrs:
        return None
    return planner.attrs


def _planner_reason(pattern, subpattern, plan):
    family = ("pattern-driven per-match BFS" if plan["algorithm"] == "pt-bas"
              else "node-driven pivot index")
    if plan["num_matches"] is None:
        return f"F={plan['focal']} focal nodes over parallel workers -> {family}"
    costs = predicted_costs(pattern, plan["num_matches"], plan["focal"], subpattern)
    ranked = ", ".join(f"{name} {cost:.0f}" for name, cost in costs.items())
    return (
        f"M={plan['num_matches']} matches, F={plan['focal']} focal nodes; "
        f"predicted cost ({pvot_loop()} ND-PVOT): {ranked} -> {family}"
    )


def _pairwise_reason(graph, pattern, strategy):
    """Planner reasoning for intersection/union aggregates.

    The engine pins the pairwise strategy (``pairwise_algorithm``); this
    explains what each strategy trades: node-driven materializes one
    combined region per pair and probes the pivot index (cheap when
    matches are plentiful and pairs reuse neighborhoods), pattern-driven
    computes per-match coverage sets once and scans the pair list
    (cheap when matches are scarce relative to the pair count).
    """
    from repro.census.planner import estimate_matches

    expected = estimate_matches(graph, pattern)
    if strategy == "pt":
        return (
            f"~{expected:.0f} expected matches -> per-match coverage sets, "
            "one k-hop BFS per match node"
        )
    return (
        f"~{expected:.0f} expected matches -> per-pair region + pivot-index "
        "probes, neighborhoods cached across pairs"
    )


# Counters worth surfacing per aggregate in EXPLAIN ANALYZE, in display
# order.  Everything else recorded under the aggregate's span subtree is
# still available via ``repro query --profile`` / ``--metrics-out``.
_ANALYZE_COUNTERS = (
    ("match.cn.matches", "matches"),
    ("match.gql.matches", "matches"),
    ("match.cn.candidates_initial", "candidates"),
    ("match.gql.candidates_scanned", "candidates"),
    ("match.cn.pruning_passes", "pruning passes"),
    ("match.gql.refine_passes", "refine passes"),
    ("graph.profile_index.builds", "profile index builds"),
    ("graph.profile_index.reuses", "profile index reuses"),
    ("census.nd_pvot.bulk_added", "bulk added"),
    ("census.pairwise.bulk_added", "bulk added"),
    ("census.nd_pvot.containment_checks", "containment checks"),
    ("census.nd_bas.containment_checks", "containment checks"),
    ("census.pairwise.containment_checks", "containment checks"),
    ("census.nd_pvot.bfs_expansions", "BFS expansions"),
    ("census.nd_pvot.indexed_nodes", "indexed nodes"),
    ("census.nd_bas.subgraphs_extracted", "subgraphs extracted"),
    ("census.nd_diff.restarts", "restarts"),
    ("census.nd_diff.diff_steps", "differential steps"),
    ("census.parallel.chunks", "focal chunks"),
    ("census.parallel.workers", "workers"),
    ("census.parallel.chunk_retries", "chunks retried"),
    ("exec.budget.deadline_exceeded", "deadline exceeded"),
    ("exec.budget.work_exceeded", "work budget exceeded"),
    ("exec.budget.results_exceeded", "result cap exceeded"),
    ("exec.degraded", "degraded to sampling"),
    ("exec.faults.injected", "faults injected"),
    ("census.pt_bas.edge_visits", "edge visits"),
    ("census.pt_opt.edge_visits", "edge visits"),
    ("census.pt_opt.queue_pops", "bucket-queue pops"),
    ("census.pt_opt.relaxations", "relaxations"),
    ("census.pt_opt.clusters", "clusters"),
    ("census.topk.exact_evaluations", "exact evaluations"),
)


def explain_analyze(engine, query):
    """Execute ``query`` and render its plan annotated with actuals.

    Runs the query under a private :class:`repro.obs.ObsContext` (the
    caller's ambient context is untouched), then merges the recorded
    span tree into the static plan: per-stage wall-times, focal row
    counts, per-aggregate match/candidate/pruning counters, aggregate
    cache activity, and page-cache/pager deltas for disk graphs.
    """
    if isinstance(query, str):
        from repro.lang.parser import parse_query

        query = parse_query(query)

    ctx = ObsContext()
    saved_obs = engine.obs
    engine.obs = ctx
    try:
        engine.execute(query)
    finally:
        engine.obs = saved_obs

    root = ctx.roots[0] if ctx.roots else None
    return render_analyzed_plan(engine, query, root)


def render_analyzed_plan(engine, query, root):
    """Annotate ``query``'s plan from an already-recorded trace.

    ``root`` is the ``query.execute`` span of an execution that has
    *already happened* (``None`` renders the static plan); every
    annotation comes from the span tree under it.  This is the replay
    half of ``EXPLAIN ANALYZE``: the serving path's slow-query capture
    uses it to produce a full analyzed plan for the request that was
    just slow, without running the query a second time.
    """
    if isinstance(query, str):
        from repro.lang.parser import parse_query

        query = parse_query(query)
    lines = []
    for line in explain_query(engine, query, root).splitlines():
        lines.append(_annotate_plan_line(line, root))
    if root is not None:
        lines.extend(_execution_summary(root))
    return "\n".join(lines)


def _annotate_plan_line(line, root):
    if root is None:
        return line
    stripped = line.lstrip()
    if stripped.startswith("SCAN "):
        span = root.find("query.scan")
        if span is not None:
            rows = span.attrs.get("rows")
            rows_part = f", rows={rows}" if rows is not None else ""
            return f"{line}  (actual: {format_duration(span.duration)}{rows_part})"
    elif stripped.startswith(("CENSUS ", "PAIRWISE CENSUS ")):
        name = stripped.split(":", 1)[0].rsplit(" ", 1)[-1]
        span = root.find("query.aggregate", output=name)
        if span is not None:
            extra = _aggregate_actuals(span)
            return f"{line}  (actual: {format_duration(span.duration)}{extra})"
    elif stripped.startswith(("SORT BY", "LIMIT ")):
        span = root.find("query.sort_limit")
        if span is not None and stripped.startswith("SORT BY"):
            return f"{line}  (actual: {format_duration(span.duration)})"
    return line


def _aggregate_actuals(span):
    metrics = span.subtree_metrics()
    parts = []
    seen_labels = set()
    for counter, label in _ANALYZE_COUNTERS:
        value = metrics.get(counter)
        if value is None or label in seen_labels:
            continue
        seen_labels.add(label)
        parts.append(f"{label}={value}")
    cached = span.metrics.get("query.aggregate_cache.hits")
    if cached:
        parts.append("served from aggregate cache")
    if metrics.get("query.match_store.hits"):
        parts.append("matches reused from match store")
    if span.attrs.get("partial"):
        parts.append("PARTIAL (budget exhausted, sampled estimate)")
    executed = {c.name for c in span.children if c.name.startswith("census.")}
    if executed:
        parts.append("ran " + "+".join(sorted(executed)))
    loops = sorted({(s.attrs["kernel"], s.attrs.get("index")) for s in span.walk()
                    if s.name == "census.nd_pvot" and "kernel" in s.attrs},
                   key=repr)
    for kernel, index in loops:
        parts.append(f"kernel={kernel}" + (f" over {index} index" if index else ""))
    if not parts:
        return ""
    return "; " + ", ".join(parts)


def _execution_summary(root):
    lines = []
    metrics = root.subtree_metrics()
    hits = metrics.get("query.aggregate_cache.hits", 0)
    misses = metrics.get("query.aggregate_cache.misses", 0)
    if hits or misses:
        lines.append(f"AGGREGATE CACHE: {hits} hits, {misses} misses")
    # One figure set per parallel census, named by its aggregate when
    # the query has several.
    parallel, output = [], None
    for span in root.walk():
        if span.name == "query.aggregate":
            output = span.attrs.get("output")
        elif span.name == "census.parallel":
            chunks = [c.duration for c in span.children
                      if c.name == "census.parallel.chunk"]
            if chunks:
                parallel.append((output, span.attrs, chunks))
    for output, attrs, chunks in parallel:
        label = f"PARALLEL {output}:" if len(parallel) > 1 else "PARALLEL:"
        lines.append(
            f"{label} {attrs.get('chunks', len(chunks))} "
            f"chunks over {attrs.get('workers', '?')} workers; "
            f"per-chunk {format_duration(min(chunks))} min / "
            f"{format_duration(sum(chunks) / len(chunks))} mean / "
            f"{format_duration(max(chunks))} max "
            f"(critical path {format_duration(max(chunks))})"
        )
    storage = {
        name[len("storage."):]: value
        for name, value in metrics.items()
        if name.startswith("storage.")
    }
    if storage:
        pc_hits = storage.get("page_cache.hits", 0)
        pc_misses = storage.get("page_cache.misses", 0)
        looked_up = pc_hits + pc_misses
        rate = f", hit rate {pc_hits / looked_up:.1%}" if looked_up else ""
        lines.append(
            f"STORAGE: page cache {pc_hits} hits / {pc_misses} misses{rate}; "
            f"{storage.get('pager.pages_read', 0)} pages read, "
            f"{storage.get('pager.pages_written', 0)} written"
        )
    exceeded = {
        reason: metrics.get(f"exec.budget.{reason}_exceeded", 0)
        for reason in ("deadline", "work", "results")
    }
    if any(exceeded.values()):
        parts = ", ".join(
            f"{reason} exceeded {count}x"
            for reason, count in exceeded.items() if count
        )
        degraded = metrics.get("exec.degraded", 0)
        suffix = (
            f"; {degraded} aggregate(s) degraded to sampling"
            if degraded else "; no degradation (query failed or retried)"
        )
        lines.append(f"BUDGET: {parts}{suffix}")
    retries = metrics.get("census.parallel.chunk_retries", 0)
    if retries:
        lines.append(
            f"FAULTS: {metrics.get('census.parallel.worker_crashes', 0)} "
            f"worker crash event(s), {retries} chunk(s) retried serially"
        )
    stage_total = sum(c.duration for c in root.children)
    lines.append(
        f"TOTAL: {format_duration(root.duration)} "
        f"({format_duration(stage_total)} in instrumented stages)"
    )
    return lines

"""Command-line interface.

Subcommands:

- ``generate`` — write a synthetic benchmark graph to a JSON file,
- ``stats`` — print a one-screen summary of a graph file,
- ``query`` — run a pattern census script against a graph file,
- ``bulkload`` — convert a JSON graph into a disk-resident store,
- ``topk`` — print the K egos with the most matches of a pattern,
- ``serve`` — run the concurrent census query daemon (see
  :mod:`repro.server`).

Examples::

    python -m repro generate --model pa --nodes 2000 --labels 4 out.json
    python -m repro query out.json -e "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes LIMIT 5"
    python -m repro topk out.json --pattern clq3 --radius 2 -k 10
"""

import argparse
import sys

from repro.errors import BudgetExceeded
from repro.graph.generators import (
    erdos_renyi,
    labeled_preferential_attachment,
    preferential_attachment,
    watts_strogatz,
)
from repro.graph.io import load_json, save_json


def _load_graph(path):
    if str(path).endswith(".db"):
        from repro.storage import DiskGraph

        return DiskGraph.open(path)
    return load_json(path)


def _make_obs(args):
    """An ObsContext when ``--profile``/``--metrics-out`` asked for one."""
    if not (getattr(args, "profile", False) or getattr(args, "metrics_out", None)):
        return None
    from repro.obs import ObsContext

    return ObsContext()


def _emit_obs(obs, args, out):
    """Print the span tree / write the metrics file after a profiled run."""
    if obs is None:
        return
    from repro.obs import to_json, to_prometheus

    if getattr(args, "profile", False):
        print("-- profile " + "-" * 50, file=out)
        print(obs.report(), file=out)
    path = getattr(args, "metrics_out", None)
    if path:
        if args.metrics_format == "prometheus":
            text = to_prometheus(obs.registry)
        else:
            text = to_json(obs.registry, indent=2)
        with open(path, "w") as f:
            f.write(text)
        print(f"wrote metrics to {path}", file=out)


def _add_profile_flags(sub):
    sub.add_argument("--profile", action="store_true",
                     help="print the execution trace and counter table")
    sub.add_argument("--metrics-out", metavar="PATH",
                     help="write collected metrics to a file")
    sub.add_argument("--metrics-format", choices=("json", "prometheus"),
                     default="json")


def _cmd_generate(args, out):
    if args.model == "pa":
        if args.labels > 0:
            graph = labeled_preferential_attachment(
                args.nodes, m=args.m, num_labels=args.labels, seed=args.seed
            )
        else:
            graph = preferential_attachment(args.nodes, m=args.m, seed=args.seed)
    elif args.model == "er":
        graph = erdos_renyi(args.nodes, args.m * args.nodes, seed=args.seed)
    elif args.model == "ws":
        graph = watts_strogatz(args.nodes, k=2 * args.m, seed=args.seed)
    else:
        raise SystemExit(f"unknown model {args.model!r}")
    save_json(graph, args.output)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.output}",
          file=out)
    return 0


def _cmd_stats(args, out):
    from repro.query.statistics import GraphStatistics

    graph = _load_graph(args.graph)
    for key, value in GraphStatistics(graph).summary().items():
        print(f"{key}: {value}", file=out)
    return 0


def _cmd_query(args, out):
    from repro.query.engine import QueryEngine

    graph = _load_graph(args.graph)
    obs = _make_obs(args)
    if args.workers == 0:  # 0 = auto (CPU count)
        args.workers = None
    engine = QueryEngine(
        graph,
        seed=args.seed,
        algorithm=args.algorithm,
        pairwise_algorithm=args.pairwise_algorithm,
        matcher=args.matcher,
        cache=args.cache,
        obs=obs,
        backend=args.backend,
        workers=args.workers,
        timeout=args.timeout,
        max_ops=args.budget,
        max_results=args.max_results,
        degrade=args.degrade,
    )
    if args.execute:
        script = args.execute
    else:
        with open(args.script) as f:
            script = f.read()
    try:
        for table in engine.execute_script(script):
            print(table.render(max_rows=args.max_rows), file=out)
            print(file=out)
    except BudgetExceeded as exc:
        hint = (" (even the sampling fallback exceeded its grace budget)"
                if args.degrade
                else " (rerun with --degrade for a partial estimate)")
        print(f"error: {exc}{hint}", file=out)
        _emit_obs(obs, args, out)
        return 2
    _emit_obs(obs, args, out)
    return 0


def _cmd_serve(args, out):
    from repro.server import CensusServer

    graph = _load_graph(args.graph)
    catalog = None
    if args.patterns:
        from repro.lang.catalog import standard_catalog
        from repro.lang.parser import parse_script
        from repro.matching.pattern import Pattern

        catalog = standard_catalog()
        with open(args.patterns) as f:
            for statement in parse_script(f.read()):
                if not isinstance(statement, Pattern):
                    raise SystemExit(
                        "--patterns file may only contain PATTERN statements"
                    )
                catalog.register(statement)
    server = CensusServer(
        graph,
        catalog=catalog,
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers if args.workers != 0 else None,
        algorithm=args.algorithm,
        pairwise_algorithm=args.pairwise_algorithm,
        matcher=args.matcher,
        seed=args.seed,
        cache=not args.no_cache,
        timeout=args.timeout,
        max_ops=args.budget,
        max_results=args.max_results,
        degrade=args.degrade,
        max_active=args.max_active,
        queue_depth=args.queue_depth,
        retry_after=args.retry_after,
        maintain=args.maintain,
        maintain_k=args.maintain_k,
        trace_sample_rate=args.trace_sample_rate,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
        trace_buffer=args.trace_buffer,
        slow_buffer=args.slow_buffer,
    )
    print(f"serving {args.graph} on http://{server.host}:{server.port} "
          f"(graph version {server.state.version}); SIGTERM drains", file=out)
    out.flush()
    server.run()
    print("drained; bye", file=out)
    return 0


def _cmd_bulkload(args, out):
    from repro.storage import DiskGraph

    graph = load_json(args.graph)
    store = DiskGraph.create(args.output, graph)
    store.close()
    print(f"bulk-loaded {graph.num_nodes} nodes / {graph.num_edges} edges "
          f"into {args.output}", file=out)
    return 0


def _cmd_explain(args, out):
    from repro.query.engine import QueryEngine

    graph = _load_graph(args.graph)
    engine = QueryEngine(
        graph, algorithm=args.algorithm, backend=args.backend,
        workers=args.workers if args.workers != 0 else None,
    )
    print(engine.explain(args.query), file=out)
    return 0


def _cmd_topk(args, out):
    from repro.census.topk import census_topk
    from repro.lang.catalog import standard_catalog
    from repro.obs import ObsContext

    graph = _load_graph(args.graph)
    pattern = standard_catalog().get(args.pattern)
    # The header reads the exact-evaluation counter, so the run always
    # records into a context; it is emitted only when one was asked for.
    obs = _make_obs(args) or ObsContext()
    with obs:
        top = census_topk(graph, pattern, args.radius, args.k)
    evaluated = obs.registry.counter("census.topk.exact_evaluations").value
    print(f"top {args.k} egos for {args.pattern} within {args.radius} hops "
          f"({evaluated} exact evaluations):", file=out)
    for node, count in top:
        print(f"  {node}: {count}", file=out)
    _emit_obs(obs, args, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="Ego-centric graph pattern census toolkit"
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None, help="enable stderr logging at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("output")
    gen.add_argument("--model", choices=("pa", "er", "ws"), default="pa")
    gen.add_argument("--nodes", type=int, default=1000)
    gen.add_argument("--m", type=int, default=5)
    gen.add_argument("--labels", type=int, default=4,
                     help="0 for an unlabeled graph")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="summarize a graph file")
    stats.add_argument("graph")
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser("query", help="run a census script")
    query.add_argument("graph")
    query.add_argument("script", nargs="?",
                       help="script file (or use -e)")
    query.add_argument("-e", "--execute", help="inline statement(s)")
    query.add_argument("--algorithm", default="auto")
    query.add_argument("--pairwise-algorithm", choices=("nd", "pt"), default="nd",
                       help="strategy for intersection/union aggregates")
    query.add_argument("--matcher", choices=("cn", "gql", "bruteforce"),
                       default="cn", help="subgraph matching method")
    query.add_argument("--backend", choices=("dict", "csr"), default="dict",
                       help="graph backend: query as-is, or freeze into a "
                            "read-optimized CSR snapshot first")
    query.add_argument("--workers", type=int, default=1,
                       help="parallel census workers (0 = CPU count); "
                            "focal nodes are chunked over a process pool")
    query.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="wall-clock deadline per statement; exceeding it "
                            "raises BudgetExceeded (or degrades with --degrade)")
    query.add_argument("--budget", type=int, default=None, metavar="OPS",
                       help="cooperative work-operation cap per statement")
    query.add_argument("--max-results", type=int, default=None, metavar="N",
                       help="cap on matches/rows materialized per statement")
    query.add_argument("--degrade", action="store_true",
                       help="on budget exhaustion fall back to the sampling "
                            "estimator and mark results partial")
    query.add_argument("--cache", action="store_true",
                       help="cache aggregate results across statements")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--max-rows", type=int, default=20)
    _add_profile_flags(query)
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser("serve", help="run the census query daemon")
    serve.add_argument("graph")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 picks a free port (printed at startup)")
    serve.add_argument("--algorithm", default="auto")
    serve.add_argument("--pairwise-algorithm", choices=("nd", "pt"), default="nd")
    serve.add_argument("--matcher", choices=("cn", "gql", "bruteforce"),
                       default="cn")
    serve.add_argument("--backend", choices=("dict", "csr"), default="csr",
                       help="a serving process defaults to CSR snapshots")
    serve.add_argument("--workers", type=int, default=1,
                       help="parallel census workers per query (0 = CPU count)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the version-keyed aggregate cache")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="default wall-clock deadline per request")
    serve.add_argument("--budget", type=int, default=None, metavar="OPS",
                       help="default work-operation cap per request")
    serve.add_argument("--max-results", type=int, default=None, metavar="N",
                       help="default materialized-result cap per request")
    serve.add_argument("--degrade", action="store_true",
                       help="degrade blown budgets to partial estimates "
                            "(200 with partial:true) by default")
    serve.add_argument("--max-active", type=int, default=4,
                       help="requests executing concurrently")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests allowed to wait for a slot; beyond "
                            "this the server answers 429")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       help="Retry-After seconds suggested on 429")
    serve.add_argument("--maintain", default=None, metavar="PATTERN",
                       help="maintain an incremental census of this catalog "
                            "pattern; updates refresh it in place and "
                            "GET /counts serves it")
    serve.add_argument("--maintain-k", type=int, default=2, metavar="K",
                       help="radius of the maintained census")
    serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="fraction of requests (0..1) whose full span tree "
                            "is retained for GET /debug/traces")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="capture requests slower than this to GET "
                            "/debug/slow with their EXPLAIN ANALYZE plan "
                            "(default: disabled)")
    serve.add_argument("--slow-query-log", default=None, metavar="FILE",
                       help="append captured slow queries to this JSONL file")
    serve.add_argument("--trace-buffer", type=int, default=256, metavar="N",
                       help="retained-trace ring-buffer capacity")
    serve.add_argument("--slow-buffer", type=int, default=64, metavar="N",
                       help="slow-query ring-buffer capacity")
    serve.add_argument("--patterns", default=None, metavar="FILE",
                       help="script of PATTERN statements to preload")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_cmd_serve)

    bulk = sub.add_parser("bulkload", help="convert JSON graph to a disk store")
    bulk.add_argument("graph")
    bulk.add_argument("output")
    bulk.set_defaults(func=_cmd_bulkload)

    explain = sub.add_parser("explain", help="show the plan for a SELECT")
    explain.add_argument("graph")
    explain.add_argument("query")
    explain.add_argument("--algorithm", default="auto")
    explain.add_argument("--backend", choices=("dict", "csr"), default="dict")
    explain.add_argument("--workers", type=int, default=1,
                         help="parallel census workers (0 = CPU count)")
    explain.set_defaults(func=_cmd_explain)

    topk = sub.add_parser("topk", help="highest-count egos for a catalog pattern")
    topk.add_argument("graph")
    topk.add_argument("--pattern", default="clq3-unlb")
    topk.add_argument("--radius", type=int, default=2)
    topk.add_argument("-k", type=int, default=10)
    _add_profile_flags(topk)
    topk.set_defaults(func=_cmd_topk)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    if args.command == "query" and not args.execute and not args.script:
        parser.error("query needs a script file or -e STATEMENT")
    return args.func(args, out)


if __name__ == "__main__":
    raise SystemExit(main())

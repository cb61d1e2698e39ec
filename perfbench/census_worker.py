"""Load generator of the census workloads: one process, closed loop.

It runs no checking code.  It loads the graph with ``load_json``, runs a
warm-up query, prints ``ready <warm-up result>`` and waits for a line on
stdin: ``stop`` ends it (a set-up-only start), ``go`` starts the timed
loop.  Each timed query builds a new ``QueryEngine`` and executes one
statement, as one ``repro query`` call does.  After every RELOAD_EVERY
queries it re-reads the graph file, the one-shot counterpart of an
update.  Results, latencies and peak memory go to the ``--out`` file for
the parent to check.
"""

import argparse
import gc
import json
import sys
from time import perf_counter

from common import own_peak_rss_mib, use_repro
from inputs import WARMUP, census_queries

BACKENDS = {"census-unlabeled": "csr", "census-labeled": "dict"}
#: Queries between two timed re-reads of the graph file.
RELOAD_EVERY = 4


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BACKENDS))
    parser.add_argument("--graph", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    use_repro()
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    import repro.graph.io as graph_io
    from repro.obs import ObsContext
    from repro.query.engine import QueryEngine

    backend = BACKENDS[args.workload]
    graph = graph_io.load_json(args.graph)
    warm = QueryEngine(graph, backend=backend).execute(WARMUP[args.workload].text)
    print("ready " + json.dumps({"columns": warm.columns,
                                 "rows": [list(r) for r in warm.rows]}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    obs = ObsContext() if tracer is not None else None

    def run_one(i, text):
        if tracer is not None:
            tracer.tag(i)
        return QueryEngine(graph, backend=backend, obs=obs).execute(text)

    if tracer is not None:
        run_one = tracer.wrap("bench.op", run_one)

    reloads = []

    def reload():
        """Time one re-read of the graph file; return the seconds spent,
        collection included, which stay off the query loop's clock.

        Each read starts on a fully collected heap: the collector's phase
        otherwise moves a read by 2x from one sample to the next.
        """
        started = perf_counter()
        gc.collect()
        t0 = perf_counter()
        reloaded = graph_io.load_json(args.graph)
        reloads.append({"latency_s": perf_counter() - t0,
                        "nodes": reloaded.num_nodes, "edges": reloaded.num_edges})
        return perf_counter() - started

    done = []
    paused = 0.0
    start = perf_counter()
    for i, template in enumerate(census_queries(args.workload, args.seed)):
        if perf_counter() - start - paused >= args.seconds:
            break
        t0 = perf_counter()
        table = run_one(i, template.text)
        done.append((i, perf_counter() - t0, table))
        if len(done) % RELOAD_EVERY == 0:
            paused += reload()
    elapsed = perf_counter() - start - paused

    result = {
        "elapsed_s": elapsed,
        "peak_rss_mib": own_peak_rss_mib(),
        "reloads": reloads,
        "ops": [{"i": i, "latency_s": lat, "columns": table.columns,
                 "rows": [list(r) for r in table.rows]} for i, lat, table in done],
    }
    if obs is not None:
        result["counters"] = obs.registry.snapshot()["counters"]
    with open(args.out, "w") as f:
        json.dump(result, f)
    if tracer is not None:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())

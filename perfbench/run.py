"""The benchmark command: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

- ``census-unlabeled``: one-shot ``clq3-unlb`` queries on a 2000-node
  unlabeled graph, CSR backend, a new ``QueryEngine`` per query;
- ``census-labeled``: one-shot ``clq3``/``sqr``/``path2`` queries on a
  500-node 4-label graph, dict backend, ``auto`` planner;
- ``serve-mixed``: ``repro serve`` with default flags over the unlabeled
  graph, driven over one persistent HTTP/1.1 connection with repeated
  queries and add/remove edge updates.

Every answer is checked against :mod:`oracle` and against the query's
ORDER BY / LIMIT, every served answer against the latest update's graph
version and against the first answer to the same query at that version.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics.  The exit code is 1 when any
operation failed, 2 when the run could not be carried out.
"""

import argparse
import http.client
import json
import re
import signal
import subprocess
import sys
from time import perf_counter, sleep

from common import HERE, ROOT, SRC, WORK, median, peak_rss_mib
from inputs import (
    LABELED_NODES,
    UNLABELED_NODES,
    WARMUP,
    census_queries,
    serve_schedule,
    update_batches,
    workload_graph,
    write_graph,
)
from oracle import Oracle, self_check
from tracing import handler_seconds, layer_metrics, read_spans

WORKLOADS = ("census-unlabeled", "census-labeled", "serve-mixed")

#: Complete set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds a child process may take beyond the measured phase.
GRACE_S = 120

with open(ROOT / "BENCHMARK.json") as _f:
    _SPEC = json.load(_f)
#: Metric name -> unit, in BENCHMARK.json order.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

WORK_COUNTERS = ("census.nd_pvot.containment_checks", "census.pt_opt.queue_pops")


class BenchError(Exception):
    """The run could not be carried out (no result is printed)."""


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {'; '.join(problems[:3])}")


def check_rows(template, columns, rows, counts):
    """Problems with one query answer, judged against oracle counts."""
    if columns != ["ID", "c"]:
        return [f"columns {columns} != ['ID', 'c']"]
    problems = []
    if len(rows) != template.limit:
        problems.append(f"{len(rows)} rows, LIMIT {template.limit}")
    ids = [row[0] for row in rows]
    if len(set(ids)) != len(ids):
        problems.append("duplicate IDs")
    for node, c in rows:
        if not isinstance(node, int) or not 0 <= node < len(counts):
            problems.append(f"unknown node {node!r}")
        elif c != counts[node]:
            problems.append(f"node {node}: count {c}, oracle {counts[node]}")
    keys = [(-c, node) for node, c in rows]
    if keys != sorted(keys):
        problems.append("rows break ORDER BY c DESC, ID ASC")
    if template.p >= 1.0:
        # Every node passes the WHERE, so the answer is the exact top.
        top = sorted((-c, node) for node, c in enumerate(counts))[:template.limit]
        if keys != top:
            problems.append("rows are not the top LIMIT nodes")
    return problems


def ms(seconds):
    return None if seconds is None else 1e3 * seconds


# ----------------------------------------------------------------------
# census-unlabeled / census-labeled
# ----------------------------------------------------------------------
def run_census(workload, seed, seconds, trace, tally):
    labeled = workload == "census-labeled"
    num_nodes = LABELED_NODES if labeled else UNLABELED_NODES
    labels, edges = workload_graph(num_nodes, labeled, seed)
    stem = WORK / f"{workload}-{seed}-trace{trace}"
    graph_path = stem.with_suffix(".graph.json")
    out_path = stem.with_suffix(".result.json")
    spans_path = stem.with_suffix(".spans.jsonl")
    write_graph(graph_path, num_nodes, labels, edges)
    cmd = [sys.executable, str(HERE / "census_worker.py"), "--workload", workload,
           "--graph", str(graph_path), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out_path), "--spans", str(spans_path)]

    setups, warmups = [], []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        started = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            if not line.startswith("ready "):
                raise BenchError(f"{workload} worker did not start")
            setups.append(perf_counter() - started)
            warmups.append(json.loads(line[len("ready "):]))
            proc.stdin.write("go\n" if last else "stop\n")
            proc.stdin.close()
            proc.wait(timeout=seconds + GRACE_S if last else GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited with {proc.returncode}")
    with open(out_path) as f:
        result = json.load(f)
    graph_path.unlink()

    oracle = Oracle(num_nodes, edges, labels)
    warm = WARMUP[workload]
    for doc in warmups:
        problems = check_rows(warm, doc["columns"], doc["rows"],
                              oracle.counts(warm.pattern, warm.k))
        if problems:
            raise BenchError(f"warm-up answer wrong: {problems[:3]}")

    ops = result["ops"]
    templates = census_queries(workload, seed)
    query_lat, repeat_lat = [], []
    seen = set()
    for op, template in zip(ops, templates):
        tally.record(f"query #{op['i']} {template.text}",
                     check_rows(template, op["columns"], op["rows"],
                                oracle.counts(template.pattern, template.k)))
        query_lat.append(op["latency_s"])
        if template.text in seen:
            repeat_lat.append(op["latency_s"])
        seen.add(template.text)

    # No census query outlives its engine and nothing updates the graph:
    # every query is a first answer of its engine, a repeat is a query
    # whose text already ran on an earlier engine, and the update figure
    # is the graph load that a one-shot caller repeats after changing
    # the graph file.
    loads = []
    for reload in result["reloads"]:
        problems = []
        if (reload["nodes"], reload["edges"]) != (num_nodes, len(edges)):
            problems.append(f"reloaded {reload['nodes']} nodes / {reload['edges']} "
                            f"edges, wrote {num_nodes} / {len(edges)}")
        tally.record("graph reload", problems)
        loads.append(reload["latency_s"])
    samples = {
        "setup_s": (median(setups), len(setups)),
        "ops_per_s": (len(ops) / result["elapsed_s"], len(ops)),
        "query_p50_ms": (ms(median(query_lat)), len(query_lat)),
        "repeat_query_p50_ms": (ms(median(repeat_lat)), len(repeat_lat)),
        "update_p50_ms": (ms(median(loads)), len(loads)),
        "peak_rss_mib": (result["peak_rss_mib"], 1),
    }
    if not trace:
        return samples
    records = read_spans(spans_path)
    layers = layer_metrics(records, [op["i"] for op in ops])
    n = max(1, len(ops))
    for name in WORK_COUNTERS:
        layers[name] = result["counters"].get(name, 0) / n
    layers["query.cache_hit_ratio"] = 0.0
    layers["server.http_wait_ms"] = 0.0
    layers["trace.ops_per_s"] = len(ops) / result["elapsed_s"]
    return {name: (value, len(ops)) for name, value in layers.items()}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Connection:
    """One persistent HTTP/1.1 connection; times each exchange from the
    first byte sent to the last byte of the response read."""

    def __init__(self, host, port):
        self.conn = http.client.HTTPConnection(host, port, timeout=GRACE_S)

    def call(self, method, path, body=None, content_type=None):
        headers = {"Content-Type": content_type} if body is not None else {}
        started = perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        payload = resp.read()
        latency = perf_counter() - started
        try:
            doc = json.loads(payload)
        except ValueError:
            doc = None
        return resp.status, doc, latency

    def close(self):
        self.conn.close()


def start_daemon(graph_path, trace, spans_path):
    cmd = [sys.executable, str(HERE / "serve_launcher.py"), "--trace", str(trace),
           "--spans", str(spans_path), "--", str(graph_path), "--port", "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    found = re.search(r"http://([\d.]+):(\d+)", line)
    if not found:
        stop_daemon(proc)
        raise BenchError(f"repro serve did not start: {line.strip()!r}")
    return proc, found.group(1), int(found.group(2))


def stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def wait_healthy(host, port, timeout=GRACE_S):
    deadline = perf_counter() + timeout
    while True:
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("GET", "/health")
            resp = conn.getresponse()
            body = resp.read()
            if resp.status == 200:
                return json.loads(body)
        except OSError:
            pass
        finally:
            conn.close()
        if perf_counter() > deadline:
            raise BenchError("repro serve never answered /health")
        sleep(0.005)


def counter_values(conn):
    status, doc, _ = conn.call("GET", "/metrics?format=json")
    if status != 200 or doc is None:
        raise BenchError(f"/metrics answered {status}")
    return doc["counters"]


def run_serve(seed, seconds, trace, tally):
    labels, edges = workload_graph(UNLABELED_NODES, False, seed)
    batches = update_batches(UNLABELED_NODES, edges, seed)
    stem = WORK / f"serve-mixed-{seed}-trace{trace}"
    graph_path = stem.with_suffix(".graph.json")
    spans_path = stem.with_suffix(".spans.jsonl")
    write_graph(graph_path, UNLABELED_NODES, labels, edges)

    # One oracle per graph state: the base graph, or it plus one batch.
    oracles = {}

    def oracle_for(state):
        if state not in oracles:
            extra = batches[state] if state is not None else []
            oracles[state] = Oracle(UNLABELED_NODES, edges + extra)
        return oracles[state]

    warm = WARMUP["serve-mixed"]
    setups = []
    proc = conn = None
    try:
        for attempt in range(SETUPS):
            if proc is not None:
                conn.close()
                stop_daemon(proc)
            started = perf_counter()
            proc, host, port = start_daemon(graph_path, trace, spans_path)
            health = wait_healthy(host, port)
            conn = Connection(host, port)
            status, doc, _ = conn.call("POST", "/query", warm.text.encode(), "text/plain")
            setups.append(perf_counter() - started)
            if status != 200:
                raise BenchError(f"warm-up query answered {status}: {doc}")
            problems = check_rows(warm, doc["columns"], doc["rows"],
                                  oracle_for(None).counts(warm.pattern, warm.k))
            if problems:
                raise BenchError(f"warm-up answer wrong: {problems[:3]}")
        before = counter_values(conn)

        version = health["graph_version"]
        state = None
        answered = set()
        ops = []
        start = perf_counter()
        deadline = start + seconds
        for op in serve_schedule(seed):
            if perf_counter() >= deadline:
                break
            if op[0] == "update":
                _, batch, action = op
                kind = "add_edge" if action == "add" else "remove_edge"
                body = json.dumps({"ops": [{"op": kind, "u": u, "v": v}
                                           for u, v in batches[batch]]}).encode()
                status, doc, latency = conn.call("POST", "/update", body,
                                                 "application/json")
                ops.append({"kind": "update", "status": status, "doc": doc,
                            "latency_s": latency, "after": version})
                if status == 200:
                    version = doc["graph_version"]
                    state = batch if action == "add" else None
                    answered = set()
            else:
                template = op[1]
                status, doc, latency = conn.call("POST", "/query",
                                                 template.text.encode(), "text/plain")
                ops.append({"kind": "query", "template": template, "status": status,
                            "doc": doc, "latency_s": latency, "version": version,
                            "state": state, "repeat": template.text in answered})
                answered.add(template.text)
        elapsed = perf_counter() - start
        after = counter_values(conn)
        peak_rss = peak_rss_mib(proc.pid)
    finally:
        if conn is not None:
            conn.close()
        if proc is not None:
            stop_daemon(proc)
    graph_path.unlink()

    first_answer = {}
    query_lat, repeat_lat, update_lat = [], [], []
    for i, op in enumerate(ops):
        status, doc = op["status"], op["doc"]
        if op["kind"] == "update":
            problems = []
            if status != 200:
                problems.append(f"status {status}: {doc}")
            elif not doc["graph_version"] > op["after"]:
                problems.append(f"version {doc['graph_version']} after {op['after']}")
            tally.record(f"update #{i}", problems)
            update_lat.append(op["latency_s"])
            continue
        template = op["template"]
        if status != 200:
            problems = [f"status {status}: {doc}"]
        elif doc["graph_version"] != op["version"]:
            problems = [f"graph_version {doc['graph_version']}, latest update "
                        f"made {op['version']}"]
        else:
            counts = oracle_for(op["state"]).counts(template.pattern, template.k)
            problems = check_rows(template, doc["columns"], doc["rows"], counts)
            key = (op["version"], template.text)
            if key in first_answer and first_answer[key] != doc["rows"]:
                problems.append("repeat answer differs from the first")
            first_answer.setdefault(key, doc["rows"])
        tally.record(f"query #{i} {template.text}", problems)
        (repeat_lat if op["repeat"] else query_lat).append(op["latency_s"])

    samples = {
        "setup_s": (median(setups), len(setups)),
        "ops_per_s": (len(ops) / elapsed, len(ops)),
        "query_p50_ms": (ms(median(query_lat)), len(query_lat)),
        "repeat_query_p50_ms": (ms(median(repeat_lat)), len(repeat_lat)),
        "update_p50_ms": (ms(median(update_lat)), len(update_lat)),
        "peak_rss_mib": (peak_rss, 1),
    }
    if not trace:
        return samples
    records = read_spans(spans_path)
    request_ids = [op["doc"]["request_id"] for op in ops if op["status"] == 200]
    layers = layer_metrics(records, request_ids)
    handled = handler_seconds(records)
    waits = [op["latency_s"] - handled[op["doc"]["request_id"]]
             for op in ops if op["status"] == 200]
    layers["server.http_wait_ms"] = ms(sum(waits) / len(waits)) if waits else 0.0
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in (*WORK_COUNTERS, "query.aggregate_cache.hits",
                          "query.aggregate_cache.misses")}
    n = max(1, len(ops))
    for name in WORK_COUNTERS:
        layers[name] = delta[name] / n
    lookups = delta["query.aggregate_cache.hits"] + delta["query.aggregate_cache.misses"]
    layers["query.cache_hit_ratio"] = (
        delta["query.aggregate_cache.hits"] / lookups if lookups else 0.0)
    layers["trace.ops_per_s"] = len(ops) / elapsed
    return {name: (value, len(ops)) for name, value in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    failures = self_check()
    if failures:
        print("oracle self-check failed: " + "; ".join(failures), file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    try:
        if args.workload == "serve-mixed":
            samples = run_serve(args.seed, args.seconds, args.trace, tally)
        else:
            samples = run_census(args.workload, args.seed, args.seconds, args.trace, tally)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if samples.get(name, (None,))[0] is None]
    if missing:
        print(f"perfbench: {args.workload}: no samples for {missing}", file=sys.stderr)
        return 2
    for message in tally.messages:
        print("FAILED " + message, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    for name, unit in wanted.items():
        value, count = samples[name]
        print(f"  {name:36s} {value:14.4f} {unit:6s} samples={count}")
    for name in samples.keys() - wanted.keys():
        value, count = samples[name]
        if value is not None:
            print(f"  {name:36s} {value:14.4f} {'':6s} samples={count} "
                  "(not in BENCHMARK.json)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": samples[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())

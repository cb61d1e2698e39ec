"""CI smoke test for the census daemon (``repro serve``).

Boots the real process, then drives the serving contract end to end:

1. ~32 concurrent queries, most of them duplicates, so request
   coalescing is actually exercised (checked via ``/metrics``);
2. responses cross-checked against a serial ``QueryEngine`` on the
   same graph — before and after an update batch, at the version each
   response names;
3. telemetry under load: every response names its request, a sampled
   trace is retrievable at ``/debug/traces/<id>`` with stitched
   per-chunk spans (the server runs ``--workers 2``), slow queries
   (``--slow-query-ms 1``) land in ``/debug/slow`` with an
   EXPLAIN ANALYZE plan and in the JSONL log, and ``/debug/requests``
   stays well-formed while the burst is in flight;
4. kept-alive connections: sequential requests over one HTTP/1.1
   connection must be answered correctly and without a per-response
   stall (a delayed-ACK wait shows up as ~40 ms per request);
5. a ``/metrics`` scrape that must contain the ``server.*`` family,
   the match-store counters (the update repaired the stored match
   list) and cumulative labeled latency-histogram buckets;
6. ``SIGTERM``, which must drain cleanly: exit code 0, in-flight work
   finished;
7. a second daemon with ``--maintain clq3-unlb --maintain-k 1``: after a
   query on that pattern and an update batch, ``GET /counts`` must equal
   a serial engine's column on the updated graph, ``/health`` must
   report maintained embeddings and ``/metrics`` the match-store repair.

When ``REPRO_SMOKE_ARTIFACTS`` names a directory, the slow-query JSONL
and the final metrics scrape are copied there (CI uploads them as
workflow artifacts).

Stdlib only; exits non-zero with a message on the first violation.

Usage: PYTHONPATH=src python scripts/server_smoke.py
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERY = ("SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 2)) AS c "
         "FROM nodes ORDER BY c DESC, ID ASC LIMIT 5")
UPDATE = {"ops": [{"op": "add_edge", "u": 1, "v": 199},
                  {"op": "add_edge", "u": 2, "v": 198}]}
MAINTAINED_QUERY = "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c FROM nodes"


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def post(base, path, doc):
    req = urllib.request.Request(
        f"{base}{path}", data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(base, path):
    with urllib.request.urlopen(f"{base}{path}", timeout=60) as resp:
        return resp.read().decode()


def serial_rows(graph_path, ops_batches):
    """What a serial engine answers after replaying ``ops_batches``."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.graph.io import load_json
    from repro.query.engine import QueryEngine

    graph = load_json(graph_path)
    engine = QueryEngine(graph, cache=False)
    expected = {graph.version: [list(r) for r in engine.execute(QUERY).rows]}
    for batch in ops_batches:
        for op in batch["ops"]:
            graph.add_edge(op["u"], op["v"])
        expected[graph.version] = [list(r) for r in engine.execute(QUERY).rows]
    return expected


def start_daemon(graph_path, *flags):
    """Boot ``repro serve`` on a free port; returns (process, base URL,
    first /health document)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(graph_path),
         "--port", "0", *flags],
        env={"PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        print(banner)
        if "http://" not in banner:
            fail(f"unexpected serve banner: {banner!r}")
        base = "http://" + banner.split("http://")[1].split(" ")[0]
        deadline = time.monotonic() + 30
        while True:
            try:
                return proc, base, json.loads(get(base, "/health"))
            except OSError:
                if time.monotonic() > deadline:
                    fail("daemon never became healthy")
                time.sleep(0.1)
    except BaseException:
        proc.kill()
        raise


def drain(proc):
    """SIGTERM ``proc``, which must drain and exit 0."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        fail("daemon did not exit within 60s of SIGTERM")
    tail = proc.stdout.read()
    if code != 0:
        fail(f"daemon exited {code} after SIGTERM:\n{tail}")
    if "drained" not in tail:
        fail(f"daemon exited without reporting a drain:\n{tail}")


def maintained_phase(graph_path):
    """A ``--maintain`` daemon: after a query on the maintained pattern
    and an update batch, ``/counts`` must equal a serial engine's
    column on the updated graph, computed from the shared, repaired
    match list."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.graph.io import load_json
    from repro.query.engine import QueryEngine

    graph = load_json(graph_path)
    ops = [{"op": "add_edge", "u": 3, "v": 197},
           {"op": "add_edge", "u": 197, "v": 4},
           {"op": "add_edge", "u": 3, "v": 4},
           {"op": "remove_edge", "u": 10, "v": min(graph.neighbors(10))}]
    for op in ops:
        getattr(graph, op["op"])(op["u"], op["v"])
    expected = {repr(n): c for n, c in
                QueryEngine(graph).execute(MAINTAINED_QUERY).rows}

    proc, base, _ = start_daemon(graph_path, "--maintain", "clq3-unlb",
                                 "--maintain-k", "1")
    try:
        status, doc = post(base, "/query", {"query": MAINTAINED_QUERY})
        if status != 200:
            fail(f"query on the maintained pattern failed: {doc}")
        status, doc = post(base, "/update", {"ops": ops})
        if status != 200:
            fail(f"update under --maintain failed: {doc}")
        counts = json.loads(get(base, "/counts"))
        if counts["graph_version"] != doc["graph_version"]:
            fail(f"/counts at version {counts['graph_version']}, "
                 f"update answered {doc['graph_version']}")
        if counts["counts"] != expected:
            wrong = sorted(n for n in expected if counts["counts"].get(n) != expected[n])
            fail(f"maintained counts differ from a serial engine at {wrong[:5]}")
        health = json.loads(get(base, "/health"))
        if not health.get("maintained_embeddings", 0) > 0:
            fail(f"/health reports no maintained embeddings: {health}")
        metrics = get(base, "/metrics")
        if "repro_query_match_store_repairs_total" not in metrics:
            fail("/metrics shows no match-store repair after the update")
        drain(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
    print(f"maintained census ok ({len(expected)} counts after the update, "
          f"{health['maintained_embeddings']} embeddings)")


def main():
    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    graph_path = tmp / "g.json"
    slow_log = tmp / "slow.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro", "generate", str(graph_path),
         "--nodes", "200", "--m", "3", "--seed", "4"],
        check=True, env={"PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
    )
    expected = serial_rows(graph_path, [UPDATE])

    # --no-cache so duplicate suppression can only come from request
    # coalescing, which is what this smoke is for.  --workers 2 so
    # served traces must contain stitched per-chunk spans; sampling at
    # 1.0 and a 1ms slow threshold so the debug endpoints have
    # something to serve.
    proc, base, health = start_daemon(
        graph_path, "--max-active", "2", "--queue-depth", "64",
        "--no-cache", "--workers", "2",
        "--trace-sample-rate", "1", "--slow-query-ms", "1",
        "--slow-query-log", str(slow_log),
    )
    try:
        v0 = health["graph_version"]
        if v0 not in expected:
            fail(f"initial version {v0} unknown to the serial replay")

        # -- concurrent duplicate queries: coalescing + consistency ----
        results = []
        inflight_polls = []
        lock = threading.Lock()
        burst_done = threading.Event()

        def one_query():
            status, doc = post(base, "/query", {"query": QUERY})
            with lock:
                results.append((status, doc))

        def poll_inflight():
            # /debug/requests must answer well-formed documents while
            # the burst is actually executing.
            while not burst_done.is_set():
                doc = json.loads(get(base, "/debug/requests"))
                with lock:
                    inflight_polls.append(doc)
                time.sleep(0.02)

        poller = threading.Thread(target=poll_inflight)
        poller.start()
        threads = [threading.Thread(target=one_query) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        burst_done.set()
        poller.join(timeout=30)
        if len(results) != 32:
            fail(f"only {len(results)}/32 concurrent queries completed")
        statuses = sorted({status for status, _ in results})
        if statuses != [200]:
            fail(f"expected every concurrent query to succeed, got {statuses}")
        for _, doc in results:
            if doc["graph_version"] != v0:
                fail(f"pre-update response at version {doc['graph_version']}")
            if doc["rows"] != expected[v0]:
                fail(f"wrong rows at version {v0}: {doc['rows']}")
            if len(doc.get("request_id") or "") != 16:
                fail(f"response without a request_id: {doc.keys()}")
            if not doc.get("trace_id", "").startswith(doc["request_id"]):
                fail("trace_id does not extend request_id")
            if doc.get("sampled") is not True:
                fail("sample rate 1.0 but response not marked sampled")
        coalesced = sum(doc["coalesced"] for _, doc in results)
        print(f"32 concurrent queries ok, {coalesced} coalesced")

        for doc in inflight_polls:
            if not isinstance(doc.get("in_flight"), list):
                fail(f"/debug/requests malformed under load: {doc}")
            for entry in doc["in_flight"]:
                if "request_id" not in entry or "age_ms" not in entry:
                    fail(f"in-flight entry missing fields: {entry}")
        seen_inflight = max(
            (len(doc["in_flight"]) for doc in inflight_polls), default=0
        )
        print(f"/debug/requests polled {len(inflight_polls)}x under load, "
              f"peak {seen_inflight} in flight")

        # -- sampled trace retrieval + stitched chunk spans ------------
        # Coalesced followers execute nothing, so only a leader's trace
        # holds execution spans.
        request_id = next(doc["request_id"] for _, doc in results
                          if not doc["coalesced"])
        listing = json.loads(get(base, "/debug/traces"))
        listed = {t["request_id"] for t in listing["traces"]}
        if request_id not in listed:
            fail(f"request {request_id} missing from /debug/traces")
        trace = json.loads(get(base, f"/debug/traces/{request_id}"))
        names = set()

        def walk(span):
            names.add(span["name"])
            for child in span["children"]:
                walk(child)

        walk(trace["spans"])
        for needle in ("server.request", "query.execute"):
            if needle not in names:
                fail(f"served trace lacks the {needle} span: {sorted(names)}")
        # The leader of the burst ran the census with --workers 2, so at
        # least one retained trace must carry stitched per-chunk spans.
        stitched = False
        for summary in listing["traces"]:
            doc = json.loads(get(base, f"/debug/traces/{summary['request_id']}"))
            chunk_names = set()
            walk_target = doc.get("spans")
            if walk_target:
                stack = [walk_target]
                while stack:
                    span = stack.pop()
                    chunk_names.add(span["name"])
                    stack.extend(span["children"])
            if "census.parallel.chunk" in chunk_names:
                stitched = True
                break
        if not stitched:
            fail("no retained trace carries stitched census.parallel.chunk spans")
        print("sampled trace retrieved with stitched per-chunk spans")

        # -- slow-query capture ----------------------------------------
        slow = json.loads(get(base, "/debug/slow"))
        if not slow["slow"]:
            fail("1ms slow threshold captured nothing from a census burst")
        record = slow["slow"][0]
        if not record.get("plan") or "CENSUS" not in record["plan"]:
            fail(f"slow record lacks an EXPLAIN ANALYZE plan: {record.get('plan')!r}")
        if not slow_log.exists() or not slow_log.read_text().strip():
            fail(f"slow-query JSONL log {slow_log} is empty")
        for line in slow_log.read_text().splitlines():
            parsed = json.loads(line)
            if "request_id" not in parsed or "duration_ms" not in parsed:
                fail(f"slow-log line missing fields: {sorted(parsed)}")
        print(f"slow-query capture ok ({len(slow['slow'])} in ring, "
              f"{len(slow_log.read_text().splitlines())} logged)")

        # -- update, then verify the new version is served -------------
        status, doc = post(base, "/update", UPDATE)
        if status != 200:
            fail(f"update failed: {doc}")
        v1 = doc["graph_version"]
        if v1 not in expected or v1 == v0:
            fail(f"post-update version {v1} unknown to the serial replay")
        status, doc = post(base, "/query", {"query": QUERY})
        if status != 200 or doc["graph_version"] != v1:
            fail(f"post-update query did not see version {v1}: {doc}")
        if doc["rows"] != expected[v1]:
            fail(f"stale rows served after update: {doc['rows']}")
        print(f"update applied, version {v0} -> {v1}, fresh rows served")

        # -- kept-alive connection -------------------------------------
        host, port = base[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request("POST", "/query", body=json.dumps({"query": QUERY}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            if resp.status != 200 or doc["rows"] != expected[v1]:
                fail(f"kept-alive query answered {resp.status}: {doc}")
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", "/health")
                resp = conn.getresponse()
                resp.read()
                latencies.append(time.perf_counter() - started)
                if resp.status != 200:
                    fail(f"kept-alive /health answered {resp.status}")
        finally:
            conn.close()
        latencies.sort()
        median_ms = 1e3 * latencies[len(latencies) // 2]
        if median_ms > 20:
            fail(f"kept-alive requests stall: median {median_ms:.1f} ms per /health")
        print(f"kept-alive connection ok (median {median_ms:.1f} ms per /health)")

        # -- metrics scrape --------------------------------------------
        metrics = get(base, "/metrics")
        for needle in ("repro_server_requests_total",
                       "repro_server_coalesced_total",
                       "repro_server_updates_total 1",
                       "repro_server_graph_version",
                       "repro_query_match_store_misses_total",
                       "repro_query_match_store_hits_total",
                       "repro_query_match_store_repairs_total 1",
                       "repro_query_match_store_entries 1"):
            if needle not in metrics:
                fail(f"/metrics is missing {needle!r}")
        scraped = next(
            int(line.split()[1]) for line in metrics.splitlines()
            if line.startswith("repro_server_coalesced_total ")
        )
        if scraped != coalesced:
            fail(f"coalesced counter {scraped} != responses marked {coalesced}")
        if coalesced == 0:
            fail("no query coalesced; the duplicate burst did not overlap")
        for needle in ('repro_server_request_seconds_bucket{',
                       'le="+Inf"',
                       'repro_server_request_seconds_sum{',
                       'repro_server_request_seconds_count{',
                       'endpoint="query"'):
            if needle not in metrics:
                fail(f"/metrics lacks labeled latency histograms: {needle!r}")
        print("metrics scrape ok (labeled latency buckets present)")

        # -- artifact export for CI ------------------------------------
        artifacts = os.environ.get("REPRO_SMOKE_ARTIFACTS")
        if artifacts:
            out = Path(artifacts)
            out.mkdir(parents=True, exist_ok=True)
            (out / "metrics.prom").write_text(metrics)
            (out / "slow.jsonl").write_text(slow_log.read_text())
            (out / "traces.json").write_text(json.dumps(listing, indent=2))
            print(f"artifacts exported to {out}")

        # -- graceful drain --------------------------------------------
        drain(proc)
        print("SIGTERM drained cleanly")
        maintained_phase(graph_path)
        print("server smoke: OK")
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    main()

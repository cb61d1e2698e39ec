"""Serving-path telemetry over real HTTP.

Covers the observable contracts of the request-tracing work: response
documents name their request, sampled traces are retrievable with
stitched per-chunk spans from parallel runs, slow queries surface at
``/debug/slow`` with a replayed ``EXPLAIN ANALYZE`` plan, in-flight
requests are visible mid-execution, coalesced bursts record latency
exactly once per execution, and a 10k-request soak leaves the daemon's
metric cardinality and span population flat.
"""

import gc
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph.generators import preferential_attachment
from repro.obs import Span, format_duration
from repro.obs.metrics import split_label_key
from repro.server import CensusServer

QUERY = ("SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c "
         "FROM nodes ORDER BY c DESC, ID ASC LIMIT 5")


def get(srv, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{srv.port}{path}", timeout=30
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(srv, path, doc):
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}",
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def server(request):
    started = []

    def boot(graph=None, **kwargs):
        if graph is None:
            graph = preferential_attachment(30, m=2, seed=7)
        kwargs.setdefault("port", 0)
        srv = CensusServer(graph, **kwargs).start()
        started.append(srv)
        return srv

    yield boot
    for srv in started:
        srv.drain(timeout=10)


def span_names(doc):
    names = set()

    def walk(span):
        names.add(span["name"])
        for child in span["children"]:
            walk(child)

    walk(doc)
    return names


class TestRequestIdentity:
    def test_response_names_its_request(self, server):
        srv = server(trace_sample_rate=1.0)
        status, doc = post(srv, "/query", {"query": QUERY})
        assert status == 200
        assert len(doc["request_id"]) == 16
        assert doc["trace_id"].startswith(doc["request_id"])
        assert doc["sampled"] is True

    def test_update_response_named_too(self, server):
        srv = server()
        status, doc = post(srv, "/update",
                           {"ops": [{"op": "add_edge", "u": 1, "v": 25}]})
        assert status == 200
        assert len(doc["request_id"]) == 16

    def test_unsampled_request_still_has_id(self, server):
        srv = server(trace_sample_rate=0.0)
        status, doc = post(srv, "/query", {"query": QUERY})
        assert status == 200
        assert doc["sampled"] is False
        status, _ = get(srv, f"/debug/traces/{doc['request_id']}")
        assert status == 404


class TestDebugTraces:
    def test_trace_tree_served_by_id(self, server):
        srv = server(trace_sample_rate=1.0)
        _, doc = post(srv, "/query", {"query": QUERY})
        status, listing = get(srv, "/debug/traces")
        assert status == 200
        assert listing["sample_rate"] == 1.0
        assert doc["request_id"] in [t["request_id"] for t in listing["traces"]]
        status, trace = get(srv, f"/debug/traces/{doc['request_id']}")
        assert status == 200
        names = span_names(trace["spans"])
        assert "server.request" in names
        assert "query.execute" in names
        assert trace["status"] == 200
        assert trace["query"] is not None

    def test_parallel_run_shows_stitched_chunk_spans(self, server):
        # The acceptance bar: a workers>1 pool run's served trace
        # contains per-chunk spans with the census work inside them.
        srv = server(graph=preferential_attachment(60, m=3, seed=3),
                     trace_sample_rate=1.0, workers=2, cache=False)
        _, doc = post(srv, "/query", {"query": QUERY})
        _, trace = get(srv, f"/debug/traces/{doc['request_id']}")
        names = span_names(trace["spans"])
        assert "census.parallel" in names
        assert "census.parallel.chunk" in names
        rebuilt = Span.from_dict(trace["spans"])
        chunk = rebuilt.find("census.parallel.chunk")
        assert chunk.find("census.nd_pvot") is not None or any(
            c.name.startswith("census.") for c in chunk.walk()
        )

    def test_planner_choice_in_metrics_and_trace(self, server):
        # The default daemon (CSR, auto) plans every clq3-unlb query to
        # ND-PVOT; the pick is a /metrics counter and the trace's
        # planner span says why.
        srv = server(trace_sample_rate=1.0)
        _, doc = post(srv, "/query", {"query": QUERY})
        _, trace = get(srv, f"/debug/traces/{doc['request_id']}")
        planner = Span.from_dict(trace["spans"]).find("planner")
        assert planner.attrs["algorithm"] == "nd-pvot"
        assert planner.attrs["focal"] == 30
        assert planner.attrs["num_matches"] > 0
        _, metrics = get(srv, "/metrics?format=json")
        assert metrics["counters"]["planner.chose.nd_pvot"] == 1
        assert "planner.chose.pt_bas" not in metrics["counters"]

    def test_unknown_trace_is_404(self, server):
        srv = server(trace_sample_rate=1.0)
        status, doc = get(srv, "/debug/traces/deadbeefdeadbeef")
        assert status == 404
        assert "error" in doc


class TestDebugSlow:
    def test_slow_query_captured_with_plan(self, server, tmp_path):
        log = tmp_path / "slow.jsonl"
        srv = server(trace_sample_rate=0.0, slow_query_ms=0.0,
                     slow_query_log=str(log), cache=False)
        _, doc = post(srv, "/query", {"query": QUERY})
        status, slow = get(srv, "/debug/slow")
        assert status == 200
        assert slow["slow_query_ms"] == 0.0
        captured = {r["request_id"]: r for r in slow["slow"]}
        record = captured[doc["request_id"]]
        assert "CENSUS" in record["plan"]
        assert "actual:" in record["plan"]
        assert record["spans"] is not None
        on_disk = [json.loads(line) for line in log.read_text().splitlines()]
        assert doc["request_id"] in {r["request_id"] for r in on_disk}

    def test_parallel_plan_line_matches_chunk_spans(self, server):
        # The slow plan's PARALLEL line is rendered from the request's own
        # census.parallel.chunk spans, so its figures are theirs.
        srv = server(graph=preferential_attachment(60, m=3, seed=3),
                     slow_query_ms=0.0, workers=2, cache=False)
        _, doc = post(srv, "/query", {"query": QUERY})
        _, slow = get(srv, "/debug/slow")
        record = {r["request_id"]: r for r in slow["slow"]}[doc["request_id"]]
        chunks = [s.duration for s in Span.from_dict(record["spans"]).walk()
                  if s.name == "census.parallel.chunk"]
        assert len(chunks) == 2
        lo, mean, hi = (format_duration(x)
                        for x in (min(chunks), sum(chunks) / 2, max(chunks)))
        line = next(ln for ln in record["plan"].splitlines()
                    if ln.startswith("PARALLEL:"))
        assert line == (f"PARALLEL: 2 chunks over 2 workers; per-chunk {lo} min / "
                        f"{mean} mean / {hi} max (critical path {hi})")

    def test_fast_queries_not_captured(self, server):
        srv = server(slow_query_ms=60_000.0)
        post(srv, "/query", {"query": QUERY})
        _, slow = get(srv, "/debug/slow")
        assert slow["slow"] == []

    def test_capture_disabled_by_default(self, server):
        srv = server()
        post(srv, "/query", {"query": QUERY})
        _, slow = get(srv, "/debug/slow")
        assert slow["slow"] == []


class TestDebugRequests:
    def test_in_flight_visible_while_executing(self, server):
        gate = threading.Event()
        release = threading.Event()

        srv = server(trace_sample_rate=0.0)
        original = srv.engine.execute

        def gated(query, **kwargs):
            gate.set()
            release.wait(timeout=30)
            return original(query, **kwargs)

        srv.engine.execute = gated
        try:
            worker = threading.Thread(
                target=post, args=(srv, "/query", {"query": QUERY}),
            )
            worker.start()
            assert gate.wait(timeout=30)
            status, doc = get(srv, "/debug/requests")
            assert status == 200
            live = doc["in_flight"]
            assert len(live) == 1
            assert len(live[0]["request_id"]) == 16
            assert live[0]["endpoint"] == "query"
            assert live[0]["age_ms"] >= 0
            assert live[0]["current_span"] is not None
        finally:
            release.set()
            worker.join(timeout=30)
        status, doc = get(srv, "/debug/requests")
        assert doc["in_flight"] == []


class TestCoalescedTimingExactlyOnce:
    def test_burst_records_one_execution_and_n_minus_one_waits(self, server):
        # Regression for timer double-counting: a coalesced burst must
        # land exactly one server.request_seconds observation (the
        # leader's) and one span.query.execute timing, with followers
        # contributing only coalesced-wait observations and hits.
        srv = server(graph=preferential_attachment(60, m=3, seed=3),
                     cache=False, max_active=8, queue_depth=64)
        gate = threading.Event()
        orig = srv.engine.execute

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return orig(*args, **kwargs)

        srv.engine.execute = gated
        n = 8
        results = []
        lock = threading.Lock()

        def one():
            status, doc = post(srv, "/query", {"query": QUERY})
            with lock:
                results.append((status, doc))

        threads = [threading.Thread(target=one) for _ in range(n)]
        for t in threads:
            t.start()
        # Release the leader only once the whole burst joined its flight.
        deadline = time.monotonic() + 30
        while (sum(f.followers for f in srv.coalescer._flights.values()) < n - 1
               and time.monotonic() < deadline):
            time.sleep(0.005)
        gate.set()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == n
        assert all(status == 200 for status, _ in results)
        coalesced = sum(doc["coalesced"] for _, doc in results)
        executions = n - coalesced
        assert coalesced >= 1, "burst did not overlap; nothing was tested"
        assert coalesced == n - 1

        snap = srv.registry.snapshot()
        request_count = 0
        wait_count = 0
        hits = 0
        for key, hist in snap["histograms"].items():
            name, labels = split_label_key(key)
            if name == "server.request_seconds":
                assert labels["endpoint"] == "query"
                request_count += hist["count"]
            elif name == "server.coalesced_wait_seconds":
                wait_count += hist["count"]
        for key, value in snap["counters"].items():
            if split_label_key(key)[0] == "server.coalesced_hits":
                hits += value
        assert request_count == executions
        assert wait_count == coalesced
        assert hits == coalesced
        # Engine-level timing recorded once per actual execution, never
        # re-recorded by followers.
        assert snap["histograms"]["span.query.execute"]["count"] == executions


class TestBoundedness:
    def test_10k_requests_leave_daemon_memory_flat(self, server):
        # The telemetry soak: metric cardinality and retained-object
        # counts must not grow with request count.
        srv = server(graph=preferential_attachment(10, m=2, seed=1),
                     trace_sample_rate=1.0, trace_buffer=32, slow_buffer=8,
                     cache=False)
        query = {"query": "SELECT ID FROM nodes LIMIT 2"}

        def drive(n):
            for _ in range(n):
                status, _ = post(srv, "/query", query)
                assert status == 200

        drive(200)  # warm up every metric name this workload can create
        gc.collect()
        cardinality_before = len(srv.registry)
        spans_before = sum(
            isinstance(o, Span) for o in gc.get_objects()
        )

        drive(10_000)
        gc.collect()
        cardinality_after = len(srv.registry)
        spans_after = sum(
            isinstance(o, Span) for o in gc.get_objects()
        )

        assert cardinality_after == cardinality_before
        assert len(srv.telemetry.traces) == 32
        # Retained Span objects are bounded by the ring buffers, not the
        # request count; allow slack for in-flight allocation noise.
        assert spans_after <= spans_before + 200
        # Ring evicts FIFO: the newest request is retained, the earliest
        # are long gone.
        summaries = srv.telemetry.trace_summaries()
        assert len(summaries) == 32
        status, _ = get(srv, f"/debug/traces/{summaries[0]['request_id']}")
        assert status == 200

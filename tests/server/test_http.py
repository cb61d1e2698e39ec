"""Integration tests for the census daemon over real HTTP.

Each test boots a :class:`CensusServer` on a free port with the handler
threads of the stdlib ``ThreadingHTTPServer`` — the same stack
``repro serve`` runs — and talks to it with ``urllib``.  The last test
is the serving differential: concurrent mixed query/update traffic must
match a serial engine replaying the same update sequence, with no stale
version ever served.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph import Graph
from repro.graph.generators import preferential_attachment
from repro.query.engine import QueryEngine
from repro.server import CensusServer

QUERY = ("SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c "
         "FROM nodes ORDER BY c DESC, ID ASC LIMIT 5")


def get(srv, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{srv.port}{path}", timeout=30
    ) as resp:
        return resp.status, dict(resp.headers), resp.read()


def post(srv, path, doc=None, headers=None, raw=None, content_type=None):
    body = raw if raw is not None else json.dumps(doc).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}",
        data=body,
        headers={"Content-Type": content_type or "application/json",
                 **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


@pytest.fixture
def server(request):
    """Factory fixture: boot a server, drain it on teardown."""
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


def wait_until(predicate, timeout=10):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestEndpoints:
    def test_health_names_version_and_load(self, server):
        srv = server()
        status, _, body = get(srv, "/health")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["graph_version"] == srv.engine.graph_version
        assert doc["active"] == 0

    def test_query_matches_direct_engine_execution(self, server):
        graph = preferential_attachment(30, m=2, seed=7)
        srv = server(graph)
        status, _, doc = post(srv, "/query", {"query": QUERY})
        assert status == 200
        expected = QueryEngine(
            preferential_attachment(30, m=2, seed=7), backend="csr"
        ).execute(QUERY)
        assert doc["columns"] == expected.columns
        assert doc["rows"] == [list(r) for r in expected.rows]
        assert doc["graph_version"] == srv.engine.graph_version
        assert doc["coalesced"] is False

    def test_text_plain_query_body(self, server):
        srv = server()
        status, _, doc = post(
            srv, "/query", raw=QUERY.encode(), content_type="text/plain"
        )
        assert status == 200
        assert doc["columns"] == ["ID", "c"]

    def test_update_bumps_version_and_invalidates(self, server):
        graph = Graph()
        for i in range(3):
            graph.add_edge(i, i + 1)  # a path: no triangles anywhere
        srv = server(graph)
        q = ("SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c "
             "FROM nodes ORDER BY ID")
        _, _, before = post(srv, "/query", {"query": q})
        assert all(c == 0 for _, c in before["rows"])

        status, _, upd = post(srv, "/update", {"ops": [
            {"op": "add_edge", "u": 0, "v": 2},
        ]})
        assert status == 200
        assert upd["applied"] == 1
        assert upd["graph_version"] == before["graph_version"] + 1

        _, _, after = post(srv, "/query", {"query": q})
        assert after["graph_version"] == upd["graph_version"]
        counts = dict(after["rows"])
        assert counts[1] == 1, "triangle 0-1-2 must be visible immediately"

    def test_error_statuses(self, server):
        srv = server()
        assert post(srv, "/query", {"query": "SELEC"})[0] == 400
        assert post(srv, "/query", {"q": QUERY})[0] == 400
        assert post(srv, "/update", {"ops": []})[0] == 400
        assert post(srv, "/update", {"ops": [{"op": "warp", "node": 1}]})[0] == 400
        assert post(srv, "/nope", {})[0] == 404
        status, _, _ = get(srv, "/health")
        assert status == 200
        try:
            get(srv, "/nowhere")
            assert False, "expected 404"
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_metrics_exposition(self, server):
        srv = server()
        post(srv, "/query", {"query": QUERY})
        status, headers, body = get(srv, "/metrics")
        text = body.decode()
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_server_requests_total" in text
        assert "repro_server_graph_version" in text

    def test_counts_endpoint_requires_maintained(self, server):
        srv = server()
        assert get(srv, "/health")[0] == 200
        try:
            get(srv, "/counts")
            assert False, "expected 404"
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_maintained_census_serves_fresh_counts(self, server):
        graph = Graph()
        for i in range(3):
            graph.add_edge(i, i + 1)
        srv = server(graph, maintain="clq3-unlb", maintain_k=1)
        _, _, body = get(srv, "/counts")
        doc = json.loads(body)
        assert all(c == 0 for c in doc["counts"].values())
        post(srv, "/update", {"ops": [{"op": "add_edge", "u": 0, "v": 2}]})
        _, _, body = get(srv, "/counts")
        doc = json.loads(body)
        assert doc["counts"]["1"] > 0, "maintained counts follow updates"
        health = json.loads(get(srv, "/health")[2])
        assert health["maintained_embeddings"] > 0


class TestGovernedServing:
    def test_blown_budget_is_503_with_hint(self, server):
        srv = server()
        status, _, doc = post(
            srv, "/query", {"query": QUERY, "budget": {"max_ops": 3}}
        )
        assert status == 503
        assert "degrade" in doc["hint"]

    def test_degrade_turns_blown_budget_into_partial_200(self, server):
        srv = server()
        status, _, doc = post(
            srv, "/query",
            {"query": QUERY, "budget": {"max_ops": 3}, "degrade": True},
        )
        assert status == 200
        assert doc["partial"] is True
        assert doc["notes"]
        metrics = get(srv, "/metrics")[2].decode()
        assert "repro_server_partial_total 1" in metrics

    def test_header_budget_overrides(self, server):
        srv = server()
        status, _, doc = post(
            srv, "/query", {"query": QUERY},
            headers={"X-Repro-Max-Ops": "3", "X-Repro-Degrade": "on"},
        )
        assert status == 200
        assert doc.get("partial") is True


class TestConcurrency:
    def _gate_engine(self, srv):
        """Make engine execution block on an event we control."""
        gate = threading.Event()
        entered = threading.Event()
        orig = srv.engine.execute

        def gated(*args, **kwargs):
            entered.set()
            assert gate.wait(timeout=30)
            return orig(*args, **kwargs)

        srv.engine.execute = gated
        return gate, entered

    def test_saturation_answers_429_with_retry_after(self, server):
        srv = server(max_active=1, queue_depth=0, retry_after=3.0)
        gate, entered = self._gate_engine(srv)
        results = []
        t = threading.Thread(
            target=lambda: results.append(post(srv, "/query", {"query": QUERY}))
        )
        t.start()
        assert entered.wait(timeout=10)

        status, headers, doc = post(srv, "/query", {"query": "SELECT ID FROM nodes"})
        assert status == 429
        assert headers["Retry-After"] == "3"
        assert "saturated" in doc["error"]

        gate.set()
        t.join(timeout=30)
        assert results[0][0] == 200
        metrics = get(srv, "/metrics")[2].decode()
        assert "repro_server_rejected_total 1" in metrics

    def test_coalesced_duplicates_execute_census_once(self, server):
        # Cache off: any duplicate that is NOT coalesced would re-run
        # the census and show up in the census.match_units counter.
        srv = server(cache=False, max_active=8, queue_depth=8)
        counters = srv.registry

        def census_runs():
            return counters.counter("census.match_units").value

        post(srv, "/query", {"query": QUERY})  # warm-up, un-coalesced
        runs_per_query = census_runs()
        assert runs_per_query > 0

        gate = threading.Event()
        orig = srv.engine.execute

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return orig(*args, **kwargs)

        srv.engine.execute = gated

        n = 6
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(post(srv, "/query", {"query": QUERY}))
            )
            for _ in range(n)
        ]
        for t in threads:
            t.start()
        # Release the leader only once every duplicate joined its flight.
        assert wait_until(
            lambda: sum(f.followers for f in srv.coalescer._flights.values())
            == n - 1
        )
        gate.set()
        for t in threads:
            t.join(timeout=30)

        assert [status for status, _, _ in results] == [200] * n
        assert sum(doc["coalesced"] for _, _, doc in results) == n - 1
        assert census_runs() == 2 * runs_per_query, (
            "six concurrent duplicates must run the census exactly once"
        )
        assert counters.counter("server.coalesced").value == n - 1

    def test_drain_finishes_in_flight_then_refuses(self, server):
        srv = server()
        gate, entered = self._gate_engine(srv)
        results = []
        t = threading.Thread(
            target=lambda: results.append(post(srv, "/query", {"query": QUERY}))
        )
        t.start()
        assert entered.wait(timeout=10)

        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(srv.drain(timeout=30))
        )
        drainer.start()
        assert wait_until(lambda: srv.draining)

        status, _, doc = post(srv, "/query", {"query": QUERY})
        assert status == 503
        assert "draining" in doc["error"]

        gate.set()
        t.join(timeout=30)
        drainer.join(timeout=30)
        assert results[0][0] == 200, "in-flight work finishes during drain"
        assert drained == [True]


class TestDifferential:
    """The acceptance bar: concurrent serving == serial engine replay."""

    def test_concurrent_mixed_traffic_matches_serial_execution(self, server):
        make = lambda: preferential_attachment(30, m=2, seed=11)  # noqa: E731

        # Serial twin: replay the update batches on an identical graph,
        # recording the exact expected table at every version.
        batches = [
            [{"op": "add_edge", "u": 3, "v": 17}],
            [{"op": "add_edge", "u": 5, "v": 23},
             {"op": "add_edge", "u": 5, "v": 29}],
            [{"op": "remove_edge", "u": 3, "v": 17}],
            [{"op": "add_node", "node": 30},
             {"op": "add_edge", "u": 30, "v": 0},
             {"op": "add_edge", "u": 30, "v": 1}],
            [{"op": "add_edge", "u": 2, "v": 19}],
        ]
        twin = make()
        twin_engine = QueryEngine(twin, cache=False)
        expected = {twin.version: twin_engine.execute(QUERY)}
        for batch in batches:
            for op in batch:
                if op["op"] == "add_edge":
                    twin.add_edge(op["u"], op["v"])
                elif op["op"] == "remove_edge":
                    twin.remove_edge(op["u"], op["v"])
                elif op["op"] == "add_node":
                    twin.add_node(op["node"])
            expected[twin.version] = twin_engine.execute(QUERY)
        expected = {
            version: [list(r) for r in table.rows]
            for version, table in expected.items()
        }
        assert len(expected) == len(batches) + 1, "every batch changed the version"

        srv = server(make(), max_active=8, queue_depth=32)
        responses = []
        lock = threading.Lock()
        stop = threading.Event()
        failures = []

        def query_loop():
            try:
                while not stop.is_set():
                    status, _, doc = post(srv, "/query", {"query": QUERY})
                    assert status == 200, doc
                    with lock:
                        responses.append((doc["graph_version"], doc["rows"]))
            except Exception as exc:  # surfaced below, not swallowed
                failures.append(exc)

        def update_loop():
            try:
                for batch in batches:
                    time.sleep(0.02)
                    status, _, doc = post(srv, "/update", {"ops": batch})
                    assert status == 200, doc
            except Exception as exc:
                failures.append(exc)
            finally:
                stop.set()

        queriers = [threading.Thread(target=query_loop) for _ in range(4)]
        updater = threading.Thread(target=update_loop)
        for t in queriers:
            t.start()
        updater.start()
        updater.join(timeout=60)
        stop.set()
        for t in queriers:
            t.join(timeout=60)

        assert not failures, failures
        assert responses, "query threads produced no traffic"
        versions_seen = {version for version, _ in responses}
        assert versions_seen <= set(expected), (
            "a response named a version no serial replay ever produced "
            "(a torn mid-batch read)"
        )
        for version, rows in responses:
            assert rows == expected[version], (
                f"stale or wrong result served at version {version}"
            )
        # The final state converged: one last query sees the last batch.
        _, _, final = post(srv, "/query", {"query": QUERY})
        assert final["graph_version"] == max(expected)
        assert final["rows"] == expected[max(expected)]


def raw_exchange(srv, request_bytes, timeout=5):
    """Send raw request bytes; return (status, everything the server sent
    until it closed the connection)."""
    import socket

    with socket.create_connection(("127.0.0.1", srv.port), timeout=timeout) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    return int(data.split(b" ", 2)[1]), data


class TestConnectionHandling:
    def test_kept_alive_requests_do_not_stall(self, server):
        # Headers and body are written separately; with Nagle's
        # algorithm on, every response on a reused connection waited for
        # the client's delayed ACK (~40 ms).
        import http.client

        srv = server()
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
        body = json.dumps({"query": QUERY}).encode()
        latencies = []
        try:
            for _ in range(12):
                started = time.perf_counter()
                conn.request("POST", "/query", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                latencies.append(time.perf_counter() - started)
        finally:
            conn.close()
        steady = sorted(latencies[2:])  # the first ones compute and cache
        assert steady[len(steady) // 2] < 0.02, latencies

    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "+5", "0x10"])
    def test_bad_content_length_is_400(self, server, length):
        srv = server()
        status, data = raw_exchange(
            srv, b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + length.encode() + b"\r\n\r\n",
        )
        assert status == 400
        assert b"Content-Length" in data
        assert b"Connection: close" in data

    def test_oversized_body_is_413_before_reading(self, server):
        from repro.server.app import MAX_BODY_BYTES

        srv = server()
        # The body is never sent: the answer must not wait for it.
        status, data = raw_exchange(
            srv, b"POST /update HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n",
        )
        assert status == 413
        assert b"Connection: close" in data
        assert get(srv, "/health")[0] == 200

    def test_body_at_the_cap_is_read(self, server):
        from repro.server.app import MAX_BODY_BYTES

        srv = server()
        body = json.dumps({"query": QUERY}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, _, doc = post(srv, "/query", raw=body)
        assert status == 200, doc


class TestMatchStoreServing:
    def test_store_metrics_and_repaired_answers(self, server):
        graph = preferential_attachment(40, m=3, seed=5)
        twin = preferential_attachment(40, m=3, seed=5)
        srv = server(graph)
        queries = [QUERY.replace("SUBGRAPH(ID, 1)", f"SUBGRAPH(ID, {k})")
                   for k in (1, 2)]
        for q in queries:
            assert post(srv, "/query", {"query": q})[0] == 200
        ops = [{"op": "add_edge", "u": 0, "v": 39},
               {"op": "remove_edge", "u": 1, "v": 3}]
        assert twin.has_edge(1, 3) and not twin.has_edge(0, 39)
        assert post(srv, "/update", {"ops": ops})[0] == 200
        twin.add_edge(0, 39)
        twin.remove_edge(1, 3)
        for q in queries:
            status, _, doc = post(srv, "/query", {"query": q})
            assert status == 200
            assert doc["rows"] == [list(r) for r in QueryEngine(twin).execute(q).rows]
        counters = json.loads(get(srv, "/metrics?format=json")[2])["counters"]
        assert counters["query.match_store.misses"] == 1
        assert counters["query.match_store.hits"] == 3
        assert counters["query.match_store.repairs"] == 1
        text = get(srv, "/metrics")[2].decode()
        assert "repro_query_match_store_entries 1" in text
        assert "repro_query_aggregate_cache_entries" in text

    def test_maintained_census_shares_the_queried_entry(self, server):
        # With --maintain P and P queried, P has one embedding set: the
        # census reads the engine's entry and the batch repairs it once.
        from repro.census import census

        graph = preferential_attachment(40, m=3, seed=5)
        srv = server(graph, maintain="clq3-unlb", maintain_k=1)
        assert srv.state.maintained.store is srv.engine.match_store
        assert post(srv, "/query", {"query": QUERY})[0] == 200
        ops = [{"op": "add_edge", "u": 0, "v": 39},
               {"op": "remove_edge", "u": 1, "v": 3}]
        assert post(srv, "/update", {"ops": ops})[0] == 200
        counters = json.loads(get(srv, "/metrics?format=json")[2])["counters"]
        # The query hit the entry the census stored at start-up, and
        # neither the update nor the census refresh matched again.
        assert "query.match_store.misses" not in counters
        assert counters["query.match_store.repairs"] == 1
        assert len(srv.engine.match_store) == 1
        counts = json.loads(get(srv, "/counts")[2])["counts"]
        expected = census(graph, srv.engine.catalog.get("clq3-unlb"), 1,
                          algorithm="nd-bas")
        assert counts == {repr(n): c for n, c in expected.items()}
        health = json.loads(get(srv, "/health")[2])
        assert health["maintained_embeddings"] == srv.state.maintained.num_embeddings() > 0

    def test_cli_patterns_redefining_the_maintained_pattern(self, tmp_path, monkeypatch):
        # `repro serve --maintain P --patterns F` with F redefining P:
        # the census is built on F's pattern, so it and the queries on P
        # share one store entry instead of evicting each other's.
        from repro import cli
        from repro.census import census
        from repro.graph.io import save_json

        graph_path = tmp_path / "g.json"
        save_json(preferential_attachment(40, m=3, seed=5), graph_path)
        patterns_path = tmp_path / "patterns.txt"
        patterns_path.write_text("PATTERN clq3-unlb {?A-?B; ?B-?C; ?C-?D; ?D-?A;}\n")
        started = []
        monkeypatch.setattr(CensusServer, "run",
                            lambda srv, **kw: started.append(srv.start()))
        out = io.StringIO()
        assert cli.main(["serve", str(graph_path), "--port", "0",
                         "--maintain", "clq3-unlb", "--maintain-k", "1",
                         "--patterns", str(patterns_path)], out=out) == 0
        srv = started[0]
        try:
            pattern = srv.engine.catalog.get("clq3-unlb")
            assert len(pattern.nodes) == 4
            assert srv.state.maintained.pattern is pattern
            for q in (QUERY, QUERY.replace("SUBGRAPH(ID, 1)", "SUBGRAPH(ID, 2)")):
                assert post(srv, "/query", {"query": q})[0] == 200
            assert post(srv, "/update", {"ops": [{"op": "add_edge", "u": 0, "v": 39}]})[0] == 200
            assert post(srv, "/update", {"ops": [{"op": "remove_edge", "u": 1, "v": 3}]})[0] == 200
            counters = json.loads(get(srv, "/metrics?format=json")[2])["counters"]
            assert counters.get("query.match_store.hits", 0) > 0
            counts = json.loads(get(srv, "/counts")[2])["counts"]
            expected = census(srv.engine.base_graph, pattern, 1, algorithm="nd-bas")
            assert counts == {repr(n): c for n, c in expected.items()}
        finally:
            srv.drain(timeout=10)


def graph_image(g):
    return ({repr(n) for n in g.nodes()}, {frozenset(map(repr, e)) for e in g.edges()},
            g.version)


class TestUnsupportedUpdates:
    """Ops the backend cannot apply answer 400 and change nothing."""

    @pytest.mark.parametrize("ops", [
        [{"op": "add_edge", "u": 0, "v": 3}, {"op": "remove_edge", "u": 0, "v": 1}],
        [{"op": "add_edge", "u": 0, "v": 4}, {"op": "add_edge", "u": 1.5, "v": 2}],
    ])
    def test_disk_graph(self, server, tmp_path, ops):
        from repro.storage import DiskGraph

        path_graph = Graph()
        for i in range(5):
            path_graph.add_edge(i, i + 1)
        DiskGraph.create(tmp_path / "g.db", graph=path_graph).close()
        disk = DiskGraph.open(tmp_path / "g.db")
        srv = server(disk)
        before = graph_image(disk)
        status, _, doc = post(srv, "/update", {"ops": ops})
        assert status == 400, doc
        assert graph_image(disk) == before
        assert json.loads(get(srv, "/health")[2])["graph_version"] == before[2]

    @pytest.mark.parametrize("bad", [
        {"op": "add_node", "node": [1, 2]},
        {"op": "add_node", "node": {"id": 1}},
        {"op": "add_edge", "u": 0, "v": None},
    ])
    def test_non_scalar_ids(self, server, bad):
        graph = preferential_attachment(30, m=2, seed=7)
        srv = server(graph, backend="dict")
        before = graph_image(graph)
        status, _, doc = post(srv, "/update", {"ops": [
            {"op": "add_edge", "u": 0, "v": 29}, bad]})
        assert status == 400, doc
        assert graph_image(graph) == before
        assert json.loads(get(srv, "/health")[2])["graph_version"] == before[2]

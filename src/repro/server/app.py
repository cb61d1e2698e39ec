"""The census-serving daemon.

:class:`CensusServer` puts the engine built across PRs 1–3 behind a
long-running concurrent HTTP process (stdlib ``ThreadingHTTPServer``,
no new runtime dependencies):

- ``POST /query`` — query-language text (or JSON) in, JSON
  :class:`~repro.query.result.ResultTable` document out, tagged with
  the graph version it was computed at;
- ``POST /update`` — batched edge/node mutations, applied atomically
  under the write lock by the engine's match store (which repairs its
  match lists, the maintained census' included), finished with
  ``refresh_snapshot()`` and a refresh of the maintained
  :class:`~repro.census.IncrementalCensus` when one is configured;
- ``GET /counts`` — the maintained census' current counts (only when
  configured; always fresh, never recomputed);
- ``GET /metrics`` — Prometheus text exposition of the server registry
  (engine counters plus the ``server.*`` family);
- ``GET /health`` — liveness, graph version, and load.

Response contract for governed queries (the PR 3 degradation rules):
a blown budget answers **503** with a hint; with degradation enabled
(request or server default) it answers **200 with ``partial: true``**.
Saturation answers **429** with ``Retry-After``; draining answers 503.

Start it from Python (tests do) or via ``repro serve``.  SIGTERM/SIGINT
trigger a graceful drain: stop admitting, finish in-flight requests,
then stop the listener.
"""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import BudgetExceeded, CensusError, GraphError, QueryError
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    Telemetry,
    get_logger,
    to_json,
    to_prometheus,
)
from repro.query.engine import QueryEngine
from repro.query.explain import render_analyzed_plan
from repro.server.admission import AdmissionController, Draining, Saturated
from repro.server.coalescing import Coalescer
from repro.server.protocol import (
    BadRequest,
    encode,
    error_document,
    parse_query_request,
    parse_update_request,
    result_document,
)
from repro.server.state import GraphState

logger = get_logger("repro.server")


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for burst traffic.

    The stdlib default listen backlog of 5 makes the kernel reset
    connections the moment a burst of clients connects faster than
    accept() runs — admission control never even sees them.  A deep
    backlog lets every request reach the controller, which is where
    load-shedding policy (429) is supposed to live.
    """

    daemon_threads = True
    request_queue_size = 128


class ServerDefaults:
    """Server-wide fallbacks for per-request limits."""

    __slots__ = ("budget", "degrade")

    def __init__(self, budget=None, degrade=False):
        self.budget = budget
        self.degrade = bool(degrade)


class CensusServer:
    """A concurrent census query daemon over one graph.

    Parameters
    ----------
    graph:
        The mutable source graph (in-memory or disk-resident).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    backend, workers, algorithm, pairwise_algorithm, matcher, seed, cache:
        Forwarded to the shared :class:`~repro.query.engine.QueryEngine`.
        ``cache`` defaults to **on**: with version-keyed invalidation a
        serving process wants the aggregate cache.
    timeout, max_ops, max_results, degrade:
        Default per-request execution budget and degradation policy;
        individual requests may override via body/headers.
    max_active, queue_depth, retry_after:
        Admission control (see
        :class:`~repro.server.admission.AdmissionController`).
    maintain, maintain_k:
        Pattern name (from the engine catalog) and radius for a
        maintained :class:`~repro.census.IncrementalCensus`, which reads
        the pattern's matches from the engine's match store; updates
        then refresh its counts incrementally and ``GET /counts``
        serves them.
    trace_sample_rate, slow_query_ms, slow_query_log, trace_buffer, slow_buffer:
        Request telemetry (see :class:`~repro.obs.telemetry.Telemetry`):
        the fraction of requests whose full span tree is retained for
        ``GET /debug/traces``, the slow-query capture threshold in
        milliseconds (``None`` disables), an optional JSONL path that
        slow captures append to, and the two ring-buffer capacities.
    catalog:
        The engine's :class:`~repro.lang.catalog.PatternCatalog`
        (default: the standard patterns).  ``maintain`` names a pattern
        in it, so patterns that redefine a standard one must be in it
        before the server is built.
    """

    def __init__(self, graph, host="127.0.0.1", port=8080, backend="csr",
                 workers=1, algorithm="auto", pairwise_algorithm="nd",
                 matcher="cn", seed=0, cache=True, timeout=None, max_ops=None,
                 max_results=None, degrade=False, max_active=4, queue_depth=16,
                 retry_after=1.0, maintain=None, maintain_k=2,
                 trace_sample_rate=0.0, slow_query_ms=None, slow_query_log=None,
                 trace_buffer=256, slow_buffer=64, catalog=None):
        self.registry = MetricsRegistry()
        self.telemetry = Telemetry(
            registry=self.registry, sample_rate=trace_sample_rate,
            slow_query_ms=slow_query_ms, slow_log_path=slow_query_log,
            trace_buffer=trace_buffer, slow_buffer=slow_buffer,
            labels={"algorithm": algorithm, "backend": backend},
        )
        # The engine gets no pinned obs context: each request activates
        # its own ObsContext over ``self.registry`` (see
        # repro.obs.telemetry), and pinning would make the engine ignore it.
        self.engine = QueryEngine(
            graph, catalog=catalog, seed=seed, algorithm=algorithm,
            pairwise_algorithm=pairwise_algorithm, matcher=matcher,
            cache=cache, obs=None, backend=backend, workers=workers,
        )
        maintained = None
        if maintain is not None:
            from repro.census.incremental import IncrementalCensus

            maintained = IncrementalCensus(
                graph, self.engine.catalog.get(maintain), maintain_k,
                matcher=matcher, store=self.engine.match_store,
            )
        self.state = GraphState(self.engine, maintained=maintained)
        self.defaults = ServerDefaults(
            budget={"timeout": timeout, "max_ops": max_ops,
                    "max_results": max_results}
            if (timeout or max_ops or max_results) else None,
            degrade=degrade,
        )
        self.admission = AdmissionController(
            max_active, queue_depth=queue_depth, retry_after=retry_after,
        )
        self.coalescer = Coalescer()
        self._drained = threading.Event()
        self._thread = None

        handler = _make_handler(self)
        self.httpd = _Server((host, port), handler)
        self.registry.gauge("server.graph_version").set(self.state.version)

    # -- addresses ------------------------------------------------------
    @property
    def host(self):
        return self.httpd.server_address[0]

    @property
    def port(self):
        return self.httpd.server_address[1]

    # -- lifecycle ------------------------------------------------------
    def start(self):
        """Serve in a background thread (for tests and embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True,
        )
        self._thread.start()
        return self

    def run(self, install_signal_handlers=True):
        """Serve on the calling thread until SIGTERM/SIGINT drains."""
        if install_signal_handlers:
            import signal

            def _drain_signal(signum, _frame):
                logger.info("signal %d: draining", signum)
                threading.Thread(target=self.drain, daemon=True).start()

            signal.signal(signal.SIGTERM, _drain_signal)
            signal.signal(signal.SIGINT, _drain_signal)
        logger.info("serving on %s:%d", self.host, self.port)
        self.httpd.serve_forever()
        self.httpd.server_close()

    def drain(self, timeout=30.0):
        """Graceful shutdown: refuse new work, finish in-flight, stop.

        Returns ``True`` when every in-flight request finished inside
        ``timeout``.  Idempotent.
        """
        self.admission.begin_drain()
        idle = self.admission.wait_idle(timeout=timeout)
        if not idle:
            logger.warning("drain timed out with %d requests in flight",
                           self.admission.active)
        self.httpd.shutdown()
        self._drained.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self.httpd.server_close()
            self._thread = None
        return idle

    @property
    def draining(self):
        return self.admission.draining

    # -- request handling (called from handler threads) -----------------
    def handle_health(self):
        doc = {
            "status": "draining" if self.draining else "ok",
            "graph_version": self.state.version,
            "active": self.admission.active,
            "waiting": self.admission.waiting,
        }
        if self.state.maintained is not None:
            # Recorded at the last refresh: /health takes no lock.
            doc["maintained_embeddings"] = self.state.maintained.num_embeddings()
        return 200, "application/json", encode(doc)

    def handle_metrics(self, fmt="prometheus"):
        if fmt == "json":
            # The JSON snapshot carries per-histogram p50/p95/p99.
            return 200, "application/json", to_json(self.registry).encode("utf-8")
        text = to_prometheus(self.registry)
        return 200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8")

    # -- debug endpoints -------------------------------------------------
    def handle_debug_traces(self):
        doc = {"traces": self.telemetry.trace_summaries(),
               "sample_rate": self.telemetry.sample_rate}
        return 200, "application/json", encode(doc)

    def handle_debug_trace(self, request_id):
        trace = self.telemetry.trace(request_id)
        if trace is None:
            return 404, "application/json", encode(
                error_document(f"no retained trace {request_id!r} (evicted, "
                               "unsampled, or unknown)")
            )
        return 200, "application/json", encode(trace.to_dict())

    def handle_debug_slow(self):
        doc = {"slow": self.telemetry.slow_records(),
               "slow_query_ms": self.telemetry.slow_query_ms}
        return 200, "application/json", encode(doc)

    def handle_debug_requests(self):
        return 200, "application/json", encode(
            {"in_flight": self.telemetry.in_flight()}
        )

    def handle_counts(self):
        if self.state.maintained is None:
            return 404, "application/json", encode(
                error_document("no maintained census configured")
            )
        with self.state.read():
            doc = {
                "graph_version": self.state.version,
                "counts": {repr(n): c
                           for n, c in self.state.maintained.snapshot().items()},
            }
        return 200, "application/json", encode(doc)

    def handle_query(self, headers, body, content_type):
        self.registry.counter("server.requests").inc()
        with self.telemetry.request("query", on_slow=self._slow_plan) as trace:
            try:
                with self.admission.slot() as waited:
                    if waited:
                        trace.root.set("admission_wait_s", round(waited, 6))
                    request = parse_query_request(
                        headers, body, content_type, self.defaults,
                    )
                    trace.query = request.canonical
                    with self.state.read():
                        version = self.state.version
                        key = (
                            request.canonical,
                            version,
                            _freeze(request.budget),
                            request.degrade,
                        )
                        entered = time.perf_counter()
                        table, coalesced, leader_id = self.coalescer.run(
                            key,
                            lambda: self.engine.execute(
                                request.query, budget=request.budget,
                                degrade=request.degrade,
                            ),
                            token=trace.request_id,
                        )
                        if coalesced:
                            trace.link_leader(
                                leader_id, time.perf_counter() - entered,
                            )
            except Saturated as exc:
                trace.status = 429
                trace.ctx.add("server.rejected")
                doc = error_document(str(exc), retry_after=exc.retry_after)
                return 429, "application/json", encode(doc), {
                    "Retry-After": f"{exc.retry_after:g}",
                }
            except Draining:
                trace.status = 503
                return 503, "application/json", encode(
                    error_document("server is draining")
                )
            except BadRequest as exc:
                trace.status = 400
                trace.ctx.add("server.bad_requests")
                return 400, "application/json", encode(error_document(str(exc)))
            except BudgetExceeded as exc:
                trace.status = 503
                trace.ctx.add("server.budget_exceeded")
                hint = ("even the sampling fallback exceeded its grace budget"
                        if request.degrade
                        else "retry with degrade for a partial estimate")
                return 503, "application/json", encode(
                    error_document(str(exc), hint=hint)
                )
            except (QueryError, CensusError) as exc:
                trace.status = 400
                trace.ctx.add("server.bad_requests")
                return 400, "application/json", encode(error_document(str(exc)))

            trace.status = 200
            if coalesced:
                trace.ctx.add("server.coalesced")
            if table.partial:
                trace.ctx.add("server.partial")
            return 200, "application/json", encode(
                result_document(
                    table, version, coalesced,
                    request_id=trace.request_id, trace_id=trace.trace_id,
                    sampled=trace.sampled,
                )
            )

    def _slow_plan(self, trace):
        """Rendered ``EXPLAIN ANALYZE`` for a just-finished slow request.

        Replays the annotation over the trace's recorded span tree —
        the query is **not** executed again.  Coalesced followers have
        no execution spans of their own, so their capture degrades to
        the static plan (the leader's trace carries the actuals).
        """
        if trace.query is None:
            return None
        root = None
        if trace.root is not None:
            root = trace.root.find("query.execute") or trace.root
        with self.state.read():
            return render_analyzed_plan(self.engine, trace.query, root)

    def handle_update(self, body):
        self.registry.counter("server.requests").inc()
        with self.telemetry.request("update") as trace:
            try:
                with self.admission.slot() as waited:
                    if waited:
                        trace.root.set("admission_wait_s", round(waited, 6))
                    ops = parse_update_request(body)
                    version = self.state.apply(ops)
            except Saturated as exc:
                trace.status = 429
                trace.ctx.add("server.rejected")
                doc = error_document(str(exc), retry_after=exc.retry_after)
                return 429, "application/json", encode(doc), {
                    "Retry-After": f"{exc.retry_after:g}",
                }
            except Draining:
                trace.status = 503
                return 503, "application/json", encode(
                    error_document("server is draining")
                )
            except (BadRequest, QueryError, GraphError) as exc:
                trace.status = 400
                trace.ctx.add("server.bad_requests")
                return 400, "application/json", encode(error_document(str(exc)))
            trace.status = 200
            trace.ctx.add("server.updates")
            trace.ctx.set_gauge("server.graph_version", version)
            return 200, "application/json", encode(
                {"graph_version": version, "applied": len(ops),
                 "request_id": trace.request_id, "trace_id": trace.trace_id}
            )


def _freeze(mapping):
    """A hashable image of a budget spec dict (or None)."""
    if mapping is None:
        return None
    return tuple(sorted(mapping.items()))


#: Largest request body accepted, in bytes; a larger Content-Length is
#: answered 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20


def _make_handler(server):
    """A request-handler class closed over one :class:`CensusServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Identify quietly; the default advertises the Python version.
        server_version = "repro-census"
        sys_version = ""
        # Headers and body go out in two writes; with Nagle's algorithm
        # on, the second waits for the client's delayed ACK (~40 ms) on
        # every response over a kept-alive connection.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            logger.debug("%s - " + fmt, self.address_string(), *args)

        def _respond(self, status, content_type, payload, extra_headers=None):
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _read_body(self):
            """The request body, or ``None`` once a malformed or oversized
            ``Content-Length`` has been answered (400 / 413).  The body is
            then left unread, so the connection closes."""
            raw = (self.headers.get("Content-Length") or "0").strip()
            if not (raw.isascii() and raw.isdigit()):
                self._reject(400, f"bad Content-Length {raw!r}")
                return None
            length = int(raw)
            if length > MAX_BODY_BYTES:
                self._reject(413, f"request body of {length} bytes exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit")
                return None
            return self.rfile.read(length) if length else b""

        def _reject(self, status, message):
            server.registry.counter("server.bad_requests").inc()
            self._respond(status, "application/json",
                          encode(error_document(message)), {"Connection": "close"})

        def _dispatch(self, route):
            # Last line of defence: a bug in a handler must still answer
            # the client (500) rather than drop the connection.
            try:
                result = route()
            except Exception:  # noqa: BLE001 - reported, never silenced
                logger.exception("unhandled error serving %s", self.path)
                result = (500, "application/json",
                          encode(error_document("internal server error")))
            self._respond(*result)

        def do_GET(self):
            parts = urlsplit(self.path)
            path = parts.path
            if path == "/health":
                self._dispatch(server.handle_health)
            elif path == "/metrics":
                query = parse_qs(parts.query)
                fmt = (query.get("format") or ["prometheus"])[0]
                self._dispatch(lambda: server.handle_metrics(fmt))
            elif path == "/counts":
                self._dispatch(server.handle_counts)
            elif path == "/debug/traces":
                self._dispatch(server.handle_debug_traces)
            elif path.startswith("/debug/traces/"):
                request_id = path[len("/debug/traces/"):]
                self._dispatch(lambda: server.handle_debug_trace(request_id))
            elif path == "/debug/slow":
                self._dispatch(server.handle_debug_slow)
            elif path == "/debug/requests":
                self._dispatch(server.handle_debug_requests)
            else:
                self._respond(404, "application/json",
                              encode(error_document(f"no route {self.path}")))

        def do_POST(self):
            body = self._read_body()
            if body is None:
                return
            if self.path == "/query":
                content_type = self.headers.get("Content-Type", "application/json")
                self._dispatch(lambda: server.handle_query(
                    self.headers, body, content_type))
            elif self.path == "/update":
                self._dispatch(lambda: server.handle_update(body))
            else:
                self._respond(404, "application/json",
                              encode(error_document(f"no route {self.path}")))

    return Handler

"""Request-scoped telemetry for the serving path.

The daemon's shared :class:`~repro.obs.metrics.MetricsRegistry`
aggregates across requests, which on its own makes a served query a
black box: no request identity, no percentiles, no answer to "why was
*this one* slow".  This module adds per-request visibility without
unbounding memory:

- every request runs under its own :class:`~repro.obs.context.ObsContext`
  over the shared registry: the context keeps the request's span tree,
  and each counter, histogram observation, gauge, and span timer lands
  in the registry once — so ``/metrics`` aggregates across requests;
- a :class:`RequestTrace` carries a generated request ID through
  admission, coalescing, and engine execution, and is reachable from
  any frame via :func:`current_request` (a ``contextvars`` variable,
  like the ambient obs context);
- **head-based sampling** decides at admission whether the finished
  trace is retained in a bounded FIFO ring buffer (``--trace-sample-rate``);
  unsampled requests still get IDs, latency observations, and slow-query
  capture — sampling only controls ring-buffer retention, and a span
  tree no ring retains is garbage once its request finishes;
- request latency lands in fixed log-scaled histograms
  (:data:`~repro.obs.metrics.LATENCY_BUCKETS`) labeled per
  endpoint x algorithm x backend, so per-endpoint p95 is derivable from
  any Prometheus scrape;
- requests slower than ``--slow-query-ms`` are captured — full trace
  plus an ``EXPLAIN ANALYZE`` plan replayed from that trace — into a
  second ring buffer (``GET /debug/slow``) and appended to a structured
  JSONL log.

Coalesced followers never execute the engine, so they record only their
wait time (``server.coalesced_wait_seconds``) and a
``server.coalesced_hits`` counter; the leader's single execution is the
only source of engine timers.  This is what makes the latency
histograms *exactly-once*: ``server.request_seconds`` counts
executions, not clients.
"""

import json
import random
import threading
import time
import uuid
from collections import OrderedDict
from contextvars import ContextVar

from repro.obs.context import ObsContext
from repro.obs.logs import get_logger
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

logger = get_logger("repro.obs.telemetry")

_CURRENT_REQUEST = ContextVar("repro_request_trace", default=None)


def current_request():
    """The in-flight :class:`RequestTrace`, or ``None`` outside one."""
    return _CURRENT_REQUEST.get()


class RequestTrace:
    """Identity and trace state for one served request."""

    __slots__ = (
        "request_id", "trace_id", "endpoint", "sampled", "ctx", "root",
        "query", "status", "coalesced", "leader_id", "wait_seconds",
        "start_time", "end_time",
    )

    def __init__(self, endpoint, sampled, registry):
        ident = uuid.uuid4().hex
        self.request_id = ident[:16]
        self.trace_id = ident
        self.endpoint = endpoint
        self.sampled = bool(sampled)
        self.ctx = ObsContext(registry=registry)
        self.root = None
        self.query = None
        self.status = None
        self.coalesced = False
        self.leader_id = None
        self.wait_seconds = 0.0
        self.start_time = time.time()
        self.end_time = None

    @property
    def duration_s(self):
        end = self.end_time if self.end_time is not None else time.time()
        return end - self.start_time

    def link_leader(self, leader_id, wait_seconds):
        """Mark this request a coalesced follower of ``leader_id``."""
        self.coalesced = True
        self.leader_id = leader_id
        self.wait_seconds = wait_seconds
        if self.root is not None:
            self.root.set("coalesced_of", leader_id)

    def current_span_name(self):
        """Name of the deepest still-open span (for ``/debug/requests``).

        Walks the tree defensively: handler threads mutate children
        concurrently with debug reads, so this tolerates a list that
        grows mid-walk and never raises.
        """
        span = self.root
        if span is None:
            return None
        name = span.name
        while True:
            try:
                children = list(span.children)
            except Exception:  # pragma: no cover - defensive
                break
            open_child = None
            for child in reversed(children):
                if child.end_time is None:
                    open_child = child
                    break
            if open_child is None:
                break
            span = open_child
            name = span.name
        return name

    def to_summary(self):
        """The one-line form listed by ``GET /debug/traces``."""
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "endpoint": self.endpoint,
            "query": self.query,
            "status": self.status,
            "coalesced": self.coalesced,
            "leader_id": self.leader_id,
            "duration_ms": round(self.duration_s * 1e3, 3),
            "started_at": self.start_time,
            "sampled": self.sampled,
        }

    def to_dict(self):
        """The full form served by ``GET /debug/traces/<id>``."""
        doc = self.to_summary()
        doc["spans"] = self.root.to_dict() if self.root is not None else None
        return doc

    def __repr__(self):
        return (f"<RequestTrace {self.request_id} {self.endpoint} "
                f"sampled={self.sampled} coalesced={self.coalesced}>")


class _Ring:
    """A thread-safe bounded insertion-ordered map with FIFO eviction."""

    __slots__ = ("_capacity", "_items", "_lock")

    def __init__(self, capacity):
        self._capacity = max(1, int(capacity))
        self._items = OrderedDict()
        self._lock = threading.Lock()

    def put(self, key, value):
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self._capacity:
                self._items.popitem(last=False)

    def get(self, key):
        with self._lock:
            return self._items.get(key)

    def values(self):
        with self._lock:
            return list(self._items.values())

    def __len__(self):
        with self._lock:
            return len(self._items)


class Telemetry:
    """Daemon-wide request telemetry: sampling, rings, slow-query log.

    Parameters
    ----------
    registry:
        The shared daemon :class:`~repro.obs.metrics.MetricsRegistry`
        that every request's context records into (the server's
        ``registry``).
    sample_rate:
        Probability (0..1) that a finished request's full span tree is
        retained in the trace ring buffer.
    slow_query_ms:
        Threshold above which a request is captured to the slow ring
        and JSONL log; ``None`` disables slow capture.
    trace_buffer, slow_buffer:
        Ring-buffer capacities (FIFO eviction).
    slow_log_path:
        Optional path for the append-only slow-query JSONL log.
    labels:
        Static labels stamped on every latency series (the server
        passes ``{"algorithm": ..., "backend": ...}``), merged with the
        per-request ``endpoint`` label.
    """

    def __init__(self, registry=None, sample_rate=0.0, slow_query_ms=None,
                 trace_buffer=256, slow_buffer=64, slow_log_path=None,
                 labels=None, rng=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sample_rate = float(sample_rate)
        self.slow_query_ms = slow_query_ms
        self.labels = dict(labels) if labels else {}
        self.slow_log_path = slow_log_path
        self.traces = _Ring(trace_buffer)
        self.slow = _Ring(slow_buffer)
        self._in_flight = {}
        self._in_flight_lock = threading.Lock()
        self._slow_log_lock = threading.Lock()
        self._rng = rng if rng is not None else random.Random()

    # -- request lifecycle ----------------------------------------------
    def request(self, endpoint, on_slow=None):
        """Open a request scope: ``with telemetry.request("query") as trace:``.

        ``on_slow(trace)`` is called (if given) when the finished
        request crosses the slow threshold; it should return rendered
        plan text, and any exception it raises is swallowed (slow
        capture must never fail a request).
        """
        sampled = self.sample_rate > 0 and self._rng.random() < self.sample_rate
        trace = RequestTrace(endpoint, sampled, self.registry)
        return _RequestScope(self, trace, on_slow)

    def _begin(self, trace):
        with self._in_flight_lock:
            self._in_flight[trace.request_id] = trace

    def _finish(self, trace, on_slow):
        with self._in_flight_lock:
            self._in_flight.pop(trace.request_id, None)
        labels = {"endpoint": trace.endpoint, **self.labels}
        if trace.coalesced:
            # Followers never executed anything: their latency is pure
            # wait-for-leader, recorded separately so the request
            # histogram stays exactly-once per execution.
            self.registry.counter("server.coalesced_hits", labels=labels).inc()
            self.registry.histogram(
                "server.coalesced_wait_seconds",
                buckets=LATENCY_BUCKETS, labels=labels,
            ).observe(trace.wait_seconds)
        else:
            self.registry.histogram(
                "server.request_seconds",
                buckets=LATENCY_BUCKETS, labels=labels,
            ).observe(trace.duration_s)
        if trace.sampled:
            self.traces.put(trace.request_id, trace)
        if self._is_slow(trace):
            self._capture_slow(trace, on_slow)

    def _is_slow(self, trace):
        if self.slow_query_ms is None:
            return False
        return trace.duration_s * 1e3 >= float(self.slow_query_ms)

    def _capture_slow(self, trace, on_slow):
        plan = None
        if on_slow is not None:
            try:
                plan = on_slow(trace)
            except Exception:  # noqa: BLE001 - capture must not fail requests
                logger.exception("slow-query plan capture failed for %s",
                                 trace.request_id)
        record = trace.to_dict()
        record["plan"] = plan
        record["slow_query_ms"] = self.slow_query_ms
        record["captured_at"] = time.time()
        self.slow.put(trace.request_id, record)
        self.registry.counter("server.slow_queries").inc()
        logger.warning("slow query %s (%s): %.1f ms", trace.request_id,
                       trace.endpoint, trace.duration_s * 1e3)
        if self.slow_log_path:
            line = json.dumps(record, default=repr)
            try:
                with self._slow_log_lock, open(self.slow_log_path, "a") as fh:
                    fh.write(line + "\n")
            except OSError:
                logger.exception("cannot append slow-query log %s",
                                 self.slow_log_path)

    # -- debug read side ------------------------------------------------
    def trace_summaries(self):
        """Newest-first summaries of retained traces."""
        return [t.to_summary() for t in reversed(self.traces.values())]

    def trace(self, request_id):
        """The retained trace for ``request_id``, or ``None``."""
        return self.traces.get(request_id)

    def slow_records(self):
        """Newest-first captured slow-query records."""
        return list(reversed(self.slow.values()))

    def in_flight(self):
        """Live requests with age and the span currently executing."""
        with self._in_flight_lock:
            live = list(self._in_flight.values())
        return [
            {
                "request_id": t.request_id,
                "trace_id": t.trace_id,
                "endpoint": t.endpoint,
                "query": t.query,
                "age_ms": round(t.duration_s * 1e3, 3),
                "current_span": t.current_span_name(),
                "sampled": t.sampled,
            }
            for t in sorted(live, key=lambda t: t.start_time)
        ]


class _RequestScope:
    """Activates a request's obs context and owns its root span."""

    __slots__ = ("_telemetry", "trace", "_on_slow", "_span_scope",
                 "_request_token")

    def __init__(self, telemetry, trace, on_slow):
        self._telemetry = telemetry
        self.trace = trace
        self._on_slow = on_slow
        self._span_scope = None
        self._request_token = None

    def __enter__(self):
        trace = self.trace
        self._request_token = _CURRENT_REQUEST.set(trace)
        trace.ctx.__enter__()
        self._span_scope = trace.ctx.span(
            "server.request",
            endpoint=trace.endpoint, request_id=trace.request_id,
        )
        trace.root = self._span_scope.__enter__()
        self._telemetry._begin(trace)
        return trace

    def __exit__(self, exc_type, exc, tb):
        trace = self.trace
        if trace.status is None and exc_type is not None:
            trace.status = 500
        if trace.status is not None:
            trace.root.set("status", trace.status)
        self._span_scope.__exit__(exc_type, exc, tb)
        trace.ctx.__exit__(exc_type, exc, tb)
        _CURRENT_REQUEST.reset(self._request_token)
        trace.end_time = time.time()
        self._telemetry._finish(trace, self._on_slow)
        return False

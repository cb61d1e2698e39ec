"""Unit tests for request-scoped telemetry.

The daemon-facing contracts: every request gets an identity and its
own span tree over the shared registry, head sampling
controls only ring-buffer retention, ring buffers evict FIFO at their
configured capacity, quantiles come out of the fixed log-scaled
buckets, and log records inside a request carry its IDs.
"""

import io
import json
import logging

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    Telemetry,
    configure_logging,
    current_request,
    get_logger,
)
from repro.obs.metrics import render_label_key, split_label_key
from repro.obs.telemetry import _Ring


class TestLabelKeys:
    def test_roundtrip(self):
        key = render_label_key("server.request_seconds",
                               {"endpoint": "query", "backend": "csr"})
        assert key == "server.request_seconds{backend=csr,endpoint=query}"
        name, labels = split_label_key(key)
        assert name == "server.request_seconds"
        assert labels == {"backend": "csr", "endpoint": "query"}

    def test_unlabeled_passthrough(self):
        assert render_label_key("x.y", None) == "x.y"
        assert split_label_key("x.y") == ("x.y", {})

    def test_registry_separates_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"endpoint": "query"}).inc(2)
        reg.counter("hits", labels={"endpoint": "update"}).inc(3)
        snap = reg.snapshot()["counters"]
        assert snap["hits{endpoint=query}"] == 2
        assert snap["hits{endpoint=update}"] == 3


class TestQuantiles:
    def test_interpolated_from_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        # p50: rank 2 of 4 falls in the (1, 2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        # p100 of all-finite observations is the top finite bound.
        assert h.quantile(1.0) == 4.0

    def test_inf_bucket_reports_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == 50.0

    def test_empty_histogram_is_none(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat").quantile(0.95) is None

    def test_out_of_range_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("lat").quantile(1.5)

    def test_snapshot_carries_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=LATENCY_BUCKETS)
        for _ in range(100):
            h.observe(0.01)
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["p50"] is not None
        assert snap["p95"] is not None
        assert snap["p99"] is not None
        assert snap["p50"] <= snap["p95"] <= snap["p99"]


class TestRing:
    def test_fifo_eviction_at_capacity(self):
        ring = _Ring(3)
        for i in range(5):
            ring.put(i, f"v{i}")
        assert len(ring) == 3
        assert ring.get(0) is None
        assert ring.get(1) is None
        assert [v for v in ring.values()] == ["v2", "v3", "v4"]

    def test_overwrite_refreshes_position(self):
        ring = _Ring(2)
        ring.put("a", 1)
        ring.put("b", 2)
        ring.put("a", 3)
        ring.put("c", 4)
        assert ring.get("b") is None
        assert ring.get("a") == 3


class TestSampling:
    def run_requests(self, telemetry, n=20):
        ids = []
        for _ in range(n):
            with telemetry.request("query") as trace:
                trace.status = 200
                ids.append(trace.request_id)
        return ids

    def test_rate_zero_retains_nothing(self):
        t = Telemetry(sample_rate=0.0)
        self.run_requests(t)
        assert len(t.traces) == 0
        assert t.trace_summaries() == []

    def test_rate_one_retains_everything(self):
        t = Telemetry(sample_rate=1.0, trace_buffer=64)
        ids = self.run_requests(t)
        assert len(t.traces) == len(ids)
        assert t.trace(ids[-1]).request_id == ids[-1]

    def test_unsampled_requests_still_record_latency(self):
        t = Telemetry(sample_rate=0.0)
        self.run_requests(t, n=5)
        key = render_label_key("server.request_seconds", {"endpoint": "query"})
        assert t.registry.snapshot()["histograms"][key]["count"] == 5

    def test_trace_ring_evicts_fifo(self):
        t = Telemetry(sample_rate=1.0, trace_buffer=4)
        ids = self.run_requests(t, n=10)
        assert len(t.traces) == 4
        retained = [s["request_id"] for s in t.trace_summaries()]
        assert set(retained) == set(ids[-4:])
        assert t.trace(ids[0]) is None


class TestRequestScope:
    def test_ids_and_root_span(self):
        t = Telemetry(sample_rate=1.0)
        with t.request("query") as trace:
            assert current_request() is trace
            assert len(trace.request_id) == 16
            assert trace.trace_id.startswith(trace.request_id)
            assert trace.root.name == "server.request"
            with trace.ctx.span("query.execute"):
                pass
            trace.status = 200
        assert current_request() is None
        doc = t.trace(trace.request_id).to_dict()
        assert doc["spans"]["children"][0]["name"] == "query.execute"
        assert doc["status"] == 200

    def test_tee_into_shared_registry(self):
        shared = MetricsRegistry()
        t = Telemetry(registry=shared, sample_rate=1.0)
        with t.request("query") as trace:
            trace.ctx.add("census.match_units", 7)
            with trace.ctx.span("query.execute"):
                pass
            trace.status = 200
        # The request's context records into the shared registry: the
        # counter and the span timer land there exactly once each.
        assert shared.snapshot()["counters"]["census.match_units"] == 7
        assert trace.ctx.registry.snapshot()["counters"]["census.match_units"] == 7
        assert shared.snapshot()["histograms"]["span.query.execute"]["count"] == 1

    def test_exception_marks_500_and_unwinds(self):
        t = Telemetry(sample_rate=1.0)
        with pytest.raises(RuntimeError):
            with t.request("query"):
                raise RuntimeError("boom")
        assert current_request() is None
        assert t.trace_summaries()[0]["status"] == 500
        assert t.in_flight() == []

    def test_in_flight_visible_during_request(self):
        t = Telemetry(sample_rate=0.0)
        with t.request("query") as trace:
            with trace.ctx.span("query.scan"):
                live = t.in_flight()
                assert [r["request_id"] for r in live] == [trace.request_id]
                assert live[0]["current_span"] == "query.scan"
                assert live[0]["age_ms"] >= 0
        assert t.in_flight() == []

    def test_follower_records_wait_not_request_latency(self):
        t = Telemetry(sample_rate=0.0)
        with t.request("query") as trace:
            trace.link_leader("leader1234567890", 0.25)
            trace.status = 200
        snap = t.registry.snapshot()
        labels = {"endpoint": "query"}
        wait_key = render_label_key("server.coalesced_wait_seconds", labels)
        req_key = render_label_key("server.request_seconds", labels)
        hits_key = render_label_key("server.coalesced_hits", labels)
        assert snap["histograms"][wait_key]["count"] == 1
        assert snap["counters"][hits_key] == 1
        assert req_key not in snap["histograms"]


class TestSlowCapture:
    def test_threshold_and_jsonl(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        t = Telemetry(sample_rate=0.0, slow_query_ms=0.0, slow_log_path=str(log))
        with t.request("query", on_slow=lambda trace: "PLAN TEXT") as trace:
            trace.query = "SELECT ID FROM nodes"
            trace.status = 200
        records = t.slow_records()
        assert len(records) == 1
        assert records[0]["plan"] == "PLAN TEXT"
        assert records[0]["query"] == "SELECT ID FROM nodes"
        on_disk = [json.loads(line) for line in log.read_text().splitlines()]
        assert on_disk[0]["request_id"] == trace.request_id
        assert on_disk[0]["plan"] == "PLAN TEXT"

    def test_disabled_by_default(self):
        t = Telemetry(sample_rate=0.0)
        with t.request("query") as trace:
            trace.status = 200
        assert t.slow_records() == []

    def test_fast_requests_not_captured(self):
        t = Telemetry(sample_rate=0.0, slow_query_ms=60_000.0)
        with t.request("query") as trace:
            trace.status = 200
        assert t.slow_records() == []

    def test_on_slow_failure_is_swallowed(self):
        def broken(trace):
            raise RuntimeError("renderer broke")

        t = Telemetry(sample_rate=0.0, slow_query_ms=0.0)
        with t.request("query", on_slow=broken) as trace:
            trace.status = 200
        assert t.slow_records()[0]["plan"] is None

    def test_slow_ring_evicts_fifo(self):
        t = Telemetry(sample_rate=0.0, slow_query_ms=0.0, slow_buffer=2)
        ids = []
        for _ in range(4):
            with t.request("query") as trace:
                trace.status = 200
                ids.append(trace.request_id)
        captured = [r["request_id"] for r in t.slow_records()]
        assert set(captured) == set(ids[-2:])


class TestLogCorrelation:
    def test_records_carry_request_ids_inside_a_request(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        try:
            log = get_logger("repro.test.telemetry")
            t = Telemetry(sample_rate=0.0)
            with t.request("query") as trace:
                log.info("inside")
            log.info("outside")
        finally:
            configure_logging("warning", stream=io.StringIO())
        lines = stream.getvalue().splitlines()
        assert f"request_id={trace.request_id}" in lines[0]
        assert f"trace_id={trace.trace_id}" in lines[0]
        assert "request_id=" not in lines[1]

    def test_custom_format_can_use_fields(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream,
                          fmt="%(request_id)s|%(message)s")
        try:
            log = get_logger("repro.test.telemetry2")
            t = Telemetry(sample_rate=0.0)
            with t.request("query") as trace:
                log.info("m")
        finally:
            configure_logging("warning", stream=io.StringIO())
        assert stream.getvalue().startswith(trace.request_id + "|")


class TestLogging:
    def test_null_handler_outside_configuration(self):
        # Guard: importing telemetry must not implicitly configure logs.
        logger = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)

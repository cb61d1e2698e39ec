"""Observability: metrics, execution traces, exporters, and logging.

The measurement substrate for the census engine.  Three layers:

- :mod:`repro.obs.metrics` — a thread-safe registry of counters,
  gauges, histograms, and timers;
- :mod:`repro.obs.trace` — hierarchical timed spans forming one
  execution trace per query;
- :mod:`repro.obs.context` — the ambient :class:`ObsContext` binding
  the two together, with a near-zero-cost disabled mode.

Instrumented code (matchers, census algorithms, the query engine, the
storage layer) records against ``current_obs()``; nothing is measured
until a caller activates a context::

    from repro.obs import ObsContext

    with ObsContext() as obs:
        engine.execute("SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes")
    print(obs.report())            # span tree + counter table
    print(to_prometheus(obs.registry))

Exports: :func:`repro.obs.export.to_json` and
:func:`repro.obs.export.to_prometheus`.  ``EXPLAIN ANALYZE`` and the
CLI ``--profile`` flag are built on this module.
"""

from repro.obs.context import (
    DISABLED,
    ObsContext,
    activate,
    current_obs,
    current_span,
    detach_spans,
)
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_name,
    to_json,
    to_prometheus,
)
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.telemetry import (
    RequestTrace,
    Telemetry,
    current_request,
)
from repro.obs.trace import Span, format_duration, render_span_tree

__all__ = [
    "ObsContext",
    "DISABLED",
    "activate",
    "current_obs",
    "current_span",
    "current_request",
    "detach_spans",
    "Telemetry",
    "RequestTrace",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "Span",
    "render_span_tree",
    "format_duration",
    "to_json",
    "to_prometheus",
    "prometheus_name",
    "PROMETHEUS_CONTENT_TYPE",
    "configure_logging",
    "get_logger",
]

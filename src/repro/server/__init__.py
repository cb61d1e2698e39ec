"""The census serving layer: a concurrent query daemon.

Puts the engine behind a long-running process (``repro serve``) built
from four cooperating pieces:

- :mod:`repro.server.app` — :class:`CensusServer`, the stdlib
  ``ThreadingHTTPServer`` daemon: ``POST /query``, ``POST /update``,
  ``GET /counts``, ``GET /metrics``, ``GET /health``, graceful drain;
- :mod:`repro.server.state` — versioned graph state under a
  writer-preferring read/write lock; mutations go through the engine's
  match store, and a maintained :class:`~repro.census.IncrementalCensus`
  reading the same store refreshes its counts after each batch;
- :mod:`repro.server.coalescing` — single-flight execution of
  concurrent identical queries (keyed on canonical query text + graph
  version + limits);
- :mod:`repro.server.admission` — bounded execute/wait slots, 429 +
  ``Retry-After`` on saturation, drain support.

Request telemetry (:mod:`repro.obs.telemetry`) threads through all of
them: every request gets an ID and a span tree, sampled trees are
served at ``GET /debug/traces``, slow requests at ``GET /debug/slow``
with a replayed ``EXPLAIN ANALYZE`` plan, and in-flight requests at
``GET /debug/requests``.

The serving invariants, enforced across these pieces:

1. **No stale version is ever served.**  Every response names the graph
   version it was computed at; queries hold the read lock for their
   whole execution and all derived state (aggregate cache, coalesced
   flights) is keyed on the version.
2. **Identical concurrent queries execute once.**  Verified by the
   ``server.coalesced`` counter against census-layer counters.
3. **Budgets degrade, saturation rejects.**  A blown budget is 503 (or
   200-with-partial when degradation is on); a full queue is 429 with
   ``Retry-After``; draining is 503.
"""

from repro.server.admission import AdmissionController, Draining, Saturated
from repro.server.app import CensusServer, ServerDefaults
from repro.server.coalescing import Coalescer
from repro.server.protocol import BadRequest
from repro.server.state import GraphState, ReadWriteLock

__all__ = [
    "CensusServer",
    "ServerDefaults",
    "AdmissionController",
    "Saturated",
    "Draining",
    "Coalescer",
    "GraphState",
    "ReadWriteLock",
    "BadRequest",
]

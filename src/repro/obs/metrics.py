"""Lightweight metrics primitives: counters, gauges, histograms, timers.

A :class:`MetricsRegistry` is a named collection of metric instruments.
Instruments are created lazily (``registry.counter("x").inc()``) and are
safe to share across threads: instrument creation is guarded by the
registry lock and every mutation takes the instrument's own lock.  The
locks are uncontended in the single-threaded case and the instrumented
code aggregates locally and records *once per operation region* (one
``inc`` per census call, not one per BFS step), so the cost of the
registry is negligible next to the work it measures.

Metric names are dotted paths (``census.nd_pvot.bulk_added``); the
export layer (:mod:`repro.obs.export`) maps them to JSON documents and
Prometheus text-format families.

Instruments may carry **labels** — a small, fixed-cardinality mapping
(``{"endpoint": "query", "backend": "csr"}``) identifying one series of
a family.  Labeled instruments are registered under the rendered key
``name{k=v,...}`` (sorted by label name), so a registry snapshot stays a
flat name-keyed dict and exporters recover the family/series split from
the key.  Keep label value sets tiny and bounded — a label per request
would grow the daemon's long-lived registry with every request served.
"""

import threading
import time

# Default histogram buckets, in seconds, chosen for query-stage timings
# that range from microseconds (parse/bind) to minutes (large censuses).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

# Fixed log-scaled buckets for request latency histograms: four buckets
# per decade from 100 us to 100 s.  Log spacing keeps the relative
# quantile-estimation error constant across the range (a p99 of 3 ms
# and a p99 of 30 s are resolved equally well), and a *fixed* layout
# keeps every endpoint x algorithm x backend series mergeable and
# comparable across processes and scrapes.
LATENCY_BUCKETS = tuple(
    round(10.0 ** (exponent / 4.0), 6) for exponent in range(-16, 9)
)


def render_label_key(name, labels):
    """The registry key for ``name`` under ``labels`` (``None`` -> name)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_label_key(key):
    """Invert :func:`render_label_key`: ``(base name, labels dict)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A value that can go up and down (cache residency, queue depth)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self._value = value

    def add(self, amount=1):
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """A bucketed distribution with count/sum/min/max.

    Bucket boundaries are upper bounds (``le`` semantics, like
    Prometheus); one implicit ``+Inf`` bucket catches the tail.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, name, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def observe(self, value):
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the winning bucket, the standard
        Prometheus ``histogram_quantile`` estimate.  Observations that
        landed in the ``+Inf`` bucket are reported as the recorded
        ``max`` (finite, and a better bound than infinity).  Returns
        ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self.count
            if total == 0:
                return None
            rank = q * total
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                in_bucket = self.bucket_counts[i]
                if cumulative + in_bucket >= rank:
                    lower = self.buckets[i - 1] if i else 0.0
                    if in_bucket == 0:
                        return bound
                    fraction = (rank - cumulative) / in_bucket
                    return lower + (bound - lower) * fraction
                cumulative += in_bucket
            return self.max

    def __repr__(self):
        return f"<Histogram {self.name} count={self.count} sum={self.sum:.6f}>"


class Timer:
    """A histogram of elapsed seconds with a context-manager interface.

    ::

        with registry.timer("query.parse").time():
            parse(...)
    """

    __slots__ = ("histogram",)

    def __init__(self, histogram):
        self.histogram = histogram

    @property
    def name(self):
        return self.histogram.name

    def observe(self, seconds):
        self.histogram.observe(seconds)

    def time(self):
        return _TimerScope(self.histogram)

    def __repr__(self):
        return f"<Timer {self.histogram.name} count={self.histogram.count}>"


class _TimerScope:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram):
        self._histogram = histogram
        self._start = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._histogram.observe(time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """A named collection of counters, gauges, histograms, and timers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- instrument accessors (lazy creation) ---------------------------
    def counter(self, name, labels=None):
        key = render_label_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(key, Counter(key))
        return c

    def gauge(self, name, labels=None):
        key = render_label_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(key, Gauge(key))
        return g

    def histogram(self, name, buckets=DEFAULT_BUCKETS, labels=None):
        key = render_label_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(key, Histogram(key, buckets))
        return h

    def timer(self, name, buckets=DEFAULT_BUCKETS, labels=None):
        return Timer(self.histogram(name, buckets, labels=labels))

    # -- read side ------------------------------------------------------
    def counters(self):
        return dict(self._counters)

    def gauges(self):
        return dict(self._gauges)

    def histograms(self):
        return dict(self._histograms)

    def snapshot(self):
        """A plain-data view of every instrument, for export and tests."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                        "buckets": list(zip(h.buckets, h.bucket_counts)),
                        "inf": h.bucket_counts[-1],
                        "p50": h.quantile(0.50),
                        "p95": h.quantile(0.95),
                        "p99": h.quantile(0.99),
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }

    def __len__(self):
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self):
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )

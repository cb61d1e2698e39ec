"""The observability context: a registry plus an execution trace.

One :class:`ObsContext` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
with a tree of :class:`~repro.obs.trace.Span` objects.  Instrumented
code never receives a context explicitly — it asks for the *ambient*
one::

    obs = current_obs()
    with obs.span("census.nd_pvot", k=k) as sp:
        ...
        obs.add("census.nd_pvot.bulk_added", bulk)

The ambient context lives in a :class:`contextvars.ContextVar`, so each
thread (and each asyncio task, for later parallelism work) sees its own
activation independently.  When nothing is activated, ``current_obs()``
returns the shared :data:`DISABLED` singleton whose ``span`` hands back
one reusable no-op scope and whose recording methods are ``pass`` —
instrumentation then costs a contextvar read plus a handful of no-op
calls per *query*, not per graph operation, which keeps the disabled
overhead within measurement noise.

Activate a context with ``with obs:`` (or :func:`activate` for an
explicit scope)::

    with ObsContext() as obs:
        engine.execute(query)
    print(obs.report())
"""

import time
from contextvars import ContextVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, format_duration, render_span_tree


class _NoopSpan:
    """Shared do-nothing span scope for the disabled context."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, key, value):
        pass

    def add_metric(self, name, value):
        pass


_NOOP_SPAN = _NoopSpan()


class _DisabledObs:
    """The ambient context when observability is off: every hook is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name, **attrs):
        return _NOOP_SPAN

    def add(self, name, value=1):
        pass

    def observe(self, name, value):
        pass

    def set_gauge(self, name, value):
        pass

    def __repr__(self):
        return "<ObsContext disabled>"


DISABLED = _DisabledObs()

_CURRENT_OBS = ContextVar("repro_obs_context", default=DISABLED)
_CURRENT_SPAN = ContextVar("repro_obs_span", default=None)


def current_obs():
    """The active :class:`ObsContext`, or :data:`DISABLED` when none is."""
    return _CURRENT_OBS.get()


def current_span():
    """The innermost open :class:`Span`, or ``None``."""
    return _CURRENT_SPAN.get()


class detach_spans:
    """Context manager suspending the open span for the enclosed region.

    Work done inside starts its own span roots instead of nesting under
    the caller's open span.  Used by the parallel census executor so an
    inline (serial / same-thread) chunk records into its private chunk
    context exactly like a pool worker would, and the chunk subtrees can
    be stitched back uniformly afterwards.
    """

    __slots__ = ("_token",)

    def __enter__(self):
        self._token = _CURRENT_SPAN.set(None)
        return self

    def __exit__(self, *exc):
        _CURRENT_SPAN.reset(self._token)
        return False


class activate:
    """Context manager making ``ctx`` the ambient observability context."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx):
        self._ctx = ctx
        self._token = None

    def __enter__(self):
        self._token = _CURRENT_OBS.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc):
        _CURRENT_OBS.reset(self._token)
        return False


class _SpanScope:
    """Opens a span on entry, closes and times it on exit."""

    __slots__ = ("_ctx", "_span", "_token")

    def __init__(self, ctx, name, attrs):
        self._ctx = ctx
        self._span = Span(name, attrs)
        self._token = None

    def __enter__(self):
        span = self._span
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            parent.children.append(span)
        else:
            self._ctx.roots.append(span)
        self._token = _CURRENT_SPAN.set(span)
        span.start_time = time.perf_counter()
        return span

    def __exit__(self, *exc):
        span = self._span.finish()
        _CURRENT_SPAN.reset(self._token)
        self._ctx.registry.timer("span." + span.name).observe(span.duration)
        return False


class ObsContext:
    """An enabled observability context (registry + trace)."""

    enabled = True

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.roots = []
        self._activation = None

    # -- recording hooks ------------------------------------------------
    def span(self, name, **attrs):
        """Open a timed span; usable as ``with obs.span(...) as sp:``."""
        return _SpanScope(self, name, attrs)

    def add(self, name, value=1):
        """Increment counter ``name``, attributing it to the open span."""
        self.registry.counter(name).inc(value)
        span = _CURRENT_SPAN.get()
        if span is not None:
            span.add_metric(name, value)

    def observe(self, name, value):
        """Record one histogram observation."""
        self.registry.histogram(name).observe(value)

    def set_gauge(self, name, value):
        self.registry.gauge(name).set(value)

    # -- activation -----------------------------------------------------
    def __enter__(self):
        self._activation = activate(self)
        self._activation.__enter__()
        return self

    def __exit__(self, *exc):
        activation, self._activation = self._activation, None
        return activation.__exit__(*exc)

    # -- reporting ------------------------------------------------------
    def root(self, name=None):
        """The first root span (optionally the first named ``name``)."""
        for span in self.roots:
            if name is None or span.name == name:
                return span
        return None

    def counter_table(self):
        """Sorted ``(name, value)`` rows for every non-zero counter."""
        snap = self.registry.snapshot()
        return [(n, v) for n, v in snap["counters"].items() if v]

    def report(self):
        """Span tree plus counter table, as printed by ``--profile``."""
        lines = []
        for span in self.roots:
            lines.append(render_span_tree(span))
        counters = self.counter_table()
        if counters:
            lines.append("")
            lines.append("counters:")
            width = max(len(n) for n, _v in counters)
            for name, value in counters:
                lines.append(f"  {name.ljust(width)}  {value}")
        timers = [
            (n, h) for n, h in sorted(self.registry.histograms().items()) if h.count
        ]
        if timers:
            lines.append("")
            lines.append("timers:")
            width = max(len(n) for n, _h in timers)
            for name, hist in timers:
                lines.append(
                    f"  {name.ljust(width)}  n={hist.count} "
                    f"total={format_duration(hist.sum)} mean={format_duration(hist.mean)}"
                )
        return "\n".join(lines)

    def __repr__(self):
        return f"<ObsContext roots={len(self.roots)} {self.registry!r}>"

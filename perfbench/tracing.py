"""Benchmark-side tracing: spans recorded around calls into ``repro``.

The wrappers live here, not in the program: :func:`install` replaces the
public functions each layer exposes with timed wrappers, at the names
through which the program calls them.  Spans are kept in memory (name,
start, end, parent, request id) and written out when the run ends;
:func:`layer_metrics` derives every per-layer metric from them.

A layer's self time is its span's duration minus the time its child
spans cover.  Functions called once per graph node (``evaluate_where``)
are recorded as one aggregate span per parent, holding the summed
duration and the call count, so tracing them costs two clock reads per
call instead of one span each.
"""

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._leaves = {}
        #: (span id, name, parent id, start, end, busy seconds, calls)
        self.spans = []
        #: root span id -> request id
        self.request_ids = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """``fn`` recorded as a span named ``name`` on every call."""
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, parent, start, end, end - start, 1))

        return traced

    def wrap_leaf(self, name, fn):
        """``fn`` (which calls no traced function) summed per parent span."""
        leaves = self._leaves

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec = leaves.get((parent, name))
                if rec is None:
                    leaves[(parent, name)] = [start, end, end - start, 1]
                else:
                    rec[1] = end
                    rec[2] += end - start
                    rec[3] += 1

        return traced

    def tag(self, request_id):
        """Name the request the calling thread's root span serves."""
        stack = self._stack()
        if stack:
            self.request_ids[stack[0]] = request_id

    def records(self):
        """Every span as a dict, leaf aggregates included."""
        out = [
            {"id": sid, "name": name, "parent": parent, "start": start,
             "end": end, "busy": busy, "calls": calls}
            for sid, name, parent, start, end, busy, calls in list(self.spans)
        ]
        for (parent, name), (start, end, busy, calls) in list(self._leaves.items()):
            out.append({"id": next(self._ids), "name": name, "parent": parent,
                        "start": start, "end": end, "busy": busy, "calls": calls})
        by_id = {r["id"]: r for r in out}
        for r in out:
            root = r
            while root["parent"] is not None and root["parent"] in by_id:
                root = by_id[root["parent"]]
            r["request_id"] = self.request_ids.get(root["id"])
        return out

    def write(self, path):
        with open(path, "w") as f:
            for record in self.records():
                f.write(json.dumps(record) + "\n")


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _patch(target, attr, wrapper_for):
    if not hasattr(target, attr):
        raise RuntimeError(f"cannot trace {getattr(target, '__name__', target)}.{attr}: "
                           "no such attribute")
    setattr(target, attr, wrapper_for(getattr(target, attr)))


def install(tracer):
    """Wrap every traced ``repro`` entry point at the names it is called by.

    Must run after ``repro`` is importable and before any engine or
    server is built.  Raises ``RuntimeError`` when a name is missing, so
    a traced run never reports a layer it did not measure as zero.
    """
    import repro.census as census
    import repro.census.base as census_base
    import repro.census.pt_opt as pt_opt
    import repro.cli as cli
    import repro.graph.io as graph_io
    import repro.obs.telemetry as telemetry
    import repro.query.engine as engine
    import repro.server.app as app
    import repro.server.protocol as protocol
    import repro.server.state as state

    wrap = tracer.wrap
    _patch(engine, "parse_query", lambda f: wrap("lang.parse", f))
    _patch(protocol, "parse_query", lambda f: wrap("lang.parse", f))
    _patch(engine, "evaluate_where", lambda f: tracer.wrap_leaf("query.where", f))
    _patch(engine.QueryEngine, "execute", lambda f: wrap("query.execute", f))
    _patch(census, "choose_algorithm", lambda f: wrap("planner", f))
    _patch(census_base, "find_matches", lambda f: wrap("match", f))
    for name in ("nd-pvot", "pt-opt"):
        census.ALGORITHMS[name] = wrap("census." + name.replace("-", "_"),
                                       census.ALGORITHMS[name])
    _patch(pt_opt, "select_centers", lambda f: wrap("census.centers", f))
    _patch(pt_opt, "cluster_matches", lambda f: wrap("census.clustering", f))
    base_index = pt_opt.CenterIndex
    index_init = wrap("census.centers", base_index.__init__)

    class TracedCenterIndex(base_index):
        __init__ = index_init

    pt_opt.CenterIndex = TracedCenterIndex
    _patch(engine, "freeze", lambda f: wrap("graph.freeze", f))
    _patch(cli, "load_json", lambda f: wrap("graph.load", f))
    _patch(graph_io, "load_json", lambda f: wrap("graph.load", f))
    _patch(app.CensusServer, "handle_query", lambda f: wrap("server.handle", f))
    _patch(app.CensusServer, "handle_update", lambda f: wrap("server.handle", f))
    _patch(app, "result_document", lambda f: wrap("server.encode", f))
    _patch(app, "encode", lambda f: wrap("server.encode", f))
    _patch(state.GraphState, "apply", lambda f: wrap("server.update_apply", f))

    scope_enter = wrap("obs.request", lambda scope: scope.__enter__())
    scope_exit = wrap("obs.request", lambda scope, *exc: scope.__exit__(*exc))

    class TracedScope:
        """Times a telemetry request scope's entry and exit and tags the
        enclosing root span with the request id the server answers with."""

        __slots__ = ("_scope",)

        def __init__(self, scope):
            self._scope = scope

        def __enter__(self):
            trace = scope_enter(self._scope)
            tracer.tag(trace.request_id)
            return trace

        def __exit__(self, *exc):
            return scope_exit(self._scope, *exc)

    request = wrap("obs.request", telemetry.Telemetry.request)
    telemetry.Telemetry.request = lambda self, *a, **kw: TracedScope(request(self, *a, **kw))


#: Per-layer time metric -> the span whose self time it sums.
TIME_LAYERS = {
    "lang.parse_ms": "lang.parse",
    "query.where_ms": "query.where",
    "query.self_ms": "query.execute",
    "planner.ms": "planner",
    "match.ms": "match",
    "census.nd_pvot.self_ms": "census.nd_pvot",
    "census.pt_opt.self_ms": "census.pt_opt",
    "census.clustering_ms": "census.clustering",
    "census.centers_ms": "census.centers",
    "graph.freeze_ms": "graph.freeze",
    "server.handle_self_ms": "server.handle",
    "server.encode_ms": "server.encode",
    "server.update_apply_ms": "server.update_apply",
    "obs.request_ms": "obs.request",
}


def layer_metrics(records, op_ids):
    """Per-layer figures for the operations whose root request id is in
    ``op_ids``: milliseconds of self time per operation for each layer,
    ``match.calls`` per operation, and ``graph.load_ms`` as the mean
    duration of one graph load (a set-up step, outside any operation).
    """
    op_ids = set(op_ids)
    child_busy = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child_busy[r["parent"]] += r["busy"]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    loads = []
    for r in records:
        if r["name"] == "graph.load":
            loads.append(r["busy"])
        if r["request_id"] not in op_ids:
            continue
        self_s[r["name"]] += r["busy"] - child_busy[r["id"]]
        calls[r["name"]] += r["calls"]
    n = max(1, len(op_ids))
    out = {metric: 1e3 * self_s[span] / n for metric, span in TIME_LAYERS.items()}
    out["match.calls"] = calls["match"] / n
    out["graph.load_ms"] = 1e3 * sum(loads) / len(loads) if loads else 0.0
    return out


def handler_seconds(records):
    """Request id -> duration of the server handler span serving it."""
    return {r["request_id"]: r["busy"] for r in records
            if r["name"] == "server.handle" and r["parent"] is None}

"""Parallel census execution: focal-node chunks over a shared snapshot.

A census is embarrassingly parallel in its focal nodes: every algorithm
returns ``{focal_node: count}`` and focal subsets partition the work.
:func:`parallel_census` chunks the focal list contiguously, runs one
census call per chunk on a pool of workers, and merges the per-chunk
counts and observability counters deterministically (chunks are merged
in chunk order regardless of completion order).

Execution modes:

- ``"process"`` — ``concurrent.futures.ProcessPoolExecutor``.  The
  graph is shipped to each worker once, via the pool initializer;
  :class:`repro.graph.csr.CSRGraph` snapshots are built for exactly
  this (pickling keeps only the canonical arrays and rebuilds derived
  caches lazily), so prefer ``freeze()``-ing the graph first.
- ``"thread"`` — ``ThreadPoolExecutor``.  GIL-bound for the pure-Python
  loops, useful for tests and for numpy-heavy paths that release the
  GIL; also the automatic fallback when process pools are unavailable.
- ``"serial"`` — run the chunks in-process, one after another (the
  degenerate pool; ``workers=1`` uses it automatically).

The matching pass is *not* parallelized: matches are found once in the
parent (for every algorithm that supports ``matches=`` adoption) and
shared with all chunks, so adding workers scales the per-focal-node
counting phase — the part the paper's algorithms differ on.

Resource governance and fault tolerance:

- an ambient :class:`repro.exec.budget.ExecutionBudget` in the parent is
  shipped to thread and process chunks as a :meth:`spec` (serial chunks
  see the parent's live budget directly), so a deadline governs every
  executor mode;
- an armed :class:`repro.exec.faults.FaultPlan` travels to process
  workers (hit counters reset per process) and workers are tagged via
  :func:`repro.exec.faults.mark_worker_process`;
- a chunk lost to a dead worker (``BrokenProcessPool``) is retried
  *serially in the parent* — worker-scoped faults do not fire there —
  so counts converge to the serial result even when every worker dies;
- the process pool is always shut down (``cancel_futures=True``), even
  when a chunk raises, so no worker processes leak.
"""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext

from repro.census.base import CensusRequest
from repro.errors import CensusError
from repro.exec.budget import ExecutionBudget, activate_budget, current_budget
from repro.exec.faults import active_plan, arm_process, fault_point, mark_worker_process
from repro.matching import find_matches
from repro.obs import ObsContext, Span, current_obs, detach_spans

# Worker-process state, installed once per worker by _init_worker.
_WORKER = {}


def chunk_focal_nodes(focal_nodes, chunks):
    """Split ``focal_nodes`` into ``chunks`` contiguous, near-equal parts.

    Contiguity matters: census algorithms (ND-DIFF especially) exploit
    locality between successive focal nodes, and contiguous slices of a
    node ordering preserve it.  Returns only non-empty chunks.
    """
    focal = list(focal_nodes)
    if chunks <= 0:
        raise CensusError(f"chunk count must be positive, got {chunks}")
    size, extra = divmod(len(focal), chunks)
    out = []
    pos = 0
    for i in range(chunks):
        take = size + (1 if i < extra else 0)
        if take:
            out.append(focal[pos:pos + take])
            pos += take
    return out


def _run_chunk_inline(graph, pattern, k, algorithm_fn, chunk, subpattern,
                      matcher, matches, options, budget_spec=None):
    """Run one chunk under a private ObsContext.

    Returns ``(counts, counters, elapsed, spans)``; ``spans`` are the
    chunk's serialized span roots (:meth:`~repro.obs.trace.Span.to_dict`
    documents, so they survive the process boundary).  ``detach_spans``
    suspends any open parent span: a serial (same-thread) chunk must
    record into its private context exactly like a pool worker, so the
    parent can stitch every executor's chunks uniformly.

    ``budget_spec`` rebuilds and activates a fresh budget around the
    chunk (thread and process chunks do not see the parent's ambient
    contextvar); ``None`` leaves the ambient budget — the parent's own,
    for serial chunks — in force.
    """
    import time

    fault_point("parallel.chunk")
    governed = (
        activate_budget(ExecutionBudget.from_spec(budget_spec))
        if budget_spec is not None
        else nullcontext()
    )
    ctx = ObsContext()
    start = time.perf_counter()
    with governed, detach_spans(), ctx:
        kwargs = dict(options)
        if matches is not None:
            kwargs["matches"] = matches
        counts = algorithm_fn(
            graph, pattern, k, focal_nodes=chunk, subpattern=subpattern,
            matcher=matcher, **kwargs
        )
    elapsed = time.perf_counter() - start
    counters = dict(ctx.registry.snapshot()["counters"])
    spans = [root.to_dict() for root in ctx.roots]
    return counts, counters, elapsed, spans


def _init_worker(payload):
    """Process-pool initializer: unpack the shared census state once.

    Also tags the process as a pool worker (worker-scoped faults fire
    here and nowhere else) and re-arms the parent's fault plan with
    fresh per-process hit counters.
    """
    (graph, pattern, k, subpattern, matcher, algorithm, matches, options,
     budget_spec, fault_plan) = pickle.loads(payload)
    from repro.census import ALGORITHMS

    mark_worker_process()
    if fault_plan is not None:
        arm_process(fault_plan)
    _WORKER["args"] = (
        graph, pattern, k, ALGORITHMS[algorithm], subpattern, matcher,
        matches, options,
    )
    _WORKER["budget_spec"] = budget_spec


def _run_chunk_in_worker(chunk):
    """Process-pool task: run one focal chunk against the shared state."""
    graph, pattern, k, fn, subpattern, matcher, matches, options = _WORKER["args"]
    return _run_chunk_inline(
        graph, pattern, k, fn, chunk, subpattern, matcher, matches, options,
        budget_spec=_WORKER["budget_spec"],
    )


def default_workers():
    """Worker count used for ``workers=None``: the CPU count, capped."""
    return min(os.cpu_count() or 1, 8)


def parallel_census(graph, pattern, k, focal_nodes=None, subpattern=None,
                    algorithm="nd-pvot", matcher="cn", workers=None,
                    executor="process", chunks=None, matches=None, **options):
    """Count matches of ``pattern`` around every focal node, in parallel.

    Parameters beyond :func:`repro.census.census`:

    workers:
        Worker count (``None`` → :func:`default_workers`).  ``1`` runs
        the chunks serially in-process.
    executor:
        ``"process"``, ``"thread"``, or ``"serial"``.  Process pools
        fall back to threads when the platform cannot fork/spawn.
    chunks:
        Number of focal chunks (default: one per worker).
    matches:
        Adopt an existing global match list.  When omitted, matching
        runs once in the parent and is shared with every chunk (except
        for ``nd-bas``, which has no global matching pass).

    Each chunk records into a private obs context; the parent sums the
    chunks' counters into the ambient context and stitches their spans
    under ``census.parallel``.

    Returns ``{focal_node: count}``, identical to the serial census.
    """
    from repro.census import ADOPTS_MATCHES, ALGORITHMS

    if algorithm not in ALGORITHMS:
        raise CensusError(
            f"unknown census algorithm {algorithm!r}; expected one of "
            f"{sorted(ALGORITHMS)}"
        )
    fn = ALGORITHMS[algorithm]
    obs = current_obs()
    with obs.span("census.parallel", algorithm=algorithm, k=k) as span:
        request = CensusRequest(graph, pattern, k, focal_nodes, subpattern)
        if workers is None:
            workers = default_workers()
        workers = max(1, int(workers))
        if chunks is None:
            chunks = workers
        focal_chunks = chunk_focal_nodes(request.focal_nodes, chunks)
        if not focal_chunks:
            return {}

        if matches is None and algorithm in ADOPTS_MATCHES:
            # One matching pass, shared by every chunk.  Subpattern
            # censuses need raw (non-distinct) embeddings, mirroring
            # prepare_matches.
            distinct = subpattern is None
            matches = find_matches(graph, pattern, method=matcher, distinct=distinct)

        workers = min(workers, len(focal_chunks))
        if workers <= 1 or len(focal_chunks) == 1:
            executor = "serial"

        results = _execute(
            executor, workers, graph, pattern, k, fn, algorithm, focal_chunks,
            subpattern, matcher, matches, options,
        )

        counts = {}
        merged = {}
        chunk_seconds = []
        for chunk_counts, counters, elapsed, _ in results:
            counts.update(chunk_counts)
            chunk_seconds.append(elapsed)
            for name, value in counters.items():
                merged[name] = merged.get(name, 0) + value
        if obs.enabled:
            for name in sorted(merged):
                obs.add(name, merged[name])
            obs.add("census.parallel.chunks", len(focal_chunks))
            obs.add("census.parallel.workers", workers)
            for elapsed in chunk_seconds:
                obs.observe("census.parallel.chunk_seconds", elapsed)
            span.set("chunks", len(focal_chunks))
            span.set("workers", workers)
            _stitch_chunk_spans(span, focal_chunks, results)
        return counts


def _stitch_chunk_spans(parent_span, focal_chunks, results):
    """Reattach each chunk's serialized span subtree under the parent.

    Every chunk — serial, thread, or pool-worker — recorded into a
    private context and shipped its span roots back as plain dicts;
    here each becomes one ``census.parallel.chunk`` child of the
    ``census.parallel`` span, so parallel plans show per-chunk timing.
    Rebuilt spans keep only relative time (``start_time=0``): absolute
    ``perf_counter`` values are meaningless across processes.
    """
    for index, (_, _, elapsed, span_docs) in enumerate(results):
        chunk_span = Span(
            "census.parallel.chunk",
            {"chunk": index, "focal_nodes": len(focal_chunks[index])},
        )
        chunk_span.start_time = 0.0
        chunk_span.end_time = elapsed
        chunk_span.children = [Span.from_dict(doc) for doc in span_docs]
        parent_span.children.append(chunk_span)


def _execute(executor, workers, graph, pattern, k, fn, algorithm, focal_chunks,
             subpattern, matcher, matches, options):
    """Run the chunks on the requested executor, in chunk order."""
    if executor == "serial":
        return [
            _run_chunk_inline(
                graph, pattern, k, fn, chunk, subpattern, matcher, matches, options,
            )
            for chunk in focal_chunks
        ]
    # Thread and process chunks run outside the parent's contextvar
    # context; ship the remaining allowance instead.
    budget = current_budget()
    budget_spec = budget.spec() if budget is not None else None
    if executor == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_chunk_inline, graph, pattern, k, fn, chunk,
                    subpattern, matcher, matches, options, budget_spec,
                )
                for chunk in focal_chunks
            ]
            return [f.result() for f in futures]
    if executor == "process":
        payload = pickle.dumps(
            (graph, pattern, k, subpattern, matcher, algorithm, matches,
             options, budget_spec, active_plan())
        )
        pool = None
        try:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker,
                    initargs=(payload,),
                )
                futures = [
                    pool.submit(_run_chunk_in_worker, chunk)
                    for chunk in focal_chunks
                ]
            except (OSError, PermissionError):
                # Sandboxes without fork/spawn: degrade to threads.
                return _execute(
                    "thread", workers, graph, pattern, k, fn, algorithm,
                    focal_chunks, subpattern, matcher, matches, options,
                )
            results = []
            crashed = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool:
                    # The worker died mid-chunk (or the pool broke while
                    # this chunk was still queued).  Mark it for a serial
                    # retry in the parent below.
                    results.append(None)
                    crashed.append(index)
            if crashed:
                obs = current_obs()
                if obs.enabled:
                    obs.add("census.parallel.worker_crashes", 1)
                    obs.add("census.parallel.chunk_retries", len(crashed))
                for index in crashed:
                    # Worker-scoped faults do not fire in the parent, so
                    # a plan that kills every worker still converges to
                    # the serial counts.
                    results[index] = _run_chunk_inline(
                        graph, pattern, k, fn, focal_chunks[index],
                        subpattern, matcher, matches, options,
                    )
            return results
        finally:
            if pool is not None:
                # Unconditional: a chunk raising (BudgetExceeded, an
                # injected exception, ...) must not leak worker
                # processes or leave queued chunks running.
                pool.shutdown(wait=False, cancel_futures=True)
    raise CensusError(
        f"unknown executor {executor!r}; expected 'process', 'thread', or 'serial'"
    )

"""PR 2 perf tracking: CSR snapshots + parallel census execution.

Measures the fig4c unlabeled-census workload (``COUNTP(clq3-unlb,
SUBGRAPH(ID, 2))`` on a PA graph) along the two axes this PR adds:

- **backend** — dict ``Graph`` vs its frozen CSR snapshot, both
  end-to-end (matching + counting) and census-phase only (counting with
  a pre-found match list, the part ND-PVOT's bit-parallel kernel and
  the parallel executor accelerate), plus ND-PVOT's census phase on the
  dict graph with the kernel switched off (the per-node set loop kept
  for numpy-free installs);
- **workers** — 1 vs 4 focal chunks.  Per-chunk wall-times are measured
  inside the chunks themselves, so the critical path (max chunk time)
  is the wall-time a >=4-core machine realizes; on a single-CPU host
  the chunks merely run back-to-back and total wall-time is unchanged.

Emits ``benchmarks/results/BENCH_pr2.json`` (checked in) so the perf
trajectory is comparable across PRs, and asserts the headline claims:
identical counts everywhere, ND-PVOT's bit-parallel kernel >=2x over
the set loop in the census phase on the same dict graph, and >=1.5x
critical-path scaling from 1 to 4 workers on at least one algorithm.
"""

import os

import repro.census.indexed

from repro.bench.harness import Sweep, time_call
from repro.bench.reporting import machine_info, render_series, sweep_payload, write_json
from repro.census import ALGORITHMS, parallel_census
from repro.datasets.workloads import pa_graph
from repro.graph.csr import freeze
from repro.lang.catalog import standard_catalog
from repro.matching import find_matches
from repro.obs import ObsContext

from conftest import RESULTS_DIR, run_once

N = 800
K = 2
PATTERN = "clq3-unlb"
CENSUS_SERIES = ("nd-diff", "nd-pvot", "pt-bas", "pt-opt")
SCALING_SERIES = ("nd-diff", "nd-pvot", "pt-bas")
REPS = 5
WORKERS = 4


def _best(fn, reps=REPS):
    """Min-of-``reps`` wall-time and the last result."""
    best = None
    result = None
    for _ in range(reps):
        seconds, result = time_call(fn)
        if best is None or seconds < best:
            best = seconds
    return best, result


def _chunk_seconds(graph, pattern, algorithm, matches, workers):
    """Per-chunk wall-times of one parallel run (serial executor: each
    chunk timed alone, free of single-CPU timesharing contention)."""
    with ObsContext() as obs:
        counts = parallel_census(
            graph, pattern, K, algorithm=algorithm, workers=workers,
            executor="serial", matches=matches,
        )
    hist = obs.registry.histograms()["census.parallel.chunk_seconds"]
    return counts, hist.max, hist.sum


def test_perf_pr2(benchmark, record_figure, monkeypatch):
    pattern = standard_catalog().get(PATTERN)
    dict_graph = pa_graph(N, labeled=False)
    csr_graph = freeze(dict_graph)

    backends = Sweep("pr2: dict vs CSR backend", x_label="phase")
    scaling = Sweep("pr2: 1 vs 4 workers", x_label="algorithm")
    counts = {}
    scaling_rows = []

    def run():
        for name in CENSUS_SERIES:
            fn = ALGORITHMS[name]
            for backend, graph in (("dict", dict_graph), ("csr", csr_graph)):
                seconds, result = _best(lambda: fn(graph, pattern, K))
                backends.record(f"{name}/{backend}", "end-to-end", seconds)
                counts[(name, backend, "end-to-end")] = result

                matches = find_matches(graph, pattern, method="cn", distinct=True)
                seconds, result = _best(lambda: fn(graph, pattern, K, matches=matches))
                backends.record(f"{name}/{backend}", "census-phase", seconds)
                counts[(name, backend, "census-phase")] = result

        # ND-PVOT's census phase on the same dict graph and match list,
        # forced onto the per-node set loop.
        fn = ALGORITHMS["nd-pvot"]
        matches = find_matches(dict_graph, pattern, method="cn", distinct=True)
        with monkeypatch.context() as m:
            m.setattr(repro.census.indexed, "_HAS_BITWISE_COUNT", False)
            seconds, result = _best(lambda: fn(dict_graph, pattern, K, matches=matches))
        backends.record("nd-pvot/dict-set-loop", "census-phase", seconds)
        counts[("nd-pvot", "dict-set-loop", "census-phase")] = result

        for name in SCALING_SERIES:
            matches = find_matches(csr_graph, pattern, method="cn", distinct=True)
            c1, critical_1w, _total = _chunk_seconds(
                csr_graph, pattern, name, matches, workers=1
            )
            c4, critical_4w, total_4w = _chunk_seconds(
                csr_graph, pattern, name, matches, workers=WORKERS
            )
            assert c1 == c4, f"{name}: 1-worker and {WORKERS}-worker counts differ"
            counts[(name, "csr", "workers")] = c4
            scaling.record(f"{name}/1w", name, critical_1w)
            scaling.record(f"{name}/{WORKERS}w-critical-path", name, critical_4w)
            scaling_rows.append({
                "algorithm": name,
                "workers": WORKERS,
                "serial_seconds": critical_1w,
                "chunk_total_seconds": total_4w,
                "critical_path_seconds": critical_4w,
                "scaling_1_to_4": critical_1w / critical_4w,
            })

    run_once(benchmark, run)

    # Identical counts everywhere: backends, phases, and worker counts.
    reference = counts[(CENSUS_SERIES[0], "dict", "end-to-end")]
    for key, result in counts.items():
        assert result == reference, f"counts diverge at {key}"

    speedups = {}
    for name in CENSUS_SERIES:
        speedups[name] = {
            phase: (backends.value(f"{name}/dict", phase)
                    / backends.value(f"{name}/csr", phase))
            for phase in ("end-to-end", "census-phase")
        }
    kernel_speedup = (backends.value("nd-pvot/dict-set-loop", "census-phase")
                      / backends.value("nd-pvot/dict", "census-phase"))

    payload = {
        "bench": "BENCH_pr2",
        "workload": {"figure": "fig4c", "pattern": PATTERN, "nodes": N, "k": K,
                     "reps": REPS},
        "machine": machine_info(),
        "backends": sweep_payload(backends),
        "backend_speedup_dict_over_csr": speedups,
        "nd_pvot_kernel_speedup_over_set_loop": kernel_speedup,
        "workers": sweep_payload(scaling),
        "workers_scaling": scaling_rows,
        "notes": (
            "census-phase = counting with a pre-found match list (the phase "
            "ND-PVOT's bit-parallel kernel accelerates and the parallel executor "
            "chunks); nd-pvot/dict-set-loop = the same phase on the dict graph "
            "with the kernel switched off. critical_path_seconds = max per-chunk wall-time, i.e. "
            "the wall-time realized with one core per chunk; chunks are "
            "timed back-to-back so single-CPU CI hosts measure it cleanly."
        ),
    }
    write_json(os.path.join(RESULTS_DIR, "BENCH_pr2.json"), payload)
    record_figure("pr2_backends", render_series(backends))
    record_figure("pr2_workers", render_series(scaling))

    # Headline claims (the PR's acceptance criteria).
    assert kernel_speedup >= 2.0, kernel_speedup
    best_scaling = max(row["scaling_1_to_4"] for row in scaling_rows)
    assert best_scaling >= 1.5, scaling_rows

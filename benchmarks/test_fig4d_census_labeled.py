"""Figure 4(d): pattern census on labeled graphs, varying size.

Paper setup: ``COUNTP(clq3, SUBGRAPH(ID, 2))`` on labeled PA graphs of
200K–1M nodes.  The labeled triangle is selective (few matches), so
pattern-driven algorithms beat node-driven ones, PT-OPT beats PT-RND
(best-first order matters), and PT-OPT wins overall.

Scaled to 1K–2K nodes with k=3 (larger neighborhoods stand in for the
paper's much larger graphs).  Two cost metrics are reported:

- wall-clock, on which we assert the family ordering (pattern-driven
  beats node-driven for the selective pattern).  The paper's ND-PVOT
  checks containment node by node; that is the per-node set loop here
  (``nd-pvot/set-loop``, forced by hiding ``np.bitwise_count`` as
  ``tests/census/test_indexed.py`` does), and the ordering is asserted
  against it.  The bit-parallel ND-PVOT kernel (``nd-pvot``) is this
  repository's addition and beats every PT variant; that is asserted
  on its own;
- adjacency-entry visits (the disk-I/O proxy that dominates on the
  paper's disk-resident substrate), on which we assert PT-OPT's
  mechanism: simultaneous traversal + clustering visit far fewer edges
  than PT-BAS's independent per-match BFS runs, and best-first order
  pops no more nodes than random order.
"""

import pytest

import repro.census.indexed
from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.census import ALGORITHMS
from repro.census.pt_bas import pt_bas_census
from repro.census.pt_opt import PTOptions, pt_opt_census
from repro.datasets.workloads import pa_graph
from repro.lang.catalog import standard_catalog

from conftest import run_counted, run_once

SIZES = (1000, 2000)
K = 3
SERIES = ("nd-pvot", "nd-pvot/set-loop", "nd-diff", "pt-bas", "pt-opt", "pt-rnd")
PT_SERIES = ("pt-bas", "pt-opt", "pt-rnd")


def algorithm(name):
    """The census function of a series; ``nd-pvot/set-loop`` is ND-PVOT
    forced onto its per-node set loop."""
    base, _, variant = name.partition("/")
    fn = ALGORITHMS[base]
    if variant != "set-loop":
        return fn

    def set_loop(*args, **kwargs):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(repro.census.indexed, "_HAS_BITWISE_COUNT", False)
            return fn(*args, **kwargs)

    return set_loop


def test_fig4d_sweep(benchmark, record_figure):
    pattern = standard_catalog().get("clq3")
    sweep = Sweep("fig4d: census, labeled clq3, k=3", x_label="nodes")
    metrics = {}

    def run():
        for n in SIZES:
            graph = pa_graph(n, labeled=True)
            results = {}
            for name in SERIES:
                results[name] = sweep.run(name, n, algorithm(name), graph, pattern, K)
            assert all(r == results["nd-pvot"] for r in results.values())

            _, bas = run_counted(pt_bas_census, graph, pattern, K)
            _, opt = run_counted(pt_opt_census, graph, pattern, K)
            _, rnd = run_counted(pt_opt_census, graph, pattern, K,
                                 options=PTOptions(order="random"))
            metrics[n] = {
                "pt-bas edge visits": bas["census.pt_bas.edge_visits"],
                "pt-opt edge visits": opt["census.pt_opt.edge_visits"],
                "pt-opt pops (best-first)": opt["census.pt_opt.queue_pops"],
                "pt-opt pops (random)": rnd["census.pt_opt.queue_pops"],
            }
        return sweep

    run_once(benchmark, run)
    lines = [render_series(sweep), ""]
    for n, m in sorted(metrics.items()):
        lines.append(f"n={n}: " + ", ".join(f"{k}={v}" for k, v in m.items()))
    record_figure("fig4d", "\n".join(lines))

    largest = SIZES[-1]
    # Shape: for the selective labeled pattern, the pattern-driven
    # family beats the paper's node-driven family (inverse of Figure
    # 4(c)).
    best_pt = min(sweep.value(s, largest) for s in PT_SERIES)
    best_nd = min(sweep.value(s, largest) for s in ("nd-pvot/set-loop", "nd-diff"))
    assert best_pt < best_nd
    # PT-OPT itself is competitive with the node-driven family (its
    # decisive win is on the I/O metrics below and on the disk-resident
    # substrate; in-memory wall clock carries interpreter noise).
    assert sweep.value("pt-opt", largest) < 1.5 * best_nd
    # Shape: PT-OPT's shared traversal visits far fewer adjacency
    # entries than PT-BAS's independent BFS runs.
    for n in SIZES:
        assert metrics[n]["pt-opt edge visits"] < 0.5 * metrics[n]["pt-bas edge visits"]
    # Shape: best-first ordering does no more queue pops than random.
    for n in SIZES:
        assert (metrics[n]["pt-opt pops (best-first)"]
                <= metrics[n]["pt-opt pops (random)"])
    # The bit-parallel ND-PVOT kernel beats every PT variant here.
    for n in SIZES:
        assert sweep.value("nd-pvot", n) < min(sweep.value(s, n) for s in PT_SERIES)


def test_fig4d_disk_resident(benchmark, record_figure):
    """Figure 4(d) on the disk-resident substrate.

    In pure Python the in-memory wall clock tracks interpreted
    operation counts, which flatters PT-BAS's lean BFS loops.  The
    paper's prototype ran on a disk-based engine where adjacency access
    dominates — and on our paged store with a small buffer pool the
    paper's ordering is restored in wall-clock terms: PT-OPT's 6x
    fewer adjacency visits beat PT-BAS outright.  As in the in-memory
    sweep, the node-driven side of that ordering is ND-PVOT's per-node
    set loop, and the bit-parallel kernel's win is asserted on its own.
    """
    import os
    import tempfile

    from repro.storage import DiskGraph

    mem = pa_graph(1000, labeled=True)
    pattern = standard_catalog().get("clq3")
    path = os.path.join(tempfile.mkdtemp(), "fig4d.db")
    DiskGraph.create(path, mem).close()
    sweep = Sweep("fig4d-disk: labeled clq3 on the disk store, k=3", x_label="algorithm")

    def run():
        for name in ("pt-bas", "pt-opt", "nd-pvot/set-loop", "nd-pvot"):
            disk = DiskGraph.open(path, cache_pages=32, record_cache=64)
            sweep.run("time", name, algorithm(name), disk, pattern, K)
        return sweep

    run_once(benchmark, run)
    record_figure("fig4d_disk", render_series(sweep))

    # Shape: with I/O on the critical path, PT-OPT beats PT-BAS —
    # the paper's Figure 4(d) ordering.
    assert sweep.value("time", "pt-opt") < sweep.value("time", "pt-bas")
    assert sweep.value("time", "pt-opt") < sweep.value("time", "nd-pvot/set-loop")
    # The bit-parallel ND-PVOT kernel beats every PT variant here.
    assert sweep.value("time", "nd-pvot") < min(
        sweep.value("time", s) for s in ("pt-bas", "pt-opt"))

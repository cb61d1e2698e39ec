"""Figure 4(e): varying focal-node selectivity.

Paper setup: unlabeled 500K-node graph, query ``COUNTP(clq3-unlb,
SUBGRAPH(ID, 2)) ... WHERE RND() < R`` for R in 20%..100%.  Node-driven
runtime grows linearly with R; pattern-driven runtime is flat because
those algorithms process matches regardless of which nodes are focal.

Scaled to an 800-node graph.  Wall-clock series are recorded for the
figure; the asserted shapes use deterministic *work* metrics, which is
what selectivity actually controls:

- ND-PVOT's BFS visits grow (near-)linearly with the focal fraction;
- PT-OPT's traversal work (queue pops + relaxations) is exactly
  identical across selectivities — pattern-driven algorithms never look
  at the focal set until the final harvest.
"""

import random

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.census.nd_pvot import nd_pvot_census
from repro.census.pt_opt import pt_opt_census
from repro.datasets.workloads import pa_graph
from repro.lang.catalog import standard_catalog

from conftest import run_counted, run_once

GRAPH_SIZE = 800
K = 2
SELECTIVITIES = (0.2, 0.4, 0.6, 0.8, 1.0)


def focal_sample(graph, fraction, seed=5):
    rng = random.Random(seed)
    return [n for n in graph.nodes() if rng.random() < fraction]


def test_fig4e_sweep(benchmark, record_figure):
    graph = pa_graph(GRAPH_SIZE, labeled=False)
    pattern = standard_catalog().get("clq3-unlb")
    sweep = Sweep("fig4e: census by focal selectivity", x_label="R")
    nd_work = {}
    pt_work = {}

    def run():
        for r in SELECTIVITIES:
            focal = focal_sample(graph, r) if r < 1.0 else None
            _, nd = run_counted(sweep.run, "ND-PVOT", r, nd_pvot_census, graph,
                                pattern, K, focal)
            nd_work[r] = nd["census.nd_pvot.bfs_expansions"]
            _, pt = run_counted(sweep.run, "PT-OPT", r, pt_opt_census, graph,
                                pattern, K, focal)
            pt_work[r] = pt["census.pt_opt.queue_pops"] + pt["census.pt_opt.relaxations"]
        return sweep

    run_once(benchmark, run)
    lines = [render_series(sweep), "", "work metrics:"]
    for r in SELECTIVITIES:
        lines.append(f"  R={r}: ND-PVOT bfs visits={nd_work[r]}, "
                     f"PT-OPT pops+relaxations={pt_work[r]}")
    record_figure("fig4e", "\n".join(lines))

    # Shape: node-driven per-node work grows with selectivity (the
    # one-off global matching pass is excluded from this metric, so the
    # growth is close to linear, as in the paper).
    assert nd_work[1.0] > 3 * nd_work[0.2]
    assert nd_work[0.2] < nd_work[0.6] < nd_work[1.0]
    # Shape: pattern-driven work is selectivity-independent — exactly.
    assert len(set(pt_work.values())) == 1

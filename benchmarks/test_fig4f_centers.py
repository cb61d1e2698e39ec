"""Figure 4(f): effect of the number and choice of centers on PT-OPT.

Paper setup: labeled 1M-node graph, clq3, k=2; centers chosen by degree
(DEG-CNTR) vs uniformly at random (RND-CNTR); center count swept 0..24
while the number of centers feeding the *clustering* feature space is
held fixed to isolate the distance-initialization effect.  Findings:
degree centers help (then plateau / degrade from overhead); random
centers do not help and get worse as more are added.

Scaled to a 4K-node graph.  Runtime at this scale is noisy, so the
asserted shape is on traversal *work* (queue pops + relaxations), which
is what the center bounds actually save: degree centers with a moderate
count do at most the no-center work, and degree centers never do more
work than the same number of random centers (summed over the sweep).
"""

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.census.pt_opt import PTOptions, pt_opt_census
from repro.datasets.workloads import pa_graph
from repro.lang.catalog import standard_catalog

from conftest import run_counted, run_once

GRAPH_SIZE = 4000
K = 2
CENTER_COUNTS = (0, 4, 12, 24)
CLUSTERING_CENTERS = 12


def test_fig4f_sweep(benchmark, record_figure):
    graph = pa_graph(GRAPH_SIZE, labeled=True)
    pattern = standard_catalog().get("clq3")
    sweep = Sweep("fig4f: PT-OPT by center count", x_label="centers")
    work = {}

    def run():
        for strategy, series in (("degree", "DEG-CNTR"), ("random", "RND-CNTR")):
            for count in CENTER_COUNTS:
                opts = PTOptions(
                    num_centers=count,
                    center_strategy=strategy,
                    clustering_centers=CLUSTERING_CENTERS,
                )
                _, c = run_counted(sweep.run, series, count, pt_opt_census, graph,
                                   pattern, K, None, None, "cn", opts)
                work[(series, count)] = (c["census.pt_opt.queue_pops"]
                                         + c["census.pt_opt.relaxations"])
        return sweep

    run_once(benchmark, run)
    lines = [render_series(sweep), "", "traversal work (pops + relaxations):"]
    for (series, count), w in sorted(work.items()):
        lines.append(f"  {series} centers={count}: {w}")
    record_figure("fig4f", "\n".join(lines))

    # Shape: a moderate number of degree centers does not increase work
    # over no centers.
    assert work[("DEG-CNTR", 12)] <= work[("DEG-CNTR", 0)]
    # Shape: degree centers are no worse than random centers overall.
    deg_total = sum(work[("DEG-CNTR", c)] for c in CENTER_COUNTS)
    rnd_total = sum(work[("RND-CNTR", c)] for c in CENTER_COUNTS)
    assert deg_total <= rnd_total

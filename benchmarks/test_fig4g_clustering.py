"""Figure 4(g): effect of pattern-match clustering on PT-OPT.

Paper setup: labeled 1M-node graph, clq3, k=2; NO-CLUST vs RND-CLUST vs
the center-feature K-means OPT-CLUST, sweeping the number of clusters
100..600.  Findings: OPT-CLUST wins; too few clusters hurt (too many
matches per traversal means redundant distance computations) and too
many clusters forfeit sharing.

Scaled to a 4K-node graph with the cluster count swept as a fraction of
the match count.  Asserted shape (on traversal work, which is what
clustering saves): K-means clustering at the middle setting beats both
no clustering and random clustering at the same setting.
"""

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.census.pt_opt import PTOptions, pt_opt_census
from repro.datasets.workloads import pa_graph
from repro.lang.catalog import standard_catalog

from conftest import run_counted, run_once

GRAPH_SIZE = 4000
K = 2
#: cluster count as a divisor of the match count (paper: matches/4).
DIVISORS = (2, 4, 8)


def test_fig4g_sweep(benchmark, record_figure):
    graph = pa_graph(GRAPH_SIZE, labeled=True)
    pattern = standard_catalog().get("clq3")
    from repro.census.base import CensusRequest, prepare_matches

    num_matches = len(prepare_matches(CensusRequest(graph, pattern, K)))
    sweep = Sweep("fig4g: PT-OPT by clustering strategy", x_label="clusters")
    work = {}

    def run():
        for strategy, series in (("none", "NO-CLUST"), ("random", "RND-CLUST"),
                                 ("kmeans", "OPT-CLUST")):
            for divisor in DIVISORS:
                clusters = max(1, num_matches // divisor)
                opts = PTOptions(clustering=strategy, num_clusters=clusters)
                _, c = run_counted(sweep.run, series, clusters, pt_opt_census, graph,
                                   pattern, K, None, None, "cn", opts)
                work[(series, divisor)] = (c["census.pt_opt.queue_pops"]
                                           + c["census.pt_opt.relaxations"])
        return sweep

    run_once(benchmark, run)
    lines = [render_series(sweep), "", f"matches: {num_matches}",
             "traversal work (pops + relaxations):"]
    for (series, divisor), w in sorted(work.items()):
        lines.append(f"  {series} matches/{divisor}: {w}")
    record_figure("fig4g", "\n".join(lines))

    middle = DIVISORS[1]
    # Shape: K-means clustering reduces work vs no clustering.
    assert work[("OPT-CLUST", middle)] < work[("NO-CLUST", middle)]
    # Shape: K-means clustering beats random grouping.
    assert work[("OPT-CLUST", middle)] <= work[("RND-CLUST", middle)]

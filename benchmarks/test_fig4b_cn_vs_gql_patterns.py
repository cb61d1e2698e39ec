"""Figure 4(b): CN vs GQL across query patterns.

Paper setup: a 1M-node labeled graph; patterns of Figure 3.  GQL's
worst case is the square (480x slower than CN — it could not finish on
the plotted scale).  Scaled to a 4K-node graph over the clq3, clq4,
sqr, path3 and star3 patterns; the shape claims are that CN wins on
every pattern and that the square is GQL's worst pattern relative to
CN.  CN and GQL share one profile index per graph version
(``graph.profile_index``); it is built before the timed calls, so
both matchers are timed on matching alone.
"""

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.datasets.workloads import matching_workload
from repro.matching import cn_matches, gql_matches

from conftest import run_once

GRAPH_SIZE = 4000
PATTERNS = ("clq3", "clq4", "sqr", "path3", "star3")


def test_fig4b_sweep(benchmark, record_figure):
    sweep = Sweep("fig4b: CN vs GQL by pattern", x_label="pattern")

    def run():
        for pattern_name in PATTERNS:
            graph, pattern = matching_workload(GRAPH_SIZE, pattern_name)
            graph.profile_index  # warm: neither matcher pays the build
            cn = sweep.run("CN", pattern_name, cn_matches, graph, pattern)
            gql = sweep.run("GQL", pattern_name, gql_matches, graph, pattern)
            assert {m.canonical_key for m in cn} == {m.canonical_key for m in gql}
        return sweep

    run_once(benchmark, run)
    record_figure("fig4b", render_series(sweep))

    speedups = {
        pattern_name: sweep.value("GQL", pattern_name) / sweep.value("CN", pattern_name)
        for pattern_name in PATTERNS
    }
    # Shape: CN wins on every pattern.
    assert all(s > 1.0 for s in speedups.values()), speedups
    # Shape: the square is GQL's worst pattern (the paper's 480x point).
    assert speedups["sqr"] == max(speedups.values()), speedups

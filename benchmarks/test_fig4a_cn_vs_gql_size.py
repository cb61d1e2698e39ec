"""Figure 4(a): CN vs GQL pattern matching, varying graph size.

Paper setup: PA graphs 200K–1M nodes (edges = 5x nodes), 4 labels,
patterns clq3 and clq4; CN beats GQL by 10–140x, and the gap widens
with graph size.  Scaled here to 1K–4K nodes; the shape claims asserted
are (1) CN wins at every size for both patterns and (2) the clq3
speedup grows monotonically with size.

CN and GQL share one profile index per graph version
(``graph.profile_index``); it is built before the timed calls, so
both matchers are timed on matching alone.
"""

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series, speedup_table
from repro.datasets.workloads import matching_workload
from repro.matching import cn_matches, gql_matches

from conftest import run_once

SIZES = (1000, 2000, 4000)
PATTERNS = ("clq3", "clq4")


def test_fig4a_sweep(benchmark, record_figure):
    sweep = Sweep("fig4a: CN vs GQL by graph size", x_label="nodes")

    def run():
        for n in SIZES:
            for pattern_name in PATTERNS:
                graph, pattern = matching_workload(n, pattern_name)
                graph.profile_index  # warm: neither matcher pays the build
                cn = sweep.run(f"CN/{pattern_name}", n, cn_matches, graph, pattern)
                gql = sweep.run(f"GQL/{pattern_name}", n, gql_matches, graph, pattern)
                assert {m.canonical_key for m in cn} == {m.canonical_key for m in gql}
        return sweep

    run_once(benchmark, run)
    record_figure(
        "fig4a",
        render_series(sweep) + "\n" + speedup_table(sweep, "GQL/clq3"),
    )

    # Shape: CN wins everywhere.
    for n in SIZES:
        for pattern_name in PATTERNS:
            assert sweep.value(f"CN/{pattern_name}", n) < sweep.value(f"GQL/{pattern_name}", n)
    # Shape: the clq3 speedup grows with graph size.
    speedups = [
        sweep.value("GQL/clq3", n) / sweep.value("CN/clq3", n) for n in SIZES
    ]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 3.0

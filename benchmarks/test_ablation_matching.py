"""Ablation: what the candidate-neighbor sets buy.

Compares the full CN matcher against the GQL-style baseline (identical
candidate filtering, no CN sets) and brute force (no filtering at all)
on one workload, and reports CN's pruning statistics.  The design claim
(DESIGN.md §5): candidate filtering and CN-set extraction each
contribute, so brute force > GQL > CN in runtime.  CN and GQL share
one profile index per graph version (``graph.profile_index``); it is
built before the timed calls, so both are timed on matching alone.
"""

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.datasets.workloads import matching_workload
from repro.matching import bruteforce_matches, cn_matches, gql_matches
from repro.matching.cn import build_cn_state

from conftest import run_once

GRAPH_SIZE = 600  # small enough for brute force to finish


def test_ablation_matching(benchmark, record_figure):
    graph, pattern = matching_workload(GRAPH_SIZE, "clq3")
    graph.profile_index  # warm: neither matcher pays the build
    sweep = Sweep("ablation: matcher strategies", x_label="matcher")

    def run():
        cn = sweep.run("time", "cn", cn_matches, graph, pattern)
        gql = sweep.run("time", "gql", gql_matches, graph, pattern)
        bf = sweep.run("time", "bruteforce", bruteforce_matches, graph, pattern)
        assert ({m.canonical_key for m in cn}
                == {m.canonical_key for m in gql}
                == {m.canonical_key for m in bf})
        return sweep

    run_once(benchmark, run)

    state = build_cn_state(graph, pattern)
    lines = [render_series(sweep), "", "CN pruning:"]
    for var in pattern.nodes:
        initial = state.stats["initial_candidates"][var]
        pruned = state.stats["pruned_candidates"][var]
        lines.append(f"  ?{var}: {initial} -> {pruned} candidates")
    record_figure("ablation_matching", "\n".join(lines))

    assert sweep.value("time", "cn") < sweep.value("time", "gql")
    assert sweep.value("time", "gql") < sweep.value("time", "bruteforce")

"""Per-algorithm operation-counter baselines.

Timings vary by machine; *operation counts* do not.  This benchmark
runs every census algorithm on one fixed seeded workload under an
observability context and records the counters each algorithm reports
(containment checks, bulk adds, BFS expansions, queue pops, edge
visits, ...).  The table written to
``benchmarks/results/counter_baselines.txt`` is a deterministic
fingerprint of algorithmic work: an optimization PR should move these
numbers on purpose, and a refactor should not move them at all.
"""

from repro.census import census
from repro.census.pairwise import pairwise_census
from repro.census.topk import census_topk
from repro.datasets.workloads import pa_graph
from repro.lang.catalog import standard_catalog
from repro.obs import ObsContext

GRAPH_SIZE = 150
RADIUS = 1
PATTERN = "clq3-unlb"

ALGORITHMS = ("nd-bas", "nd-pvot", "nd-diff", "pt-bas", "pt-opt")


def _counters_for(run):
    with ObsContext() as obs:
        run()
    # The profile index is kept with the graph across calls: whether a
    # call built or reused it depends on what ran before, not on
    # (graph, pattern, k), so its counters are no fingerprint of work.
    return {name: value for name, value in obs.counter_table()
            if not name.startswith("graph.profile_index.")}


def collect_baselines():
    graph = pa_graph(GRAPH_SIZE, m=3)
    pattern = standard_catalog().get(PATTERN)
    rows = {}
    for algorithm in ALGORITHMS:
        rows[algorithm] = _counters_for(
            lambda: census(graph, pattern, RADIUS, algorithm=algorithm)
        )
    pairs = [(i, i + 1) for i in range(0, 40, 2)]
    for strategy in ("nd", "pt"):
        rows[f"pairwise-{strategy}"] = _counters_for(
            lambda: pairwise_census(
                graph, pattern, RADIUS, pairs=pairs, algorithm=strategy
            )
        )
    rows["topk"] = _counters_for(
        lambda: census_topk(graph, pattern, RADIUS, K=10)
    )
    return rows


def render(rows):
    lines = [
        f"operation counters, {PATTERN} on pa_graph({GRAPH_SIZE}, m=3), "
        f"k={RADIUS} (deterministic)",
        "",
    ]
    for name in sorted(rows):
        lines.append(f"[{name}]")
        for counter, value in sorted(rows[name].items()):
            lines.append(f"  {counter} = {value}")
        lines.append("")
    return "\n".join(lines).rstrip()


def test_counter_baselines(record_figure):
    rows = collect_baselines()

    # Counts are pure functions of (graph, pattern, k): a second run
    # must reproduce them exactly.
    assert collect_baselines() == rows

    # Every algorithm runs the same matching front-end (counts differ
    # only by the distinct-vs-automorphic mode the algorithm asks for)...
    assert all(r["match.cn.matches"] > 0 for r in rows.values())
    # ...and reports its own work on top of it.
    assert rows["nd-pvot"]["census.nd_pvot.bfs_expansions"] > 0
    assert rows["nd-bas"]["census.nd_bas.subgraphs_extracted"] > 0
    assert rows["nd-diff"]["census.nd_diff.diff_steps"] > 0
    assert rows["pt-bas"]["census.pt_bas.edge_visits"] > 0
    assert rows["pt-opt"]["census.pt_opt.queue_pops"] > 0
    assert (rows["pairwise-nd"].get("census.pairwise.bulk_added", 0)
            + rows["pairwise-nd"].get("census.pairwise.containment_checks", 0)) > 0
    assert rows["topk"]["census.topk.exact_evaluations"] > 0
    # The pivot index works on the shared match set — ND-PVOT never
    # extracts per-ego subgraphs the way the baseline does (the paper's
    # Algorithm 2 claim, stated on counters).
    assert "census.nd_bas.extracted_nodes" in rows["nd-bas"]
    assert "census.nd_bas.extracted_nodes" not in rows["nd-pvot"]

    record_figure("counter_baselines", render(rows))

"""Ablation: the paper's future-work extensions (Section VII).

- Top-k census: the threshold algorithm should return the exact top-k
  while exactly evaluating only a fraction of the nodes.
- Approximate census: a modest match sample should estimate the census
  of the highest-count ego within a small relative error, much faster
  than the exact pattern-driven pass at scale.
"""

from repro.bench.harness import Sweep
from repro.bench.reporting import render_series
from repro.census import census
from repro.census.approx import approximate_census
from repro.census.topk import census_topk
from repro.datasets.workloads import pa_graph
from repro.lang.catalog import standard_catalog

from conftest import run_counted, run_once

GRAPH_SIZE = 1500
K_HOPS = 2
TOP_K = 10


def test_ablation_topk(benchmark, record_figure):
    # A selective (labeled) pattern: anchors are sparse, so the
    # upper-bound diffusion is cheap and the threshold fires early.
    graph = pa_graph(4000, labeled=True)
    pattern = standard_catalog().get("clq3")
    sweep = Sweep("ablation: top-k vs full census", x_label="method")
    stats = {}

    def run():
        top, counters = run_counted(sweep.run, "time", "topk", census_topk, graph,
                                    pattern, K_HOPS, TOP_K)
        stats["exact_evaluations"] = counters["census.topk.exact_evaluations"]
        full = sweep.run("time", "full (nd-pvot)", census, graph, pattern, K_HOPS,
                         None, None, "nd-pvot")
        want_counts = sorted(full.values(), reverse=True)[:TOP_K]
        assert [c for _n, c in top] == want_counts
        assert all(full[n] == c for n, c in top)
        return sweep

    run_once(benchmark, run)
    lines = [
        render_series(sweep),
        "",
        f"exact evaluations: {stats['exact_evaluations']} / {graph.num_nodes} nodes",
    ]
    record_figure("ablation_topk", "\n".join(lines))

    # Shape: the threshold algorithm exactly evaluates only a fraction
    # of the nodes and beats the equivalent full node-driven census.
    assert stats["exact_evaluations"] < graph.num_nodes / 2
    assert sweep.value("time", "topk") < sweep.value("time", "full (nd-pvot)")


def test_ablation_approx(benchmark, record_figure):
    graph = pa_graph(GRAPH_SIZE, labeled=False)
    pattern = standard_catalog().get("clq3-unlb")
    sweep = Sweep("ablation: approximate census", x_label="sample")
    errors = {}

    exact = census(graph, pattern, K_HOPS, algorithm="nd-pvot")
    hub = max(exact, key=exact.get)

    def run():
        for sample in (50, 200, 800):
            approx = sweep.run("time", sample, approximate_census, graph, pattern,
                               K_HOPS, sample)
            errors[sample] = abs(approx[hub] - exact[hub]) / max(1, exact[hub])
        return sweep

    run_once(benchmark, run)
    lines = [render_series(sweep), "", f"relative error at the top ego (exact={exact[hub]}):"]
    for sample, err in sorted(errors.items()):
        lines.append(f"  sample={sample}: {err:.3f}")
    record_figure("ablation_approx", "\n".join(lines))

    # Shape: more samples, less error at the hub; the largest sample is
    # within 25% relative error.
    assert errors[800] <= errors[50] + 1e-9
    assert errors[800] < 0.25

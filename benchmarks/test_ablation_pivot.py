"""Ablation: ND-PVOT pivot selection.

Section IV-A.1 argues the min-eccentricity pivot is optimal with
respect to the containment checks that can be *avoided*: a match
anchored at distance ``d`` from the focal node is bulk-counted without
any check when ``d + max_v <= k``, and ``max_v`` (the pivot's
eccentricity within the pattern) is what the pivot choice controls.

On a path pattern A-B-C-D the ends have eccentricity 3 and the middle
nodes 2: with k=3 a middle pivot bulk-counts matches anchored up to 1
hop away, while an end pivot can only bulk-count matches anchored at
the focal node itself.  The asserted shape: the min-eccentricity pivot
achieves at least the bulk-shortcut fraction of the worst pivot, and
every pivot returns identical counts.
"""

from repro.census.nd_pvot import nd_pvot_census
from repro.graph.generators import preferential_attachment
from repro.matching.pattern import Pattern

from conftest import run_counted, run_once

# Sparse graph: 4-path counts explode combinatorially with density.
GRAPH_SIZE = 300
K = 3


def path4():
    p = Pattern("path4")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("C", "D")
    return p


def bulk_fraction(stats):
    bulk = stats["census.nd_pvot.bulk_added"]
    done = bulk + stats["census.nd_pvot.containment_checks"]
    return bulk / done if done else 0.0


def test_ablation_pivot(benchmark, record_figure):
    graph = preferential_attachment(GRAPH_SIZE, m=2, seed=7)
    pattern = path4()
    all_stats = {}
    counts = {}

    def run():
        for pivot in "ABCD":
            counts[pivot], all_stats[pivot] = run_counted(
                nd_pvot_census, graph, pattern, K, pivot_var=pivot
            )
        return all_stats

    run_once(benchmark, run)

    lines = [f"ablation: ND-PVOT pivot choice (path pattern A-B-C-D, k={K})"]
    for pivot, stats in all_stats.items():
        lines.append(
            f"  pivot ?{pivot} (ecc={pattern.eccentricity(pivot)}): "
            f"bulk={stats['census.nd_pvot.bulk_added']} "
            f"checked={stats['census.nd_pvot.containment_checks']} "
            f"bulk fraction={bulk_fraction(stats):.3f}"
        )
    record_figure("ablation_pivot", "\n".join(lines))

    # Correctness does not depend on the pivot.
    assert counts["A"] == counts["B"] == counts["C"] == counts["D"]
    # Shape: the min-eccentricity pivots (B, C; max_v=2) bulk-count a
    # larger fraction of the work than the worst pivots (A, D; max_v=3).
    best = max(bulk_fraction(all_stats["B"]), bulk_fraction(all_stats["C"]))
    worst = max(bulk_fraction(all_stats["A"]), bulk_fraction(all_stats["D"]))
    assert best >= worst
    assert bulk_fraction(all_stats["B"]) > 0.0 or bulk_fraction(all_stats["C"]) > 0.0

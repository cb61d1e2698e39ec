"""The paper's future-work extensions: top-k and approximate census.

Section VII of the paper proposes (a) top-k evaluation to find the egos
with the highest census counts without a full census, and (b)
approximation for even larger graphs.  Both are implemented here:

- ``census_topk`` — a threshold algorithm over anchor-mass upper bounds
  that exactly evaluates only a fraction of the nodes;
- ``approximate_census`` — an unbiased match-sampling estimator with
  per-node standard errors.

Run:  python examples/topk_and_approximation.py
"""

import time

from repro.census import census
from repro.census.approx import approximate_census, sample_size_for_error
from repro.census.topk import census_topk
from repro.graph.generators import preferential_attachment
from repro.matching.pattern import Pattern
from repro.obs import ObsContext


def main():
    g = preferential_attachment(1200, m=4, seed=2)
    tri = Pattern("tri")
    tri.add_edge("A", "B")
    tri.add_edge("B", "C")
    tri.add_edge("A", "C")

    print(f"graph: {g.num_nodes} nodes / {g.num_edges} edges\n")

    t0 = time.perf_counter()
    full = census(g, tri, 2, algorithm="nd-pvot")
    full_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    with ObsContext() as obs:
        top = census_topk(g, tri, 2, 10)
    topk_time = time.perf_counter() - t0
    evaluated = obs.registry.counter("census.topk.exact_evaluations").value

    print("top 10 egos by triangles within 2 hops:")
    for node, count in top:
        print(f"  node {node}: {count}")
    print(
        f"\nfull census: {full_time:.2f}s; top-k: {topk_time:.2f}s "
        f"({evaluated} of {g.num_nodes} nodes evaluated exactly)"
    )

    hub = top[0][0]
    total_matches = int(round(sum(full.values()) / 1))  # just for display
    sample = sample_size_for_error(total_matches, target_stderr=50)
    estimates = approximate_census(g, tri, 2, sample_size=300, with_stderr=True)
    est, err = estimates[hub]
    print(
        f"\napproximate census at the top ego (sample=300 matches): "
        f"{est:.0f} +/- {err:.0f} (exact {full[hub]})"
    )


if __name__ == "__main__":
    main()

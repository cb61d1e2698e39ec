"""Shared machinery for the figure-reproduction benchmarks.

Every ``test_fig4*`` benchmark reproduces one panel of the paper's
Figure 4: it runs the full parameter sweep once inside the
pytest-benchmark harness, prints the series table (the textual analogue
of the figure), writes it to ``benchmarks/results/``, and asserts the
*shape* claims the paper makes (who wins, roughly by how much, where
behavior changes).  Absolute times are machine- and Python-specific;
shapes are what the reproduction guarantees.
"""

import os

import pytest

from repro.obs import ObsContext

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def record_figure():
    """Write one figure's rendered sweep to benchmarks/results/<name>.txt."""

    def _record(name, text):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"\n{text}")
        return path

    return _record


def run_once(benchmark, fn):
    """Run a sweep exactly once under the pytest-benchmark harness."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_counted(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under a fresh ObsContext.

    Returns ``(result, counters)``: the work the call reported through
    its obs counters (``census.pt_opt.queue_pops``, ...), by name.
    """
    with ObsContext() as obs:
        result = fn(*args, **kwargs)
    return result, obs.registry.snapshot()["counters"]

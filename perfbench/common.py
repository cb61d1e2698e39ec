"""Paths and small helpers shared by the benchmark's processes."""

import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated graphs, worker results and span files.
WORK = ROOT / ".perfbench-work"


def use_repro():
    """Put the checkout's ``src`` first on ``sys.path``; exit 2 when the
    checkout holds no ``repro`` sources (the benchmark builds nothing
    else and must not pick up an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))


def own_peak_rss_mib():
    """Peak resident set size of the calling process, MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mib(pid):
    """Peak resident set size of process ``pid``, MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values):
    return statistics.median(values) if values else None

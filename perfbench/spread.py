"""Run-to-run spread of one workload, for setting and checking bounds.

    python3 perfbench/spread.py --workload NAME --runs N [--first-seed S]
                                [--seconds S] [--traced]

Runs ``perfbench/run.py`` N times with seeds S, S+1, ... and prints, per
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the interquartile spread as a share of the median; the bounds in
``BENCHMARK.json`` are set from these spreads.  ``--traced`` adds one
traced run per seed and reports the tracing overhead: traced against
untraced ``ops_per_s``.  The run length defaults to ``run_seconds`` of
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from common import HERE, ROOT


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(results):
    names = list(results[0]["metrics"])
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rows[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return rows


def print_rows(title, rows):
    print(title)
    print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, row in rows.items():
        spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
        print(f"  {name:36s} {row['median']:12.4f} {row['q1']:12.4f} "
              f"{row['q3']:12.4f} {spread:>8s} {row['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]

    seeds = range(args.first_seed, args.first_seed + args.runs)
    plain, traced = [], []
    for seed in seeds:
        plain.append(run_once(args.workload, seed, seconds, 0))
        if args.traced:
            traced.append(run_once(args.workload, seed, seconds, 1))

    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    rows = summarize(plain)
    print_rows(f"{args.workload}: {args.runs} runs x {seconds:g} s, seeds "
               f"{seeds.start}..{seeds.stop - 1}, {failed}/{attempted} "
               f"operations failed", rows)
    summary = {"workload": args.workload, "seconds": seconds, "seeds": list(seeds),
               "attempted": attempted, "failed": failed, "end_to_end": rows}
    if traced:
        layer_rows = summarize(traced)
        print_rows("per layer (traced runs)", layer_rows)
        overhead = 1 - (layer_rows["trace.ops_per_s"]["median"]
                        / rows["ops_per_s"]["median"])
        print(f"tracing overhead: {overhead:+.2%} of untraced ops_per_s")
        summary["per_layer"] = layer_rows
        summary["tracing_overhead"] = overhead
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

"""Steadiness self-check: is every end-to-end metric repeatable?

Usage, from the root of a checkout::

    python3 perfbench/steady.py                       # seeds 1-10 x every workload
    python3 perfbench/steady.py --workloads redis-repair --seeds 5

For each workload it runs the benchmark on seeds 1..N, twice over, and
reports per end-to-end metric the spread of each set's values: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric is flagged when a spread exceeds 0.1 or (``setup_s`` excepted)
its bound from ``BENCHMARK.json``, or when the second set's median is
worse than the first's by more than the bound; a spread above a third
of the bound is marked as a warning.  The deterministic counts must
read the same in both sets, seed by seed.  Exits 1 if anything is
flagged.  The raw values are kept in
``.perfbench_out/steady-<workload>.json``.  The held-out seed (7919, see
``README.md``) is never used here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: end-to-end metrics that are counts, not measurements: they must repeat exactly
DETERMINISTIC = ("inserted_instructions", "fixed_cycles_per_op", "success_rate")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Check that the benchmark repeats.")
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    flagged = 0
    seeds = range(1, args.seeds + 1)
    for workload in args.workloads:
        sets = [[run_once(workload, seed, args.seconds) for seed in seeds]
                for _ in range(2)]
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench_out", f"steady-{workload}.json"), "w") as out:
            json.dump({"seeds": list(seeds), "sets": sets}, out)
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            shares = [spread([run[name] for run in s]) for s in sets]
            medians = [statistics.median(run[name] for run in s) for s in sets]
            failures, warnings = [], []
            if name != "setup_s" and max(shares) > bound:
                failures.append("SPREAD > BOUND")
            elif name != "setup_s" and max(shares) > bound / 3:
                warnings.append("spread > bound/3")
            if max(shares) > 0.1:
                failures.append("does not repeat within 0.1")
            if worse_by(*medians, metric["better"]) > bound:
                failures.append("SECOND MEDIAN WORSE BY MORE THAN BOUND")
            if name in DETERMINISTIC and [r[name] for r in sets[0]] != [r[name] for r in sets[1]]:
                failures.append("COUNT DID NOT REPEAT")
            flagged += bool(failures)
            print(f"  {name:24s} medians {medians[0]:12.6g} {medians[1]:12.6g}  "
                  f"spreads {shares[0]:7.4f} {shares[1]:7.4f}  bound {bound:5.3f}  "
                  + ", ".join(failures + warnings))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

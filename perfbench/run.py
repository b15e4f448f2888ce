"""The repository's benchmark: one seeded workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus-repair --seed 1 --seconds 25 --trace 0

Each run starts the workload in a fresh interpreter
(``perfbench/workloads.py``), so set-up time includes interpreter start,
imports and warm-up, and peak memory belongs to that workload alone.
Set-up is timed in that process and in set-up-only processes it starts
between units of work; ``setup_s`` is the median.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` its ``per_layer`` metrics, from a
run that measures half its time untraced and in the other half
alternates untraced units with units under the benchmark's timing
shims (see ``perfbench/tracing.py``).  Exits non-zero
without a result if the checkout has no program to measure, a check
cannot run, or the workload overruns its time limit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus-batch", "corpus-repair", "redis-repair", "redis-ycsb")
#: every run must end within this many seconds
TIME_LIMIT = 175.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Use byte-code caches as an installed program would, and a fixed
    # hash seed so set and dict orders, and so timings, repeat.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    spawned = time.monotonic()
    # A session of its own, so a timeout stops the batch workers too.
    child = subprocess.Popen(
        command + ["--spawned-at", repr(spawned)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"workload process exited with {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail("no program to measure: src/repro is missing from this checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)
    deadline = started + TIME_LIMIT
    try:
        result = run_child(args, deadline)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {TIME_LIMIT:.0f} s")
    except (RuntimeError, ValueError, KeyError) as exc:
        return fail(str(exc))

    measured = result["metrics"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured:
            return fail(f"workload did not measure {name}")
        metrics[name] = {"value": measured[name], "unit": metric["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

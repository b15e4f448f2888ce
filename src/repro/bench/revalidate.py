"""Bench-smoke for incremental revalidation: full vs incremental
per-phase wall time over the repair corpus.

Each corpus case runs the whole detect-fix-revalidate pipeline twice —
once with the incremental engine, once with the full re-run escape
hatch — under live observability, and the per-phase timings are read
back from the recorded ``detect`` / ``revalidate`` spans (the same
numbers EXPERIMENTS E13 reports).  The result document
(``BENCH_revalidate.json``) carries, per case: the revalidation mode
taken, both phase timings, and the engine's ``revalidate.*`` counters.

Exit status (the CI gate): 0 when

- every corpus case actually took the synthesis tier — flush/fence-only
  repairs via event splicing, structural (clone + retarget) repairs via
  callee-span rewriting — and
- the aggregate revalidate-phase speedup across the flush/fence-only
  cases is at least ``GATE_SPEEDUP`` (the acceptance criterion's 3x
  minus 10% measurement tolerance — a regression of the incremental
  path beyond that fails the build).  The structural cases are gated
  separately by ``repro.bench.revalidate_structural``
  (``BENCH_structural.json``).

Detect-phase timings are recorded but not gated: recording a baseline
costs about the same as a plain detection run by design, and CI
wall-clock ratios near 1.0 are too noisy to gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..corpus.bugs import all_cases
from ..fsutil import atomic_write_text
from ..obs.observability import Observability
from ..supervisor.tasks import run_case

#: Cases whose repairs are flush/fence-only — the synthesis tier must
#: carry these (mirrors tests/test_revalidate_differential.py).
SYNTH_CASES = ("PMDK-452", "PMDK-940", "PMDK-943", "P-CLHT")

#: Required aggregate revalidate-phase speedup on the synthesis-tier
#: cases: the >=3x acceptance bar with 10% measurement tolerance.
GATE_SPEEDUP = 2.7


def _phase_seconds(obs: Observability, name: str) -> float:
    return sum(
        r["duration"]
        for r in obs.tracer.records
        if r.get("name") == name and "duration" in r
    )


def _revalidate_counters(obs: Observability) -> Dict[str, int]:
    snapshot = obs.metrics_snapshot()
    return {
        key: value
        for key, value in snapshot.get("counters", {}).items()
        if key.startswith("revalidate.")
    }


def run_bench() -> Dict:
    """Run the full corpus both ways; returns the result document."""
    result: Dict = {"schema": "repro-bench-revalidate-v1", "failures": []}
    cases: Dict[str, Dict] = {}

    # One untimed run warms the allocator and interpreter caches; in a
    # fresh process the first case otherwise pays a cold-start tax big
    # enough (relative to these millisecond phases) to flip the gate.
    run_case(next(iter(all_cases())))

    inc_reval_total = 0.0
    full_reval_total = 0.0
    for case in all_cases():
        obs_inc = Observability()
        outcome_inc = run_case(case, obs=obs_inc, incremental_revalidate=True)
        obs_full = Observability()
        outcome_full = run_case(
            case, obs=obs_full, incremental_revalidate=False
        )

        mode = (outcome_inc.revalidation or {}).get("mode", "?")
        entry = {
            "mode": mode,
            "detect_seconds": {
                "incremental": round(_phase_seconds(obs_inc, "detect"), 6),
                "full": round(_phase_seconds(obs_full, "detect"), 6),
            },
            "revalidate_seconds": {
                "incremental": round(_phase_seconds(obs_inc, "revalidate"), 6),
                "full": round(_phase_seconds(obs_full, "revalidate"), 6),
            },
            "chains_rechecked": (outcome_inc.revalidation or {}).get(
                "chains_rechecked", 0
            ),
            "counters": _revalidate_counters(obs_inc),
        }
        cases[case.case_id] = entry

        if outcome_inc.reports_after_fix != outcome_full.reports_after_fix:
            result["failures"].append(
                f"{case.case_id}: verdict diverged (incremental "
                f"{outcome_inc.reports_after_fix} vs full "
                f"{outcome_full.reports_after_fix} bug(s) remaining)"
            )
        if mode != "synthesized":
            result["failures"].append(
                f"{case.case_id}: expected the synthesis tier, got "
                f"mode {mode!r}"
            )
        if case.case_id in SYNTH_CASES:
            inc_reval_total += entry["revalidate_seconds"]["incremental"]
            full_reval_total += entry["revalidate_seconds"]["full"]

    speedup = full_reval_total / max(inc_reval_total, 1e-9)
    result["cases"] = cases
    result["synth_revalidate"] = {
        "cases": list(SYNTH_CASES),
        "full_seconds": round(full_reval_total, 6),
        "incremental_seconds": round(inc_reval_total, 6),
        "speedup": round(speedup, 3),
        "gate": GATE_SPEEDUP,
    }
    if speedup < GATE_SPEEDUP:
        result["failures"].append(
            f"incremental revalidation speedup {speedup:.2f}x is below the "
            f"{GATE_SPEEDUP}x gate (flush/fence-only cases)"
        )
    result["ok"] = not result["failures"]
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.revalidate", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--out",
        default="BENCH_revalidate.json",
        help="where to write the result document",
    )
    args = parser.parse_args(argv)
    result = run_bench()
    atomic_write_text(args.out, json.dumps(result, indent=2, sort_keys=True) + "\n")
    synth = result["synth_revalidate"]
    print(
        f"revalidate bench: flush/fence-only revalidation "
        f"{synth['full_seconds']}s full vs {synth['incremental_seconds']}s "
        f"incremental ({synth['speedup']}x, gate {synth['gate']}x)"
    )
    for failure in result["failures"]:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 0 if result["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    sys.exit(main())

"""Bench-smoke for structural-fix synthesis.

Every corpus case needing a clone + retarget (``HoistedFix``) repair
must revalidate on the synthesis tier — the recorded callee span is
rewritten in place instead of re-executing the workload.  The
revalidate-phase wall time is compared against the full re-run escape
hatch, per case and in aggregate, and written to
``BENCH_structural.json``.

Exit status (the CI gate): 0 when every structural case took the
synthesis tier.
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
from .revalidate import SYNTH_CASES, _phase_seconds


def run_bench() -> Dict:
    """Run the structural corpus cases; returns the result document."""
    result: Dict = {"schema": "repro-bench-structural-v1", "failures": []}
    structural: Dict[str, Dict] = {}

    synth_total = 0.0
    full_total = 0.0
    for case in all_cases():
        if case.case_id in SYNTH_CASES:
            continue
        obs_inc = Observability()
        outcome = run_case(case, obs=obs_inc, incremental_revalidate=True)
        obs_full = Observability()
        run_case(case, obs=obs_full, incremental_revalidate=False)
        mode = (outcome.revalidation or {}).get("mode", "?")
        inc_seconds = _phase_seconds(obs_inc, "revalidate")
        full_seconds = _phase_seconds(obs_full, "revalidate")
        structural[case.case_id] = {
            "mode": mode,
            "revalidate_seconds": {
                "synthesized": round(inc_seconds, 6),
                "full": round(full_seconds, 6),
            },
        }
        if mode != "synthesized":
            result["failures"].append(
                f"{case.case_id}: structural repair should take the "
                f"synthesis tier, got mode {mode!r}"
            )
        synth_total += inc_seconds
        full_total += full_seconds

    result["structural_revalidate"] = {
        "cases": structural,
        "full_seconds": round(full_total, 6),
        "synthesized_seconds": round(synth_total, 6),
        "speedup": round(full_total / max(synth_total, 1e-9), 3),
    }
    result["ok"] = not result["failures"]
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.revalidate_structural",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--out",
        default="BENCH_structural.json",
        help="where to write the result document",
    )
    args = parser.parse_args(argv)
    result = run_bench()
    atomic_write_text(args.out, json.dumps(result, indent=2, sort_keys=True) + "\n")
    struct = result["structural_revalidate"]
    print(
        f"structural bench: revalidation {struct['full_seconds']}s full vs "
        f"{struct['synthesized_seconds']}s synthesized "
        f"({struct['speedup']}x) over {len(struct['cases'])} structural case(s)"
    )
    for failure in result["failures"]:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 0 if result["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    sys.exit(main())

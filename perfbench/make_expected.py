"""Regenerate ``expected_corpus.json``, the corpus workloads' oracle.

Run from the repository root: ``python3 perfbench/make_expected.py``.
It records, per corpus case, the bugs detected, the bugs remaining
after repair, the fix kinds and the SHA-256 of the repaired module's
textual IR, as the program produced them when the file was written.
The benchmark compares every later run against this file, so
regenerate it only for a change that is meant to alter repair output,
and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.corpus.bugs import all_cases  # noqa: E402
from repro.supervisor import run_case  # noqa: E402
from workloads import case_record  # noqa: E402


def main() -> None:
    expected = {case.case_id: case_record(run_case(case)) for case in all_cases()}
    with open(os.path.join(HERE, "expected_corpus.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

"""PMTest-style assertion checking.

PMTest (Liu et al., ASPLOS 2019) lets developers annotate their code
with persistence assertions; the runtime validates them against a trace
of PM operations.  Our IR programs make the same annotations by calling
the ``pmtest_assert_persisted(addr, size)`` intrinsic, which records a
tagged durability boundary; this module's checker validates each
assertion against the cache-line state machine.

The paper notes Hippocrates "currently supports pmemcheck and PMTest"
as front-ends; both our checkers emit the same
:class:`~repro.detect.reports.BugReport` structures, so Hippocrates is
oblivious to which tool found the bug.
"""

from __future__ import annotations

from typing import List

from ..trace.trace import PMTrace
from .durability import check_trace_pmtest
from .reports import DetectionResult


def check_assertions(trace: PMTrace) -> DetectionResult:
    """Validate every ``pmtest_assert_persisted`` assertion in a trace."""
    return check_trace_pmtest(trace)


def assertion_labels(trace: PMTrace) -> List[str]:
    """The labels of all PMTest assertions present in a trace."""
    return [
        b.label for b in trace.boundaries() if b.label.startswith("pmtest:")
    ]

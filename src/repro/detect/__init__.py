"""PM bug-finding tools (the front half of the paper's pipeline).

Two detectors are provided, both producing the same report format:

- :func:`check_trace` — pmemcheck-style: checks *every* PM store at
  every durability boundary, no annotations needed.
- :func:`repro.detect.pmtest.check_assertions` — PMTest-style: checks
  developer-written ``pmtest_assert_persisted`` assertions only.

:func:`pmemcheck_run` is the convenience harness that executes a
workload under tracing and checks the result — the equivalent of
``valgrind --tool=pmemcheck ./app``.
"""

from typing import Callable, Optional, Tuple

from ..interp import make_interpreter
from ..interp.costs import CostModel
from ..interp.interpreter import Interpreter
from ..ir.module import Module
from ..trace.trace import PMTrace
from .durability import DurabilityChecker, check_trace, check_trace_pmtest
from .pmtest import assertion_labels, check_assertions
from .reports import BugKind, BugReport, DetectionResult, PerfReport

#: A workload driver: receives a live interpreter and exercises the
#: module (host-side setup, entry-point calls, ...).
Driver = Callable[[Interpreter], None]


def pmemcheck_run(
    module: Module,
    driver: Driver,
    cost_model: Optional[CostModel] = None,
    fuel: int = 50_000_000,
    metrics=None,
    engine: Optional[str] = None,
) -> Tuple[DetectionResult, PMTrace, Interpreter]:
    """Execute ``driver`` against ``module`` under pmemcheck-style tracing.

    Returns the detection result, the trace (which Hippocrates
    consumes), and the finished interpreter (for inspecting machine
    state or observable output).  ``metrics`` (an optional
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the
    interpreter's step/flush/fence/store totals.  ``engine`` picks the
    execution engine (default: the process-wide default, normally
    ``"flat"``); both engines produce byte-identical traces.
    """
    interp = make_interpreter(
        module,
        engine=engine,
        cost_model=cost_model,
        fuel=fuel,
        metrics=metrics,
    )
    driver(interp)
    trace = interp.finish()
    return check_trace(trace), trace, interp


__all__ = [
    "assertion_labels",
    "BugKind",
    "BugReport",
    "check_assertions",
    "check_trace",
    "check_trace_pmtest",
    "DetectionResult",
    "Driver",
    "DurabilityChecker",
    "PerfReport",
    "pmemcheck_run",
]

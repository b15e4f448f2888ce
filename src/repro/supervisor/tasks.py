"""Repair tasks: the unit of work the batch supervisor schedules.

A :class:`RepairTask` is pure, JSON-serializable data — a worker
subprocess can rebuild everything it needs from the spec alone:

- ``corpus`` tasks name a case from the 23-bug corpus by id; the worker
  rebuilds the module, re-collects the trace, repairs, and revalidates
  (the supervisor-scheduled form of :func:`run_case`).
- ``file`` tasks name a module file + pmemcheck trace file (+ optional
  output path): the ``repro fix`` workflow, batchable.

Execution is **deterministic**: :func:`execute_task` returns a
:class:`TaskResult` whose ``record`` contains only reproducible facts
(counts, fix kinds, a SHA-256 of the fixed module's IR) — no wall-clock
time, no memory numbers, no attempt counters.  That determinism is what
lets a resumed batch replay completed tasks from the journal and still
produce a byte-identical aggregate report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.hippocrates import FixReport, Hippocrates
from ..corpus.bugs import BugCase, all_cases, classify_fix, compare_fix_kinds
from ..detect import pmemcheck_run
from ..errors import ReproError
from ..interp import ENGINES, get_default_engine
from ..ir.printer import format_module
from ..obs.observability import NULL_OBS, Observability
from ..revalidate import IncrementalRevalidator

#: task kinds
KINDS = ("corpus", "file")


class TaskError(ReproError):
    """A task spec was malformed or named an unknown corpus case."""


# ---------------------------------------------------------------------------
# per-case repair (previously bench.harness.run_case; the supervisor is
# now the canonical owner so corpus runs route through one code path)
# ---------------------------------------------------------------------------


@dataclass
class CaseOutcome:
    """Detect-fix-revalidate outcome for one corpus case."""

    case: BugCase
    reports_found: int
    reports_after_fix: int
    fix_report: FixReport
    fix_kinds: List[str]
    comparison: Optional[str] = None
    #: the repaired module (for digesting / further inspection)
    module: Any = None
    #: analysis-manager hit/miss counters (volatile — never journaled)
    analysis_stats: Optional[Dict[str, int]] = None
    #: how revalidation ran (mode, segments replayed, chains rechecked)
    #: — volatile diagnostics, never journaled
    revalidation: Optional[Dict[str, Any]] = None

    @property
    def fixed(self) -> bool:
        return self.reports_found > 0 and self.reports_after_fix == 0


def run_case(
    case: BugCase,
    heuristic: str = "full",
    analysis_cache_dir: Optional[str] = None,
    obs: Optional[Observability] = None,
    incremental_revalidate: bool = True,
    engine_kind: Optional[str] = None,
) -> CaseOutcome:
    """Detect, fix, and revalidate one corpus case.

    With ``incremental_revalidate`` (the default) the detection run is
    recorded and the post-fix check goes through the
    :class:`~repro.revalidate.engine.IncrementalRevalidator` — same
    detection results, byte-identical canonical reports, but witnessed
    repairs revalidate without re-executing the workload.
    ``incremental_revalidate=False`` (the
    ``--no-incremental-revalidate`` escape hatch) re-runs everything
    from scratch.  ``engine_kind`` picks the execution engine for every
    run this case makes (detection, revalidation, re-runs); results are
    byte-identical across engines.
    """
    obs = obs if obs is not None else NULL_OBS
    metrics = obs.metrics if obs.enabled else None
    module = case.build()
    engine: Optional[IncrementalRevalidator] = None
    if incremental_revalidate:
        engine = IncrementalRevalidator(
            case.drive, metrics=metrics, engine=engine_kind
        )
    with obs.span("detect", case=case.case_id):
        if engine is not None:
            detection, trace, interp = engine.record(module)
        else:
            detection, trace, interp = pmemcheck_run(
                module, case.drive, metrics=metrics, engine=engine_kind
            )
    fixer = Hippocrates(
        module,
        trace,
        interp.machine,
        heuristic=heuristic,
        analysis_cache_dir=analysis_cache_dir,
        obs=obs,
        revalidator=engine,
    )
    plan = fixer.compute_fixes()
    fix_report = fixer.apply(plan)
    revalidation: Optional[Dict[str, Any]] = None
    with obs.span("revalidate", case=case.case_id):
        if engine is not None:
            outcome = fixer.revalidate()
            after = outcome.detection
            revalidation = outcome.as_stats()
        else:
            after, _, _ = pmemcheck_run(
                module, case.drive, metrics=metrics, engine=engine_kind
            )
    kinds = sorted({classify_fix(f) for f in plan.fixes})
    comparison = None
    if case.developer_fix:
        hippocrates_kind = kinds[0] if len(kinds) == 1 else ",".join(kinds)
        comparison = compare_fix_kinds(hippocrates_kind, case.developer_fix)
    return CaseOutcome(
        case=case,
        reports_found=detection.bug_count,
        reports_after_fix=after.bug_count,
        fix_report=fix_report,
        fix_kinds=kinds,
        comparison=comparison,
        module=module,
        analysis_stats=fixer.manager.stats.as_dict(),
        revalidation=revalidation,
    )


# ---------------------------------------------------------------------------
# task specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairTask:
    """One schedulable unit of repair work (pure data).

    :param task_id: unique within the batch; corpus tasks use the case
        id, file tasks default to the module path.
    :param kind: ``"corpus"`` or ``"file"``.
    :param case_id: for corpus tasks: the :class:`BugCase` id.
    :param module_path: for file tasks: the textual-IR module.
    :param trace_path: for file tasks: the pmemcheck-style log.
    :param output_path: for file tasks: where the fixed module goes
        (None = repair in memory only, report the result).
    :param heuristic: hoisting heuristic mode.
    :param lenient: skip malformed trace lines (file tasks).
    :param analysis_cache_dir: directory of the shared on-disk analysis
        cache (None = no cross-process analysis sharing).  The cache is
        content-addressed, so it never changes *what* a task computes —
        only whether the Andersen fixpoint is re-solved — and is
        deliberately excluded from the journaled result record.
    :param incremental_revalidate: route post-fix revalidation through
        the incremental engine (corpus tasks).  Results are
        byte-identical either way (the differential suite enforces it),
        so — like the analysis cache — the flag is excluded from the
        journaled record.
    :param engine: execution engine kind (``"flat"`` or
        ``"reference"``).  Results are byte-identical across engines
        (differential suite again), so the flag is likewise excluded
        from the journaled record — a resumed batch may finish under a
        different engine than it started with.
    """

    task_id: str
    kind: str = "corpus"
    case_id: str = ""
    module_path: str = ""
    trace_path: str = ""
    output_path: Optional[str] = None
    heuristic: str = "full"
    lenient: bool = False
    analysis_cache_dir: Optional[str] = None
    incremental_revalidate: bool = True
    engine: str = "flat"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise TaskError(f"unknown task kind {self.kind!r}; use {KINDS}")
        if self.engine not in ENGINES:
            raise TaskError(
                f"unknown engine {self.engine!r}; use {ENGINES}"
            )
        if self.kind == "corpus" and not self.case_id:
            raise TaskError("corpus task needs a case_id")
        if self.kind == "file" and not (self.module_path and self.trace_path):
            raise TaskError("file task needs module_path and trace_path")

    def to_spec(self) -> Dict[str, Any]:
        """The JSON form shipped to a worker subprocess."""
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "case_id": self.case_id,
            "module_path": self.module_path,
            "trace_path": self.trace_path,
            "output_path": self.output_path,
            "heuristic": self.heuristic,
            "lenient": self.lenient,
            "analysis_cache_dir": self.analysis_cache_dir,
            "incremental_revalidate": self.incremental_revalidate,
            "engine": self.engine,
        }

    @staticmethod
    def from_spec(spec: Dict[str, Any]) -> "RepairTask":
        return RepairTask(
            task_id=spec["task_id"],
            kind=spec.get("kind", "corpus"),
            case_id=spec.get("case_id", ""),
            module_path=spec.get("module_path", ""),
            trace_path=spec.get("trace_path", ""),
            output_path=spec.get("output_path"),
            heuristic=spec.get("heuristic", "full"),
            lenient=bool(spec.get("lenient", False)),
            analysis_cache_dir=spec.get("analysis_cache_dir"),
            incremental_revalidate=bool(
                spec.get("incremental_revalidate", True)
            ),
            engine=spec.get("engine", get_default_engine()),
        )


def corpus_tasks(
    case_ids: Optional[List[str]] = None,
    heuristic: str = "full",
    analysis_cache_dir: Optional[str] = None,
    incremental_revalidate: bool = True,
    engine: Optional[str] = None,
) -> List[RepairTask]:
    """Build the corpus batch (default: every case, corpus order)."""
    known = {case.case_id: case for case in all_cases()}
    if case_ids is None:
        case_ids = list(known)
    tasks = []
    for case_id in case_ids:
        if case_id not in known:
            raise TaskError(
                f"unknown corpus case {case_id!r}; known: {sorted(known)}"
            )
        tasks.append(
            RepairTask(task_id=case_id, kind="corpus", case_id=case_id,
                       heuristic=heuristic,
                       analysis_cache_dir=analysis_cache_dir,
                       incremental_revalidate=incremental_revalidate,
                       engine=engine or get_default_engine())
        )
    return tasks


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class TaskResult:
    """What one task execution produced.

    ``record`` is the deterministic, journal-able form; ``outcome`` is
    the rich in-memory object (available only when the task ran
    in-process — it never crosses a subprocess boundary).  ``stats``
    carries the analysis-manager counters: volatile observability data
    that must never leak into ``record`` (cache hits vary run to run,
    and the journal replay must stay byte-identical).
    """

    record: Dict[str, Any]
    outcome: Optional[CaseOutcome] = None
    stats: Optional[Dict[str, int]] = None


def _module_digest(module) -> str:
    return hashlib.sha256(format_module(module).encode("utf-8")).hexdigest()


def _corpus_record(task: RepairTask, outcome: CaseOutcome, digest: str) -> Dict[str, Any]:
    report = outcome.fix_report
    record = report.as_record()
    record.update(
        task=task.task_id,
        kind=task.kind,
        bugs_detected=outcome.reports_found,
        bugs_remaining=outcome.reports_after_fix,
        fixed=outcome.fixed,
        fix_kinds=outcome.fix_kinds,
        comparison=outcome.comparison,
        module_sha256=digest,
    )
    return record


def execute_task(task: RepairTask, obs: Optional[Observability] = None) -> TaskResult:
    """Run one task to completion and return its deterministic result.

    Corpus tasks rebuild everything from the case id, so re-executing a
    task (after a worker death, say) starts from pristine state — the
    module a retry repairs is never the half-repaired module of the
    failed attempt.  File tasks write their output atomically
    (:func:`~repro.fsutil.atomic_write_text`), so a kill mid-task never
    tears the output module on disk.

    ``obs`` instruments the execution (a ``task`` span around the whole
    run, phase spans inside); it never changes ``record``.
    """
    obs = obs if obs is not None else NULL_OBS
    with obs.span("task", task=task.task_id, kind=task.kind):
        if task.kind == "corpus":
            case = _find_case(task.case_id)
            outcome = run_case(
                case,
                heuristic=task.heuristic,
                analysis_cache_dir=task.analysis_cache_dir,
                obs=obs,
                incremental_revalidate=task.incremental_revalidate,
                engine_kind=task.engine,
            )
            digest = _module_digest(outcome.module)
            return TaskResult(
                record=_corpus_record(task, outcome, digest),
                outcome=outcome,
                stats=outcome.analysis_stats,
            )
        return _execute_file_task(task, obs)


def _find_case(case_id: str) -> BugCase:
    for case in all_cases():
        if case.case_id == case_id:
            return case
    raise TaskError(f"unknown corpus case {case_id!r}")


def _execute_file_task(task: RepairTask, obs: Observability = NULL_OBS) -> TaskResult:
    from ..fsutil import atomic_write_text
    from ..ir.parser import parse_module
    from ..ir.verifier import verify_module

    with open(task.module_path) as handle:
        module = parse_module(handle.read())
    verify_module(module)
    with open(task.trace_path) as handle:
        trace_text = handle.read()
    fixer = Hippocrates(
        module,
        trace_text,
        heuristic=task.heuristic,
        lenient=task.lenient,
        trace_source=task.trace_path,
        analysis_cache_dir=task.analysis_cache_dir,
        obs=obs,
    )
    plan = fixer.compute_fixes()
    report = fixer.apply(plan)
    fixed_text = format_module(module)
    if task.output_path:
        atomic_write_text(task.output_path, fixed_text)
    record = report.as_record()
    record.update(
        task=task.task_id,
        kind=task.kind,
        bugs_detected=len(fixer.detection.bugs),
        # file tasks have no replayable workload; quarantined bugs are
        # the ones known to remain unfixed
        bugs_remaining=len(report.quarantined),
        fixed=not report.quarantined,
        fix_kinds=sorted({classify_fix(f) for f in plan.fixes}),
        comparison=None,
        module_sha256=hashlib.sha256(fixed_text.encode("utf-8")).hexdigest(),
    )
    return TaskResult(record=record, stats=fixer.manager.stats.as_dict())

"""The incremental revalidation engine.

Post-fix revalidation re-runs the workload and re-checks the trace.
This engine revalidates from the recorded trace alone whenever the
mutation witness allows it:

1. **Record** (:meth:`IncrementalRevalidator.record`): the initial
   detection run executes under a
   :class:`~repro.revalidate.recording.RunRecorder`, keeping per
   top-level call the executed-iid set, the callee spans, and the
   volatile-op side channel next to the baseline trace.
2. **Witness** (:meth:`note_commit`): after each committed fix, the
   :class:`~repro.core.transaction.FixTransaction` reports the *anchor*
   iids — the existing instructions the fix inserted flushes/fences
   after — plus an :class:`~repro.revalidate.witness.InsertionSpec`
   per insertion and a
   :class:`~repro.revalidate.witness.StructuralSpec` per retargeted
   call site.  Witnesses accumulate across fix rounds against the same
   recording.
3. **Revalidate** (:meth:`revalidate`): flush/fence insertions change
   no control flow and no data, and a clone executes the same
   instructions on the same values, so with a complete witness the
   fixed module's trace is a pure function of the baseline trace.  The
   engine *synthesizes* that trace — no execution at all (see
   :mod:`~repro.revalidate.synthesize`) — and checks it in one plain
   :meth:`~repro.detect.durability.DurabilityChecker.check` pass.

Three tiers, cheapest first:

- **baseline** — the module fingerprint is unchanged, or every anchor
  sits in code the recording never executed: the recorded detection
  is returned as-is (``revalidate.noop_hits``);
- **synthesized** — a complete witness: trace synthesis plus one
  checker pass (``revalidate.synth_hits``, structural ones also
  ``revalidate.synth_structural_hits``);
- **full** — a full re-record (counted in ``revalidate.fallbacks``)
  when:

  - a fix committed anchors without insertion specs;
  - a structural fix committed without a usable witness (an
    indescribable clone, an incomplete span record, a span overlap the
    rewriter cannot order, or plain ``structural=True`` with no specs
    at all);
  - an anchor iid (or a retargeted call site) is not in the recorded
    module (the fix anchors at an instruction inserted *after*
    recording, e.g. a round-2 fix anchored on a round-1 flush);
  - the module changed but no anchors were witnessed;
  - synthesis raises at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Set, Tuple

from ..detect import Driver
from ..detect.durability import DurabilityChecker
from ..detect.reports import DetectionResult
from ..interp import ENGINES, get_default_engine, make_interpreter
from ..interp.costs import CostModel
from ..interp.interpreter import Interpreter, Machine
from ..ir.module import Module
from ..trace.trace import PMTrace
from .recording import RecordedRun, RecordingTraceRecorder, RunRecorder
from .synthesize import (
    SynthesisResult,
    synthesize_fixed_trace,
    synthesize_structural_trace,
)
from .witness import InsertionSpec, StructuralSpec


@dataclass
class RevalidationOutcome:
    """One revalidation's result plus how it was obtained.

    ``mode`` is volatile diagnostics (tests assert on it; reports must
    not journal it):

    - ``"baseline"`` — module unchanged (or only dead code changed);
      the recorded detection was returned without any execution.
    - ``"synthesized"`` — the post-fix trace was synthesized from the
      baseline trace and the mutation witness (no execution at all),
      then checked in one pass.
    - ``"full"`` — fell back to (or started with) a full re-record.
    """

    mode: str
    detection: DetectionResult
    trace: PMTrace
    segments_total: int = 0
    #: chain (cache line) addresses the synthesized mutations touched
    rechecked_chains: Set[int] = field(default_factory=set)
    #: why a fallback was taken (diagnostics)
    fallback_reason: str = ""

    @property
    def chains_rechecked(self) -> int:
        return len(self.rechecked_chains)

    def as_stats(self) -> dict:
        """Volatile summary (never part of canonical records)."""
        return {
            "mode": self.mode,
            "segments_total": self.segments_total,
            "chains_rechecked": self.chains_rechecked,
            "fallback_reason": self.fallback_reason,
        }


class IncrementalRevalidator:
    """Records one workload execution and revalidates fixes against it.

    :param driver: the workload driver (same contract as
        :func:`~repro.detect.pmemcheck_run`).
    :param cost_model:, :param fuel: interpreter configuration, applied
        identically to recording and fallback runs.
    :param metrics: optional
        :class:`~repro.obs.metrics.MetricsRegistry`; receives the
        ``revalidate.*`` counters and the interpreters' totals.
    :param engine: execution engine kind, applied identically to
        recording and fallback runs (default: the process-wide default
        engine).  Both engines yield byte-identical recordings.
    """

    def __init__(
        self,
        driver: Driver,
        *,
        cost_model: Optional[CostModel] = None,
        fuel: int = 50_000_000,
        metrics=None,
        engine: Optional[str] = None,
    ):
        self.driver = driver
        self.cost_model = cost_model
        self.fuel = fuel
        self.metrics = metrics
        self.engine = engine or get_default_engine()
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (choose from {ENGINES})"
            )
        self.baseline: Optional[RecordedRun] = None
        self.last_outcome: Optional[RevalidationOutcome] = None
        #: anchor iids committed since the current recording
        self._pending_anchors: Set[int] = set()
        self._pending_structural = False
        #: insertion specs for every committed fix, in commit order;
        #: None once any commit lacked one (synthesis then ineligible —
        #: full re-record)
        self._pending_specs: Optional[list] = []
        #: structural witnesses for every committed hoisted fix, in
        #: commit order; None once any structural commit lacked one
        #: (structural synthesis then ineligible — full re-record)
        self._pending_struct_specs: Optional[list] = []
        #: set when the analysis manager recomputed the baseline via
        #: :meth:`rebuild_baseline` (a full re-record); the next
        #: revalidation reports mode ``"full"`` even though the fresh
        #: baseline's fingerprint now matches the module.
        self._manager_rebuild = False

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    # -- recording ------------------------------------------------------------

    def record(
        self, module: Module
    ) -> Tuple[DetectionResult, PMTrace, Interpreter]:
        """Execute the workload under recording; install the baseline.

        Drop-in replacement for the detection-phase
        :func:`~repro.detect.pmemcheck_run` — same return triple, same
        detection semantics — plus the side effect of memoizing the
        recording this engine revalidates against.
        """
        if self.baseline is not None:
            # Re-recording *is* the full-revalidation fallback path.
            self._count("revalidate.fallbacks")
        self._count("revalidate.records")
        recorder = RunRecorder()
        # A recording machine keeps the volatile-op side channel (for
        # trace synthesis); its trace stays byte-identical to a plain
        # machine's.
        machine = Machine()
        trace_recorder = RecordingTraceRecorder(
            lambda: machine._stack_provider()
        )
        machine.recorder = trace_recorder
        interp = make_interpreter(
            module,
            engine=self.engine,
            machine=machine,
            cost_model=self.cost_model,
            fuel=self.fuel,
            metrics=self.metrics,
            run_recorder=recorder,
        )
        trace_recorder.current_iid = interp.current_iid
        self.driver(interp)
        trace = interp.finish()

        detection = DurabilityChecker().check(trace)

        self.baseline = RecordedRun(
            module_fingerprint=module.fingerprint(),
            module_iids=frozenset(
                instr.iid for instr in module.instructions()
            ),
            segments=recorder.segments,
            trace=trace,
            detection=detection,
            vol_ops=tuple(trace_recorder.vol_ops),
            spans=tuple(recorder.spans),
            spans_ok=recorder.spans_ok,
        )
        self._pending_anchors.clear()
        self._pending_structural = False
        self._pending_specs = []
        self._pending_struct_specs = []
        return detection, trace, interp

    def rebuild_baseline(self, module: Module) -> RecordedRun:
        """Re-record and return the fresh baseline (the analysis
        manager's compute hook for the ``revalidation_index`` key)."""
        self.record(module)
        self._manager_rebuild = True
        assert self.baseline is not None
        return self.baseline

    # -- the mutation witness -------------------------------------------------

    def note_commit(
        self,
        anchor_iids: Iterable[int],
        structural: bool,
        insertions: Optional[Iterable[InsertionSpec]] = None,
        structural_specs: Optional[Iterable[StructuralSpec]] = None,
    ) -> None:
        """A fix transaction committed against the module.

        ``insertions`` carries the full mutation witness (what was
        inserted after each anchor); without it the synthesis tier is
        unavailable and the next revalidation is a full re-record.
        ``structural_specs`` carries the witnesses of a structural
        commit's call retargets; a structural commit without them (None
        *or* empty — some structural mutation went undescribed) makes
        structural synthesis ineligible and the next revalidation a
        full re-record.
        """
        self._pending_anchors.update(anchor_iids)
        if structural:
            self._pending_structural = True
            if not structural_specs:
                self._pending_struct_specs = None
            elif self._pending_struct_specs is not None:
                self._pending_struct_specs.extend(structural_specs)
        if insertions is None:
            self._pending_specs = None
        elif self._pending_specs is not None:
            self._pending_specs.extend(insertions)

    # -- revalidation ---------------------------------------------------------

    def revalidate(
        self, module: Module, baseline: Optional[RecordedRun] = None
    ) -> RevalidationOutcome:
        """Detect against the (fixed) module, incrementally if possible."""
        base = baseline if baseline is not None else self.baseline
        if base is not None and base is not self.baseline:
            # The analysis manager recomputed the baseline (structural
            # invalidation); adopt it.  record() already cleared the
            # witness state when it built this baseline.
            self.baseline = base
        rebuilt = self._manager_rebuild
        self._manager_rebuild = False
        if base is None:
            outcome = self._full(module, "no recording to revalidate against")
        elif self._pending_structural:
            outcome = self._structural(module, base)
        elif module.fingerprint() == base.module_fingerprint:
            if rebuilt:
                # The analysis manager just re-recorded (structural
                # invalidation cascaded to the revalidation index), so
                # this *is* a full revalidation — the fresh recording's
                # detection is the post-fix verdict.
                outcome = RevalidationOutcome(
                    mode="full",
                    detection=base.detection,
                    trace=base.trace,
                    segments_total=len(base.segments),
                    fallback_reason="baseline re-recorded after invalidation",
                )
            else:
                self._count("revalidate.noop_hits")
                outcome = RevalidationOutcome(
                    mode="baseline",
                    detection=base.detection,
                    trace=base.trace,
                    segments_total=len(base.segments),
                )
        elif not self._pending_anchors:
            outcome = self._full(
                module, "module changed without a mutation witness"
            )
        elif not self._pending_anchors <= base.module_iids:
            outcome = self._full(
                module, "fix anchored at an instruction inserted after recording"
            )
        elif not base.executes_any(self._pending_anchors):
            # Every anchor sits in code the recording never executed,
            # so the inserted instructions never execute either: the
            # trace — and the verdict — are unchanged.
            self._count("revalidate.noop_hits")
            outcome = RevalidationOutcome(
                mode="baseline",
                detection=base.detection,
                trace=base.trace,
                segments_total=len(base.segments),
            )
        elif self._pending_specs is None:
            outcome = self._full(
                module, "fix committed without insertion specs"
            )
        else:
            try:
                synthesis = synthesize_fixed_trace(
                    base.trace, base.vol_ops, self._pending_specs
                )
                outcome = self._check_synthesis(base, synthesis)
            except Exception as exc:
                outcome = self._full(
                    module,
                    f"trace synthesis failed: {type(exc).__name__}: {exc}",
                )
        self.last_outcome = outcome
        return outcome

    def _full(self, module: Module, reason: str) -> RevalidationOutcome:
        detection, trace, _ = self.record(module)
        return RevalidationOutcome(
            mode="full",
            detection=detection,
            trace=trace,
            segments_total=len(self.baseline.segments) if self.baseline else 0,
            fallback_reason=reason,
        )

    def _check_synthesis(
        self, base: RecordedRun, synthesis: SynthesisResult
    ) -> RevalidationOutcome:
        """Check a synthesized trace in one plain checker pass."""
        detection = DurabilityChecker().check(synthesis.trace)
        self._count("revalidate.synth_hits")
        self._count(
            "revalidate.chains_rechecked", len(synthesis.affected_lines)
        )
        return RevalidationOutcome(
            mode="synthesized",
            detection=detection,
            trace=synthesis.trace,
            segments_total=len(base.segments),
            rechecked_chains=synthesis.affected_lines,
        )

    def _structural(
        self, module: Module, base: RecordedRun
    ) -> RevalidationOutcome:
        """Structural (hoisted-fix) synthesis, or a full re-record.

        A clone executes the same instructions on the same values, so a
        complete witness lets the engine rewrite the retargeted call
        sites' recorded spans instead of re-executing.  Every degraded
        input degrades to the full tier — never to guessing.
        """
        struct_specs = self._pending_struct_specs
        if not struct_specs:
            return self._full(
                module, "structural fix committed without a witness"
            )
        if self._pending_specs is None:
            return self._full(
                module,
                "structural commit alongside an unwitnessed insertion",
            )
        if not base.spans_ok:
            return self._full(module, "callee-span record incomplete")
        if not {s.call_iid for s in struct_specs} <= base.module_iids:
            return self._full(
                module,
                "structural fix at a call site inserted after recording",
            )
        if not self._pending_anchors <= base.module_iids:
            return self._full(
                module,
                "fix anchored at an instruction inserted after recording",
            )
        try:
            synthesis = synthesize_structural_trace(
                base.trace,
                base.vol_ops,
                base.spans,
                struct_specs,
                self._pending_specs,
            )
            outcome = self._check_synthesis(base, synthesis)
        except Exception as exc:
            return self._full(
                module,
                f"structural synthesis failed: {type(exc).__name__}: {exc}",
            )
        self._count("revalidate.synth_structural_hits")
        return outcome

"""Recording a detection run for later incremental revalidation.

The interpreter notifies a :class:`RunRecorder` at every *top-level*
driver call (``interp.call(...)`` with an empty frame stack).  Each call
becomes a :class:`CallRecord` — a segment of the run — carrying the set
of instruction iids executed during the call.  That set is the
dependency index: a committed fix whose anchor iids (known from the
``FixTransaction`` witness) no segment executed sits in dead code, so
the baseline verdict stands unchanged.

Alongside the segments the recorder keeps the channels trace synthesis
reads: per-callee spans (:class:`CalleeSpan`) for structural fixes and,
through :class:`RecordingTraceRecorder`, the volatile-op side channel
(:class:`VolAnchorOp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..detect.reports import DetectionResult
from ..interp.interpreter import Interpreter
from ..trace.events import CallStack, StoreEvent
from ..trace.trace import PMTrace, TraceRecorder


@dataclass(frozen=True)
class VolAnchorOp:
    """A volatile-target store or flush execution, by trace position.

    Volatile operations record no trace event, but a fence *inserted
    after* such an instruction would still execute and record — so the
    recording run notes them: ``pos`` is ``len(trace.events)`` at the
    moment of the operation (the op happened between baseline events
    ``pos - 1`` and ``pos``), ``iid`` the executing instruction.  The
    trace synthesizer uses these to place fences for volatile anchor
    executions (see :mod:`repro.revalidate.synthesize`).
    """

    pos: int
    iid: int
    kind: str  # "store" | "flush"


class RecordingTraceRecorder(TraceRecorder):
    """A trace recorder that also keeps the volatile-op side channel.

    The side channel never consumes sequence numbers and never touches
    the trace, so the recorded trace is byte-identical to a plain
    :class:`~repro.trace.trace.TraceRecorder`'s.  ``current_iid`` is
    attached by the engine after the interpreter exists (reading the
    executing instruction is much cheaper than capturing a stack).
    """

    record_vol_ops = True

    def __init__(self, stack_provider: Callable[[], CallStack]):
        super().__init__(stack_provider)
        self.vol_ops: List[VolAnchorOp] = []
        self.current_iid: Optional[Callable[[], int]] = None

    def record_store(
        self, addr: int, size: int, space: str, nontemporal: bool = False
    ) -> Optional[StoreEvent]:
        event = super().record_store(addr, size, space, nontemporal)
        if event is None and self.current_iid is not None:
            self.vol_ops.append(
                VolAnchorOp(len(self.trace.events), self.current_iid(), "store")
            )
        return event

    def note_vol_flush(self) -> None:
        if self.current_iid is not None:
            self.vol_ops.append(
                VolAnchorOp(len(self.trace.events), self.current_iid(), "flush")
            )


@dataclass(frozen=True)
class CalleeSpan:
    """One module-function call's footprint in the recorded run.

    Recorded at every intra-module call (not the top-level driver
    calls): the trace-event and volatile-op windows the callee's
    execution occupies, the call site's iid, and the frame depth at the
    call.  Structural synthesis uses spans to find the dynamic
    executions of a retargeted call site and rewrite exactly the events
    inside them (see :mod:`repro.revalidate.synthesize`).

    ``entry``/``exit`` are ``len(trace.events)`` at call and return;
    ``vol_entry``/``vol_exit`` are ``len(recorder.vol_ops)`` at the same
    instants, pinning the interleaving of the volatile side channel
    against the span boundaries.  ``depth`` is the caller's frame count
    *before* the callee frame is pushed — stack frames with index >=
    ``depth`` in an event recorded inside the span belong to the callee
    (or deeper), which is what lets the rewriter re-map exactly the
    cloned suffix of each call stack.
    """

    call_iid: int
    entry: int
    exit: int
    vol_entry: int
    vol_exit: int
    depth: int


@dataclass
class CallRecord:
    """One top-level driver call of the recording run."""

    index: int
    #: iids of every instruction executed during this call
    iids: Set[int] = field(default_factory=set)


class RunRecorder:
    """Collects segments and callee spans during a recorded run.

    Attach via ``Interpreter(..., run_recorder=recorder)``; the
    interpreter calls :meth:`begin_call`/:meth:`end_call` around each
    top-level call and :meth:`enter_callee`/:meth:`exit_callee` around
    each module-callee frame.
    """

    def __init__(self) -> None:
        self.segments: List[CallRecord] = []
        #: completed callee spans, in execution (return) order
        self.spans: List[CalleeSpan] = []
        self._open: List[Tuple[int, int, int, int]] = []
        #: False once an exception unwound past an open callee — the
        #: span record is then incomplete and structural synthesis must
        #: not trust it
        self.spans_ok = True

    # -- callee spans (structural-synthesis witness) ---------------------------

    def enter_callee(
        self, call_iid: int, trace_pos: int, vol_pos: int, depth: int
    ) -> None:
        """The interpreter is about to push a module-callee frame."""
        self._open.append((call_iid, trace_pos, vol_pos, depth))

    def exit_callee(self, trace_pos: int, vol_pos: int) -> None:
        """The innermost open callee just returned."""
        call_iid, entry, vol_entry, depth = self._open.pop()
        self.spans.append(
            CalleeSpan(
                call_iid=call_iid,
                entry=entry,
                exit=trace_pos,
                vol_entry=vol_entry,
                vol_exit=vol_pos,
                depth=depth,
            )
        )

    def _check_balanced(self) -> None:
        # An exception that unwound out of a top-level call leaves open
        # callee entries behind; the span record is unusable from here.
        if self._open:
            self.spans_ok = False
            self._open.clear()

    def begin_call(self, interp: Interpreter) -> None:
        self._check_balanced()
        segment = CallRecord(index=len(self.segments))
        self.segments.append(segment)
        interp._seg_iids = segment.iids

    def end_call(self, interp: Interpreter) -> None:
        self._check_balanced()
        interp._seg_iids = None


@dataclass
class RecordedRun:
    """A completed recording: the incremental-revalidation baseline.

    Everything needed to revalidate a repaired module without executing
    it: the segments' executed-iid sets, the full baseline trace and its
    detection result, and the synthesis channels (volatile ops, callee
    spans).

    ``module_iids`` is the id set of the module *as recorded* — a fix
    anchored at an instruction outside it post-dates the recording, so
    the engine cannot reason about it and falls back to a full run.
    """

    module_fingerprint: str
    module_iids: frozenset
    segments: List[CallRecord]
    trace: PMTrace
    detection: DetectionResult
    #: volatile-target anchor executions (the synthesis side channel)
    vol_ops: Tuple[VolAnchorOp, ...] = ()
    #: completed callee spans, in execution (return) order
    spans: Tuple[CalleeSpan, ...] = ()
    #: True when the span record is complete (no exception ever unwound
    #: past an open callee during recording)
    spans_ok: bool = True

    def executes_any(self, anchor_iids: Set[int]) -> bool:
        """True when some segment executed one of ``anchor_iids``."""
        return any(segment.iids & anchor_iids for segment in self.segments)

"""Incremental revalidation: re-check repaired modules without
re-executing the whole workload.

Post-fix revalidation used to re-run the entire workload through the
interpreter — measured at ~90% of per-task time together with the
initial detection (EXPERIMENTS E11).  This package removes that cost
for the common case:

- :mod:`recording` — the :class:`~repro.revalidate.recording.RunRecorder`
  the interpreter notifies at call boundaries; owns the segments'
  executed-iid sets and the callee spans, next to the volatile-op side
  channel of :class:`~repro.revalidate.recording.RecordingTraceRecorder`.
- :mod:`witness` — the mutation witness: plain-data
  :class:`~repro.revalidate.witness.InsertionSpec` /
  :class:`~repro.revalidate.witness.StructuralSpec` descriptions of
  what each committed fix inserted (flush/fence events, or a cloned
  callee retargeted at one call site), built by the fix pipeline.
- :mod:`synthesize` — builds the post-fix trace *without executing
  anything*: inserted flushes/fences change no control flow and no
  data, so their events splice deterministically into the baseline
  trace (``had_work`` bits recomputed by a cache-line simulation);
  structural (clone + retarget) fixes rewrite the recorded callee span
  in place — same instructions on the same values, only iids, function
  names, and stack frames differ.
- :mod:`engine` — the
  :class:`~repro.revalidate.engine.IncrementalRevalidator` tying it to
  the fix pipeline.  Three tiers per revalidation: unchanged module (or
  anchors only in never-executed code) → baseline verdict; complete
  witness (flush/fence and/or structural) → trace synthesis (no
  execution) checked in one plain pass; degraded witness or any failure
  → full re-record.

The engine's contract is *byte-identity*: detection results, canonical
reports, and do-no-harm verdicts are identical with the engine on or
off (enforced by ``tests/test_revalidate_differential.py`` and the
property suite).
"""

from .engine import IncrementalRevalidator, RevalidationOutcome
from .recording import CalleeSpan, RecordedRun, RunRecorder, VolAnchorOp
from .synthesize import (
    SynthesisResult,
    synthesize_fixed_trace,
    synthesize_structural_trace,
)
from .witness import (
    CloneSpec,
    InsertionSpec,
    StructuralSpec,
    SynthFence,
    SynthFlush,
    spec_for_fix,
)

__all__ = [
    "CalleeSpan",
    "CloneSpec",
    "IncrementalRevalidator",
    "InsertionSpec",
    "RecordedRun",
    "RevalidationOutcome",
    "RunRecorder",
    "StructuralSpec",
    "SynthFence",
    "SynthFlush",
    "SynthesisResult",
    "VolAnchorOp",
    "spec_for_fix",
    "synthesize_fixed_trace",
    "synthesize_structural_trace",
]

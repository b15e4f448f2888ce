"""Synthesizing a post-fix trace from the baseline trace.

Flush and fence insertions are *observationally linear*: they change no
register value, no branch decision, no load result, and no store — so
the fixed module's execution visits exactly the baseline's instruction
sequence, plus the inserted instructions immediately after each dynamic
execution of their anchor.  The post-fix trace is therefore a pure
function of the baseline trace:

1. after every PM store event of a store anchor, splice the fix's
   flush events (and fence, for flush&fence fixes);
2. after every PM flush event of a flush anchor, splice the fence;
3. anchors can also execute against *volatile* targets (a shared helper
   like ``memcpy``): those executions record no store/flush event, but
   an inserted **fence still executes and records**.  The recording
   run's volatile-op side channel (:class:`VolAnchorOp` entries noted
   by the recording trace recorder) pins where those fences land;
4. renumber sequence ids densely (every recorded event consumes one
   ``seq``, exactly as a live recorder would);
5. recompute every flush event's ``had_work`` bit by replaying the
   cache-line durability state machine over the synthesized stream —
   an inserted flush can turn a later baseline flush redundant, and the
   redundant-flush *performance* reports key on that bit.

**Structural fixes** (a call site retargeted at a persistent clone
tree, paper §4.2.4) extend the same argument: a clone executes the same
instructions on the same values — allocas replay in the same order, so
even stack addresses coincide — and only the iids, the function names,
and the inserted covering flushes / trailing sfence differ.
:func:`synthesize_structural_trace` therefore *rewrites* the recorded
callee spans (:class:`~repro.revalidate.recording.CalleeSpan`) of each
retargeted call site instead of re-executing:

- events inside a span are re-mapped through the clone closure's
  original→clone iid map; stack frames at index >= the span's call
  depth (the cloned suffix of each stack) get clone names and iids;
- the clones' covering flushes splice after each re-mapped PM store,
  and earlier-committed flush fixes *copied into* the clones splice as
  re-keyed derived specs (a fix committed after the clone was cut is
  not in the clone body, and its original anchor iid no longer matches
  inside the span — exactly re-execution's behaviour);
- the call site's inserted sfence splices at span exit, after volatile
  ops inside the span's window and before those outside it;
- spans of *other* retargeted call sites nested inside a rewritten span
  are skipped: the outer clone carries its own retargeted copy of the
  inner call site (with no trailing fence), and the outer iid map
  already covers those events.

Field fidelity: events that exist in the baseline keep their recorded
stacks; synthesized flush/fence events derive theirs from the anchor
event (same caller frames, innermost frame swapped for the inserted
instruction).  Fences synthesized for *volatile* anchor executions have
no anchor event to borrow a stack from and get a single-frame stack;
the span-exit sfence borrows the outer frames from the first event
inside its span (single-frame when the span recorded none) — the
detector never reads fence stacks, so detection results (and every
canonical record derived from them) are still byte-identical to a real
re-execution; only those stack fields are approximate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..memory.layout import line_of, lines_covering
from ..trace.events import (
    FenceEvent,
    FlushEvent,
    StackFrame,
    StoreEvent,
    TraceEvent,
)
from ..trace.trace import PMTrace
from .witness import (
    CloneSpec,
    InsertionSpec,
    StructuralSpec,
    SynthFence,
    SynthFlush,
)


class StructuralSynthesisError(ValueError):
    """The span record cannot be rewritten soundly (the engine falls
    back to a full re-record; synthesis never guesses)."""


class SynthesisResult:
    """A synthesized post-fix trace plus what it disturbed."""

    def __init__(self, trace: PMTrace, affected_lines: Set[int]):
        self.trace = trace
        #: cache lines (chains) whose durability history the mutations
        #: touch: the lines inserted flushes cover, every line with
        #: pending (dirty or queued) state at each inserted fence, and
        #: every line a re-mapped in-span store or flush touches.  Bug
        #: verdicts outside these chains cannot change.
        self.affected_lines = affected_lines


class _Site:
    """One retargeted call site's rewrite state."""

    __slots__ = ("iid_map", "fn_map", "fence", "caller_function")

    def __init__(
        self,
        iid_map: Dict[int, int],
        fn_map: Dict[str, str],
        fence: Optional[SynthFence],
        caller_function: str,
    ):
        self.iid_map = iid_map
        self.fn_map = fn_map
        self.fence = fence
        self.caller_function = caller_function


def _rewrite_event(event: TraceEvent, site: _Site, depth: int) -> TraceEvent:
    """Re-map one in-span event through a site's clone closure.

    Frames at index >= ``depth`` (the callee frame and everything above
    it) belong to the cloned execution; frames below are the unchanged
    caller chain.  Instructions of non-cloned helpers called from a
    clone are not in the maps and pass through untouched — re-execution
    runs the very same helper.
    """
    iid_map = site.iid_map
    fn_map = site.fn_map
    stack = event.stack
    if len(stack) > depth:
        frames = list(stack[:depth])
        for frame in stack[depth:]:
            frames.append(
                StackFrame(
                    fn_map.get(frame.function, frame.function),
                    iid_map.get(frame.iid, frame.iid),
                    frame.loc,
                )
            )
        stack = tuple(frames)
    return replace(
        event,
        iid=iid_map.get(event.iid, event.iid),
        function=fn_map.get(event.function, event.function),
        stack=stack,
    )


def _synthesize_stream(
    baseline: PMTrace,
    vol_ops: Iterable,  # Iterable[VolAnchorOp]
    specs: Sequence[InsertionSpec],
    sites: Dict[int, _Site],
    outer_spans: Sequence,  # Sequence[CalleeSpan], disjoint, entry-sorted
) -> SynthesisResult:
    """The shared synthesis engine (flush/fence and structural tiers)."""
    store_plans: Dict[int, List[InsertionSpec]] = {}
    flush_plans: Dict[int, List[InsertionSpec]] = {}
    for spec in specs:
        plans = store_plans if spec.anchor_kind == "store" else flush_plans
        plans.setdefault(spec.anchor_iid, []).append(spec)

    events = baseline.events
    out: List[TraceEvent] = []
    affected: Set[int] = set()
    #: line address -> [dirty, flushing] (mirrors CacheModel semantics;
    #: the checker only needs the booleans, never the store-seq sets)
    lines: Dict[int, List[bool]] = {}
    seq = 0

    def sim_flush(line_addr: int, kind: str) -> bool:
        """Apply one flush to the simulation; return its had_work bit."""
        state = lines.get(line_addr)
        if state is None:
            return False
        dirty, flushing = state
        if dirty:
            if kind == "clflush":
                state[0] = state[1] = False
            else:
                state[0] = False
                state[1] = True
        # A clean line is redundant (no work) unless already queued
        # (coalesced); either way the state does not change.
        return dirty or flushing

    def pending_lines() -> List[int]:
        return [addr for addr, st in lines.items() if st[0] or st[1]]

    def emit_base(event: TraceEvent) -> None:
        nonlocal seq
        seq += 1
        if isinstance(event, StoreEvent):
            if event.space == "pm":
                which = 1 if event.nontemporal else 0
                for line_addr in lines_covering(event.addr, event.size):
                    lines.setdefault(line_addr, [False, False])[which] = True
        elif isinstance(event, FlushEvent):
            had_work = sim_flush(event.line_addr, event.flush_kind)
            if event.seq != seq or event.had_work != had_work:
                event = replace(event, seq=seq, had_work=had_work)
            out.append(event)
            return
        elif isinstance(event, FenceEvent):
            for state in lines.values():
                state[1] = False
        if event.seq != seq:
            event = replace(event, seq=seq)
        out.append(event)

    def emit_synth(spec: InsertionSpec, anchor_event: Optional[TraceEvent]) -> None:
        """Splice one fix's inserted events after an anchor execution.

        ``anchor_event`` is None for a volatile-target execution: the
        inserted flushes then flush volatile lines (no event, no PM
        effect) and only the fences record.
        """
        nonlocal seq
        for op in spec.ops:
            if isinstance(op, SynthFlush):
                if anchor_event is None:
                    continue
                addr = anchor_event.addr + op.offset
                line_addr = line_of(addr)
                affected.add(line_addr)
                had_work = sim_flush(line_addr, op.flush_kind)
                seq += 1
                out.append(
                    FlushEvent(
                        seq=seq,
                        iid=op.iid,
                        loc=op.loc,
                        function=anchor_event.function,
                        stack=anchor_event.stack[:-1]
                        + (StackFrame(anchor_event.function, op.iid, op.loc),),
                        addr=addr,
                        line_addr=line_addr,
                        flush_kind=op.flush_kind,
                        had_work=had_work,
                    )
                )
            else:
                assert isinstance(op, SynthFence)
                affected.update(pending_lines())
                for state in lines.values():
                    state[1] = False
                seq += 1
                if anchor_event is not None:
                    function = anchor_event.function
                    stack = anchor_event.stack[:-1] + (
                        StackFrame(function, op.iid, op.loc),
                    )
                else:
                    function = spec.function
                    stack = (StackFrame(function, op.iid, op.loc),)
                out.append(
                    FenceEvent(
                        seq=seq,
                        iid=op.iid,
                        loc=op.loc,
                        function=function,
                        stack=stack,
                        fence_kind=op.fence_kind,
                    )
                )

    def emit_vol_anchor(op) -> None:
        plans = store_plans if op.kind == "store" else flush_plans
        for spec in plans.get(op.iid, ()):
            emit_synth(spec, None)

    pending_vol = sorted(vol_ops, key=lambda op: op.pos)
    vol_index = 0

    # -- the span rewriter state ----------------------------------------------
    span_idx = 0
    active = None  # the CalleeSpan currently being rewritten
    active_site: Optional[_Site] = None
    #: caller frames below the active span's call site, captured from
    #: the first event inside the span (for the exit-fence stack)
    outer_stack: Optional[Tuple[StackFrame, ...]] = None

    def close_active() -> None:
        """Leave the active span: splice the call site's sfence."""
        nonlocal active, active_site, outer_stack, seq
        site = active_site
        assert site is not None
        fence = site.fence
        if fence is not None:
            affected.update(pending_lines())
            for state in lines.values():
                state[1] = False
            seq += 1
            stack = (outer_stack or ()) + (
                StackFrame(site.caller_function, fence.iid, fence.loc),
            )
            out.append(
                FenceEvent(
                    seq=seq,
                    iid=fence.iid,
                    loc=fence.loc,
                    function=site.caller_function,
                    stack=stack,
                    fence_kind=fence.fence_kind,
                )
            )
        active = None
        active_site = None
        outer_stack = None

    def drain(position: int) -> None:
        """Emit every action ordered before the base event at
        ``position``: pending volatile anchors, span exits (the sfence
        lands after volatile ops inside the span's window and before
        those outside it), and span entries."""
        nonlocal vol_index, span_idx, active, active_site
        while True:
            vol_ready = (
                vol_index < len(pending_vol)
                and pending_vol[vol_index].pos <= position
            )
            if active is not None:
                if active.exit <= position and not (
                    vol_ready and vol_index < active.vol_exit
                ):
                    close_active()
                    continue
            elif (
                span_idx < len(outer_spans)
                and outer_spans[span_idx].entry <= position
            ):
                span = outer_spans[span_idx]
                if not (vol_ready and vol_index < span.vol_entry):
                    active = span
                    active_site = sites[span.call_iid]
                    span_idx += 1
                    continue
            if vol_ready:
                op = pending_vol[vol_index]
                if active_site is not None:
                    mapped = active_site.iid_map.get(op.iid)
                    if mapped is not None:
                        op = replace(op, iid=mapped)
                emit_vol_anchor(op)
                vol_index += 1
                continue
            break

    for position, event in enumerate(events):
        drain(position)
        if active is not None:
            if outer_stack is None and len(event.stack) >= active.depth:
                outer_stack = event.stack[: active.depth - 1]
            rewritten = _rewrite_event(event, active_site, active.depth)
            if isinstance(event, StoreEvent):
                if event.space == "pm":
                    affected.update(lines_covering(event.addr, event.size))
            elif isinstance(event, FlushEvent):
                affected.add(event.line_addr)
            emit_base(rewritten)
            anchor_iid = rewritten.iid
        else:
            emit_base(event)
            anchor_iid = event.iid
        emitted = out[-1]
        if isinstance(event, StoreEvent) and anchor_iid in store_plans:
            for spec in store_plans[anchor_iid]:
                emit_synth(spec, emitted if event.space == "pm" else None)
        elif isinstance(event, FlushEvent) and anchor_iid in flush_plans:
            for spec in flush_plans[anchor_iid]:
                emit_synth(spec, emitted)
    drain(len(events))

    return SynthesisResult(trace=PMTrace(out), affected_lines=affected)


def synthesize_fixed_trace(
    baseline: PMTrace,
    vol_ops: Iterable,  # Iterable[VolAnchorOp]
    specs: Iterable[InsertionSpec],
) -> SynthesisResult:
    """Build the trace the fixed module's re-execution would record."""
    return _synthesize_stream(baseline, vol_ops, list(specs), {}, ())


def synthesize_structural_trace(
    baseline: PMTrace,
    vol_ops: Iterable,  # Iterable[VolAnchorOp]
    spans: Iterable,  # Iterable[CalleeSpan]
    struct_specs: Iterable[StructuralSpec],
    specs: Iterable[InsertionSpec],
) -> SynthesisResult:
    """Build the post-fix trace for a commit batch containing hoisted
    (structural) fixes, without any execution.

    ``struct_specs`` are the committed call-site retargets with their
    clone closures; ``specs`` the batch's ordinary flush/fence
    insertions (applied outside spans by their original anchors, and
    inside spans as re-keyed derived specs when the fix pre-dates the
    clone).  Raises :class:`StructuralSynthesisError` when the span
    record cannot be rewritten soundly — the engine then falls back to
    a full re-record.
    """
    struct_specs = list(struct_specs)
    specs = list(specs)

    # The clone cache is shared across call sites (paper §6.4), so two
    # closures may carry the same clone: dedupe by name, and refuse
    # conflicting witnesses for one name (cannot happen through the
    # transformer, but synthesis never guesses).
    unique_clones: Dict[str, CloneSpec] = {}
    for sspec in struct_specs:
        for clone in sspec.clones:
            prev = unique_clones.setdefault(clone.clone_name, clone)
            if prev is not clone and prev != clone:
                raise StructuralSynthesisError(
                    f"conflicting witnesses for clone @{clone.clone_name}"
                )

    # Splice plans.  Per re-mapped store anchor, program order inside a
    # clone is: the store, its covering flushes (inserted directly
    # after), then any *copied* earlier-fix instructions — so clone
    # flush specs register before derived specs.
    all_specs: List[InsertionSpec] = list(specs)
    for clone in unique_clones.values():
        all_specs.extend(clone.flush_specs)
    for clone in unique_clones.values():
        iid_map = dict(clone.iid_map)
        for spec in specs:
            if spec.anchor_iid in iid_map and all(
                op.iid in iid_map for op in spec.ops
            ):
                all_specs.append(
                    InsertionSpec(
                        anchor_iid=iid_map[spec.anchor_iid],
                        anchor_kind=spec.anchor_kind,
                        function=(
                            clone.clone_name
                            if spec.function == clone.orig_name
                            else spec.function
                        ),
                        ops=tuple(
                            replace(op, iid=iid_map[op.iid]) for op in spec.ops
                        ),
                    )
                )

    sites: Dict[int, _Site] = {}
    for sspec in struct_specs:
        iid_map: Dict[int, int] = {}
        fn_map: Dict[str, str] = {}
        for clone in sspec.clones:
            iid_map.update(clone.iid_map)
            fn_map[clone.orig_name] = clone.clone_name
        if sspec.call_iid in sites:
            raise StructuralSynthesisError(
                f"two structural fixes at call #{sspec.call_iid}"
            )
        sites[sspec.call_iid] = _Site(
            iid_map, fn_map, sspec.fence, sspec.caller_function
        )

    # Keep only the outermost span per dynamic nest: an inner relevant
    # span sits inside the outer clone's own retargeted (and unfenced)
    # copy of its call site, which the outer iid map already rewrites.
    # Anything else that overlaps is a malformed record.
    relevant = [s for s in spans if s.call_iid in sites]
    relevant.sort(key=lambda s: (s.entry, s.vol_entry, -s.exit, -s.vol_exit))
    outer: List = []
    for span in relevant:
        if span.entry > span.exit or span.vol_entry > span.vol_exit:
            raise StructuralSynthesisError("inverted callee span")
        if outer and span.entry < outer[-1].exit:
            prev = outer[-1]
            if (
                span.exit > prev.exit
                or span.vol_entry < prev.vol_entry
                or span.vol_exit > prev.vol_exit
            ):
                raise StructuralSynthesisError("overlapping callee spans")
            continue
        if outer and span.vol_entry < outer[-1].vol_exit:
            raise StructuralSynthesisError("overlapping volatile windows")
        outer.append(span)

    return _synthesize_stream(baseline, vol_ops, all_specs, sites, outer)

"""Property-based equivalence for the incremental revalidation engine.

Over seeded random small PM programs and random flush/fence fix
sequences:

1. after each committed fix round, incremental revalidation (every
   tier: baseline hit, synthesis, full fallback) reaches exactly the
   detection a from-scratch run on the same module reaches;
2. the rechecked-chain set is *complete*: any cache line whose per-line
   bug population changed between the recorded baseline and the
   post-fix truth is among the chains the engine re-checked — no bug
   outside the reported chains ever changes state.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.hippocrates import Hippocrates
from repro.detect import pmemcheck_run
from repro.memory.layout import lines_covering
from repro.revalidate import IncrementalRevalidator
from repro.ir import I64, ModuleBuilder, PTR

#: Each element: (persist?, slot, value, via_helper?) — the same shape
#: as tests/test_prop_detector_fixer.py, so the generated programs mix
#: direct and helper-mediated PM stores with per-slot persistence.
action = st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=1000),
    st.booleans(),
)


def build(actions):
    mb = ModuleBuilder("gen")
    helper = mb.function("set_slot", [("p", PTR), ("v", I64)], source_file="gen.c")
    helper.store(helper.function.args[1], helper.function.args[0])
    helper.ret()

    b = mb.function("main", [], I64, source_file="gen.c")
    base = b.call("pm_alloc", [256], PTR)
    vol = b.call("vol_alloc", [256], PTR)
    b.call("set_slot", [vol, 1])  # volatile helper use
    for persist, slot, value, via_helper in actions:
        target = b.gep(base, slot * 64)
        if via_helper:
            b.call("set_slot", [target, value])
        else:
            b.store(value, target)
        if persist:
            b.flush(target)
            b.fence()
    b.call("checkpoint", [])
    b.ret(0)
    return mb.module


def drive(interp):
    interp.call("main")


def _bug_records(detection):
    return [b.as_record() for b in detection.bugs]


def _lines_by_bugs(detection):
    """Map cache line -> frozenset of bug records touching it."""
    by_line = {}
    for bug in detection.bugs:
        key = (bug.kind.value, bug.store.function, str(bug.store.loc))
        for line in lines_covering(bug.store.addr, bug.store.size):
            by_line.setdefault(line, set()).add(key)
    return by_line


def _repair_incrementally(module):
    """Record, repair, revalidate; returns (engine, fixer, outcome).

    ``heuristic="off"`` keeps every repair intraprocedural — a
    flush/fence insertion at the store site, even inside the shared
    helper — so the module stays synthesis-eligible *and* the inserted
    instructions execute against volatile targets too (the vol-anchor
    side channel is load-bearing here)."""
    engine = IncrementalRevalidator(drive)
    _, trace, interp = engine.record(module)
    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    return engine, fixer, fixer.revalidate()


@settings(max_examples=30, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=8))
def test_incremental_matches_scratch_detection(actions):
    """Synthesis tier: the revalidated detection equals a from-scratch
    run over the same repaired module, record for record."""
    module = build(actions)
    engine, fixer, outcome = _repair_incrementally(module)
    scratch, _, _ = pmemcheck_run(module, drive)
    assert outcome.mode in ("baseline", "synthesized")
    assert _bug_records(outcome.detection) == _bug_records(scratch)
    # same module instance on both sides, so describe() (which embeds
    # iids) is a sound canonical form for the perf diagnostics
    assert [p.describe() for p in outcome.detection.perf] == [
        p.describe() for p in scratch.perf
    ]
    assert outcome.detection.bug_count == 0  # Hippocrates converges


@settings(max_examples=30, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=8))
def test_rechecked_chains_cover_every_state_change(actions):
    """Completeness: a bug can only change state (appear, disappear,
    change occurrence count) on a cache line the engine re-checked."""
    module = build(actions)
    engine = IncrementalRevalidator(drive)
    baseline_detection, trace, interp = engine.record(module)
    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    outcome = fixer.revalidate()
    if outcome.mode == "baseline":
        assert _bug_records(outcome.detection) == _bug_records(
            baseline_detection
        )
        return

    before = _lines_by_bugs(baseline_detection)
    after = _lines_by_bugs(outcome.detection)
    changed = {
        line
        for line in set(before) | set(after)
        if before.get(line, set()) != after.get(line, set())
    }
    assert changed <= outcome.rechecked_chains


@settings(max_examples=20, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=8))
def test_replay_tier_matches_synthesis_tier(actions):
    """Degrading the witness (anchors without insertion specs) must
    fall back to a full re-record and still reach the same verdict.

    (The name predates the retired snapshot-replay tier, which this
    degraded witness used to reach.)"""
    module = build(actions)
    engine, fixer, synth = _repair_incrementally(module)
    if synth.mode == "baseline":
        return
    assert synth.mode == "synthesized"
    # Drop the insertion specs: the anchors survive, but the engine can
    # no longer synthesize the fixed trace, so it must re-execute.
    engine.note_commit(set(), structural=False, insertions=None)
    full = fixer.revalidate()
    assert full.mode == "full"
    assert full.fallback_reason == "fix committed without insertion specs"
    assert _bug_records(full.detection) == _bug_records(synth.detection)


@settings(max_examples=10, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=6))
def test_structural_commit_forces_full_rerecord(actions):
    module = build(actions)
    engine, fixer, first = _repair_incrementally(module)
    engine.note_commit(set(), structural=True)
    outcome = fixer.revalidate()
    assert outcome.mode == "full"
    assert _bug_records(outcome.detection) == _bug_records(first.detection)

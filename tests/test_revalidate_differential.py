"""Differential equivalence: incremental revalidation on vs off.

The incremental engine's contract is *byte-identity*: for every corpus
case, the full repair pipeline must produce identical canonical records
— detection counts, fix lists, do-no-harm verdicts, module digests —
whether post-fix revalidation re-executes the workload or goes through
the synthesis tier.  These tests run the whole pipeline both
ways and diff the bytes, then check that the engine actually took the
fast tier where it should (flush/fence-only repairs) and fell back
where it must (structural repairs).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.hippocrates import Hippocrates
from repro.corpus.bugs import all_cases
from repro.detect import pmemcheck_run
from repro.faultinject.resume import run_kill_resume
from repro.ir import I64, ModuleBuilder, PTR
from repro.memory.pool import MachinePool
from repro.revalidate import IncrementalRevalidator
from repro.supervisor import RepairTask, SupervisorConfig, run_batch
from repro.supervisor.tasks import corpus_tasks, execute_task, run_case

#: Cases whose repairs are flush/fence-only; every other corpus case
#: also needs a structural (clone/retarget) fix.  Both kinds now take
#: the synthesis tier — flush/fence via event splicing, structural via
#: callee-span rewriting — with zero re-execution.
SYNTH_CASES = {"PMDK-452", "PMDK-940", "PMDK-943", "P-CLHT"}
STRUCTURAL_CASES = sorted(
    case.case_id for case in all_cases() if case.case_id not in SYNTH_CASES
)

CASE_IDS = [case.case_id for case in all_cases()]


def _task(case_id: str, incremental: bool) -> RepairTask:
    return RepairTask(
        task_id=case_id,
        kind="corpus",
        case_id=case_id,
        incremental_revalidate=incremental,
    )


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_records_byte_identical_on_vs_off(case_id):
    """The journaled record — the batch layer's unit of truth — must not
    depend on how revalidation ran."""
    on = execute_task(_task(case_id, True)).record
    off = execute_task(_task(case_id, False)).record
    assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_outcome_equivalence_and_expected_mode(case_id):
    case = next(c for c in all_cases() if c.case_id == case_id)
    inc = run_case(case, incremental_revalidate=True)
    ref = run_case(case, incremental_revalidate=False)

    assert inc.reports_found == ref.reports_found
    assert inc.reports_after_fix == ref.reports_after_fix
    assert inc.fix_kinds == ref.fix_kinds
    assert inc.comparison == ref.comparison
    assert inc.fixed == ref.fixed
    # iids are globally unique across module builds, so strip them from
    # the human descriptions before comparing the two pipelines.
    def scrubbed(outcome):
        return [
            re.sub(r"#\d+", "#N", f.describe())
            for f in outcome.fix_report.plan.fixes
        ]

    assert scrubbed(inc) == scrubbed(ref)

    assert ref.revalidation is None  # escape hatch: engine never built
    assert inc.revalidation is not None
    mode = inc.revalidation["mode"]
    assert mode == "synthesized"
    assert inc.revalidation["chains_rechecked"] >= 1


@pytest.mark.parametrize(
    "case_id", sorted(SYNTH_CASES) + STRUCTURAL_CASES
)
def test_synthesized_trace_and_detection_are_byte_exact(case_id):
    """Against the *same repaired module instance*, the synthesized
    trace must equal a from-scratch run event for event, and the
    detection records must match exactly."""
    case = next(c for c in all_cases() if c.case_id == case_id)
    module = case.build()
    engine = IncrementalRevalidator(case.drive)
    _, trace, interp = engine.record(module)
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    fixer.apply(fixer.compute_fixes())
    outcome = fixer.revalidate()
    assert outcome.mode == "synthesized"

    scratch, scratch_trace, _ = pmemcheck_run(module, case.drive)
    assert len(outcome.trace.events) == len(scratch_trace.events)
    for ours, theirs in zip(outcome.trace.events, scratch_trace.events):
        assert ours == theirs
    assert [b.as_record() for b in outcome.detection.bugs] == [
        b.as_record() for b in scratch.bugs
    ]
    assert [p.describe() for p in outcome.detection.perf] == [
        p.describe() for p in scratch.perf
    ]


def test_revalidate_is_idempotent():
    """A second revalidation after the first (no new commits) is a
    baseline hit with the same detection."""
    case = next(c for c in all_cases() if c.case_id == "PMDK-452")
    module = case.build()
    engine = IncrementalRevalidator(case.drive)
    _, trace, interp = engine.record(module)
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    fixer.apply(fixer.compute_fixes())
    first = fixer.revalidate()
    assert first.mode == "synthesized"
    second = fixer.revalidate()
    # The module did not change since the recording was installed, but
    # the recording predates the fixes — so the engine re-synthesizes
    # (same witness, same baseline) and must reach the same verdict.
    assert second.mode == first.mode
    assert [b.as_record() for b in second.detection.bugs] == [
        b.as_record() for b in first.detection.bugs
    ]


# ---------------------------------------------------------------------------
# batch + kill/resume interaction
# ---------------------------------------------------------------------------

#: a small mixed batch: two synthesis-tier cases + one structural
BATCH_CASES = ["PMDK-452", "PMDK-940", "PMDK-447"]


def _fast_config() -> SupervisorConfig:
    return SupervisorConfig(
        mode="inprocess", max_retries=1, backoff_base=0.0, task_timeout=600.0
    )


def test_batch_reports_byte_identical_across_flag(tmp_path):
    on_tasks = corpus_tasks(BATCH_CASES, incremental_revalidate=True)
    off_tasks = corpus_tasks(BATCH_CASES, incremental_revalidate=False)
    on = run_batch(on_tasks, journal_path=str(tmp_path / "on.journal"),
                   config=_fast_config())
    off = run_batch(off_tasks, journal_path=str(tmp_path / "off.journal"),
                    config=_fast_config())
    assert on.canonical_json() == off.canonical_json()


@pytest.mark.parametrize("torn", [False, True])
def test_kill_mid_incremental_batch_resumes_byte_identical(tmp_path, torn):
    """A worker killed mid-incremental-revalidation resumes to the same
    canonical bytes: the resumed task re-records its baseline and
    dependency index from pristine state — nothing half-built is ever
    trusted.  Boundary 4 lands after the first task-done, so the kill
    interrupts the second task (PMDK-940, a synthesis-tier case)."""
    tasks = corpus_tasks(BATCH_CASES, incremental_revalidate=True)
    baseline = run_batch(
        tasks, journal_path=str(tmp_path / "base.journal"),
        config=_fast_config(),
    ).canonical_json()
    suffix = "torn" if torn else "plain"
    record = run_kill_resume(
        tasks,
        str(tmp_path / f"kill-{suffix}.journal"),
        boundary=4,
        baseline_bytes=baseline,
        torn=torn,
    )
    assert record.ok, record.problems


def test_kill_resume_matches_non_incremental_baseline(tmp_path):
    """The strongest cross-check: kill an *incremental* batch, resume
    it, and compare against an uninterrupted *non-incremental* run."""
    off_tasks = corpus_tasks(BATCH_CASES, incremental_revalidate=False)
    baseline = run_batch(
        off_tasks, journal_path=str(tmp_path / "off.journal"),
        config=_fast_config(),
    ).canonical_json()
    on_tasks = corpus_tasks(BATCH_CASES, incremental_revalidate=True)
    record = run_kill_resume(
        on_tasks,
        str(tmp_path / "kill-on.journal"),
        boundary=4,
        baseline_bytes=baseline,
        torn=False,
    )
    assert record.ok, record.problems


# ---------------------------------------------------------------------------
# machine pooling
# ---------------------------------------------------------------------------


def build_two_phase_module():
    """Two top-level entry points: ``setup`` leaves PM state pending
    (dirty and flushing lines at the call boundary), ``finish`` stores
    unpersisted — so a reused buffer carries nonzero bytes and
    durability state a leaky reset would expose."""
    mb = ModuleBuilder("twophase")

    b = mb.function("setup", [], I64, source_file="twophase.c")
    base = b.call("pm_root", [256], PTR)
    b.store(1, base)
    b.flush(base)  # flushing, never fenced: pending at the boundary
    slot = b.gep(base, 64)
    b.store(2, slot)  # dirty at the boundary
    b.ret(0)

    b = mb.function("finish", [], I64, source_file="twophase.c")
    root = b.call("pm_root", [256], PTR)
    slot = b.gep(root, 64)
    b.flush(slot)
    b.fence()
    target = b.gep(root, 128)
    b.store(3, target)  # a missing-flush&fence bug
    b.call("checkpoint", [])
    b.ret(0)
    return mb.module


def drive_two_phase(interp):
    interp.call("setup")
    interp.call("finish")


def _region_state(region):
    return (bytes(region.data), region.brk, region.high_water)


def _machine_state(machine):
    """Every byte a pooled-reuse bug could corrupt: full region buffers
    (not just live prefixes), allocator watermarks, the durable view."""
    space = machine.space
    return (
        _region_state(space.vol),
        _region_state(space.stack),
        _region_state(space.pm),
        machine.image.snapshot_durable(),
    )


def test_pooled_detect_run_byte_identical_to_fresh():
    """A detection run on *reused* pooled buffers must produce the same
    trace, detection, and final machine bytes as a fresh-buffer run."""
    module = build_two_phase_module()
    fresh_detection, fresh_trace, fresh_interp = pmemcheck_run(
        module, drive_two_phase
    )

    pool = MachinePool()
    _, _, cold = pmemcheck_run(module, drive_two_phase, pool=pool)
    pool.release(cold.machine)
    warm_detection, warm_trace, warm = pmemcheck_run(
        module, drive_two_phase, pool=pool
    )
    assert pool.hits >= 1  # the warm run actually reused buffers

    assert [b.describe() for b in warm_detection.bugs] == [
        b.describe() for b in fresh_detection.bugs
    ]
    assert len(warm_trace.events) == len(fresh_trace.events)
    for ours, theirs in zip(warm_trace.events, fresh_trace.events):
        assert ours == theirs
    assert _machine_state(warm.machine) == _machine_state(fresh_interp.machine)


def test_batch_reports_byte_identical_across_machine_pool_flag(tmp_path):
    """Pooled buffer reuse is a pure allocation optimisation: the batch
    canonical report must not change with the pool disabled."""
    on_tasks = corpus_tasks(BATCH_CASES, machine_pool=True)
    off_tasks = corpus_tasks(BATCH_CASES, machine_pool=False)
    on = run_batch(on_tasks, journal_path=str(tmp_path / "pool-on.journal"),
                   config=_fast_config())
    off = run_batch(off_tasks, journal_path=str(tmp_path / "pool-off.journal"),
                    config=_fast_config())
    assert on.canonical_json() == off.canonical_json()


def test_kill_resume_pooled_matches_unpooled_baseline(tmp_path):
    """Kill a *pooled* batch mid-task, resume it, and compare against an
    uninterrupted *unpooled* run: reused buffers must never leak state
    into the canonical bytes, even across a death boundary."""
    off_tasks = corpus_tasks(BATCH_CASES, machine_pool=False)
    baseline = run_batch(
        off_tasks, journal_path=str(tmp_path / "nopool.journal"),
        config=_fast_config(),
    ).canonical_json()
    on_tasks = corpus_tasks(BATCH_CASES, machine_pool=True)
    record = run_kill_resume(
        on_tasks,
        str(tmp_path / "kill-pool.journal"),
        boundary=4,
        baseline_bytes=baseline,
        torn=False,
    )
    assert record.ok, record.problems

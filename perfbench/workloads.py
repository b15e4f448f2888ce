"""One benchmark workload in one fresh interpreter process.

``run.py`` starts this script once per run (and again for set-up
probes).  It imports the program, makes the workload's inputs from the
seed, warms up, then repeats the workload's unit of work until the time
is up, checking every output against the benchmark's own oracle.  The
last line of its standard output is one JSON object with the results.

Every repetition of a unit does the same work, in the same parts and on
the same items.  Times are reported from each part's and each item's
median repetition in the run: on a shared host the speed changes for
seconds to minutes at a time, and the median over a whole run repeats
from run to run better than the fastest repetition (see ``README.md``).

    python3 perfbench/workloads.py --workload corpus-repair --seed 1 \
        --seconds 10 --trace 0 --spawned-at <time.monotonic() at spawn>

Units of work and items, per workload:

================  =============================  =========================
workload          unit                           item
================  =============================  =========================
corpus-batch      one ``run_batch`` of 13 tasks  one task (start -> done)
corpus-repair     one pass of ``run_case`` x 13  one case
redis-repair      one detect -> fix -> re-run    one repair (= the unit)
redis-ycsb        YCSB Load + A, on a new store  one client operation
================  =============================  =========================
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracing import LAYERS, SpanSummary, Tracer, UnresolvedTargets  # noqa: E402

#: supervisor workers for corpus-batch: never more than the machine's cores
JOBS = max(1, min(2, os.cpu_count() or 1))
#: smallest number of units a run measures, however long each takes
MIN_UNITS = 3
#: set-up-only processes started during a run, besides the measuring one
SETUP_PROBES = 4


@dataclass
class UnitResult:
    """What one unit of work did."""

    #: the unit's sequential parts -> seconds (they sum to its wall time)
    parts: Dict[str, float]
    #: item -> latency in seconds; an item key names its kind before a
    #: "/" when the workload has kinds of items ("read/17").  None when
    #: the unit is the one item.
    items: Optional[Dict[str, float]]
    attempted: int
    #: failed items: wrong outputs, exceptions, retries
    failed: int
    #: of which wrong outputs (a retried task that then succeeds is not wrong)
    wrong: int = 0
    #: workload-specific counts
    counts: Dict[str, float] = field(default_factory=dict)


def medians(results: List[Dict[str, float]]) -> Dict[str, float]:
    """Each key's median value over ``results``."""
    values: Dict[str, List[float]] = {}
    for result in results:
        for key, value in result.items():
            values.setdefault(key, []).append(value)
    return {key: statistics.median(vs) for key, vs in values.items()}


def _percentile(values: List[float], share: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, one unit of work, and the end-of-run checks."""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def unit(self, tracer: Optional[Tracer]) -> UnitResult:
        raise NotImplementedError

    def final(self) -> Dict[str, float]:
        """``inserted_instructions``, ``fixed_cycles_per_op`` and a
        ``failed`` count from end-of-run checks."""
        raise NotImplementedError


def case_record(outcome) -> dict:
    """The facts of a corpus repair that ``expected_corpus.json`` holds."""
    import hashlib

    from repro.ir.printer import format_module

    return {
        "bugs_detected": outcome.reports_found,
        "bugs_remaining": outcome.reports_after_fix,
        "fix_kinds": list(outcome.fix_kinds),
        "module_sha256": hashlib.sha256(
            format_module(outcome.module).encode("utf-8")
        ).hexdigest(),
    }


class _Corpus(Workload):
    def setup(self, seed: int) -> None:
        from repro.corpus.bugs import all_cases
        from repro.supervisor import run_case  # noqa: F401  (import cost is set-up)

        with open(os.path.join(HERE, "expected_corpus.json")) as handle:
            self.expected = json.load(handle)
        cases = {case.case_id: case for case in all_cases()}
        if sorted(cases) != sorted(self.expected):
            raise SystemExit("corpus cases differ from expected_corpus.json")
        self.order = [cases[cid] for cid in inputs.case_order(list(cases), seed)]

    def recheck(self, outcomes) -> Dict[str, float]:
        """Re-run every repaired module under its case's workload: it must
        report no bugs.  Gives the repaired code's simulated cycles."""
        from repro.detect import pmemcheck_run

        failed = 0
        cycles = 0
        for outcome in outcomes:
            detection, _, interp = pmemcheck_run(outcome.module, outcome.case.drive)
            failed += detection.bug_count != 0
            cycles += interp.costs.cycles
            del interp
            gc.collect()
        return {
            "inserted_instructions": sum(
                o.fix_report.inserted_instructions for o in outcomes
            ),
            "fixed_cycles_per_op": cycles / len(outcomes),
            "failed": failed,
        }


class CorpusBatch(_Corpus):
    """``run_batch`` over the corpus in subprocess mode, cold cache per batch."""

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.supervisor import SupervisorConfig, corpus_tasks, run_batch  # noqa: F401

        self.config = SupervisorConfig(mode="subprocess", jobs=JOBS)
        self.inserted = 0

    def unit(self, tracer: Optional[Tracer]) -> UnitResult:
        from repro.supervisor import corpus_tasks, run_batch

        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="batch-", dir=OUT)
        try:
            journal = os.path.join(workdir, "batch.journal")
            tasks = corpus_tasks(
                [case.case_id for case in self.order],
                analysis_cache_dir=journal + ".acache",
            )
            started: Dict[str, float] = {}
            latencies: Dict[str, float] = {}

            def progress(event: str, task_id: str, detail: str = "") -> None:
                now = time.perf_counter()
                if event == "start":
                    started[task_id] = now
                elif event in ("done", "retry", "quarantine"):
                    # a retried task's latency runs to its last attempt
                    latencies[task_id] = now - started[task_id]

            start = time.perf_counter()
            report = run_batch(
                tasks, journal_path=journal, config=self.config, progress=progress
            )
            wall = time.perf_counter() - start
            journal_bytes = os.path.getsize(journal)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wrong = 0
        inserted = 0
        for task in tasks:
            outcome = report.outcome(task.task_id)
            record = outcome.record if outcome is not None and outcome.status == "done" else None
            want = self.expected[task.task_id]
            if record is None or any(record.get(k) != v for k, v in want.items()):
                wrong += 1
            else:
                inserted += record["inserted_instructions"]
        self.inserted = inserted
        return UnitResult(
            parts={"batch": wall},
            items=latencies,
            attempted=len(tasks) + report.total_retries,
            failed=wrong + report.total_retries,
            wrong=wrong,
            counts={
                "supervisor.retries": report.total_retries,
                "supervisor.journal_bytes": journal_bytes,
                "supervisor.busy_share": sum(latencies.values()) / (JOBS * wall),
            },
        )

    def final(self) -> Dict[str, float]:
        # The batch's modules live in its workers; repair each case once
        # more in this process (untimed) to re-run the repaired code.
        from repro.supervisor import run_case

        outcomes = [run_case(case) for case in self.order]
        result = self.recheck(outcomes)
        result["failed"] += sum(
            case_record(o) != self.expected[o.case.case_id] for o in outcomes
        )
        if result["inserted_instructions"] != self.inserted:
            result["failed"] += 1
        return result

    def supervisor_probes(self) -> Dict[str, float]:
        """Per-task in-process execution time and a cold worker import."""
        from repro.supervisor import corpus_tasks, execute_task

        execute = []
        for task in corpus_tasks([case.case_id for case in self.order]):
            start = time.perf_counter()
            execute_task(task)
            execute.append(time.perf_counter() - start)
        imports = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.supervisor.tasks"], check=True
            )
            imports.append(time.perf_counter() - start)
        return {
            "supervisor.execute_s": statistics.median(execute),
            "supervisor.worker_import_s": statistics.median(imports),
        }


class CorpusRepair(_Corpus):
    """``run_case`` over the corpus, in process, pass after pass."""

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.last = []
        self.unit(None)  # warm-up pass

    def unit(self, tracer: Optional[Tracer]) -> UnitResult:
        from repro.supervisor import run_case

        outcomes = []
        latencies: Dict[str, float] = {}
        for case in self.order:
            if tracer is not None:
                case = _traced_case(case, tracer)
            start = time.perf_counter()
            outcomes.append(run_case(case))
            # Each case pays for collecting its own cyclic garbage (the
            # machine buffers among it), so its latency and the memory
            # peak do not depend on when the collector last ran.
            _collect(tracer)
            latencies[case.case_id] = time.perf_counter() - start
        self.last = outcomes
        return UnitResult(
            parts=latencies, items=latencies,
            attempted=len(outcomes), failed=0,
        )

    def check(self, result: UnitResult) -> None:
        """Compare the pass's outcomes with the oracle (outside the unit)."""
        result.failed = result.wrong = sum(
            case_record(o) != self.expected[o.case.case_id] for o in self.last
        )

    def final(self) -> Dict[str, float]:
        return self.recheck(self.last)


def _collect(tracer: Optional[Tracer]) -> None:
    """A full collection, under a ``runtime.gc`` span when tracing."""
    if tracer is None:
        gc.collect()
    else:
        with tracer.span("runtime", "gc"):
            gc.collect()


def _traced_case(case, tracer: Tracer):
    """The case with its module build under an ``ir.build`` span."""
    import dataclasses

    return dataclasses.replace(case, build=tracer.wrap("ir", "build", case.build))


def _drive(kv, ops, model, latencies=None) -> int:
    """Run ``ops`` against a KVStore; return the number of wrong answers.

    With ``latencies``, each operation's time is stored there under
    "<kind>/<index>", kind one of insert, update, read, delete, scan.
    """
    wrong = 0
    clock = time.perf_counter
    for index, op in enumerate(ops):
        start = clock()
        if op.kind == inputs.PUT:
            existed = op.key in model.data
            # kv_put returns 1 for an in-place update, 0 for an insert
            wrong += kv.put(op.key, op.value).value != int(existed)
            kind = "update" if existed else "insert"
        elif op.kind == inputs.GET:
            wrong += kv.get(op.key) != model.apply(op)
            kind = "read"
        elif op.kind == inputs.DELETE:
            wrong += kv.delete(op.key) != (op.key in model.data)
            kind = "delete"
        else:
            kv.scan(5, 4)
            kind = "scan"
        if latencies is not None:
            latencies[f"{kind}/{index}"] = clock() - start
        if op.kind != inputs.GET:
            model.apply(op)
    return wrong


class RedisRepair(Workload):
    """Detect -> Hippocrates fix -> re-run and check, on the flush-free
    kvstore driven by a long seeded tracing workload."""

    def setup(self, seed: int) -> None:
        from repro.apps.kvstore import KVStore, build_kvstore  # noqa: F401
        from repro.core.hippocrates import Hippocrates  # noqa: F401
        from repro.detect import check_trace  # noqa: F401

        self.ops = inputs.redis_trace_ops(seed)
        self.requests = len(self.ops)
        self._repair(inputs.redis_trace_ops(seed, keys=20), None)  # warm-up

    def _repair(self, ops, tracer: Optional[Tracer]):
        """One repair; returns (report, cycles of the re-run, failed, parts).

        The parts are as small as the program's public calls allow: each
        client operation of the two store runs, the detection that
        constructing ``Hippocrates`` runs, and ``fix()``.
        """
        from repro.apps.kvstore import KVStore, build_kvstore
        from repro.core.hippocrates import Hippocrates
        from repro.detect import check_trace

        parts: Dict[str, float] = {}
        clock = time.perf_counter

        def phase(name):
            return tracer.span("bench", name) if tracer is not None else nullcontext()

        def timed(name, fn, *args):
            start = clock()
            result = fn(*args)
            parts[name] = clock() - start
            return result

        def run_store(name):
            kv = timed(f"{name}/open", KVStore, module)
            timed(f"{name}/init", kv.init, 64, 1 << 20)
            latencies: Dict[str, float] = {}
            wrong = _drive(kv, ops, inputs.KVModel(), latencies)
            parts.update((f"{name}/{op}", t) for op, t in latencies.items())
            return kv, wrong, timed(f"{name}/finish", kv.finish)

        with phase("build"):
            module = timed("build", build_kvstore, "noflush")
        with phase("trace_run"):
            kv, wrong, trace = run_store("trace_run")
        with phase("fix"):
            fixer = timed("fix/detect", Hippocrates, module, trace, kv.machine)
            report = timed("fix/apply", fixer.fix)
        with phase("rerun"):
            kv, rerun_wrong, trace = run_store("rerun")
            wrong += rerun_wrong
        with phase("check"):
            after = timed("check", check_trace, trace)
        failed = (
            wrong > 0
            or fixer.detection.bug_count == 0
            or after.bug_count != 0
            or bool(report.quarantined)
        )
        cycles = kv.interp.costs.cycles
        del kv, fixer, trace
        with phase("gc"):
            # the repair pays for collecting its own garbage
            timed("gc", _collect, tracer)
        return report, cycles, int(failed), parts

    def unit(self, tracer: Optional[Tracer]) -> UnitResult:
        report, cycles, failed, parts = self._repair(self.ops, tracer)
        self.inserted = report.inserted_instructions
        self.cycles = cycles
        return UnitResult(parts=parts, items=None,
                          attempted=1, failed=failed, wrong=failed)

    def final(self) -> Dict[str, float]:
        return {
            "inserted_instructions": self.inserted,
            "fixed_cycles_per_op": self.cycles / self.requests,
            "failed": 0,
        }


class RedisYCSB(Workload):
    """YCSB Load + workload A on the Hippocrates-repaired kvstore.

    A unit is the whole Load + A operation stream on a new store; the
    store is built before the timed part.
    """

    def setup(self, seed: int) -> None:
        from repro.apps.kvstore import KVStore, build_kvstore
        from repro.core.hippocrates import Hippocrates

        module = build_kvstore("noflush")
        kv = KVStore(module)
        kv.init(64, 1 << 20)
        wrong = _drive(kv, inputs.redis_trace_ops(seed, keys=40), inputs.KVModel())
        self.report = Hippocrates(module, kv.finish(), kv.machine).fix()
        self.setup_failed = int(wrong > 0 or bool(self.report.quarantined))
        self.module = module
        self.KVStore = KVStore
        load, run = inputs.ycsb_ops(seed)
        self.ops = load + run
        self.unit(None)  # warm-up

    def unit(self, tracer: Optional[Tracer]) -> UnitResult:
        kv = self.KVStore(self.module)
        kv.init(max(64, inputs.YCSB_RECORDS // 2), 1 << 23)
        before = self._counts(kv)
        latencies: Dict[str, float] = {}
        wrong = _drive(kv, self.ops, inputs.KVModel(), latencies)
        after = self._counts(kv)
        # the stream's simulated counts are deterministic
        self.stream_counts = {k: after[k] - before[k] for k in after}
        self.stream_counts["ops"] = len(self.ops)
        return UnitResult(
            parts=latencies, items=latencies,
            attempted=len(self.ops), failed=wrong, wrong=wrong,
        )

    @staticmethod
    def _counts(kv) -> Dict[str, float]:
        return {
            "cycles": kv.interp.costs.cycles,
            "steps": kv.interp.steps,
            "fences": kv.machine.cache.fence_count,
        }

    def final(self) -> Dict[str, float]:
        counts = self.stream_counts
        return {
            "inserted_instructions": self.report.inserted_instructions,
            "fixed_cycles_per_op": counts["cycles"] / counts["ops"],
            "failed": self.setup_failed,
        }


WORKLOADS = {
    "corpus-batch": CorpusBatch,
    "corpus-repair": CorpusRepair,
    "redis-repair": RedisRepair,
    "redis-ycsb": RedisYCSB,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    units: List[UnitResult]
    run_ids: List[int]
    #: peak RSS (MiB) of this process and its children after set-up and
    #: the first MIN_UNITS units: a fixed amount of work, so the figure
    #: does not grow with the number of units a faster program fits in
    peak_rss_mb: float = 0.0
    #: objects alive after each unit (collected first): what the program
    #: keeps of every unit shows as growth
    alive: List[int] = field(default_factory=list)

    def walls(self) -> Dict[str, float]:
        """The median repetition of each part of the unit."""
        return medians([u.parts for u in self.units])

    def items(self) -> Dict[str, float]:
        """The median repetition of each item."""
        if self.units[0].items is None:
            return {"unit": sum(self.walls().values())}
        return medians([u.items for u in self.units])


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def measure(workload: Workload, seconds: float, tracer: Optional[Tracer] = None,
            between: Optional[Callable[[int], None]] = None) -> Tuple[Measured, Measured]:
    """Repeat the unit of work for ``seconds`` (at least MIN_UNITS times).

    Returns the untraced units and the traced ones.  With a tracer,
    units alternate between the two, the shims installed around each
    traced unit only, so that both kinds see the same host.
    ``between(untraced units done)`` runs after each unit; its time does
    not count against ``seconds``.
    """
    untraced, traced = Measured([], []), Measured([], [])
    deadline = time.perf_counter() + seconds
    run_id = 0
    while (len(untraced.units) < MIN_UNITS
           or (tracer is not None and len(traced.units) < MIN_UNITS)
           or time.perf_counter() < deadline):
        run_id += 1
        if tracer is not None and run_id % 2 == 0:
            into = traced
            tracer.install()
            tracer.run_id = run_id
            with tracer.span("bench", "unit"):
                result = workload.unit(tracer)
            tracer.run_id = 0
            tracer.uninstall()
        else:
            into = untraced
            result = workload.unit(None)
        check = getattr(workload, "check", None)
        if check is not None:
            check(result)
        into.units.append(result)
        into.run_ids.append(run_id)
        # Start every unit with no garbage left from the last one, and
        # move what survives out of the collections inside the next
        # unit: the program keeps some objects of every repair alive, and
        # without this each collection would cost more the more units a
        # run has done.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        into.alive.append(gc.get_freeze_count())
        if into is untraced and len(untraced.units) == MIN_UNITS:
            untraced.peak_rss_mb = _peak_rss_mb()
        if between is not None:
            paused = time.perf_counter()
            between(len(untraced.units))
            deadline += time.perf_counter() - paused
    return untraced, traced


class SetupProbes:
    """Set-up times of fresh processes of the workload.

    A probe is a ``--setup-only`` process started between two units,
    outside their timing.  Probes are spread over the run, so that a
    slow moment of the host touches few of them, and start after the
    first MIN_UNITS units, so that they do not reach the peak-RSS
    reading.
    """

    def __init__(self, args, own: float) -> None:
        self.command = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only",
        ]
        self.times = [own]
        self.spacing = args.seconds / (SETUP_PROBES + 1)
        self.last = time.perf_counter()

    def probe(self) -> None:
        spawned = time.monotonic()
        completed = subprocess.run(
            self.command + ["--spawned-at", repr(spawned)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        self.times.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
        self.last = time.perf_counter()

    def between_units(self, units_done: int) -> None:
        if (units_done >= MIN_UNITS and len(self.times) <= SETUP_PROBES
                and time.perf_counter() - self.last >= self.spacing):
            self.probe()

    def median(self) -> float:
        """The median set-up time, over this process and SETUP_PROBES probes."""
        while len(self.times) <= SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def end_to_end(measured: Measured, final: Dict[str, float]):
    """The end-to-end metrics, and the run's attempted/failed/correct."""
    units = measured.units
    wall = sum(measured.walls().values())
    latencies = list(measured.items().values())
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units) + final["failed"]
    return {
        "unit_wall_s": wall,
        "items_per_s": len(latencies) / wall,
        "item_latency_p50_ms": statistics.median(latencies) * 1e3,
        "item_latency_p90_ms": _percentile(latencies, 0.90) * 1e3,
        "success_rate": 1.0 - failed / attempted,
        "inserted_instructions": final["inserted_instructions"],
        "fixed_cycles_per_op": final["fixed_cycles_per_op"],
        "peak_rss_mb": measured.peak_rss_mb,
    }, {
        "attempted": attempted,
        "failed": failed,
        "correct": sum(u.wrong for u in units) == 0 and final["failed"] == 0,
    }


def per_layer(name: str, workload: Workload, plain: Measured, beside: Measured,
              traced: Measured, tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics, each per unit of work unless named otherwise.

    ``plain`` are untraced units, ``traced`` traced ones and ``beside``
    the untraced units interleaved with them.
    """
    n = len(traced.units)
    summary = SpanSummary(tracer, set(traced.run_ids))
    counts: Dict[str, float] = {}
    for run in traced.run_ids:
        for key, value in tracer.counts[run].items():
            counts[key] = counts.get(key, 0) + value
    ms = 1e3 / n
    metrics: Dict[str, float] = {
        f"{layer}.self_ms": summary.layer_self(layer) * ms for layer in LAYERS
    }
    unit_time = summary.outer("bench", "unit")
    metrics["trace.unattributed_share"] = summary.self_time[("bench", "unit")] / unit_time
    metrics["trace.overhead_share"] = (
        sum(traced.walls().values()) / sum(beside.walls().values()) - 1.0)
    metrics["trace.spans"] = len(summary.selected) / n
    metrics["runtime.gc_ms"] = summary.outer("runtime", "gc") * ms
    alive = plain.alive
    metrics["runtime.retained_objects_per_unit"] = (
        (alive[-1] - alive[0]) / (len(alive) - 1))

    metrics["ir.build_ms"] = summary.outer("ir", "build") * ms
    metrics["ir.digest_ms"] = summary.outer("ir", "digest") * ms
    metrics["memory.machines"] = summary.calls[("memory", "machine")] / n
    metrics["memory.machine_ms"] = summary.outer(
        "memory", "machine", "address_space", "image", "pool_acquire") * ms
    fences = summary.durations[("memory", "fence")]
    metrics["memory.fence_us"] = statistics.mean(fences) * 1e6 if fences else 0.0
    metrics["interp.steps"] = counts.get("interp.steps", 0) / n
    metrics["interp.call_ms"] = summary.outer("interp", "call") * ms
    metrics["detect.events"] = counts.get("detect.events", 0) / n
    metrics["detect.check_ms"] = summary.outer("detect", "check_trace", "check", "feed") * ms
    metrics["detect.feed_calls"] = counts.get("detect.feed_calls", 0) / n
    metrics["analysis.solve_ms"] = summary.outer("analysis", "solve") * ms
    for stat in ("hits", "misses"):
        total = sum(
            getattr(stats, stat, 0)
            for run in traced.run_ids for stats in tracer.managers[run]
        )
        metrics[f"analysis.{stat}"] = total / n
    metrics["core.compute_ms"] = summary.outer("core", "compute") * ms
    metrics["core.apply_ms"] = summary.outer("core", "apply") * ms
    metrics["core.fixes"] = counts.get("core.fixes", 0) / n
    metrics["revalidate.record_ms"] = summary.outer("revalidate", "record") * ms
    metrics["revalidate.ms"] = summary.outer("revalidate", "revalidate") * ms
    metrics["revalidate.rerun_ms"] = summary.outer("bench", "rerun") * ms
    metrics["interp.trace_run_ms"] = summary.outer("bench", "trace_run") * ms
    for mode in ("baseline", "synthesized", "incremental", "full"):
        metrics[f"revalidate.mode.{mode}"] = counts.get(f"revalidate.mode.{mode}", 0) / n

    # client-operation breakdown (redis-ycsb): latencies from the
    # untraced half, counts over one whole operation stream
    stream = getattr(workload, "stream_counts", None)
    ycsb = stream is not None
    by_kind: Dict[str, List[float]] = {}
    for item, latency in plain.items().items():
        by_kind.setdefault(item.split("/")[0], []).append(latency)
    metrics["interp.steps_per_op"] = stream["steps"] / stream["ops"] if ycsb else 0.0
    metrics["memory.fences_per_op"] = stream["fences"] / stream["ops"] if ycsb else 0.0
    metrics["interp.read_us_p50"] = statistics.median(by_kind["read"]) * 1e6 if ycsb else 0.0
    metrics["interp.update_us_p50"] = (
        statistics.median(by_kind["update"]) * 1e6 if ycsb else 0.0)

    # supervisor (corpus-batch), from the untraced half and the probes
    both = plain.units + beside.units + traced.units
    batch = name == "corpus-batch"
    metrics["supervisor.task_s"] = statistics.median(plain.items().values()) if batch else 0.0
    metrics["supervisor.busy_share"] = (
        statistics.median(u.counts["supervisor.busy_share"] for u in plain.units)
        if batch else 0.0)
    for key in ("supervisor.retries", "supervisor.journal_bytes"):
        metrics[key] = sum(u.counts.get(key, 0) for u in both) / len(both)
    metrics["supervisor.execute_s"] = extra.get("supervisor.execute_s", 0.0)
    metrics["supervisor.worker_import_s"] = extra.get("supervisor.worker_import_s", 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # Objects from set-up (imports, inputs) live to the end; keep them
    # out of every later collection the workload triggers.
    gc.collect()
    gc.freeze()

    result: Dict[str, object] = {}
    if not args.trace:
        probes = SetupProbes(args, setup_s)
        plain, _ = measure(workload, args.seconds, between=probes.between_units)
        metrics, outcome = end_to_end(plain, workload.final())
        metrics["setup_s"] = probes.median()
    else:
        tracer = Tracer()
        try:
            tracer.install()
        except UnresolvedTargets as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        tracer.uninstall()
        # untraced units, supervisor probes, then traced units
        # interleaved with untraced ones
        plain, _ = measure(workload, args.seconds / 2)
        extra = workload.supervisor_probes() if isinstance(workload, CorpusBatch) else {}
        beside, traced = measure(workload, args.seconds / 2, tracer)
        _, outcome = end_to_end(
            Measured(plain.units + beside.units + traced.units, []), workload.final())
        metrics = per_layer(args.workload, workload, plain, beside, traced, tracer, extra)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    result.update(outcome, metrics=metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

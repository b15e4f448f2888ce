"""The batch-repair supervisor: process supervision over the pipeline.

PR 1 made a single repair resilient *inside* the process (quarantine,
transactions, budgets).  This layer assumes the process itself is the
failure domain — a worker can hang in the Andersen fixpoint, die
silently, or be OOM-killed — and keeps the *batch* correct anyway:

- **process-per-task workers** (``python -m repro.supervisor.worker``)
  with heartbeat lines, so silent death is detected by silence, not
  only by ``waitpid``;
- a **watchdog** that SIGKILLs a worker whose heartbeats stop or whose
  task exceeds its wall-time budget, and requeues the task;
- **bounded retries** with exponential backoff and deterministic
  jitter (seeded from the task id + attempt, so schedules are
  reproducible), then **task quarantine** — one pathological task
  never stalls or starves the rest of the batch;
- **write-ahead journaling** of every transition through
  :class:`~repro.supervisor.journal.CheckpointJournal` — a hard kill of
  the *supervisor* at any checkpoint boundary is recoverable with
  ``resume=True``, which replays completed tasks from the journal and
  produces a byte-identical aggregate report;
- clean **SIGINT/SIGTERM draining**: stop dispatching, let in-flight
  tasks finish (bounded by a grace period), journal the interruption,
  and return a report that a later ``resume`` completes;
- **graceful degradation**: when subprocesses are unavailable (or
  ``mode="inprocess"``), tasks run serially in-process under the same
  journal, the same retry/quarantine ladder, and a thread-based
  watchdog — identical semantics, smaller failure domain.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.observability import NULL_OBS, Observability
from .journal import CheckpointJournal, RecoveredJournal
from .report import DONE, QUARANTINED, BatchReport, TaskOutcome
from .tasks import RepairTask, TaskResult, execute_task

#: the analysis-stats keys a batch report aggregates, and the metrics
#: counters (``analysis.<key>``) a worker's METRICS snapshot carries
#: them under
ANALYSIS_STAT_KEYS = (
    "hits",
    "misses",
    "invalidations",
    "failures_replayed",
    "disk_hits",
    "disk_misses",
)

#: execution modes
MODES = ("auto", "subprocess", "inprocess")


class SupervisorError(ReproError):
    """The supervisor was misconfigured or its journal is inconsistent."""


class SupervisorKilled(BaseException):
    """Simulated SIGKILL of the supervisor (fault injection only).

    A :class:`BaseException` so no ``except Exception`` in the dispatch
    loop can swallow it — like the real signal, nothing gets to clean
    up, finalize the journal, or write a report.
    """


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunable supervision policy (all times in seconds)."""

    mode: str = "auto"
    jobs: int = 2
    #: watchdog: max wall time for one task attempt
    task_timeout: float = 60.0
    #: watchdog: max silence between worker heartbeats
    heartbeat_timeout: float = 5.0
    #: how often workers emit heartbeats
    heartbeat_interval: float = 0.2
    #: retries after the first attempt (attempts = max_retries + 1)
    max_retries: int = 2
    #: exponential backoff base delay (doubled per retry) + cap
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: SIGINT/SIGTERM drain: how long in-flight tasks may finish
    drain_grace: float = 30.0
    heuristic: str = "full"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SupervisorError(f"unknown mode {self.mode!r}; use {MODES}")
        if self.jobs < 1:
            raise SupervisorError("jobs must be >= 1")


def backoff_delay(config: SupervisorConfig, task_id: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter is seeded from (task id, attempt) via CRC-32, so a rerun
    of the same batch produces the same retry schedule — reproducibility
    extends to the supervisor's timing decisions.
    """
    base = min(config.backoff_cap, config.backoff_base * (2 ** (attempt - 1)))
    seed = zlib.crc32(f"{task_id}#{attempt}".encode("utf-8")) & 0xFFFFFFFF
    jitter = (seed % 1000) / 2000.0  # 0.0 .. 0.4995
    return min(config.backoff_cap, base * (1.0 + jitter))


# ---------------------------------------------------------------------------
# worker handles (one in-flight task attempt)
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Common view the dispatch loop has of an in-flight attempt."""

    #: False for workers that cannot emit heartbeats (in-process mode);
    #: the watchdog then relies on the task timeout alone
    heartbeats = True

    def __init__(self, task: RepairTask, index: int, attempt: int):
        self.task = task
        self.index = index  # 1-based submission index (fault targeting)
        self.attempt = attempt
        self.started = time.monotonic()
        self.last_heartbeat = self.started
        self.result_record: Optional[Dict[str, Any]] = None
        self.outcome_obj = None  # rich CaseOutcome (in-process only)
        self.stats_record: Optional[Dict[str, Any]] = None  # volatile analysis stats
        self.metrics_record: Optional[Dict[str, Any]] = None  # METRICS snapshot
        self.fail_info: Optional[Dict[str, Any]] = None
        self.silent_death = False
        #: worker stdout lines that parsed as no protocol record
        self.protocol_malformed = 0

    def finished(self) -> bool:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError


class _SubprocessWorker(_WorkerHandle):
    """A worker subprocess plus its stdout/stderr reader threads."""

    def __init__(self, task, index, attempt, config, fault_env: str,
                 obs: Observability = NULL_OBS):
        super().__init__(task, index, attempt)
        self._obs = obs
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_WORKER_HEARTBEAT"] = str(config.heartbeat_interval)
        if obs.enabled:
            env["REPRO_WORKER_OBS"] = "1"
        else:
            env.pop("REPRO_WORKER_OBS", None)
        if fault_env:
            env["REPRO_WORKER_FAULT"] = fault_env
        else:
            env.pop("REPRO_WORKER_FAULT", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.supervisor.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.stderr_tail: List[str] = []
        self._lock = threading.Lock()
        try:
            self.proc.stdin.write(json.dumps(task.to_spec()))
            self.proc.stdin.close()
        except OSError:
            pass  # the worker died before reading its spec; settle() classifies it
        self._stdout_thread = threading.Thread(target=self._read_stdout, daemon=True)
        self._stdout_thread.start()
        threading.Thread(target=self._read_stderr, daemon=True).start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            with self._lock:
                if line.startswith("HB ") and line[3:].isdigit():
                    self.last_heartbeat = time.monotonic()
                    self._obs.event(
                        "supervisor.heartbeat",
                        task=self.task.task_id,
                        attempt=self.attempt,
                    )
                elif line.startswith("METRICS "):
                    try:
                        self._ingest_metrics(json.loads(line[len("METRICS "):]))
                    except ValueError:
                        self._malformed()  # observability only; never fails the task
                elif line.startswith("OBS "):
                    try:
                        self._forward_obs(json.loads(line[len("OBS "):]))
                    except ValueError:
                        self._malformed()  # observability only; never fails the task
                elif line.startswith("RESULT "):
                    try:
                        self.result_record = json.loads(line[len("RESULT "):])
                    except ValueError:
                        self._malformed()
                        self.fail_info = {
                            "error_type": "ProtocolError",
                            "error": "unparseable RESULT line",
                        }
                elif line.startswith("FAIL "):
                    try:
                        self.fail_info = json.loads(line[len("FAIL "):])
                    except ValueError:
                        self._malformed()
                        self.fail_info = {
                            "error_type": "ProtocolError",
                            "error": "unparseable FAIL line",
                        }
                else:
                    self._malformed()
        self.proc.stdout.close()

    def _malformed(self) -> None:
        """Count a line that carries no well-formed protocol record."""
        self.protocol_malformed += 1
        self._obs.count("supervisor.protocol_malformed")

    def _ingest_metrics(self, snapshot: Any) -> None:
        """Keep the worker's METRICS snapshot and derive from it the
        analysis-stats dict the batch report aggregates (the typed
        replacement for the old free-form STATS line)."""
        if not isinstance(snapshot, dict):
            return
        self.metrics_record = snapshot
        counters = snapshot.get("counters") or {}
        if isinstance(counters, dict):
            self.stats_record = {
                key: int(counters.get(f"analysis.{key}", 0) or 0)
                for key in ANALYSIS_STAT_KEYS
            }

    def _forward_obs(self, record: Any) -> None:
        """Re-emit a worker's span/event record into the batch sink,
        stamped with which task attempt produced it."""
        if not isinstance(record, dict) or not self._obs.enabled:
            return
        attrs = record.setdefault("attrs", {})
        if isinstance(attrs, dict):
            attrs.setdefault("task", self.task.task_id)
            attrs.setdefault("attempt", self.attempt)
        self._obs.emit(record)

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            with self._lock:
                self.stderr_tail.append(line.rstrip("\n"))
                del self.stderr_tail[:-50]
        self.proc.stderr.close()

    def finished(self) -> bool:
        return self.proc.poll() is not None

    def settle(self) -> None:
        """After exit: classify a worker that died without a verdict.

        Waits for the stdout reader to hit EOF first — the process can
        be reaped by ``poll()`` an instant before its final ``RESULT``
        line is consumed, and that race must not look like death.
        """
        self._stdout_thread.join(timeout=5.0)
        with self._lock:
            if self.result_record is None and self.fail_info is None:
                self.silent_death = True
                tail = "; ".join(self.stderr_tail[-3:])
                self.fail_info = {
                    "error_type": "WorkerDied",
                    "error": (
                        f"worker exited with code {self.proc.returncode} "
                        f"without a result"
                        + (f" (stderr: {tail})" if tail else "")
                    ),
                }

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class _InprocessWorker(_WorkerHandle):
    """Serial fallback: the task runs in a daemon thread.

    The thread stands in for the subprocess: a ``hang-worker`` fault
    hangs it (the watchdog times out and abandons it — daemon threads
    die with the interpreter), and a ``kill-worker-at-nth`` fault makes
    it finish without a verdict, which the supervisor classifies as
    silent death exactly as it would a vanished subprocess.
    """

    heartbeats = False  # a thread cannot heartbeat mid-task

    def __init__(self, task, index, attempt, config, fault_env: str,
                 obs: Observability = NULL_OBS):
        super().__init__(task, index, attempt)
        self._obs = obs
        self._fault_env = fault_env
        self._done = threading.Event()
        self._abandoned = False
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        try:
            if self._fault_env == "hang":
                while not self._abandoned:
                    time.sleep(0.02)
                return
            if self._fault_env == "kill":
                self.silent_death = True
                return
            # In-process workers share the supervisor's facade directly:
            # spans stream straight into the batch sink and metrics land
            # in the batch registry with no merge step.
            result: TaskResult = execute_task(self.task, obs=self._obs)
            self.result_record = result.record
            self.outcome_obj = result.outcome
            self.stats_record = result.stats
        except Exception as exc:
            import traceback as _tb

            self.fail_info = {
                "error_type": type(exc).__name__,
                "error": str(exc),
                "traceback": _tb.format_exc(),
            }
        finally:
            self.last_heartbeat = time.monotonic()
            self._done.set()

    def finished(self) -> bool:
        return self._done.is_set()

    def settle(self) -> None:
        if self.result_record is None and self.fail_info is None:
            self.silent_death = True
            self.fail_info = {
                "error_type": "WorkerDied",
                "error": "in-process worker finished without a result",
            }

    def kill(self) -> None:
        # Threads cannot be killed; the watchdog abandons this one.
        self._abandoned = True
        self._done.set()


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------


class BatchSupervisor:
    """Run a batch of repair tasks under supervision (see module docs).

    :param tasks: the batch, in submission order (order is part of the
        canonical report).
    :param journal_path: the write-ahead journal file; None disables
        journaling (library use — ``resume`` then requires a path).
    :param config: supervision policy.
    :param fault: optional fault plan (``hang-worker``,
        ``kill-worker-at-nth``, ``kill-supervisor-at-nth``) from
        :mod:`repro.faultinject.plans`; duck-typed — anything with
        ``mode``, ``nth`` and ``attempts`` attributes works.
    :param obs: an :class:`~repro.obs.observability.Observability`
        facade.  Lifecycle events (spawn, heartbeat, retry, kill,
        quarantine, resume) and worker metrics flow into it; the
        canonical report is byte-identical with it on or off.
    """

    def __init__(
        self,
        tasks: List[RepairTask],
        journal_path: Optional[str] = None,
        config: Optional[SupervisorConfig] = None,
        fault=None,
        obs: Optional[Observability] = None,
    ):
        seen = set()
        for task in tasks:
            if task.task_id in seen:
                raise SupervisorError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
        self.tasks = list(tasks)
        self.journal_path = journal_path
        self.config = config or SupervisorConfig()
        self.fault = fault
        self.obs = obs if obs is not None else NULL_OBS
        self._journal: Optional[CheckpointJournal] = None
        self._draining = False
        self._drain_signal = ""
        self._mode = self.config.mode
        self.progress = None  # optional callable(event: str, task_id: str)

    # -- fault plumbing -----------------------------------------------------

    def _checkpoint_hook(self, appended: int) -> None:
        fault = self.fault
        if fault is not None and getattr(fault, "mode", "") == "kill-supervisor-at-nth":
            if appended == fault.nth:
                raise SupervisorKilled(f"simulated SIGKILL at checkpoint {appended}")

    def _worker_fault_env(self, index: int, attempt: int) -> str:
        fault = self.fault
        if fault is None or getattr(fault, "nth", 0) != index:
            return ""
        affected = getattr(fault, "attempts", 1)
        if affected and attempt > affected:
            return ""
        if fault.mode == "hang-worker":
            return "hang"
        if fault.mode == "kill-worker-at-nth":
            return "kill"
        return ""

    # -- journal helpers ----------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(record)

    # -- signals ------------------------------------------------------------

    def _install_signals(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def drain(signum, frame):
            self._draining = True
            self._drain_signal = signal.Signals(signum).name

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, drain)
        return previous

    @staticmethod
    def _restore_signals(previous) -> None:
        if previous:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # -- mode resolution ----------------------------------------------------

    def _spawn(self, task: RepairTask, index: int, attempt: int) -> _WorkerHandle:
        fault_env = self._worker_fault_env(index, attempt)
        self.obs.event(
            "supervisor.spawn", task=task.task_id, attempt=attempt,
            mode=self._mode,
        )
        self.obs.count("supervisor.spawns")
        if self._mode == "subprocess":
            try:
                return _SubprocessWorker(
                    task, index, attempt, self.config, fault_env, obs=self.obs
                )
            except OSError as exc:
                raise SupervisorError(f"cannot spawn worker: {exc}") from exc
        return _InprocessWorker(
            task, index, attempt, self.config, fault_env, obs=self.obs
        )

    def _resolve_mode(self) -> None:
        if self.config.mode != "auto":
            self._mode = self.config.mode
            return
        # Graceful degradation: probe for a usable interpreter to fork.
        if sys.executable and hasattr(subprocess, "Popen"):
            try:
                probe = subprocess.run(
                    [sys.executable, "-c", "pass"],
                    capture_output=True,
                    timeout=30,
                )
                if probe.returncode == 0:
                    self._mode = "subprocess"
                    return
            except (OSError, subprocess.SubprocessError):
                pass
        self._mode = "inprocess"

    # -- resume -------------------------------------------------------------

    def _load_resume_state(self) -> Tuple[List[TaskOutcome], RecoveredJournal]:
        journal = self._journal
        assert journal is not None
        recovered = journal.recover()
        completed = recovered.completed_tasks()
        known = {task.task_id for task in self.tasks}
        stale = sorted(set(completed) - known)
        if stale:
            raise SupervisorError(
                f"journal {self.journal_path!r} records task(s) not in this "
                f"batch: {stale}; refusing to resume a different batch"
            )
        outcomes: List[TaskOutcome] = []
        for task in self.tasks:
            record = completed.get(task.task_id)
            if record is None:
                continue
            if record["type"] == "task-done":
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        status=DONE,
                        record=record["result"],
                        attempts=recovered.attempts(task.task_id),
                        replayed=True,
                    )
                )
            else:
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        status=QUARANTINED,
                        error=record.get("error", ""),
                        attempts=recovered.attempts(task.task_id),
                        replayed=True,
                    )
                )
        return outcomes, recovered

    # -- the run ------------------------------------------------------------

    def run(self, resume: bool = False) -> BatchReport:
        """Execute the batch; with ``resume=True``, continue a journal.

        Returns the :class:`BatchReport`.  Raises
        :class:`SupervisorError` on misuse (resume without a journal,
        journal from a different batch).  :class:`SupervisorKilled`
        (fault injection) propagates like the SIGKILL it simulates.
        """
        if resume and not self.journal_path:
            raise SupervisorError("resume requires a journal path")
        started = time.monotonic()
        self._resolve_mode()
        self.obs.event(
            "batch.start",
            tasks=len(self.tasks),
            mode=self._mode,
            resume=resume,
        )
        report = BatchReport(heuristic=self.config.heuristic, mode=self._mode)
        outcomes_by_id: Dict[str, TaskOutcome] = {}

        self._journal = (
            CheckpointJournal(self.journal_path, after_append=self._checkpoint_hook)
            if self.journal_path
            else None
        )
        previous_handlers = self._install_signals()
        try:
            if resume and self._journal is not None:
                replayed, recovered = self._load_resume_state()
                for outcome in replayed:
                    outcomes_by_id[outcome.task_id] = outcome
                pending = [
                    task for task in self.tasks if task.task_id not in outcomes_by_id
                ]
                if not recovered.records:
                    # Killed before batch-start survived: a fresh run.
                    self._append(self._batch_start_record())
                else:
                    self._append(
                        {
                            "type": "batch-resume",
                            "replayed": sorted(outcomes_by_id),
                            "pending": [task.task_id for task in pending],
                            "torn_at": recovered.torn_at,
                        }
                    )
                    self.obs.event(
                        "supervisor.resume",
                        replayed=len(outcomes_by_id),
                        pending=len(pending),
                    )
                    self.obs.count("supervisor.replayed", len(outcomes_by_id))
            else:
                pending = list(self.tasks)
                self._append(self._batch_start_record())

            interrupted = self._dispatch(pending, outcomes_by_id, report)

            report.outcomes = [
                outcomes_by_id[task.task_id]
                for task in self.tasks
                if task.task_id in outcomes_by_id
            ]
            if interrupted:
                report.interrupted = True
                report.pending = [
                    task.task_id
                    for task in self.tasks
                    if task.task_id not in outcomes_by_id
                ]
                self._append(
                    {
                        "type": "batch-interrupted",
                        "signal": self._drain_signal,
                        "pending": report.pending,
                    }
                )
            else:
                self._append({"type": "batch-end", "totals": report.totals()})
            report.elapsed_seconds = time.monotonic() - started
            self.obs.event(
                "batch.end",
                interrupted=report.interrupted,
                done=sum(1 for o in report.outcomes if o.status == DONE),
                quarantined=len(report.quarantined),
            )
            return report
        finally:
            self._restore_signals(previous_handlers)
            if self._journal is not None:
                self._journal.close()

    def _batch_start_record(self) -> Dict[str, Any]:
        return {
            "type": "batch-start",
            "tasks": [task.task_id for task in self.tasks],
            "heuristic": self.config.heuristic,
            "max_retries": self.config.max_retries,
        }

    def _notify(self, event: str, task_id: str, detail: str = "") -> None:
        if self.progress is not None:
            self.progress(event, task_id, detail)

    def _dispatch(
        self,
        pending: List[RepairTask],
        outcomes_by_id: Dict[str, TaskOutcome],
        report: BatchReport,
    ) -> bool:
        """The scheduling loop; returns True if interrupted by a signal."""
        config = self.config
        index_of = {task.task_id: i + 1 for i, task in enumerate(self.tasks)}
        # ready queue: (not_before, submission index, attempt, task)
        queue: List[Tuple[float, int, int, RepairTask]] = []
        for task in pending:
            heapq.heappush(queue, (0.0, index_of[task.task_id], 1, task))
        running: List[_WorkerHandle] = []
        jobs = config.jobs if self._mode == "subprocess" else 1
        drain_deadline: Optional[float] = None

        while queue or running:
            now = time.monotonic()
            if self._draining and drain_deadline is None:
                drain_deadline = now + config.drain_grace

            # dispatch ready tasks into free slots (not while draining)
            while (
                not self._draining
                and len(running) < jobs
                and queue
                and queue[0][0] <= now
            ):
                _, index, attempt, task = heapq.heappop(queue)
                self._append(
                    {"type": "task-start", "task": task.task_id, "attempt": attempt}
                )
                self._notify("start", task.task_id, f"attempt {attempt}")
                running.append(self._spawn(task, index, attempt))

            # poll in-flight workers
            still_running: List[_WorkerHandle] = []
            for worker in running:
                now = time.monotonic()
                if worker.finished():
                    worker.settle()
                    if worker.result_record is not None:
                        self._record_done(worker, outcomes_by_id, report)
                    else:
                        self._record_failure(
                            worker, queue, index_of, outcomes_by_id, report
                        )
                    continue
                hung = (
                    worker.heartbeats
                    and now - worker.last_heartbeat > config.heartbeat_timeout
                )
                overtime = now - worker.started > config.task_timeout
                if hung or overtime:
                    worker.kill()
                    reason = (
                        f"watchdog: no heartbeat for {config.heartbeat_timeout}s"
                        if hung
                        else f"watchdog: task exceeded {config.task_timeout}s"
                    )
                    self.obs.event(
                        "supervisor.kill",
                        task=worker.task.task_id,
                        attempt=worker.attempt,
                        reason=reason,
                    )
                    self.obs.count("supervisor.watchdog_kills")
                    worker.fail_info = {"error_type": "WatchdogTimeout", "error": reason}
                    self._record_failure(
                        worker, queue, index_of, outcomes_by_id, report
                    )
                    continue
                still_running.append(worker)
            running = still_running

            if self._draining:
                if not running:
                    return True
                if drain_deadline is not None and time.monotonic() > drain_deadline:
                    for worker in running:
                        worker.kill()
                        worker.fail_info = {
                            "error_type": "Drained",
                            "error": f"killed by {self._drain_signal or 'signal'} "
                            f"drain after {config.drain_grace}s grace",
                        }
                        self._record_failure(
                            worker, queue, index_of, outcomes_by_id, report,
                            requeue=False,
                        )
                    return True

            if queue or running:
                time.sleep(0.01)
        return self._draining

    def _record_done(
        self, worker: _WorkerHandle, outcomes_by_id, report: BatchReport
    ) -> None:
        # The journaled record excludes the volatile metrics payload: a
        # resumed batch replays results, not cache weather.
        if worker.metrics_record is not None:
            # Subprocess workers ship a full registry snapshot; fold it
            # into the batch registry (in-process workers wrote to it
            # directly, so they have nothing to merge).
            self.obs.merge_metrics(worker.metrics_record)
        self.obs.event(
            "supervisor.done",
            task=worker.task.task_id,
            attempt=worker.attempt,
        )
        self.obs.count("supervisor.tasks_done")
        self._append(
            {
                "type": "task-done",
                "task": worker.task.task_id,
                "attempt": worker.attempt,
                "result": worker.result_record,
            }
        )
        outcomes_by_id[worker.task.task_id] = TaskOutcome(
            task_id=worker.task.task_id,
            status=DONE,
            record=worker.result_record,
            attempts=worker.attempt,
            outcome_obj=worker.outcome_obj,
            stats=worker.stats_record,
        )
        report.add_analysis_stats(worker.stats_record)
        report.protocol_malformed += worker.protocol_malformed
        self._notify("done", worker.task.task_id)

    def _record_failure(
        self,
        worker: _WorkerHandle,
        queue,
        index_of,
        outcomes_by_id,
        report: BatchReport,
        requeue: bool = True,
    ) -> None:
        config = self.config
        report.protocol_malformed += worker.protocol_malformed
        info = worker.fail_info or {"error_type": "Unknown", "error": "no verdict"}
        error = f"{info.get('error_type', 'Error')}: {info.get('error', '')}"
        task_id = worker.task.task_id
        if requeue and worker.attempt <= config.max_retries:
            delay = backoff_delay(config, task_id, worker.attempt)
            self._append(
                {
                    "type": "task-failed",
                    "task": task_id,
                    "attempt": worker.attempt,
                    "error": error,
                    "retry_in": round(delay, 6),
                }
            )
            report.total_retries += 1
            self.obs.event(
                "supervisor.retry",
                task=task_id,
                attempt=worker.attempt,
                delay=round(delay, 6),
                error=error,
            )
            self.obs.count("supervisor.retries")
            self.obs.observe("supervisor.backoff_seconds", delay)
            self._notify("retry", task_id, error)
            heapq.heappush(
                queue,
                (
                    time.monotonic() + delay,
                    index_of[task_id],
                    worker.attempt + 1,
                    worker.task,
                ),
            )
            return
        self._append(
            {
                "type": "task-quarantined",
                "task": task_id,
                "attempts": worker.attempt,
                "error": error,
            }
        )
        outcomes_by_id[task_id] = TaskOutcome(
            task_id=task_id,
            status=QUARANTINED,
            error=error,
            attempts=worker.attempt,
        )
        self.obs.event(
            "supervisor.quarantine",
            task=task_id,
            attempts=worker.attempt,
            error=error,
        )
        self.obs.count("supervisor.quarantines")
        self._notify("quarantine", task_id, error)


# ---------------------------------------------------------------------------
# convenience front door
# ---------------------------------------------------------------------------


def run_batch(
    tasks: List[RepairTask],
    journal_path: Optional[str] = None,
    resume: bool = False,
    config: Optional[SupervisorConfig] = None,
    fault=None,
    progress=None,
    obs: Optional[Observability] = None,
) -> BatchReport:
    """Build a :class:`BatchSupervisor` and run it (the CLI's engine)."""
    supervisor = BatchSupervisor(
        tasks, journal_path=journal_path, config=config, fault=fault, obs=obs
    )
    supervisor.progress = progress
    return supervisor.run(resume=resume)

"""Worker subprocess entry: ``python -m repro.supervisor.worker``.

One worker runs one task and exits — process-per-task keeps the blast
radius of a crash, hang, or leak to a single task, and lets the
supervisor's watchdog use plain SIGKILL with no cleanup protocol.

Protocol (line-oriented, over stdio):

- stdin: a single JSON object — the :class:`~repro.supervisor.tasks.
  RepairTask` spec.
- stdout: ``HB <n>`` heartbeat lines every ``REPRO_WORKER_HEARTBEAT``
  seconds from a daemon thread (so a worker stuck in a long Andersen
  fixpoint still heartbeats, while a *dead* one goes silent); when
  ``REPRO_WORKER_OBS=1``, interleaved ``OBS <json>`` lines — span/event
  records forwarded live to the supervisor's sink; one
  ``METRICS <json>`` line — the full volatile metrics snapshot
  (analysis-cache counters, interpreter totals, pipeline counts),
  reported separately from the result precisely so it never enters the
  deterministic record or the journal — then exactly one terminal line:

  - ``RESULT <json>`` — the deterministic task result record, or
  - ``FAIL <json>`` — ``{"error_type", "error", "traceback"}``.

Every protocol line goes out through :func:`_emit`: one locked
``write`` of the whole line plus its newline, then a flush.  ``print``
writes the text and the newline separately, so the heartbeat thread
could land ``HB n`` between a main-thread record and its newline and
glue two records onto one line.

Exit codes: 0 after ``RESULT``, 3 after ``FAIL``, 2 on a protocol
error (bad spec).  The supervisor trusts the *lines*, not the exit
code — a worker that dies after ``RESULT`` already delivered its work.

Fault injection (for the resilience harness) rides on environment
variables so production specs stay clean:

- ``REPRO_WORKER_FAULT=hang``  — heartbeat normally but never finish
  (a stuck fixpoint; the watchdog must kill us);
- ``REPRO_WORKER_FAULT=kill``  — SIGKILL ourselves mid-task (silent
  death; heartbeat tracking must notice, not just waitpid).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback

_EMIT_LOCK = threading.Lock()


def _emit(line: str) -> None:
    """Write one protocol line atomically with respect to other threads."""
    with _EMIT_LOCK:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


class _StdoutSink:
    """Forward span/event records to the supervisor as ``OBS`` lines.

    Line-oriented like the rest of the protocol; the supervisor's
    stdout reader re-emits each record into its own sink with the task
    id attached.
    """

    def __init__(self) -> None:
        self.dropped = 0
        self.emitted = 0

    def emit(self, record: dict) -> None:
        try:
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            _emit(f"OBS {line}")
            self.emitted += 1
        except (OSError, ValueError, TypeError):
            self.dropped += 1


def _start_heartbeats(interval: float) -> None:
    def beat() -> None:
        n = 0
        while True:
            n += 1
            _emit(f"HB {n}")
            time.sleep(interval)

    thread = threading.Thread(target=beat, name="heartbeat", daemon=True)
    thread.start()


def _inject_fault() -> None:
    fault = os.environ.get("REPRO_WORKER_FAULT", "")
    if fault == "hang":
        while True:  # pragma: no cover - killed by the watchdog
            time.sleep(0.5)
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def main() -> int:
    from ..obs.observability import Observability
    from .tasks import RepairTask, execute_task

    interval = float(os.environ.get("REPRO_WORKER_HEARTBEAT", "0.2"))
    try:
        spec = json.loads(sys.stdin.read())
        task = RepairTask.from_spec(spec)
    except Exception as exc:
        _emit(f"FAIL {json.dumps({'error_type': type(exc).__name__, 'error': str(exc), 'traceback': ''})}")
        return 2
    _start_heartbeats(interval)
    _inject_fault()
    # The worker always runs instrumented: the metrics snapshot is the
    # replacement for the old STATS line, so the supervisor can derive
    # analysis stats from it in every configuration.  Span *forwarding*
    # costs a stdout line per record, so it stays opt-in.
    forward_spans = os.environ.get("REPRO_WORKER_OBS", "") == "1"
    obs = Observability(sink=_StdoutSink() if forward_spans else None)
    try:
        result = execute_task(task, obs=obs)
    except Exception as exc:
        payload = {
            "error_type": type(exc).__name__,
            "error": str(exc),
            "traceback": traceback.format_exc(),
        }
        _emit(f"FAIL {json.dumps(payload)}")
        return 3
    _emit(f"METRICS {json.dumps(obs.metrics_snapshot(), sort_keys=True)}")
    _emit(f"RESULT {json.dumps(result.record, sort_keys=True)}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

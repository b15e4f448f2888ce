"""The worker stdout protocol: one record per line, no silent drops.

A worker writes ``HB`` lines from its heartbeat thread while the main
thread writes ``OBS``/``METRICS``/``RESULT`` lines.  Each line must
reach the supervisor whole: a heartbeat glued onto a ``RESULT`` line
would turn a finished task into a retry.  And every line the supervisor
cannot read as a record is counted and shown in the batch summary,
never dropped silently.
"""

from __future__ import annotations

import io
import json
import re
import sys
import threading
import time
import types

import pytest

from repro.obs.observability import Observability
from repro.supervisor import (
    BatchSupervisor,
    RepairTask,
    SupervisorConfig,
    corpus_tasks,
    run_batch,
)
from repro.supervisor import worker
from repro.supervisor.report import BatchReport
from repro.supervisor.supervisor import _SubprocessWorker, _WorkerHandle

_HB = re.compile(r"HB \d+")


class _YieldingStream:
    """A stdout stand-in that gives up the GIL inside every write, so
    another thread gets to write between any two writes of the first.

    Once ``closed`` is set, a write raises :class:`SystemExit`, which
    ends the (daemon) heartbeat thread.
    """

    def __init__(self) -> None:
        self.chunks = []
        self.closed = False

    def write(self, text: str) -> int:
        if self.closed:
            raise SystemExit
        self.chunks.append(text)
        time.sleep(0.0002)
        return len(text)

    def flush(self) -> None:
        pass


# the SystemExit that stops the heartbeat thread is deliberate
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_heartbeat_and_main_thread_lines_never_interleave(monkeypatch):
    events = 300
    task = RepairTask(task_id="t", kind="corpus", case_id="PMDK-452")
    stream = _YieldingStream()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(task.to_spec())))
    monkeypatch.setattr(sys, "stdout", stream)
    monkeypatch.setenv("REPRO_WORKER_HEARTBEAT", "0.0005")
    monkeypatch.setenv("REPRO_WORKER_OBS", "1")
    monkeypatch.delenv("REPRO_WORKER_FAULT", raising=False)

    def fake_execute_task(task, obs):
        for i in range(events):
            obs.event("test.tick", i=i)  # one OBS line each
        return types.SimpleNamespace(record={"task": task.task_id})

    monkeypatch.setattr("repro.supervisor.tasks.execute_task", fake_execute_task)
    try:
        assert worker.main() == 0
    finally:
        stream.closed = True
        for thread in threading.enumerate():
            if thread.name == "heartbeat":
                thread.join(timeout=5.0)
                assert not thread.is_alive()

    text = "".join(stream.chunks)
    assert text.endswith("\n")
    kinds = {"HB": 0, "OBS": 0, "METRICS": 0, "RESULT": 0}
    for line in text[:-1].split("\n"):
        if _HB.fullmatch(line):
            kinds["HB"] += 1
            continue
        prefix, _, payload = line.partition(" ")
        assert prefix in ("OBS", "METRICS", "RESULT"), f"malformed line {line!r}"
        json.loads(payload)  # raises on a record with a glued-on tail
        kinds[prefix] += 1
    assert kinds["HB"] >= 1
    assert kinds["OBS"] == events
    assert kinds["METRICS"] == 1
    assert kinds["RESULT"] == 1


def _read_lines(lines, obs):
    """Feed ``lines`` through a subprocess handle's stdout reader."""
    task = RepairTask(task_id="t", kind="corpus", case_id="PMDK-452")
    handle = _SubprocessWorker.__new__(_SubprocessWorker)
    _WorkerHandle.__init__(handle, task, 1, 1)
    handle._obs = obs
    handle._lock = threading.Lock()
    handle.proc = types.SimpleNamespace(
        stdout=io.StringIO("".join(line + "\n" for line in lines))
    )
    handle._read_stdout()
    return handle


def test_malformed_worker_lines_are_counted():
    obs = Observability()
    handle = _read_lines(
        [
            "HB 1",
            'HB 2RESULT {"task": "t"}',  # a heartbeat glued to a record
            "METRICS {not json",
            "OBS [1,",
            "surprise",
            'RESULT {"task": "t"}',
        ],
        obs,
    )
    assert handle.protocol_malformed == 4
    assert handle.result_record == {"task": "t"}
    assert handle.fail_info is None
    counters = obs.metrics_snapshot()["counters"]
    assert counters["supervisor.protocol_malformed"] == 4


def test_well_formed_lines_count_nothing():
    obs = Observability()
    handle = _read_lines(
        ["HB 1", 'METRICS {"counters": {}}', 'RESULT {"task": "t"}'], obs
    )
    assert handle.protocol_malformed == 0
    assert "supervisor.protocol_malformed" not in obs.metrics_snapshot()["counters"]


class _FinishedWorker(_WorkerHandle):
    """A worker that already delivered its result, with two bad lines."""

    def __init__(self, task, index, attempt):
        super().__init__(task, index, attempt)
        self.result_record = {"task": task.task_id, "fixed": True}
        self.protocol_malformed = 2

    def finished(self) -> bool:
        return True

    def settle(self) -> None:
        pass

    def kill(self) -> None:
        pass


def test_batch_summary_shows_malformed_lines(monkeypatch):
    monkeypatch.setattr(
        BatchSupervisor,
        "_spawn",
        lambda self, task, index, attempt: _FinishedWorker(task, index, attempt),
    )
    report = run_batch(
        corpus_tasks(["PMDK-447", "PMDK-452"]),
        config=SupervisorConfig(mode="inprocess"),
    )
    assert report.protocol_malformed == 4
    assert "; 4 malformed worker line(s)" in report.summary()
    assert "malformed" not in BatchReport().summary()

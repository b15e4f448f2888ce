"""Benchmark-side tracing: timing shims around the program's layer functions.

The program is not instrumented for this.  :meth:`Tracer.install` wraps
public functions and methods of each layer (``supervisor``, ``ir``,
``memory``, ``interp``, ``detect``, ``analysis``, ``core``,
``revalidate``) in a shim that records one span per call: id, parent
span, run id (the unit of work it belongs to), layer, name, start and
end; :meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory; :meth:`Tracer.write` dumps them as JSON
lines when the benchmark ends.

A layer's self time is the duration of its spans minus the part of each
interval covered by child spans.  The unattributed remainder of a unit
is the self time of the benchmark's own ``bench.unit`` root span: time
spent in no shimmed function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "supervisor", "ir", "memory", "interp", "detect", "analysis", "core",
    "revalidate",
)

#: (layer, span name, "module:qualified.name") of every shimmed callable.
#: A target the program no longer has stops the traced run with an error
#: (see :meth:`Tracer.install`): skipping it would make its metrics read
#: 0, which looks like a win, not a broken instrument.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("supervisor", "batch", "repro.supervisor.supervisor:BatchSupervisor.run"),
    ("supervisor", "execute_task", "repro.supervisor.tasks:execute_task"),
    ("supervisor", "run_case", "repro.supervisor.tasks:run_case"),
    ("ir", "build", "repro.apps.kvstore:build_kvstore"),
    ("ir", "digest", "repro.ir.printer:format_module"),
    ("ir", "parse", "repro.ir.parser:parse_module"),
    ("ir", "verify", "repro.ir.verifier:verify_module"),
    ("memory", "machine", "repro.interp.interpreter:Machine.__init__"),
    ("memory", "address_space", "repro.memory.layout:AddressSpace.__init__"),
    ("memory", "image", "repro.memory.persistence:PersistentImage.__init__"),
    ("memory", "pool_acquire", "repro.memory.pool:MachinePool.acquire"),
    ("memory", "pool_acquire", "repro.memory.pool:MachinePool.acquire_raw"),
    ("memory", "fence", "repro.memory.cache:CacheModel.on_fence"),
    ("interp", "make", "repro.interp:make_interpreter"),
    ("interp", "call", "repro.interp.interpreter:Interpreter.call"),
    ("interp", "finish", "repro.interp.interpreter:Interpreter.finish"),
    ("detect", "pmemcheck_run", "repro.detect:pmemcheck_run"),
    ("detect", "check_trace", "repro.detect.durability:check_trace"),
    ("detect", "check", "repro.detect.durability:DurabilityChecker.check"),
    ("detect", "feed", "repro.detect.durability:DurabilityChecker.feed"),
    ("analysis", "solve", "repro.analysis.andersen:PointsTo.__init__"),
    ("analysis", "solve", "repro.analysis.callgraph:CallGraph.__init__"),
    ("analysis", "disk", "repro.analysis.diskcache:AnalysisDiskCache.load"),
    ("analysis", "disk", "repro.analysis.diskcache:AnalysisDiskCache.store"),
    ("analysis", "manager", "repro.analysis.manager:AnalysisManager.__init__"),
    ("core", "init", "repro.core.hippocrates:Hippocrates.__init__"),
    ("core", "compute", "repro.core.hippocrates:Hippocrates.compute_fixes"),
    ("core", "apply", "repro.core.hippocrates:Hippocrates.apply"),
    ("revalidate", "record", "repro.revalidate.engine:IncrementalRevalidator.record"),
    ("revalidate", "revalidate", "repro.revalidate.engine:IncrementalRevalidator.revalidate"),
    ("revalidate", "rebuild", "repro.revalidate.engine:IncrementalRevalidator.rebuild_baseline"),
)


def _resolve(path: str) -> Optional[Tuple[Any, str, Any]]:
    """(owner, attribute, callable) for ``module:qual.name``, or None."""
    module_name, qualname = path.split(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(target):
        return None
    return owner, attr, target


class UnresolvedTargets(Exception):
    """Shim targets the program does not have (renamed or removed)."""

    def __init__(self, paths: List[str]) -> None:
        super().__init__("cannot trace, no such function: " + ", ".join(paths))


class Tracer:
    """In-memory span recorder (see module docs)."""

    def __init__(self) -> None:
        #: span id -> (parent id, run id, layer, name, start, end)
        self.spans: List[Optional[tuple]] = []
        self.run_id = 0
        self._local = threading.local()
        #: counts gathered from call arguments and results, per run id
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: stats of the analysis managers created in each run
        self.managers: Dict[int, List[Any]] = defaultdict(list)
        #: (owner, attribute, original) of every installed shim
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _thread_state(self) -> Tuple[List[int], Dict[Tuple[str, str], int]]:
        """This thread's open-span stack and (layer, name) -> open depth."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.depth = defaultdict(int)
        return stack, local.depth

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record one span around a block."""
        stack, depth = self._thread_state()
        key = (layer, name)
        parent = stack[-1] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        stack.append(sid)
        depth[key] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            depth[key] -= 1
            self.spans[sid] = (parent, self.run_id, layer, name, start, end)

    def wrap(self, layer: str, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``observe(tracer, args, result, nested)`` (optional) turns call
        arguments and results into counts; ``nested`` is True when an
        enclosing open span has the same layer and name.
        """
        tracer = self
        key = (layer, name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with tracer.span(layer, name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, result, tracer._thread_state()[1][key] > 0)
            return result

        return shim

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Shim every target in :data:`TARGETS`.

        Raises :class:`UnresolvedTargets` naming every target the
        program does not have.
        """
        observers = {
            "repro.interp.interpreter:Interpreter.call": _observe_call,
            "repro.detect.durability:DurabilityChecker.check": _observe_check,
            "repro.detect.durability:DurabilityChecker.feed": _observe_feed,
            "repro.analysis.manager:AnalysisManager.__init__": _observe_manager,
            "repro.core.hippocrates:Hippocrates.apply": _observe_apply,
            "repro.revalidate.engine:IncrementalRevalidator.revalidate": _observe_revalidate,
        }
        resolved = {path: _resolve(path) for _, _, path in TARGETS}
        missing = [path for path, found in resolved.items() if found is None]
        if missing:
            raise UnresolvedTargets(missing)
        for layer, name, path in TARGETS:
            owner, attr, original = resolved[path]
            shim = self.wrap(layer, name, original, observers.get(path))
            if isinstance(owner, type):
                owners = [owner]
            else:
                # rebind every `from x import f` copy inside the program too
                owners = [
                    module for module in list(sys.modules.values())
                    if getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ]
            for where in owners:
                setattr(where, attr, shim)
                self._installed.append((where, attr, original))

    def uninstall(self) -> None:
        """Put back every callable :meth:`install` replaced."""
        while self._installed:
            where, attr, original = self._installed.pop()
            setattr(where, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                parent, run, layer, name, start, end = span
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "run": run, "layer": layer,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# -- observers: counts taken from call arguments and results ------------------


def _observe_call(tracer, args, result, nested):
    if not nested:
        tracer.count("interp.steps", getattr(result, "steps", 0))


def _observe_check(tracer, args, result, nested):
    if not nested and len(args) > 1:
        tracer.count("detect.events", len(getattr(args[1], "events", ())))


def _observe_feed(tracer, args, result, nested):
    tracer.count("detect.feed_calls")


def _observe_manager(tracer, args, result, nested):
    # keep the stats object only: holding the manager would keep its
    # module and analyses alive
    tracer.managers[tracer.run_id].append(args[0].stats)


def _observe_apply(tracer, args, result, nested):
    tracer.count("core.fixes", getattr(result, "fixes_applied", 0))


def _observe_revalidate(tracer, args, result, nested):
    tracer.count(f"revalidate.mode.{getattr(result, 'mode', 'unknown')}")


class SpanSummary:
    """Self and inclusive times over the spans of a set of runs."""

    def __init__(self, tracer: Tracer, runs: set):
        spans = tracer.spans
        self._spans = spans
        self.selected = [
            sid for sid, span in enumerate(spans)
            if span is not None and span[1] in runs
        ]
        child_time: Dict[int, float] = defaultdict(float)
        for sid in self.selected:
            parent, _, _, _, start, end = spans[sid]
            if parent >= 0:
                child_time[parent] += end - start
        #: (layer, name) -> summed self time / call count / durations
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.durations: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        for sid in self.selected:
            _, _, layer, name, start, end = spans[sid]
            key = (layer, name)
            self.self_time[key] += (end - start) - child_time[sid]
            self.calls[key] += 1
            self.durations[key].append(end - start)

    def layer_self(self, layer: str) -> float:
        return sum(t for (owner, _), t in self.self_time.items() if owner == layer)

    def outer(self, layer: str, *names: str) -> float:
        """Inclusive time of the named spans, counting only the outermost
        span of a nest of these names."""
        wanted = {(layer, name) for name in names}
        spans = self._spans
        total = 0.0
        for sid in self.selected:
            span = spans[sid]
            if (span[2], span[3]) not in wanted:
                continue
            parent = span[0]
            while parent >= 0 and (spans[parent][2], spans[parent][3]) not in wanted:
                parent = spans[parent][0]
            if parent < 0:
                total += span[5] - span[4]
        return total

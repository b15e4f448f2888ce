"""The IR interpreter: executes modules against the PM hardware model.

This is the reproduction's stand-in for running the compiled program on
an Optane-equipped machine under pmemcheck: every executed PM store,
flush, and fence both updates the cache/persistence model and emits a
trace event carrying the source location and call stack — the exact
input Hippocrates consumes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from ..errors import FuelExhausted, InterpreterError, TrapError
from ..ir.debuginfo import DebugLoc
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Fence,
    Flush,
    Gep,
    ICmp,
    Instruction,
    Jump,
    Load,
    Ret,
    Select,
    Store,
    Trap,
)
from ..ir.module import Module
from ..ir.types import IntType
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..memory.cache import CacheModel
from ..memory.layout import AddressSpace, line_of
from ..memory.persistence import PersistentImage
from ..trace.events import StackFrame
from ..trace.trace import PMTrace, TraceRecorder
from .costs import CostCounter, CostModel
from .frame import Frame
from .intrinsics import is_intrinsic, lookup

_U64 = (1 << 64) - 1


@dataclass
class Allocation:
    """A dynamic allocation, tagged with its allocation site.

    The site key feeds the Trace-AA PM classifier: a traced PM store
    address resolves (through this registry) to the allocation site
    whose points-to node the heuristic marks as persistent.
    """

    start: int
    size: int
    site: str

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


class Machine:
    """Hardware state: address space, cache model, durable image, trace."""

    # Allocation-site index state.  Class-level defaults (not set in
    # ``__init__``) because snapshot restore materializes machines via
    # ``Machine.__new__`` — those instances must also start unindexed.
    _site_source: Optional[List[Allocation]] = None
    _site_count = -1
    _site_starts: List[int] = []
    _site_allocs: List[Allocation] = []

    def __init__(
        self,
        record_volatile_stores: bool = False,
        pm_size: int = 1 << 24,
    ):
        self.space = AddressSpace(pm_size=pm_size)
        self.image = PersistentImage(self.space)
        self.cache = CacheModel(self.space, self.image)
        self._stack_provider = lambda: ()
        self.recorder = TraceRecorder(
            lambda: self._stack_provider(), record_volatile_stores
        )
        self.allocations: List[Allocation] = []
        self.global_addrs: Dict[str, int] = {}
        self.pm_root_addr: Optional[int] = None
        self.pm_root_size = 0
        #: flushes issued against volatile addresses (legal, wasteful)
        self.volatile_flushes = 0

    # -- allocation registry -----------------------------------------------------

    def register_allocation(self, start: int, size: int, site: str) -> None:
        self.allocations.append(Allocation(start, size, site))

    def site_of_addr(self, addr: int) -> Optional[str]:
        """Allocation-site key owning ``addr``.

        Backed by a lazily-(re)built sorted interval index: one
        ``bisect`` per query instead of a linear scan over every
        allocation — this sits on the addr→site path the Trace-AA
        classifier walks for every traced PM store.  Allocations come
        from bump allocators and never overlap, so the predecessor
        interval is the only candidate.
        """
        allocations = self.allocations
        if (
            self._site_source is not allocations
            or self._site_count != len(allocations)
        ):
            ordered = sorted(allocations, key=lambda alloc: alloc.start)
            self._site_starts = [alloc.start for alloc in ordered]
            self._site_allocs = ordered
            self._site_source = allocations
            self._site_count = len(allocations)
        index = bisect_right(self._site_starts, addr) - 1
        if index >= 0:
            alloc = self._site_allocs[index]
            if alloc.contains(addr):
                return alloc.site
        return None

    # -- module loading -------------------------------------------------------------

    def bind_globals(self, module: Module) -> None:
        for gv in module.globals.values():
            if gv.name in self.global_addrs:
                continue
            if gv.space == "pm":
                addr = self.space.alloc_pm(gv.size, align=64)
            else:
                addr = self.space.alloc_vol(gv.size, align=8)
            if gv.initializer:
                self.space.write_bytes(addr, gv.initializer)
                if gv.space == "pm":
                    # Initial pool contents are durable by construction.
                    for line_addr in range(
                        line_of(addr), addr + gv.size, 64
                    ):
                        self.image.write_back_line(line_addr)
            self.global_addrs[gv.name] = addr
            self.register_allocation(addr, gv.size, f"global:{gv.name}")

    @property
    def trace(self) -> PMTrace:
        return self.recorder.trace

    @classmethod
    def reboot(cls, old_machine: "Machine", crash_image: bytes) -> "Machine":
        """A fresh machine booted from a post-crash PM image.

        Models restarting the process after a power failure: persistent
        memory holds exactly ``crash_image`` (typically from
        :meth:`PersistentImage.crash` or a
        :class:`~repro.memory.crash.CrashState`), caches are cold,
        volatile memory is gone.  PM addresses are stable: the pool
        root, PM globals, and the allocator watermark carry over, so
        recovery code can chase the pointers it persisted.
        """
        machine = cls(pm_size=old_machine.space.pm.size)
        machine.image.restore(crash_image)
        pm = machine.space.pm
        pm.write_bytes(pm.base, crash_image)
        pm.set_brk(old_machine.space.pm.brk)
        machine.pm_root_addr = old_machine.pm_root_addr
        machine.pm_root_size = old_machine.pm_root_size
        # PM globals keep their addresses (they live in the image); the
        # registry of persistent allocations also survives.
        for name, addr in old_machine.global_addrs.items():
            if old_machine.space.is_pm(addr):
                machine.global_addrs[name] = addr
        for allocation in old_machine.allocations:
            if old_machine.space.is_pm(allocation.start):
                machine.register_allocation(
                    allocation.start, allocation.size, allocation.site
                )
        return machine


@dataclass
class ExecutionResult:
    """Outcome of one entry-point call."""

    value: int
    steps: int
    cycles: int
    output: List[int] = field(default_factory=list)


class Interpreter:
    """Executes IR functions in a :class:`Machine`.

    One interpreter = one process lifetime: a workload may make many
    entry-point calls; :meth:`finish` marks process exit (recording the
    final durability boundary, as pmemcheck does at program end).
    """

    def __init__(
        self,
        module: Module,
        machine: Optional[Machine] = None,
        cost_model: Optional[CostModel] = None,
        fuel: int = 50_000_000,
        record_volatile_stores: bool = False,
        metrics=None,
        run_recorder=None,
    ):
        self.module = module
        self.machine = machine or Machine(record_volatile_stores)
        self.machine.bind_globals(module)
        self.machine._stack_provider = self._capture_stack
        self.costs = CostCounter(cost_model or CostModel())
        self.fuel = fuel
        self.steps = 0
        self.frames: List[Frame] = []
        self.output: List[int] = []
        self._finished = False
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; step and
        #: flush/fence/store totals are folded in once, at :meth:`finish`
        #: — nothing touches the registry on the hot execution path.
        self.metrics = metrics
        #: optional :class:`~repro.revalidate.recording.RunRecorder`:
        #: notified at top-level call boundaries so incremental
        #: revalidation can record per-segment executed-iid sets.  None (the default) keeps plain runs on
        #: the unrecorded path — one pointer compare per call plus one
        #: ``is None`` test per step.
        self._run_recorder = run_recorder
        #: the current segment's executed-iid set (owned by the run
        #: recorder; None when not recording)
        self._seg_iids = None

    # -- stack capture -----------------------------------------------------------------

    def _capture_stack(self) -> Tuple[StackFrame, ...]:
        frames = []
        for frame in self.frames:
            instr = frame.current
            if instr is None:
                continue
            frames.append(StackFrame(frame.function.name, instr.iid, instr.loc))
        return tuple(frames)

    def current_iid(self) -> int:
        if self.frames and self.frames[-1].current is not None:
            return self.frames[-1].current.iid
        return 0

    # -- value evaluation -----------------------------------------------------------------

    def _eval(self, value: Value, frame: Frame) -> int:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.machine.global_addrs[value.name]
        try:
            return frame.values[value]
        except KeyError:
            raise InterpreterError(
                f"undefined value {value.short()} in @{frame.function.name}"
            ) from None

    # -- public API ---------------------------------------------------------------------------

    def call(self, fn_name: str, args: Optional[List[int]] = None) -> ExecutionResult:
        """Call an IR function to completion and return its result."""
        if self._finished:
            raise InterpreterError("interpreter already finished")
        fn = self.module.get_function(fn_name)
        args = args or []
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"@{fn_name} expects {len(fn.args)} args, got {len(args)}"
            )
        recorder = self._run_recorder
        top_level = not self.frames
        if recorder is not None and top_level:
            recorder.begin_call(self)
        start_steps = self.steps
        start_cycles = self.costs.cycles
        start_output = len(self.output)
        value = self._run(fn, args)
        result = ExecutionResult(
            value=value,
            steps=self.steps - start_steps,
            cycles=self.costs.cycles - start_cycles,
            output=self.output[start_output:],
        )
        if recorder is not None and top_level:
            recorder.end_call(self)
        return result

    def finish(self) -> PMTrace:
        """Mark process exit; records the final durability boundary."""
        if not self._finished:
            self._finished = True
            self._record_exit_boundary()
            if self.metrics is not None:
                counts = self.costs.counts
                self.metrics.counter("interp.steps").inc(self.steps)
                self.metrics.counter("interp.cycles").inc(self.costs.cycles)
                for kind, name in (
                    ("store", "interp.stores"),
                    ("flush", "interp.flushes"),
                    ("fence", "interp.fences"),
                ):
                    self.metrics.counter(name).inc(counts.get(kind, 0))
                # Per-kind execution histogram (identical on both
                # engines; `repro batch --profile` renders it).
                for kind, count in counts.items():
                    self.metrics.counter(f"interp.ops.{kind}").inc(count)
        return self.machine.trace

    @property
    def trace(self) -> PMTrace:
        return self.machine.trace

    def _record_exit_boundary(self) -> None:
        exit_frame = (
            StackFrame("<exit>", 0, DebugLoc("<exit>", 1)),
        )
        provider = self.machine._stack_provider
        self.machine._stack_provider = lambda: exit_frame
        try:
            self.machine.recorder.record_boundary("exit")
        finally:
            self.machine._stack_provider = provider

    # -- main loop -------------------------------------------------------------------------------

    def _run(self, fn: Function, args: List[int]) -> int:
        base_depth = len(self.frames)
        self._push_frame(fn, args)
        model = self.costs.model
        seg_iids = self._seg_iids
        return_value = 0

        while len(self.frames) > base_depth:
            frame = self.frames[-1]
            if frame.index >= len(frame.block.instructions):
                raise InterpreterError(
                    f"fell off block {frame.block.name} in @{frame.function.name}"
                )
            instr = frame.block.instructions[frame.index]
            frame.index += 1
            frame.current = instr
            self.steps += 1
            if self.steps > self.fuel:
                raise FuelExhausted(f"exceeded fuel of {self.fuel} instructions")
            if seg_iids is not None:
                seg_iids.add(instr.iid)

            if isinstance(instr, Store):
                self._exec_store(instr, frame, model)
            elif isinstance(instr, Load):
                addr = self._eval(instr.pointer, frame)
                frame.values[instr] = self.machine.space.read_int(addr, instr.size)
                self.costs.charge("load", model.load)
            elif isinstance(instr, BinOp):
                self._exec_binop(instr, frame, model)
            elif isinstance(instr, ICmp):
                self._exec_icmp(instr, frame, model)
            elif isinstance(instr, Gep):
                base = self._eval(instr.base, frame)
                offset = self._eval(instr.offset, frame)
                frame.values[instr] = (base + offset) & _U64
                self.costs.charge("gep", model.gep)
            elif isinstance(instr, Branch):
                cond = self._eval(instr.cond, frame)
                frame.jump_to(instr.then_block if cond else instr.else_block)
                self.costs.charge("branch", model.branch)
            elif isinstance(instr, Jump):
                frame.jump_to(instr.target)
                self.costs.charge("branch", model.branch)
            elif isinstance(instr, Call):
                self._exec_call(instr, frame, model)
            elif isinstance(instr, Ret):
                value = 0 if instr.value is None else self._eval(instr.value, frame)
                self._pop_frame()
                self.costs.charge("ret", model.ret)
                if len(self.frames) > base_depth:
                    run_rec = self._run_recorder
                    if run_rec is not None:
                        recorder = self.machine.recorder
                        run_rec.exit_callee(
                            len(recorder.trace.events), len(recorder.vol_ops)
                        )
                    caller = self.frames[-1]
                    call_instr = caller.current
                    if call_instr is not None and not call_instr.type.is_void:
                        caller.values[call_instr] = self._truncate(
                            value, call_instr.type
                        )
                else:
                    return_value = value
            elif isinstance(instr, Flush):
                self._exec_flush(instr, frame, model)
            elif isinstance(instr, Fence):
                completed = self.machine.cache.on_fence(instr.kind)
                self.machine.recorder.record_fence(instr.kind)
                self.costs.charge(
                    "fence", model.fence + model.fence_per_line * len(completed)
                )
            elif isinstance(instr, Alloca):
                frame.values[instr] = self.machine.space.alloc_stack(instr.size)
                self.costs.charge("alloca", model.alloca)
            elif isinstance(instr, Select):
                cond, a, b = instr.operands
                frame.values[instr] = (
                    self._eval(a, frame)
                    if self._eval(cond, frame)
                    else self._eval(b, frame)
                )
                self.costs.charge("select", model.select)
            elif isinstance(instr, Cast):
                frame.values[instr] = self._truncate(
                    self._eval(instr.operands[0], frame), instr.type
                )
                self.costs.charge("cast", model.cast)
            elif isinstance(instr, Trap):
                raise TrapError(
                    f"trap at {instr.loc} in @{frame.function.name}"
                )
            else:  # pragma: no cover - all opcodes handled
                raise InterpreterError(f"cannot execute {instr!r}")

        return return_value

    # -- instruction helpers -----------------------------------------------------------------------

    @staticmethod
    def _truncate(value: int, type_) -> int:
        if isinstance(type_, IntType):
            return value & type_.mask
        return value & _U64

    def _exec_store(self, instr: Store, frame: Frame, model: CostModel) -> None:
        value = self._eval(instr.value, frame)
        addr = self._eval(instr.pointer, frame)
        machine = self.machine
        machine.space.write_int(addr, instr.size, value)
        if machine.space.is_pm(addr):
            event = machine.recorder.record_store(
                addr, instr.size, "pm", nontemporal=instr.nontemporal
            )
            if instr.nontemporal:
                machine.cache.on_nt_store(addr, instr.size, event.seq)
            else:
                machine.cache.on_store(addr, instr.size, event.seq)
            self.costs.charge("store", model.store + model.pm_store_extra)
        else:
            machine.recorder.record_store(addr, instr.size, "vol")
            self.costs.charge("store", model.store)

    def _exec_flush(self, instr: Flush, frame: Frame, model: CostModel) -> None:
        addr = self._eval(instr.pointer, frame)
        machine = self.machine
        if machine.space.is_pm(addr):
            status = machine.cache.on_flush(addr, instr.kind)
            machine.recorder.record_flush(
                addr, line_of(addr), instr.kind, status != "redundant"
            )
            cost = model.flush if status == "writeback" else model.flush_clean
            if instr.kind == "clflush" and status == "writeback":
                cost += model.clflush_serial
            self.costs.charge("flush", cost)
        else:
            # Flushing a volatile line is legal but there is no
            # write-pending queue in front of DRAM: every CLWB of a
            # (re-)dirtied line is a full write-back.  This is the waste
            # RedisH-intra suffers from.
            machine.volatile_flushes += 1
            if machine.recorder.record_vol_ops:
                machine.recorder.note_vol_flush()
            self.costs.charge("flush", model.flush)

    def _exec_binop(self, instr: BinOp, frame: Frame, model: CostModel) -> None:
        lhs = self._eval(instr.operands[0], frame)
        rhs = self._eval(instr.operands[1], frame)
        op = instr.op
        if op == "add":
            result = lhs + rhs
        elif op == "sub":
            result = lhs - rhs
        elif op == "mul":
            result = lhs * rhs
        elif op == "udiv":
            if rhs == 0:
                raise TrapError(f"division by zero at {instr.loc}")
            result = lhs // rhs
        elif op == "urem":
            if rhs == 0:
                raise TrapError(f"remainder by zero at {instr.loc}")
            result = lhs % rhs
        elif op == "and":
            result = lhs & rhs
        elif op == "or":
            result = lhs | rhs
        elif op == "xor":
            result = lhs ^ rhs
        elif op == "shl":
            result = lhs << (rhs & 63)
        else:  # lshr
            result = lhs >> (rhs & 63)
        frame.values[instr] = result & instr.type.mask  # type: ignore[attr-defined]
        self.costs.charge("arith", model.arith)

    def _exec_icmp(self, instr: ICmp, frame: Frame, model: CostModel) -> None:
        lhs = self._eval(instr.operands[0], frame)
        rhs = self._eval(instr.operands[1], frame)
        pred = instr.pred
        if pred == "eq":
            result = lhs == rhs
        elif pred == "ne":
            result = lhs != rhs
        elif pred == "ult":
            result = lhs < rhs
        elif pred == "ule":
            result = lhs <= rhs
        elif pred == "ugt":
            result = lhs > rhs
        else:  # uge
            result = lhs >= rhs
        frame.values[instr] = int(result)
        self.costs.charge("compare", model.compare)

    def _exec_call(self, instr: Call, frame: Frame, model: CostModel) -> None:
        args = [self._eval(a, frame) for a in instr.args]
        if self.module.has_function(instr.callee):
            callee = self.module.get_function(instr.callee)
            if callee.is_declaration:
                raise InterpreterError(f"call to declaration @{instr.callee}")
            self.costs.charge("call", model.call)
            run_rec = self._run_recorder
            if run_rec is not None:
                recorder = self.machine.recorder
                run_rec.enter_callee(
                    instr.iid,
                    len(recorder.trace.events),
                    len(recorder.vol_ops),
                    len(self.frames),
                )
            self._push_frame(callee, args)
            return
        if is_intrinsic(instr.callee):
            self.costs.charge("intrinsic", model.intrinsic)
            result = lookup(instr.callee)(self, args)
            if not instr.type.is_void:
                frame.values[instr] = self._truncate(result, instr.type)
            return
        raise InterpreterError(f"call to unknown function @{instr.callee}")

    # -- frame management ------------------------------------------------------------------------------

    def _push_frame(self, fn: Function, args: List[int]) -> None:
        if len(self.frames) > 512:
            raise InterpreterError("call stack overflow (depth > 512)")
        frame = Frame(fn, self.machine.space.stack_mark())
        for formal, actual in zip(fn.args, args):
            frame.values[formal] = self._truncate(actual, formal.type)
        self.frames.append(frame)

    def _pop_frame(self) -> None:
        frame = self.frames.pop()
        self.machine.space.stack_release(frame.stack_mark)


def run_module(
    module: Module,
    entry: str = "main",
    args: Optional[List[int]] = None,
    cost_model: Optional[CostModel] = None,
    fuel: int = 50_000_000,
) -> Tuple[ExecutionResult, PMTrace, Machine]:
    """One-shot convenience: run an entry point and finish the trace.

    Runs on the process-default engine (normally the flat engine); the
    import is deferred because the engine module subclasses
    :class:`Interpreter`.
    """
    from . import make_interpreter

    interp = make_interpreter(module, cost_model=cost_model, fuel=fuel)
    result = interp.call(entry, args or [])
    trace = interp.finish()
    return result, trace, interp.machine

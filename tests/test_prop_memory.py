"""Property-based tests of the PM durability state machine.

Invariants checked over random store/flush/fence sequences:

1. The cache view always reads the latest store (loads never observe
   stale data, regardless of flush state).
2. The durable view changes only through write-backs; an adversarial
   crash equals the durable view exactly.
3. After flush+fence of every touched line, the two views agree.
4. The detector's pending-store accounting matches the cache model's.
5. Lazily grown memory behaves exactly like eager full-size buffers.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import MemoryError_, SegmentationFault
from repro.interp.interpreter import Machine
from repro.memory import (
    AddressSpace,
    CACHE_LINE,
    CacheModel,
    CrashState,
    PersistentImage,
    PM_BASE,
    STACK_BASE,
    VOL_BASE,
    line_of,
    lines_covering,
)

N_SLOTS = 4

op = st.tuples(
    st.sampled_from(["store", "clwb", "clflush", "fence"]),
    st.integers(min_value=0, max_value=N_SLOTS - 1),
    st.integers(min_value=1, max_value=(1 << 64) - 1),
)


def replay(ops):
    space = AddressSpace()
    image = PersistentImage(space)
    cache = CacheModel(space, image)
    base = space.alloc_pm(64 * N_SLOTS, align=64)
    slots = [base + 64 * i for i in range(N_SLOTS)]
    latest = {}
    seq = 0
    for kind, index, value in ops:
        addr = slots[index]
        if kind == "store":
            seq += 1
            space.write_int(addr, 8, value)
            cache.on_store(addr, 8, seq)
            latest[addr] = value & ((1 << 64) - 1)
        elif kind in ("clwb", "clflush"):
            cache.on_flush(addr, kind)
        else:
            cache.on_fence("sfence")
    return space, image, cache, slots, latest


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_cache_view_reads_latest_store(ops):
    space, image, cache, slots, latest = replay(ops)
    for addr, value in latest.items():
        assert space.read_int(addr, 8) == value


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_adversarial_crash_equals_durable_view(ops):
    space, image, cache, slots, latest = replay(ops)
    assert image.crash() == image.snapshot_durable()


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_flush_fence_everything_syncs_views(ops):
    space, image, cache, slots, latest = replay(ops)
    for addr in slots:
        cache.on_flush(addr, "clwb")
    cache.on_fence("sfence")
    assert image.line_divergence() == []
    for addr, value in latest.items():
        assert int.from_bytes(image.durable_bytes(addr, 8), "little") == value


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_pending_iff_diverged(ops):
    """A line is pending in the cache model iff its views diverge...
    except lines written back by eviction-free luck (none here) — so
    pending ⊇ diverged always holds, and after draining, both empty."""
    space, image, cache, slots, latest = replay(ops)
    diverged = set(image.line_divergence())
    pending = set(cache.pending_lines())
    assert diverged <= pending


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_crash_state_count_bounded(ops):
    from repro.memory import CrashExplorer

    space, image, cache, slots, latest = replay(ops)
    explorer = CrashExplorer(cache, image)
    pending = explorer.pending_lines()
    states = list(explorer.states(max_states=64))
    assert len(states) <= min(64, 2 ** len(pending))
    seen = {s.surviving_lines for s in states}
    assert () in seen


# ---------------------------------------------------------------------------
# lazy extents against an eager model
# ---------------------------------------------------------------------------

REGION_SIZE = 1 << 24
REGION_NAMES = ("vol", "stack", "pm")

#: offsets near both ends of a region, including just outside it
offsets = st.one_of(
    st.integers(min_value=-16, max_value=1024),
    st.integers(min_value=REGION_SIZE - 80, max_value=REGION_SIZE + 16),
)
masks = st.integers(min_value=0, max_value=(1 << 16) - 1)
region_names = st.sampled_from(REGION_NAMES)

model_op = st.one_of(
    st.tuples(
        st.just("alloc"),
        region_names,
        st.one_of(st.integers(1, 300), st.just(REGION_SIZE)),
        st.sampled_from([1, 8, 64]),
    ),
    st.tuples(st.just("write"), region_names, offsets, st.binary(min_size=1, max_size=80)),
    st.tuples(st.just("read"), region_names, offsets, st.integers(1, 80)),
    st.tuples(
        st.just("set_brk"),
        region_names,
        st.one_of(st.integers(-1, 2048), st.integers(REGION_SIZE - 64, REGION_SIZE + 1)),
    ),
    st.tuples(st.just("flush"), offsets, st.sampled_from(["clwb", "clflush"])),
    st.tuples(st.just("fence")),
    st.tuples(st.just("durable"), offsets, st.integers(1, 80)),
    st.tuples(st.just("divergence")),
    st.tuples(st.just("crash"), masks),
    st.tuples(st.just("reboot"), masks),
)


class EagerModel:
    """The pre-lazy memory design: every region and the durable view is
    a full, eagerly zeroed ``REGION_SIZE`` bytearray."""

    def __init__(self, pm=None, pm_brk=0, touched=()):
        self.data = {name: bytearray(REGION_SIZE) for name in REGION_NAMES}
        self.durable = bytearray(REGION_SIZE)
        if pm is not None:
            self.data["pm"][:] = pm
            self.durable[:] = pm
        self.brk = {"vol": 0, "stack": 0, "pm": pm_brk}
        #: PM line offsets ever written; every other line is zero in both
        #: views, so divergence only has to look here
        self.touched = set(touched)

    def line(self, buf, offset):
        return bytes(buf[offset : offset + CACHE_LINE])

    def crash_image(self, surviving_offsets):
        image = bytearray(self.durable)
        for offset in surviving_offsets:
            image[offset : offset + CACHE_LINE] = self.line(self.data["pm"], offset)
        return image


def _mirror_write_backs(machine, model):
    original = machine.image.write_back_line

    def write_back_line(line_addr):
        offset = line_addr - PM_BASE
        model.durable[offset : offset + CACHE_LINE] = model.line(model.data["pm"], offset)
        original(line_addr)

    machine.image.write_back_line = write_back_line


def _pick(pending, mask):
    return tuple(line for i, line in enumerate(pending) if mask >> i & 1)


def _check_crash_image(machine, model, subset):
    image = machine.image.crash(subset)
    expected = model.crash_image([line - PM_BASE for line in subset])
    # Zero-extension: the image is a prefix of the eager one, and the
    # eager one is zero past it (only touched lines can be nonzero).
    assert len(image) <= REGION_SIZE
    assert image == expected[: len(image)]
    assert not any(
        model.line(expected, offset) for offset in model.touched if offset >= len(image)
    )
    assert len(image) == len(machine.image.snapshot_durable())
    state = CrashState(subset, image, PM_BASE)
    for offset in [line - PM_BASE for line in subset] + [len(image) - 4, len(image) + 64]:
        offset = min(max(0, offset), REGION_SIZE - 16)
        assert state.read(PM_BASE + offset, 16) == bytes(expected[offset : offset + 16])
    return image, expected


def _apply(machine, model, op):
    space = machine.space
    kind = op[0]
    if kind == "alloc":
        _, name, size, align = op
        aligned = (model.brk[name] + align - 1) & ~(align - 1)
        model.brk[name] = aligned
        if aligned + size > REGION_SIZE:
            with pytest.raises(MemoryError_):
                getattr(space, name).allocate(size, align)
        else:
            model.brk[name] = aligned + size
            assert getattr(space, name).allocate(size, align) == BASES[name] + aligned
    elif kind == "write":
        _, name, offset, payload = op
        addr = BASES[name] + offset
        if offset < 0 or offset + len(payload) > REGION_SIZE:
            with pytest.raises(SegmentationFault):
                space.write_bytes(addr, payload)
            return machine, model
        space.write_bytes(addr, payload)
        model.data[name][offset : offset + len(payload)] = payload
        if name == "pm":
            machine.cache.on_store(addr, len(payload), seq=1)
            model.touched.update(
                line - PM_BASE for line in lines_covering(addr, len(payload))
            )
    elif kind == "read":
        _, name, offset, size = op
        addr = BASES[name] + offset
        if offset < 0 or offset + size > REGION_SIZE:
            with pytest.raises(SegmentationFault):
                space.read_bytes(addr, size)
        else:
            assert space.read_bytes(addr, size) == bytes(
                model.data[name][offset : offset + size]
            )
    elif kind == "set_brk":
        _, name, brk = op
        if brk < 0 or brk > REGION_SIZE:
            with pytest.raises(MemoryError_):
                getattr(space, name).set_brk(brk)
        else:
            getattr(space, name).set_brk(brk)
            model.brk[name] = brk
        assert getattr(space, name).brk == model.brk[name]
    elif kind == "flush":
        machine.cache.on_flush(PM_BASE + op[1], op[2])
    elif kind == "fence":
        machine.cache.on_fence("sfence")
    elif kind == "durable":
        _, offset, size = op
        if offset < 0 or offset + size > REGION_SIZE:
            with pytest.raises(IndexError):
                machine.image.durable_bytes(PM_BASE + offset, size)
        else:
            assert machine.image.durable_bytes(PM_BASE + offset, size) == bytes(
                model.durable[offset : offset + size]
            )
    elif kind == "divergence":
        expected = sorted(
            PM_BASE + offset
            for offset in model.touched
            if model.line(model.data["pm"], offset) != model.line(model.durable, offset)
        )
        assert machine.image.line_divergence() == expected
        for line in expected:
            assert not machine.image.is_line_durable(line)
    elif kind == "crash":
        subset = _pick(machine.cache.pending_lines(), op[1])
        _check_crash_image(machine, model, subset)
    elif kind == "reboot":
        subset = _pick(machine.cache.pending_lines(), op[1])
        image, expected = _check_crash_image(machine, model, subset)
        rebooted = Machine.reboot(machine, image)
        model = EagerModel(expected, model.brk["pm"], model.touched)
        _mirror_write_backs(rebooted, model)
        return rebooted, model
    return machine, model


BASES = {"vol": VOL_BASE, "stack": STACK_BASE, "pm": PM_BASE}


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(model_op, max_size=24))
def test_lazy_memory_matches_eager_model(ops):
    """Lazily grown regions and durable view are indistinguishable from
    eager 16 MiB buffers: every read, durable read, divergence set,
    crash image (zero-extended) and crash-state read agrees, and every
    out-of-region access still raises."""
    machine = Machine()
    model = EagerModel()
    _mirror_write_backs(machine, model)
    for op in ops:
        machine, model = _apply(machine, model, op)
    _apply(machine, model, ("divergence",))
    _check_crash_image(machine, model, tuple(machine.cache.pending_lines()))

"""Unit tests for the simulated address space."""

import tracemalloc

import pytest

from repro.errors import MemoryError_, SegmentationFault
from repro.memory import (
    AddressSpace,
    CACHE_LINE,
    PM_BASE,
    STACK_BASE,
    VOL_BASE,
    line_of,
    lines_covering,
)


class TestLineMath:
    def test_line_of(self):
        assert line_of(PM_BASE) == PM_BASE
        assert line_of(PM_BASE + 63) == PM_BASE
        assert line_of(PM_BASE + 64) == PM_BASE + 64

    def test_lines_covering_single(self):
        assert lines_covering(PM_BASE + 8, 8) == [PM_BASE]

    def test_lines_covering_straddle(self):
        assert lines_covering(PM_BASE + 60, 8) == [PM_BASE, PM_BASE + 64]

    def test_lines_covering_large(self):
        lines = lines_covering(PM_BASE, 3 * CACHE_LINE)
        assert lines == [PM_BASE, PM_BASE + 64, PM_BASE + 128]

    def test_lines_covering_zero(self):
        assert lines_covering(PM_BASE, 0) == []


class TestAllocation:
    def test_regions_disjoint(self):
        space = AddressSpace()
        vol = space.alloc_vol(64)
        pm = space.alloc_pm(64)
        stack = space.alloc_stack(64)
        assert VOL_BASE <= vol < STACK_BASE
        assert STACK_BASE <= stack < PM_BASE
        assert pm >= PM_BASE

    def test_alignment(self):
        space = AddressSpace()
        space.alloc_pm(3)
        second = space.alloc_pm(8, align=64)
        assert second % 64 == 0

    def test_exhaustion(self):
        space = AddressSpace(pm_size=128)
        space.alloc_pm(100)
        with pytest.raises(MemoryError_):
            space.alloc_pm(100)

    def test_bad_size(self):
        space = AddressSpace()
        with pytest.raises(MemoryError_):
            space.alloc_vol(0)

    def test_stack_mark_release(self):
        space = AddressSpace()
        mark = space.stack_mark()
        first = space.alloc_stack(64)
        space.stack_release(mark)
        second = space.alloc_stack(64)
        assert first == second


class TestAccess:
    def test_int_roundtrip_little_endian(self):
        space = AddressSpace()
        addr = space.alloc_vol(16)
        space.write_int(addr, 8, 0x0102030405060708)
        assert space.read_int(addr, 8) == 0x0102030405060708
        assert space.read_int(addr, 1) == 0x08  # little endian low byte

    def test_bytes_roundtrip(self):
        space = AddressSpace()
        addr = space.alloc_pm(32)
        space.write_bytes(addr, b"hello world")
        assert space.read_bytes(addr, 11) == b"hello world"

    def test_copy(self):
        space = AddressSpace()
        src = space.alloc_vol(16)
        dst = space.alloc_pm(16)
        space.write_bytes(src, b"0123456789abcdef")
        space.copy(dst, src, 16)
        assert space.read_bytes(dst, 16) == b"0123456789abcdef"

    def test_unmapped_access(self):
        space = AddressSpace()
        with pytest.raises(SegmentationFault):
            space.read_int(0x10, 8)
        with pytest.raises(SegmentationFault):
            space.write_int(0xDEAD, 8, 1)

    def test_out_of_region_access(self):
        space = AddressSpace(pm_size=64)
        addr = space.alloc_pm(64)
        with pytest.raises(SegmentationFault):
            space.read_bytes(addr + 60, 8)  # crosses the region end

    def test_write_truncates_value(self):
        space = AddressSpace()
        addr = space.alloc_vol(8)
        space.write_int(addr, 1, 0x1FF)
        assert space.read_int(addr, 1) == 0xFF


class TestSpaceQueries:
    def test_is_pm(self):
        space = AddressSpace()
        assert space.is_pm(space.alloc_pm(8))
        assert not space.is_pm(space.alloc_vol(8))
        assert not space.is_pm(space.alloc_stack(8))

    def test_space_of(self):
        space = AddressSpace()
        assert space.space_of(space.alloc_pm(8)) == "pm"
        assert space.space_of(space.alloc_stack(8)) == "vol"

    def test_pm_bounds(self):
        space = AddressSpace(pm_size=1 << 20)
        lo, hi = space.pm_bounds()
        assert hi - lo == 1 << 20


class TestLazyExtents:
    def test_fresh_region_holds_no_bytes(self):
        space = AddressSpace()
        assert [len(r.data) for r in (space.vol, space.stack, space.pm)] == [0, 0, 0]

    def test_data_tracks_high_water(self):
        space = AddressSpace()
        addr = space.alloc_pm(24)
        assert space.pm.high_water == len(space.pm.data) == 24
        space.write_bytes(addr + 4096, b"x")
        assert len(space.pm.data) == 4097
        assert space.read_bytes(addr + 24, 16) == bytes(16)  # gap reads zero

    def test_reads_past_high_water_are_zero(self):
        space = AddressSpace(pm_size=1 << 20)
        assert space.read_bytes(PM_BASE + (1 << 20) - 8, 8) == bytes(8)
        assert len(space.pm.data) == 0  # reading never grows a region

    def test_machine_construction_allocates_under_1mib(self):
        """Machine construction must not pay for region capacity: the
        eager design allocated 3 x 16 MiB regions plus a 16 MiB durable
        copy (a ~64 MiB tracemalloc peak) on every run."""
        from repro.interp.interpreter import Machine

        Machine()  # warm imports and lazy module state
        tracemalloc.start()
        try:
            Machine()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

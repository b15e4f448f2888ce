"""Simulated 64-bit address space with persistent and volatile regions.

The layout mirrors a PM-enabled process:

=============  ==================  =======================================
region         base address        contents
=============  ==================  =======================================
volatile heap  ``0x1000_0000``     ``vol_alloc`` allocations, vol globals
stack          ``0x7000_0000``     ``alloca`` frames (bump, per call)
PM pool        ``0x1_0000_0000``   ``pm_alloc`` allocations, pm globals
=============  ==================  =======================================

Addresses carry their region implicitly (by range), which is how the
durability checker and the Trace-AA classifier tell PM stores from
volatile stores — exactly the information pmemcheck derives from the
mapped PM file range.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import MemoryError_, SegmentationFault

#: Cache-line size in bytes (x86).
CACHE_LINE = 64

VOL_BASE = 0x1000_0000
STACK_BASE = 0x7000_0000
PM_BASE = 0x1_0000_0000

_DEFAULT_REGION_SIZE = 1 << 24  # 16 MiB per region


def line_of(addr: int) -> int:
    """The base address of the cache line containing ``addr``."""
    return addr & ~(CACHE_LINE - 1)


def lines_covering(addr: int, size: int) -> List[int]:
    """All cache-line base addresses touched by ``[addr, addr+size)``."""
    if size <= 0:
        return []
    first = line_of(addr)
    last = line_of(addr + size - 1)
    return list(range(first, last + 1, CACHE_LINE))


class Region:
    """A contiguous byte-addressable region with a bump allocator."""

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self._brk = 0
        self._high_water = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end

    def allocate(self, size: int, align: int = 8) -> int:
        """Bump-allocate ``size`` bytes, returning the address."""
        if size <= 0:
            raise MemoryError_(f"bad allocation size {size}")
        self._brk = (self._brk + align - 1) & ~(align - 1)
        if self._brk + size > self.size:
            raise MemoryError_(f"region {self.name!r} exhausted")
        addr = self.base + self._brk
        self._brk += size
        if self._brk > self._high_water:
            self._high_water = self._brk
        return addr

    @property
    def brk(self) -> int:
        """Current allocation watermark (offset from base)."""
        return self._brk

    def set_brk(self, brk: int) -> None:
        """Reset the watermark (used for stack frame pop)."""
        if brk < 0 or brk > self.size:
            raise MemoryError_(f"bad brk {brk} for region {self.name!r}")
        self._brk = brk

    @property
    def high_water(self) -> int:
        """Highest offset ever allocated or written.

        Bytes at or beyond this offset are zero by construction, which
        is what lets pooled reuse zero only the live prefix of a region
        instead of all 16 MiB.
        """
        return self._high_water

    def reset(self) -> None:
        """Return the region to its freshly constructed state.

        Only the live prefix (up to the high-water mark) can be nonzero,
        so pooled reuse zeroes just that prefix instead of reallocating
        the full buffer.
        """
        high = self._high_water
        if high:
            self.data[:high] = bytes(high)
        self._brk = 0
        self._high_water = 0

    # -- raw byte access --------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        if not self.contains(addr, size):
            raise SegmentationFault(
                f"read of {size}B at {addr:#x} outside region {self.name!r}"
            )
        offset = addr - self.base
        return bytes(self.data[offset : offset + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        if not self.contains(addr, len(payload)):
            raise SegmentationFault(
                f"write of {len(payload)}B at {addr:#x} outside region {self.name!r}"
            )
        offset = addr - self.base
        end = offset + len(payload)
        self.data[offset:end] = payload
        if end > self._high_water:
            self._high_water = end


class AddressSpace:
    """The whole simulated address space.

    Integer reads/writes are little-endian, matching x86.
    """

    def __init__(
        self,
        vol_size: int = _DEFAULT_REGION_SIZE,
        stack_size: int = _DEFAULT_REGION_SIZE,
        pm_size: int = _DEFAULT_REGION_SIZE,
    ):
        self.vol = Region("vol", VOL_BASE, vol_size)
        self.stack = Region("stack", STACK_BASE, stack_size)
        self.pm = Region("pm", PM_BASE, pm_size)
        self._regions = (self.vol, self.stack, self.pm)

    def reset(self) -> None:
        """Reset every region in place (pooled reuse)."""
        for region in self._regions:
            region.reset()

    # -- region queries ----------------------------------------------------------

    def region_of(self, addr: int, size: int = 1) -> Region:
        for region in self._regions:
            if region.contains(addr, size):
                return region
        raise SegmentationFault(f"access of {size}B at {addr:#x} is unmapped")

    def is_pm(self, addr: int) -> bool:
        """True if the address lies in the persistent region."""
        return self.pm.contains(addr)

    def space_of(self, addr: int) -> str:
        """``"pm"`` or ``"vol"`` (stack counts as volatile)."""
        return "pm" if self.is_pm(addr) else "vol"

    # -- allocation -----------------------------------------------------------------

    def alloc_vol(self, size: int, align: int = 8) -> int:
        return self.vol.allocate(size, align)

    def alloc_pm(self, size: int, align: int = 8) -> int:
        return self.pm.allocate(size, align)

    def alloc_stack(self, size: int, align: int = 8) -> int:
        return self.stack.allocate(size, align)

    def stack_mark(self) -> int:
        return self.stack.brk

    def stack_release(self, mark: int) -> None:
        self.stack.set_brk(mark)

    # -- typed access ------------------------------------------------------------------

    def read_int(self, addr: int, size: int) -> int:
        region = self.region_of(addr, size)
        return int.from_bytes(region.read_bytes(addr, size), "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        region = self.region_of(addr, size)
        region.write_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_bytes(self, addr: int, size: int) -> bytes:
        if size == 0:
            return b""
        return self.region_of(addr, size).read_bytes(addr, size)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        if not payload:
            return
        self.region_of(addr, len(payload)).write_bytes(addr, payload)

    def copy(self, dst: int, src: int, size: int) -> None:
        self.write_bytes(dst, self.read_bytes(src, size))

    def pm_bounds(self) -> Tuple[int, int]:
        return self.pm.base, self.pm.end

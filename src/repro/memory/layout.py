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


def zero_padded(buf, offset: int, size: int) -> bytes:
    """``size`` bytes of ``buf`` at ``offset``; bytes past its end read as zero."""
    chunk = bytes(buf[offset : offset + size])
    if len(chunk) != size:
        chunk += bytes(size - len(chunk))
    return chunk


class Region:
    """A contiguous byte-addressable region with a bump allocator.

    Backing storage grows lazily: ``data`` holds exactly the bytes up to
    the high-water mark (the highest offset ever allocated or written),
    and every byte past it reads as zero.  A fresh region therefore
    costs nothing, however large its ``size``.
    """

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.data = bytearray()
        self._brk = 0

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
        data = self.data
        if self._brk > len(data):
            data.extend(bytes(self._brk - len(data)))
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
        """Highest offset ever allocated or written (``len(data)``)."""
        return len(self.data)

    # -- raw byte access --------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        if not self.contains(addr, size):
            raise SegmentationFault(
                f"read of {size}B at {addr:#x} outside region {self.name!r}"
            )
        offset = addr - self.base
        # zero_padded, inlined: this is the interpreter's load path
        chunk = bytes(self.data[offset : offset + size])
        if len(chunk) != size:
            chunk += bytes(size - len(chunk))
        return chunk

    def write_bytes(self, addr: int, payload: bytes) -> None:
        if not self.contains(addr, len(payload)):
            raise SegmentationFault(
                f"write of {len(payload)}B at {addr:#x} outside region {self.name!r}"
            )
        offset = addr - self.base
        end = offset + len(payload)
        data = self.data
        if end > len(data):
            data.extend(bytes(end - len(data)))
        data[offset:end] = payload


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

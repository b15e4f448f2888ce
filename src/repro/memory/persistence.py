"""The durable image of persistent memory.

The address space's PM region (:class:`~repro.memory.layout.Region`)
holds the *cache view*: what the program observes through loads, i.e.
the most recent stores, whether flushed or not.  This module maintains
the *durable view*: the bytes that have actually reached the PM media.
A store's journey (the paper's §4.2 lifecycle) is::

    store X        -> cache view updated, line dirty
    flush F(X)     -> line queued for write-back (weakly ordered)
    fence M        -> write-back completes: durable view updated

On a crash, the program (and the cache view) is lost; only the durable
view survives — plus, nondeterministically, any pending line (dirty or
queued) that the hardware happened to evict in time.  The checker is
adversarial: it assumes pending lines did *not* survive.
"""

from __future__ import annotations

from typing import Iterable, List

from .layout import AddressSpace, CACHE_LINE, line_of, zero_padded


def _zero_extended(buf: bytearray, length: int) -> bytearray:
    """A copy of ``buf`` zero-extended to ``length`` bytes."""
    copy = bytearray(buf)
    copy.extend(bytes(length - len(copy)))
    return copy


class PersistentImage:
    """Tracks the durable bytes of the PM region.

    Like the cache view's :class:`~repro.memory.layout.Region`, the
    durable view grows lazily: ``_durable`` covers the lines written
    back so far and every byte past it is zero.  Whole images
    (:meth:`crash`, :meth:`snapshot_durable`) span the live extent of
    both views rounded up to whole lines, so two images taken at the
    same moment compare equal exactly when their contents do.
    """

    def __init__(self, space: AddressSpace):
        self.space = space
        self._durable = bytearray(space.pm.data)  # starts in sync
        #: number of line write-backs performed (a persistence-traffic
        #: counter used by performance benchmarks)
        self.writebacks = 0

    def _extent(self) -> int:
        """Length of a whole image: both views' live bytes, in whole lines."""
        live = max(len(self._durable), len(self.space.pm.data))
        return (live + CACHE_LINE - 1) & ~(CACHE_LINE - 1)

    # -- write-back ------------------------------------------------------------

    def write_back_line(self, line_addr: int) -> None:
        """Copy one cache line from the cache view to the durable view."""
        offset = line_addr - self.space.pm.base
        end = offset + CACHE_LINE
        # zero_padded, inlined: every fence writes lines back through here
        line = self.space.pm.data[offset:end]
        if len(line) != CACHE_LINE:
            line += bytes(CACHE_LINE - len(line))
        durable = self._durable
        if end > len(durable):
            durable.extend(bytes(end - len(durable)))
        durable[offset:end] = line
        self.writebacks += 1

    def write_back_lines(self, line_addrs: Iterable[int]) -> None:
        for line_addr in sorted(line_addrs):
            self.write_back_line(line_addr)

    # -- inspection -------------------------------------------------------------

    def durable_bytes(self, addr: int, size: int) -> bytes:
        """Read from the durable view (what a post-crash program sees)."""
        offset = addr - self.space.pm.base
        if offset < 0 or offset + size > self.space.pm.size:
            raise IndexError(f"durable read out of range at {addr:#x}")
        return zero_padded(self._durable, offset, size)

    def cache_bytes(self, addr: int, size: int) -> bytes:
        """Read from the cache view (what the running program sees)."""
        return self.space.read_bytes(addr, size)

    def line_divergence(self) -> List[int]:
        """Lines whose cache view differs from the durable view."""
        extent = self._extent()
        data = _zero_extended(self.space.pm.data, extent)
        durable = _zero_extended(self._durable, extent)
        base = self.space.pm.base
        return [
            base + offset
            for offset in range(0, extent, CACHE_LINE)
            if data[offset : offset + CACHE_LINE]
            != durable[offset : offset + CACHE_LINE]
        ]

    def is_line_durable(self, addr: int) -> bool:
        """True if the line containing ``addr`` is identical in both views."""
        offset = line_of(addr) - self.space.pm.base
        return zero_padded(self.space.pm.data, offset, CACHE_LINE) == zero_padded(
            self._durable, offset, CACHE_LINE
        )

    # -- crash ---------------------------------------------------------------------

    def crash(self, surviving_lines: Iterable[int] = ()) -> bytes:
        """Simulate a crash and return the post-crash PM contents.

        ``surviving_lines`` models the hardware nondeterminism: pending
        lines that happened to be written back before power was lost.
        The adversarial default is that none survive.  The image covers
        the live extent (see :meth:`_extent`); PM past it is zero.
        """
        image = _zero_extended(self._durable, self._extent())
        data = self.space.pm.data
        for line_addr in surviving_lines:
            offset = line_addr - self.space.pm.base
            image[offset : offset + CACHE_LINE] = zero_padded(data, offset, CACHE_LINE)
        return bytes(image)

    def snapshot_durable(self) -> bytes:
        return bytes(_zero_extended(self._durable, self._extent()))

    def restore(self, image: bytes) -> None:
        """Load a post-crash image as the durable contents.

        Used when rebooting a machine from a crash state: the durable
        view becomes the image and nothing is pending.
        """
        if len(image) > self.space.pm.size:
            raise IndexError("restore image larger than the PM region")
        durable = self._durable
        if len(image) > len(durable):
            durable.extend(bytes(len(image) - len(durable)))
        durable[: len(image)] = image

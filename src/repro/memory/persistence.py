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

from typing import Dict, Iterable, List

from .layout import AddressSpace, CACHE_LINE, line_of


class PersistentImage:
    """Tracks the durable bytes of the PM region."""

    def __init__(self, space: AddressSpace):
        self.space = space
        self._durable = bytearray(space.pm.data)  # starts in sync
        #: number of line write-backs performed (a persistence-traffic
        #: counter used by performance benchmarks)
        self.writebacks = 0
        # Highest durable offset that may hold a nonzero byte.  The
        # initial copy is nonzero only below the cache view's high-water
        # mark, and every later mutation raises the bound, so a pooled
        # reset only has to zero this prefix instead of all 16 MiB.
        self._dirty_high = space.pm.high_water

    # -- write-back ------------------------------------------------------------

    def write_back_line(self, line_addr: int) -> None:
        """Copy one cache line from the cache view to the durable view."""
        offset = line_addr - self.space.pm.base
        self._durable[offset : offset + CACHE_LINE] = self.space.pm.data[
            offset : offset + CACHE_LINE
        ]
        if offset + CACHE_LINE > self._dirty_high:
            self._dirty_high = offset + CACHE_LINE
        self.writebacks += 1

    def write_back_lines(self, line_addrs: Iterable[int]) -> None:
        for line_addr in sorted(line_addrs):
            self.write_back_line(line_addr)

    # -- inspection -------------------------------------------------------------

    def durable_bytes(self, addr: int, size: int) -> bytes:
        """Read from the durable view (what a post-crash program sees)."""
        offset = addr - self.space.pm.base
        if offset < 0 or offset + size > len(self._durable):
            raise IndexError(f"durable read out of range at {addr:#x}")
        return bytes(self._durable[offset : offset + size])

    def cache_bytes(self, addr: int, size: int) -> bytes:
        """Read from the cache view (what the running program sees)."""
        return self.space.read_bytes(addr, size)

    def line_divergence(self) -> List[int]:
        """Lines whose cache view differs from the durable view."""
        diverged = []
        data, durable = self.space.pm.data, self._durable
        for offset in range(0, len(durable), CACHE_LINE):
            if data[offset : offset + CACHE_LINE] != durable[offset : offset + CACHE_LINE]:
                diverged.append(self.space.pm.base + offset)
        return diverged

    def is_line_durable(self, addr: int) -> bool:
        """True if the line containing ``addr`` is identical in both views."""
        offset = line_of(addr) - self.space.pm.base
        return (
            self.space.pm.data[offset : offset + CACHE_LINE]
            == self._durable[offset : offset + CACHE_LINE]
        )

    # -- crash ---------------------------------------------------------------------

    def crash(self, surviving_lines: Iterable[int] = ()) -> bytes:
        """Simulate a crash and return the post-crash PM contents.

        ``surviving_lines`` models the hardware nondeterminism: pending
        lines that happened to be written back before power was lost.
        The adversarial default is that none survive.
        """
        image = bytearray(self._durable)
        for line_addr in surviving_lines:
            offset = line_addr - self.space.pm.base
            image[offset : offset + CACHE_LINE] = self.space.pm.data[
                offset : offset + CACHE_LINE
            ]
        return bytes(image)

    def snapshot_durable(self) -> bytes:
        return bytes(self._durable)

    def restore(self, image: bytes) -> None:
        """Load a post-crash image as the durable contents.

        Used when rebooting a machine from a crash state: the durable
        view becomes the image and nothing is pending.
        """
        if len(image) > len(self._durable):
            raise IndexError("restore image larger than the PM region")
        self._durable[: len(image)] = image
        if len(image) > self._dirty_high:
            self._dirty_high = len(image)

    # -- pooled reuse ---------------------------------------------------------------

    def reset(self) -> None:
        """Return the image to its freshly constructed, all-zero state.

        Valid only when the owning :class:`AddressSpace` has been (or is
        about to be) reset too: both views become all zeroes, in sync.
        """
        if self._dirty_high:
            self._durable[: self._dirty_high] = bytes(self._dirty_high)
        self._dirty_high = 0
        self.writebacks = 0

"""A stub of the retired machine pool.

Machine memory now grows lazily (see :class:`~repro.memory.layout.Region`),
so a fresh pair costs next to nothing and there is nothing to pool.
Nothing in the package uses this class.  It survives only because
``perfbench/tracing.py`` shims ``MachinePool.acquire`` and ``acquire_raw``
and stops a traced run when a shim target is missing; delete it with them.
"""

from __future__ import annotations

from typing import Tuple

from .layout import AddressSpace
from .persistence import PersistentImage


class MachinePool:
    """Builds a fresh pair on every acquire; keeps nothing."""

    def acquire(self, *sizes: int) -> Tuple[AddressSpace, PersistentImage]:
        space = AddressSpace(*sizes)
        return space, PersistentImage(space)

    acquire_raw = acquire

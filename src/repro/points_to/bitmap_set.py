"""Sparse-bitmap points-to sets (the GCC representation).

Each set is a :class:`~repro.datastructs.sparse_bitmap.SparseBitmap`;
the family only keeps the books on the live ones.
"""

from __future__ import annotations

import weakref

from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.points_to.interface import PointsToFamily


class BitmapPointsToFamily(PointsToFamily):
    """Factory for bitmap sets; accounts memory by live bitmap elements."""

    name = "bitmap"

    def __init__(self) -> None:
        self._sets: "weakref.WeakSet[SparseBitmap]" = weakref.WeakSet()

    def make(self) -> SparseBitmap:
        made = SparseBitmap()
        self._sets.add(made)
        return made

    def memory_bytes(self) -> int:
        """Sum of the GCC element-layout footprint of every live set."""
        return sum(s.memory_bytes() for s in self._sets)

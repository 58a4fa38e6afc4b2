"""Sparse-bitmap points-to sets (the GCC representation)."""

from __future__ import annotations

import weakref
from typing import Iterator

from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.points_to.interface import PointsToFamily


class BitmapPointsToSet:
    """A points-to set backed by one :class:`SparseBitmap`."""

    __slots__ = ("bits", "__weakref__")

    def __init__(self) -> None:
        self.bits = SparseBitmap()

    def add(self, loc: int) -> bool:
        return self.bits.add(loc)

    def ior_and_test(self, other: "BitmapPointsToSet") -> bool:
        return self.bits.ior_and_test(other.bits)

    def contains(self, loc: int) -> bool:
        return loc in self.bits

    def same_as(self, other: "BitmapPointsToSet") -> bool:
        return self.bits.same_as(other.bits)

    def copy(self) -> "BitmapPointsToSet":
        clone = BitmapPointsToSet()
        clone.bits = self.bits.copy()
        return clone

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __repr__(self) -> str:
        return f"BitmapPointsToSet({sorted(self.bits)!r})"


class BitmapPointsToFamily(PointsToFamily):
    """Factory for bitmap sets; accounts memory by live bitmap elements."""

    name = "bitmap"

    def __init__(self) -> None:
        self._sets: "weakref.WeakSet[BitmapPointsToSet]" = weakref.WeakSet()

    def make(self) -> BitmapPointsToSet:
        made = BitmapPointsToSet()
        self._sets.add(made)
        return made

    def memory_bytes(self) -> int:
        """Sum of the GCC element-layout footprint of every live set."""
        return sum(s.bits.memory_bytes() for s in self._sets)

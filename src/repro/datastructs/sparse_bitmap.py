"""GCC-style sparse bitmap.

The paper's bitmap-based implementations take their points-to set
representation from the GCC 4.1.1 compiler (``bitmap.c``): a sorted sequence
of *elements*, each covering a fixed-width window of the index space and
holding one machine word bit-vector per window.  Only windows containing at
least one set bit are materialized, so the structure is compact for both
dense clusters and sparse outliers.

This module reproduces that design in Python.  Each element covers
``BITS_PER_BLOCK`` consecutive indices and stores its bits in a single Python
integer.  Elements live in a dict keyed by block index; the dict plays the
role of GCC's sorted linked list (Python dicts give O(1) lookup, and we sort
keys only on ordered iteration).

The operation profile matters more than the container: the hot loop of every
bitmap-based solver is ``ior_and_test`` (destructive union that reports
whether anything changed), which GCC calls ``bitmap_ior_into``.  We keep the
element count and a cached population count so that equality checks — the
trigger condition of Lazy Cycle Detection — are cheap.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

#: Number of bits covered by one element.  GCC uses 2 words x 64 bits = 128
#: on 64-bit hosts; we follow suit.
BITS_PER_BLOCK = 128


class SparseBitmap:
    """A set of non-negative integers stored as a sparse bitmap.

    Supports ``in``, ``len`` and ascending iteration plus the destructive
    union primitives the solvers need.  It is the ``bitmap`` family's
    points-to set and the default scratch set of
    :meth:`~repro.points_to.interface.PointsToFamily.make_scratch`.  Equality is
    identity (sets are hashable so the family can track the live ones
    weakly); :meth:`same_as` compares values.

    >>> s = SparseBitmap([1, 200, 3])
    >>> sorted(s)
    [1, 3, 200]
    >>> s.add(4096)
    True
    >>> 4096 in s
    True
    """

    __slots__ = ("_blocks", "_count", "__weakref__")

    def __init__(self, items: Optional[Iterable[int]] = None) -> None:
        self._blocks: Dict[int, int] = {}
        self._count: int = 0
        if items is not None:
            for item in items:
                self.add(item)

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------

    def add(self, item: int) -> bool:
        """Set bit ``item``.  Return ``True`` if the bit was newly set."""
        if item < 0:
            raise ValueError(f"sparse bitmap holds non-negative ints, got {item}")
        block_index, bit = divmod(item, BITS_PER_BLOCK)
        mask = 1 << bit
        word = self._blocks.get(block_index, 0)
        if word & mask:
            return False
        self._blocks[block_index] = word | mask
        self._count += 1
        return True

    def __contains__(self, item: int) -> bool:
        if item < 0:
            return False
        block_index, bit = divmod(item, BITS_PER_BLOCK)
        word = self._blocks.get(block_index)
        return word is not None and bool(word & (1 << bit))

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def ior_and_test(self, other: "SparseBitmap") -> bool:
        """Destructive union: ``self |= other``.  Return ``True`` on change.

        This is the propagation primitive (GCC's ``bitmap_ior_into``): the
        solvers' inner loop is ``pts(z) |= pts(n)`` followed by a changed
        test, and fusing the two avoids a second pass.
        """
        if other is self or not other._count:
            return False
        changed = False
        blocks = self._blocks
        for block_index, other_word in other._blocks.items():
            word = blocks.get(block_index, 0)
            merged = word | other_word
            if merged != word:
                blocks[block_index] = merged
                self._count += merged.bit_count() - word.bit_count()
                changed = True
        return changed

    def ior(self, other: "SparseBitmap") -> None:
        """Destructive union without the changed test."""
        self.ior_and_test(other)

    def difference_update(self, other: "SparseBitmap") -> bool:
        """Destructive difference: ``self -= other``.  Return ``True`` on change."""
        changed = False
        for block_index, other_word in other._blocks.items():
            word = self._blocks.get(block_index)
            if word is None:
                continue
            merged = word & ~other_word
            if merged != word:
                changed = True
                if merged:
                    self._blocks[block_index] = merged
                else:
                    del self._blocks[block_index]
                self._count += merged.bit_count() - word.bit_count()
        return changed

    def same_as(self, other: "SparseBitmap") -> bool:
        """Set equality, cheapest checks first.

        Identity, then the cached population counts (so unequal sets are
        rejected without touching a single block), then block contents.
        This is the bitmap family's LCD trigger condition.
        """
        if other is self:
            return True
        return self._count == other._count and self._blocks == other._blocks

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        for block_index in sorted(self._blocks):
            word = self._blocks[block_index]
            base = block_index * BITS_PER_BLOCK
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __repr__(self) -> str:
        preview: List[int] = []
        for item in self:
            preview.append(item)
            if len(preview) > 8:
                return f"SparseBitmap({preview[:8]}... {self._count} items)"
        return f"SparseBitmap({preview})"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def copy(self) -> "SparseBitmap":
        clone = SparseBitmap()
        clone._blocks = dict(self._blocks)
        clone._count = self._count
        return clone

    def memory_bytes(self) -> int:
        """Analytic memory footprint, modelled on GCC's element layout.

        Each GCC bitmap element is two 64-bit words of payload plus two
        pointers and an index: 5 x 8 = 40 bytes.  The head adds one element's
        worth of bookkeeping.
        """
        return 40 * (len(self._blocks) + 1)


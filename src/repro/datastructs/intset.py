"""Bignum-backed bitsets: one arbitrary-precision integer per set.

The verification layer's certifier (``verify/certifier.py``) re-derives
the least Andersen model at a fraction of solve cost by storing every
points-to set as a single Python ``int`` and doing union and
difference as word-parallel ``|`` and ``&~`` — one interpreter dispatch
per *operation* instead of one per block (sparse bitmaps) or per
element (builtin sets).  This module promotes that engine to the
solvers: :class:`IntBitSet` is the ``int`` points-to family's set, and
the same class holds that family's scratch state (successor sets and
processed-pointee done-sets).

The representation trade-off versus the GCC element layout: a bignum is
*dense* from bit 0 to its highest set bit, so it loses on sets holding a
few huge outliers — but location ids are variable ids, bounded by the
constraint system's variable count, and Andersen points-to sets cluster
densely in that space.  At one 64-bit word per 64 locations the constant
factor beats one dict probe per 128-bit block by a wide margin.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

#: Modelled bytes of the CPython ``int`` object header (type pointer,
#: refcount, digit count) charged per live bignum.
INT_HEADER_BYTES = 28

_WORD_BITS = 64


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def int_memory_bytes(bits: int) -> int:
    """Modelled footprint of one bignum bitset: header plus payload words."""
    return INT_HEADER_BYTES + 8 * ((bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS)


class IntBitSet:
    """A mutable set of non-negative integers stored as one bignum.

    The ``int`` family's points-to set and scratch set, with the
    operations of :class:`~repro.datastructs.sparse_bitmap.SparseBitmap`:
    membership, ``add``, destructive union and difference, ``same_as``,
    ``copy`` and ascending iteration.  A copy shares the immutable int
    until a mutation re-points ``bits``.  The family's ``fresh`` diff,
    LCD's batched loop and solution export reach through ``.bits`` to
    run whole-set operations as single bignum expressions.  Equality is
    identity, as for ``SparseBitmap``; :meth:`same_as` compares values.
    """

    __slots__ = ("bits", "__weakref__")

    def __init__(self, items: Optional[Iterable[int]] = None) -> None:
        self.bits = 0
        if items is not None:
            for item in items:
                if item < 0:
                    raise ValueError(
                        f"int bitset holds non-negative ints, got {item}"
                    )
                self.bits |= 1 << item

    @classmethod
    def from_bits(cls, bits: int) -> "IntBitSet":
        made = cls()
        made.bits = bits
        return made

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------

    def add(self, item: int) -> bool:
        if item < 0:
            raise ValueError(f"int bitset holds non-negative ints, got {item}")
        mask = 1 << item
        if self.bits & mask:
            return False
        self.bits |= mask
        return True

    def __contains__(self, item: int) -> bool:
        return item >= 0 and bool((self.bits >> item) & 1)

    # ------------------------------------------------------------------
    # Bulk operations (word-parallel)
    # ------------------------------------------------------------------

    def ior_and_test(self, other: "IntBitSet") -> bool:
        bits = self.bits
        source = other.bits
        merged = bits | source
        if merged == bits:
            return False
        # A union equal to the source adopts the source's int object, so
        # converged copy chains share one value (ints are immutable, so
        # sharing is safe).
        self.bits = source if merged == source else merged
        return True

    def ior(self, other: "IntBitSet") -> None:
        self.bits |= other.bits

    def difference_update(self, other: "IntBitSet") -> bool:
        merged = self.bits & ~other.bits
        if merged == self.bits:
            return False
        self.bits = merged
        return True

    def same_as(self, other: "IntBitSet") -> bool:
        return self.bits == other.bits

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        preview: List[int] = []
        for item in self:
            preview.append(item)
            if len(preview) > 8:
                return f"IntBitSet({preview[:8]}... {len(self)} items)"
        return f"IntBitSet({preview})"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def copy(self) -> "IntBitSet":
        clone = IntBitSet()
        clone.bits = self.bits
        return clone

    def memory_bytes(self) -> int:
        return int_memory_bytes(self.bits)

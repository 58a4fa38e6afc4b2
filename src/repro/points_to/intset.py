"""Bignum ("intset") points-to sets: one Python int per set.

The third representation, and the one the certifier already proved out
(``verify/certifier.py`` re-derives the least model with plain ints at a
fraction of solve cost).  Every set is a thin handle onto one immutable
arbitrary-precision integer:

- union/subset/difference/intersection are single word-parallel bignum
  expressions (``|``, ``&~``, ``&``) executed in C, not per-block dict
  probes;
- ``copy`` is free: the handle shares the immutable int until a
  mutation re-points it;
- sharing needs no table: when a union leaves a set equal to its source
  operand, the set adopts the source's int object, so a converged copy
  chain holds one value, and ``same_as`` on two handles sharing it — the
  Lazy Cycle Detection trigger — is decided by CPython's identity check
  before any digit comparison.

Memory accounting is liveness-based and value-deduplicated: the family
weakly tracks every live handle and charges each distinct backing int
object once, so dead intermediates are never charged and a value shared
by adoption costs one bignum however many variables hold it.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator

from repro.datastructs.intset import IntBitSet, int_memory_bytes, iter_bits
from repro.points_to.interface import PointsToFamily


class IntPointsToSet:
    """A points-to set handle onto one immutable bignum."""

    __slots__ = ("bits", "__weakref__")

    def __init__(self, bits: int = 0) -> None:
        self.bits = bits

    def add(self, loc: int) -> bool:
        mask = 1 << loc
        if self.bits & mask:
            return False
        self.bits |= mask
        return True

    def ior_and_test(self, other: "IntPointsToSet") -> bool:
        bits = self.bits
        source = other.bits
        merged = bits | source
        if merged == bits:
            return False
        # A union equal to the source adopts the source's object, so
        # converged copy chains share one value.
        self.bits = source if merged == source else merged
        return True

    def contains(self, loc: int) -> bool:
        return bool((self.bits >> loc) & 1)

    def same_as(self, other: "IntPointsToSet") -> bool:
        return self.bits == other.bits

    def copy(self) -> "IntPointsToSet":
        return IntPointsToSet(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return f"IntPointsToSet({sorted(self)!r})"


class IntPointsToFamily(PointsToFamily):
    """Bignum sets plus the live-handle registry memory accounting reads."""

    name = "int"
    #: Selects LCD's batched-trigger loop (see ``LCDSolver._run_fused``).
    fused_kernel = True

    def __init__(self) -> None:
        #: Live handles, tracked weakly for value-deduplicated accounting.
        self._live: "weakref.WeakSet[IntPointsToSet]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Factory
    # ------------------------------------------------------------------

    def make(self) -> IntPointsToSet:
        made = IntPointsToSet()
        self._live.add(made)
        return made

    def make_scratch(self) -> IntBitSet:
        """Solver scratch state (done-sets) in bignum layout, so
        :meth:`fresh` diffs them against points-to sets bit-wise."""
        return IntBitSet()

    def fresh(self, pts: IntPointsToSet, done: IntBitSet) -> IntBitSet:
        """One word-parallel diff instead of a membership scan."""
        return IntBitSet.from_bits(pts.bits & ~done.bits)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes of the distinct live backing ints.

        Dedup is by backing-object identity, so a thousand handles that
        share one int by copy or adoption cost one bignum.  Summing over
        *live* handles keeps the count consistent as sets re-point:
        dead intermediates are never charged.
        """
        seen: Dict[int, int] = {}
        for handle in self._live:
            bits = handle.bits
            seen.setdefault(id(bits), int_memory_bytes(bits))
        return sum(seen.values())

"""Bignum ("intset") points-to sets: one Python int per set.

The third representation, and the one the certifier already proved out
(``verify/certifier.py`` re-derives the least model with plain ints at a
fraction of solve cost).  Every set is an
:class:`~repro.datastructs.intset.IntBitSet`, a handle onto one
immutable arbitrary-precision integer:

- union and difference are single word-parallel bignum expressions
  (``|``, ``&~``) executed in C, not per-block dict probes;
- ``copy`` is free: the handle shares the immutable int until a
  mutation re-points it;
- sharing needs no table: when a union leaves a set equal to its source
  operand, the set adopts the source's int object, so a converged copy
  chain holds one value, and ``same_as`` on two handles sharing it — the
  Lazy Cycle Detection trigger — is decided by CPython's identity check
  before any digit comparison.

Memory accounting is liveness-based and value-deduplicated: the family
weakly tracks every live set made by :meth:`IntPointsToFamily.make`
(never copies or scratch sets) and charges each distinct backing int
object once, so dead intermediates are never charged and a value shared
by adoption costs one bignum however many variables hold it.
"""

from __future__ import annotations

import weakref
from typing import Dict

from repro.datastructs.intset import IntBitSet, int_memory_bytes
from repro.points_to.interface import PointsToFamily


class IntPointsToFamily(PointsToFamily):
    """Bignum sets plus the live-set registry memory accounting reads."""

    name = "int"
    #: Selects LCD's batched-trigger loop (see ``LCDSolver._run_fused``).
    fused_kernel = True

    def __init__(self) -> None:
        #: Live sets, tracked weakly for value-deduplicated accounting.
        self._live: "weakref.WeakSet[IntBitSet]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Factory
    # ------------------------------------------------------------------

    def make(self) -> IntBitSet:
        made = IntBitSet()
        self._live.add(made)
        return made

    def make_scratch(self) -> IntBitSet:
        """Solver scratch state (done-sets) in bignum layout, so
        :meth:`fresh` diffs them against points-to sets bit-wise."""
        return IntBitSet()

    def fresh(self, pts: IntBitSet, done: IntBitSet) -> IntBitSet:
        """One word-parallel diff instead of a membership scan."""
        return IntBitSet.from_bits(pts.bits & ~done.bits)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes of the distinct live backing ints.

        Dedup is by backing-object identity, so a thousand sets that
        share one int by adoption cost one bignum.  Summing over *live*
        sets keeps the count consistent as sets re-point: dead
        intermediates are never charged.
        """
        seen: Dict[int, int] = {}
        for made in self._live:
            bits = made.bits
            seen.setdefault(id(bits), int_memory_bytes(bits))
        return sum(seen.values())

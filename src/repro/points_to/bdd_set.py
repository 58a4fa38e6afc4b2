"""Per-variable BDD points-to sets (Section 5.4).

Unlike BLQ — which stores the entire points-to *relation* in one BDD — this
representation gives each variable its own BDD over the location domain,
all sharing a single manager.  Sharing is the point: two variables with
similar points-to sets share most of their DAG, which is where the paper's
5.5x memory saving comes from.

Two operations differ sharply from bitmaps, in exactly the way the paper
reports:

- ``same_as`` is a constant-time node-id comparison (canonical BDDs), so
  the Lazy Cycle Detection trigger is essentially free;
- iteration is ``bdd_allsat``, "the single function" most of the BDD
  representation's extra time comes from.
"""

from __future__ import annotations

from typing import Iterator

from repro.bdd.domain import Domain, DomainAllocator
from repro.bdd.manager import FALSE, BDDManager
from repro.points_to.interface import PointsToFamily


class BDDPointsToSet:
    """A points-to set stored as a BDD over the family's location domain."""

    __slots__ = ("node", "_family")

    def __init__(self, family: "BDDPointsToFamily") -> None:
        self.node = FALSE
        self._family = family

    def add(self, loc: int) -> bool:
        manager = self._family.manager
        merged = manager.apply_or(self.node, self._family.domain.encode(loc))
        if merged == self.node:
            return False
        self.node = merged
        return True

    def ior_and_test(self, other: "BDDPointsToSet") -> bool:
        if other.node == self.node:
            # Canonical nodes: equal sets make the union a no-op.
            return False
        manager = self._family.manager
        merged = manager.apply_or(self.node, other.node)
        if merged == self.node:
            return False
        self.node = merged
        return True

    def same_as(self, other: "BDDPointsToSet") -> bool:
        # Canonicity makes set equality a pointer comparison.
        return self.node == other.node

    def copy(self) -> "BDDPointsToSet":
        clone = BDDPointsToSet(self._family)
        clone.node = self.node
        return clone

    def __iter__(self) -> Iterator[int]:
        # bdd_allsat: the expensive direction, per the paper.
        return self._family.domain.values(self.node)

    def __len__(self) -> int:
        return self._family.domain.count(self.node)

    def __repr__(self) -> str:
        return f"BDDPointsToSet({sorted(self)!r})"


class BDDPointsToFamily(PointsToFamily):
    """Shared manager + location domain for a solver run's BDD sets."""

    name = "bdd"

    #: Modelled byte size of one BDD node (BuDDy: 20 bytes; we round to the
    #: allocation granularity of a node record with hash-table overhead).
    BYTES_PER_NODE = 24

    def __init__(self, num_locs: int) -> None:
        if num_locs < 1:
            num_locs = 1
        allocator = DomainAllocator([("loc", num_locs)], interleave=False)
        self.manager: BDDManager = allocator.manager
        self.domain: Domain = allocator["loc"]

    def make(self) -> BDDPointsToSet:
        return BDDPointsToSet(self)

    def memory_bytes(self) -> int:
        """Pool-style accounting: every node ever allocated in the shared
        manager, matching the paper's fixed BDD pool whose size is
        independent of how many sets reference it."""
        return self.manager.node_count * self.BYTES_PER_NODE

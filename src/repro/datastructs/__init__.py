"""Core data structures shared by all solvers.

This package contains the three structures the paper's implementation notes
call out explicitly (Section 5.1):

- :class:`~repro.datastructs.sparse_bitmap.SparseBitmap` — the GCC-style
  sparse bitmap: the ``bitmap`` family's points-to set itself, and the
  default constraint-graph edge set.  Its bignum counterpart
  :class:`~repro.datastructs.intset.IntBitSet` plays both roles for the
  ``int`` family.
- :class:`~repro.datastructs.union_find.UnionFind` — union-by-rank with path
  compression, used to collapse strongly connected components.
- The worklist strategies in :mod:`~repro.datastructs.worklist`, including
  the LRF ("least recently fired") priority and the divided
  (current/next) worklist of Nielson et al.
"""

from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.datastructs.union_find import UnionFind
from repro.datastructs.worklist import (
    DividedWorklist,
    FIFOWorklist,
    LIFOWorklist,
    LRFWorklist,
    Worklist,
    make_worklist,
)

__all__ = [
    "SparseBitmap",
    "UnionFind",
    "Worklist",
    "FIFOWorklist",
    "LIFOWorklist",
    "LRFWorklist",
    "DividedWorklist",
    "make_worklist",
]

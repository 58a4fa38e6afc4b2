"""Points-to set representations.

Section 5.4 of the paper compares two representations for points-to sets —
GCC-style sparse bitmaps and per-variable BDDs — finding BDDs ~2x slower
but ~5.5x smaller.  Solvers access points-to sets only through the
:class:`~repro.points_to.interface.PointsToSet` protocol, so either
representation (or a new one) plugs in without touching solver code, which
is exactly how the paper describes the swap ("a simple modification that
requires minimal changes to the code").

Each family hands out one set class: the ``bitmap`` family a
:class:`~repro.datastructs.sparse_bitmap.SparseBitmap`, the ``int``
family an :class:`~repro.datastructs.intset.IntBitSet` (both also serve
as solver scratch sets), and the ``bdd`` family a
:class:`~repro.points_to.bdd_set.BDDPointsToSet`.
"""

from repro.points_to.bdd_set import BDDPointsToFamily
from repro.points_to.bitmap_set import BitmapPointsToFamily
from repro.points_to.interface import PointsToFamily, PointsToSet, make_family

__all__ = [
    "PointsToSet",
    "PointsToFamily",
    "BitmapPointsToFamily",
    "BDDPointsToFamily",
    "make_family",
]

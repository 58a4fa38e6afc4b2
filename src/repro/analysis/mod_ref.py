"""Mod/ref analysis on top of a points-to solution.

A classic client (the paper's motivation cites program verification and
understanding): given the solved points-to relation, determine which
abstract locations each pointer operation may *modify* or *reference*.
This is what a dependence or side-effect analysis consumes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import Constraint, ConstraintKind, ConstraintSystem


class ModRefAnalysis:
    """May-modify / may-reference queries over pointer operations."""

    def __init__(self, system: ConstraintSystem, solution: PointsToSolution) -> None:
        self.system = system
        self.solution = solution

    # ------------------------------------------------------------------
    # Dereference-level queries
    # ------------------------------------------------------------------

    def _targets(self, pointer: int, offset: int) -> FrozenSet[int]:
        """Locations reached by ``*(pointer + offset)``."""
        pointees = self.solution.points_to(pointer)
        if offset == 0:
            return pointees
        max_offset = self.system.max_offset
        return frozenset(loc + offset for loc in pointees if max_offset[loc] >= offset)

    def written_through(self, pointer: int, offset: int = 0) -> FrozenSet[int]:
        """Locations a store ``*(pointer+offset) = ...`` may modify."""
        return self._targets(pointer, offset)

    def read_through(self, pointer: int, offset: int = 0) -> FrozenSet[int]:
        """Locations a load ``... = *(pointer+offset)`` may reference."""
        return self._targets(pointer, offset)

    # ------------------------------------------------------------------
    # Constraint-level queries
    # ------------------------------------------------------------------

    def constraint_mod(self, constraint: Constraint) -> FrozenSet[int]:
        """Abstract locations ``constraint`` may write (beyond its lhs)."""
        if constraint.kind is ConstraintKind.STORE:
            return self.written_through(constraint.dst, constraint.offset)
        return frozenset()

    def constraint_ref(self, constraint: Constraint) -> FrozenSet[int]:
        """Abstract locations ``constraint`` may read through a pointer."""
        if constraint.kind is ConstraintKind.LOAD:
            return self.read_through(constraint.src, constraint.offset)
        return frozenset()

    def may_interfere(self, first: Constraint, second: Constraint) -> bool:
        """Whether two operations conflict (write/write or read/write).

        The dependence test a reordering optimization would ask.
        """
        mod_first = self.constraint_mod(first)
        mod_second = self.constraint_mod(second)
        if mod_first & mod_second:
            return True
        if mod_first & self.constraint_ref(second):
            return True
        if mod_second & self.constraint_ref(first):
            return True
        return False

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def mod_set(self, constraints: Optional[Iterable[Constraint]] = None) -> FrozenSet[int]:
        """Union of may-modify sets over ``constraints`` (default: all)."""
        pool = self.system.constraints if constraints is None else constraints
        result: set = set()
        for constraint in pool:
            result |= self.constraint_mod(constraint)
        return frozenset(result)

    def ref_set(self, constraints: Optional[Iterable[Constraint]] = None) -> FrozenSet[int]:
        """Union of may-reference sets over ``constraints`` (default: all)."""
        pool = self.system.constraints if constraints is None else constraints
        result: set = set()
        for constraint in pool:
            result |= self.constraint_ref(constraint)
        return frozenset(result)

"""May-alias queries on top of a points-to solution.

The canonical client of pointer analysis: two pointers may alias iff their
points-to sets intersect.  Precision of this query is exactly what the
paper's introduction argues inclusion-based analysis buys over the cheaper
unification-based alternatives.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.analysis.solution import PointsToSolution


class AliasAnalysis:
    """Alias queries over a solved system."""

    def __init__(self, solution: PointsToSolution) -> None:
        self.solution = solution

    def may_alias(self, a: int, b: int) -> bool:
        """Whether ``*a`` and ``*b`` may denote the same location.

        Delegates to :meth:`PointsToSolution.intersects`.
        """
        return self.solution.intersects(a, b)

    def must_not_alias(self, a: int, b: int) -> bool:
        """Sound disjointness (the complement of :meth:`may_alias`)."""
        return not self.may_alias(a, b)

    def alias_set(self, var: int, candidates: Iterable[int]) -> List[int]:
        """The candidates that may alias ``var``."""
        return [c for c in candidates if self.may_alias(var, c)]

    def alias_pairs(self, variables: Iterable[int]) -> List[Tuple[int, int]]:
        """All may-aliasing unordered pairs among ``variables``.

        Uses an inverted index (location -> pointers) so the cost is
        proportional to the alias relation, not quadratic in the inputs.
        """
        by_loc: Dict[int, List[int]] = {}
        ordered = sorted(set(variables))
        for var in ordered:
            for loc in self.solution.points_to(var):
                by_loc.setdefault(loc, []).append(var)
        pairs = set()
        for holders in by_loc.values():
            for i, a in enumerate(holders):
                for b in holders[i + 1 :]:
                    pairs.add((a, b))
        return sorted(pairs)

    def dereference(self, var: int) -> FrozenSet[int]:
        """Locations ``*var`` may denote (just the points-to set)."""
        return self.solution.points_to(var)

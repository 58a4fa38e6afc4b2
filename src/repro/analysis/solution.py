"""The points-to solution produced by every solver.

A solution maps each program variable to the set of abstract locations it
may point to.  Whatever a solver did internally — collapsing cycles,
substituting pointer-equivalent variables offline, storing the relation in
one big BDD — the exported solution is always expressed per *original*
variable, which is what makes solver outputs directly comparable (the
repo's core correctness property: every algorithm computes the same
solution).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set


class PointsToSolution:
    """Immutable per-variable points-to map."""

    def __init__(
        self,
        points_to: Mapping[int, Iterable[int]],
        num_vars: int,
        names: Optional[Sequence[str]] = None,
        num_locs: Optional[int] = None,
    ) -> None:
        """``num_locs`` bounds the pointee ids (defaults to ``num_vars``,
        since locations live in the same id space as variables).  A
        pointee outside ``[0, num_locs)`` means the producing solver
        corrupted a set, so it is rejected here rather than surfacing as
        a nonsense fact in a downstream client."""
        self._num_vars = num_vars
        self._num_locs = num_locs if num_locs is not None else num_vars
        self._names = tuple(names) if names is not None else None
        self._points_to: Dict[int, FrozenSet[int]] = {}
        # Solvers and expansion give every variable of a class one shared
        # frozenset (frozenset() of a frozenset is the same object), so
        # each distinct set object is bound-checked once.  Every checked
        # object is kept alive in _points_to, so its id is never reused.
        checked: Set[int] = set()
        for var, locs in points_to.items():
            if not 0 <= var < num_vars:
                raise ValueError(f"variable id {var} out of range")
            frozen = frozenset(locs)
            if not frozen:
                continue
            if id(frozen) not in checked:
                # min/max bound-check the whole set at C speed.
                low, high = min(frozen), max(frozen)
                if low < 0 or high >= self._num_locs:
                    raise ValueError(
                        f"pointee id {low if low < 0 else high} in pts({var}) "
                        f"outside [0, {self._num_locs})"
                    )
                checked.add(id(frozen))
            self._points_to[var] = frozen

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_locs(self) -> int:
        return self._num_locs

    def points_to(self, var: int) -> FrozenSet[int]:
        """Locations ``var`` may point to (empty frozenset if none)."""
        if not 0 <= var < self._num_vars:
            raise ValueError(f"variable id {var} out of range")
        return self._points_to.get(var, frozenset())

    def intersects(self, a: int, b: int) -> bool:
        """True when ``pts(a)`` and ``pts(b)`` share a location — the
        may-alias primitive (``frozenset.isdisjoint``, at C speed)."""
        return not self.points_to(a).isdisjoint(self.points_to(b))

    def items(self) -> Iterable[tuple]:
        """The non-empty ``(var, pointee frozenset)`` pairs, unordered —
        the bulk-access path (one dict walk, no per-variable calls)."""
        return self._points_to.items()

    def name_of(self, var: int) -> str:
        if self._names is not None:
            return self._names[var]
        return f"v{var}"

    def by_name(self, names: Sequence[str]) -> Dict[str, FrozenSet[str]]:
        """Human-readable view: variable name -> set of pointee names."""
        return {
            names[var]: frozenset(names[loc] for loc in self.points_to(var))
            for var in range(self._num_vars)
        }

    def non_empty_count(self) -> int:
        """Number of variables with a non-empty points-to set."""
        return len(self._points_to)

    def total_size(self) -> int:
        """Sum of points-to set sizes — the solution's raw volume."""
        return sum(len(s) for s in self._points_to.values())

    def average_size(self) -> float:
        """Average points-to set size over pointers with non-empty sets."""
        if not self._points_to:
            return 0.0
        return self.total_size() / len(self._points_to)

    # ------------------------------------------------------------------
    # Comparison and transformation
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointsToSolution):
            return NotImplemented
        return self._num_vars == other._num_vars and self._points_to == other._points_to

    def __hash__(self) -> int:
        return hash((self._num_vars, frozenset(self._points_to.items())))

    def __repr__(self) -> str:
        return (
            f"PointsToSolution(vars={self._num_vars}, "
            f"pointers={self.non_empty_count()}, total={self.total_size()})"
        )

    def diff(self, other: "PointsToSolution") -> Dict[int, Dict[str, FrozenSet[int]]]:
        """Per-variable differences against another solution (for debugging).

        Returns ``{var: {"only_self": ..., "only_other": ...}}`` for each
        variable whose sets differ.
        """
        result: Dict[int, Dict[str, FrozenSet[int]]] = {}
        for var in range(max(self._num_vars, other._num_vars)):
            mine = self.points_to(var) if var < self._num_vars else frozenset()
            theirs = other.points_to(var) if var < other._num_vars else frozenset()
            if mine != theirs:
                result[var] = {"only_self": mine - theirs, "only_other": theirs - mine}
        return result

    def expand(
        self,
        var_to_rep: Sequence[int],
        loc_members: Optional[Mapping[int, Sequence[int]]] = None,
        original_ids: Optional[Sequence[int]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> "PointsToSolution":
        """Undo an offline substitution.

        ``var_to_rep[v]`` names the representative that carried ``v``'s
        solution during solving; each variable receives its
        representative's set.

        ``loc_members`` additionally undoes *location* merging: it maps
        each merged location representative to the full class of original
        locations it stood for inside points-to sets, so every occurrence
        of the representative expands back into its members.

        ``original_ids`` additionally undoes a renumbering: when this
        solution is over a compact id space, ``original_ids[c]`` is the
        original id of compact variable and location ``c``, while
        ``var_to_rep`` and ``loc_members`` speak original ids.  The result
        then has ``len(var_to_rep)`` variables, named by ``names``.

        Each distinct set object is translated once — compact locations to
        original ids, merged locations to their class — and every variable
        holding it shares the result.
        """
        if original_ids is None:
            if len(var_to_rep) != self._num_vars:
                raise ValueError("substitution map length != variable count")
            original_ids = range(self._num_vars)
        elif len(original_ids) != self._num_vars:
            raise ValueError("original id map length != variable count")
        num_vars = len(var_to_rep)
        # An order-preserving injection of n ids into n ids is the identity.
        renumbered = num_vars != self._num_vars
        translate = original_ids.__getitem__
        by_object: Dict[int, FrozenSet[int]] = {}
        rep_sets: Dict[int, FrozenSet[int]] = {}
        for var, compressed in self._points_to.items():
            full = by_object.get(id(compressed))
            if full is None:
                full = compressed
                if renumbered:
                    full = frozenset(map(translate, compressed))
                if loc_members and not full.isdisjoint(loc_members):
                    grown = set(full)
                    for loc in full:
                        members = loc_members.get(loc)
                        if members is not None:
                            grown.update(members)
                    full = frozenset(grown)
                by_object[id(compressed)] = full
            rep_sets[translate(var)] = full
        expanded: Dict[int, FrozenSet[int]] = {}
        for var, rep in enumerate(var_to_rep):
            locs = rep_sets.get(rep)
            if locs is not None:
                expanded[var] = locs
        return PointsToSolution(
            expanded,
            num_vars,
            names if renumbered else self._names,
            num_locs=num_vars if renumbered else self._num_locs,
        )

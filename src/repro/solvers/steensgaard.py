"""Steensgaard's unification-based points-to analysis (POPL 1996).

The paper's Related Work positions inclusion-based analysis against
Steensgaard's near-linear-time alternative: "While Steensgaard's analysis
has much greater imprecision than inclusion-based analysis ...
inclusion-based pointer analysis is a better choice ... if it can be made
to run in reasonable time" — which is the paper's whole project.  This
module implements that foil so the precision gap can be *measured*
(see ``benchmarks/bench_17_precision_vs_steensgaard.py``).

The algorithm processes each constraint once, unifying equivalence
classes (bidirectional flow) instead of adding inclusion edges:

- ``a = &b``   unify ``pointee(a)`` with ``class(b)``
- ``a = b``    unify ``pointee(a)`` with ``pointee(b)``
- ``a = *b``   unify ``pointee(a)`` with ``pointee(pointee(b))``
- ``*a = b``   unify ``pointee(pointee(a))`` with ``pointee(b)``

Indirect calls (offset constraints) unify argument/return pointees with
the corresponding slots of every function that reaches the pointer's
pointee class; pending call uses are replayed when classes merge, so the
result is a fixpoint despite single-pass processing.

The exported :class:`PointsToSolution` names only *locations* (address-
taken variables), so it is directly comparable to — and provably a
superset of — the inclusion-based solution, which the tests assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.datastructs.union_find import UnionFind
from repro.solvers.base import BaseSolver


class SteensgaardSolver(BaseSolver):
    """Near-linear unification-based analysis (not inclusion-based).

    Registered separately from the Andersen-style solvers: its solution
    is deliberately *less precise*, so it must never appear in the
    equivalence tests — only in precision comparisons.
    """

    name = "steensgaard"
    reads_pts = False

    def __init__(self, system: ConstraintSystem, **options) -> None:
        # ``pts`` is accepted for interface parity and unused, and HCD is
        # meaningless under unification.  OVS/HU merges are proven against
        # the *inclusion-based* least model; unification-based analysis
        # computes a different relation, so the substitution contract does
        # not apply — run unoptimized.  Context expansion is plain
        # cloning, which unification handles.
        super().__init__(system, **{**options, "hcd": False, "opt": "none"})
        system = self.system  # the (possibly) context-expanded system
        n = system.num_vars
        self.uf = UnionFind(n)
        #: pointee[c] — the class this class's members point to (or None).
        self._pointee: List[Optional[int]] = [None] * n
        #: functions known to live in a class (for indirect calls).
        self._funcs: List[Set[int]] = [set() for _ in range(n)]
        #: pending indirect-call uses per class: (kind, other, offset).
        self._call_uses: List[List[Tuple[str, int, int]]] = [[] for _ in range(n)]
        for node in system.functions:
            self._funcs[node].add(node)
        # Field-sensitive object blocks are addressed via offsets exactly
        # like function blocks.
        for node in system.object_blocks:
            self._funcs[node].add(node)

    # ------------------------------------------------------------------
    # Class plumbing
    # ------------------------------------------------------------------

    def _pointee_of(self, node: int) -> int:
        """Pointee class of ``node``'s class, created on demand."""
        cls = self.uf.find(node)
        pointee = self._pointee[cls]
        if pointee is None:
            fresh = self.uf.make_set()
            self._pointee.append(None)
            self._funcs.append(set())
            self._call_uses.append([])
            self._pointee[cls] = fresh
            return fresh
        return self.uf.find(pointee)

    def _unify(self, a: int, b: int) -> int:
        """Recursively unify two classes (Steensgaard's ``join``)."""
        a = self.uf.find(a)
        b = self.uf.find(b)
        if a == b:
            return a
        pointee_a = self._pointee[a]
        pointee_b = self._pointee[b]
        winner = self.uf.union(a, b)
        loser = b if winner == a else a
        self.stats.nodes_collapsed += 1
        # Cross products that have not met yet: the winner's pending call
        # uses against the loser's functions, and vice versa.
        replay = [
            (use, fn)
            for use in self._call_uses[winner]
            for fn in self._funcs[loser] - self._funcs[winner]
        ] + [
            (use, fn)
            for use in self._call_uses[loser]
            for fn in self._funcs[winner] - self._funcs[loser]
        ]
        # Merge class payloads onto the winner.
        if self._pointee[winner] is None:
            self._pointee[winner] = self._pointee[loser]
        self._funcs[winner] |= self._funcs[loser]
        self._call_uses[winner] = self._call_uses[winner] + self._call_uses[loser]
        self._funcs[loser] = set()
        self._call_uses[loser] = []
        # Unify the pointees (the recursive join).
        if pointee_a is not None and pointee_b is not None:
            self._unify(pointee_a, pointee_b)
        for (kind, other, offset), fn in replay:
            self._apply_call(kind, other, offset, fn)
        return self.uf.find(winner)

    # ------------------------------------------------------------------
    # Constraint processing
    # ------------------------------------------------------------------

    def _run(self) -> PointsToSolution:
        system = self.system
        for constraint in system.constraints:
            kind = constraint.kind
            if kind is ConstraintKind.BASE:
                self._unify(self._pointee_of(constraint.dst), constraint.src)
            elif kind is ConstraintKind.COPY:
                self._unify(
                    self._pointee_of(constraint.dst),
                    self._pointee_of(constraint.src),
                )
            elif kind is ConstraintKind.LOAD:
                if constraint.offset:
                    self._register_call_use(
                        "load", constraint.dst, constraint.src, constraint.offset
                    )
                else:
                    target = self._pointee_of(constraint.src)
                    self._unify(
                        self._pointee_of(constraint.dst), self._pointee_of(target)
                    )
            elif kind is ConstraintKind.STORE:
                if constraint.offset:
                    self._register_call_use(
                        "store", constraint.src, constraint.dst, constraint.offset
                    )
                else:
                    target = self._pointee_of(constraint.dst)
                    self._unify(
                        self._pointee_of(target), self._pointee_of(constraint.src)
                    )
            else:  # OFFS: dst = src + k
                self._register_call_use(
                    "offs", constraint.dst, constraint.src, constraint.offset
                )
        return self._export_solution()

    def _register_call_use(self, kind: str, other: int, ptr: int, offset: int) -> None:
        """Record an indirect-call slot access through ``ptr``."""
        pointee = self._pointee_of(ptr)
        self._call_uses[pointee].append((kind, other, offset))
        for fn in list(self._funcs[pointee]):
            self._apply_call(kind, other, offset, fn)

    def _apply_call(self, kind: str, other: int, offset: int, fn: int) -> None:
        if self.system.max_offset[fn] < offset:
            return
        slot = fn + offset
        if kind == "load":
            # other = *(ptr + offset): other's pointee joins the slot's.
            self._unify(self._pointee_of(other), self._pointee_of(slot))
        elif kind == "store":
            # *(ptr + offset) = other.
            self._unify(self._pointee_of(slot), self._pointee_of(other))
        else:  # offs: other = ptr + offset  =>  other points to the slot
            self._unify(self._pointee_of(other), slot)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _locations(self) -> List[int]:
        locations = set(self.system.address_taken())
        locations.update(self.system.functions)
        # Block slots can enter points-to sets through offset copies.
        locations.update(
            var
            for var, block in enumerate(self.system.block_of)
            if block is not None and block != var
        )
        return sorted(locations)

    def _export_solution(self) -> PointsToSolution:
        by_class: Dict[int, List[int]] = {}
        for loc in self._locations():
            by_class.setdefault(self.uf.find(loc), []).append(loc)
        mapping = {}
        for var in range(self.system.num_vars):
            cls = self.uf.find(var)
            pointee = self._pointee[cls]
            if pointee is None:
                continue
            locs = by_class.get(self.uf.find(pointee))
            if locs:
                mapping[var] = locs
        return PointsToSolution(
            mapping, self.system.num_vars, self.system.names,
            num_locs=self.system.num_vars,
        )

    def _account_memory(self) -> None:
        # One pointee slot and one parent entry per class.
        self.stats.pts_memory_bytes = 16 * len(self.uf)
        self.stats.graph_memory_bytes = 0

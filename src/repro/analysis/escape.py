"""Escape analysis for front-end programs.

Determines whether a function-local object may be referenced after (or
outside of) its owning function's activation — the question behind
stack-allocation of heap objects, scalar replacement, and thread-locality
arguments.  Flow-insensitively: a local *escapes* iff some pointer not
owned by its function may point to it.

Works on :class:`~repro.frontend.generator.GeneratedProgram`, whose
qualified names (``"fn::var"``) carry ownership, read through
:attr:`~repro.constraints.model.ConstraintSystem.owners`.  The holders'
points-to sets are unioned once per owner, so each owner's reach is
classified once rather than fact by fact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.analysis.solution import PointsToSolution
from repro.frontend.generator import GeneratedProgram


class EscapeAnalysis:
    """Per-local escape queries over a solved front-end program."""

    def __init__(self, program: GeneratedProgram, solution: PointsToSolution) -> None:
        self.program = program
        self.solution = solution
        self.system = program.system
        owners = self.system.owners
        # owner -> its holders' distinct points-to sets, keyed by identity
        sets: Dict[Optional[str], Dict[int, FrozenSet[int]]] = {}
        for holder, pts in solution.items():
            sets.setdefault(owners[holder], {})[id(pts)] = pts
        #: owner (``None`` for unowned holders) -> every location its
        #: holders may point to.
        self._reach: Dict[Optional[str], FrozenSet[int]] = {
            owner: frozenset().union(*distinct.values())
            for owner, distinct in sets.items()
        }
        #: Locations pointed to by anything outside their owner.
        self._escaped = frozenset(
            loc
            for owner, reach in self._reach.items()
            for loc in reach
            if owners[loc] is not None and owners[loc] != owner
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def escapes(self, qualified_name: str) -> bool:
        """Whether the named local object may outlive its function."""
        return self.program.node_of(qualified_name) in self._escaped

    def escaped_nodes(self) -> FrozenSet[int]:
        """Node ids of every escaping function-local object — the
        thread-shared candidates the race detector starts from."""
        return self._escaped

    def escaped_locals(self) -> List[str]:
        """Qualified names of all escaping function-local objects."""
        return sorted(self.system.name_of(node) for node in self._escaped)

    def stack_allocatable_heap(self) -> List[str]:
        """Heap allocation sites whose object never escapes its allocator.

        Heap nodes are named ``heap@<line>#<k>`` with no owner, so a heap
        object "escapes" trivially; instead we check reachability: the
        site is stack-allocatable iff only pointers of a single function
        may reach it.
        """
        result = []
        for heap_node in self.program.heap_nodes:
            owners = {o for o, reach in self._reach.items() if heap_node in reach}
            if len(owners) == 1 and None not in owners:
                result.append(self.system.name_of(heap_node))
        return sorted(result)

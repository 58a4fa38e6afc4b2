"""Escape analysis for front-end programs.

Determines whether a function-local object may be referenced after (or
outside of) its owning function's activation — the question behind
stack-allocation of heap objects, scalar replacement, and thread-locality
arguments.  Flow-insensitively: a local *escapes* iff some pointer not
owned by its function may point to it.

Works on :class:`~repro.frontend.generator.GeneratedProgram`, whose
qualified names (``"fn::var"``) carry ownership.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import owner_of
from repro.frontend.generator import GeneratedProgram


class EscapeAnalysis:
    """Per-local escape queries over a solved front-end program."""

    def __init__(self, program: GeneratedProgram, solution: PointsToSolution) -> None:
        self.program = program
        self.solution = solution
        self.system = program.system
        self._escaped = self._compute()

    def _compute(self) -> Set[int]:
        """Locations pointed to by anything outside their owner."""
        system = self.system
        escaped: Set[int] = set()
        owner_cache: Dict[int, Optional[str]] = {}

        def owner(node: int) -> Optional[str]:
            cached = owner_cache.get(node)
            if node not in owner_cache:
                cached = owner_of(system.name_of(node))
                owner_cache[node] = cached
            return cached

        for holder in range(system.num_vars):
            holder_owner = owner(holder)
            for loc in self.solution.points_to(holder):
                loc_owner = owner(loc)
                if loc_owner is not None and loc_owner != holder_owner:
                    escaped.add(loc)
        return escaped

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def escapes(self, qualified_name: str) -> bool:
        """Whether the named local object may outlive its function."""
        return self.program.node_of(qualified_name) in self._escaped

    def escaped_nodes(self) -> FrozenSet[int]:
        """Node ids of every escaping function-local object — the
        thread-shared candidates the race detector starts from."""
        return frozenset(self._escaped)

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
        system = self.system
        holders: Dict[int, Set[Optional[str]]] = {}
        for holder in range(system.num_vars):
            holder_owner = owner_of(system.name_of(holder))
            for loc in self.solution.points_to(holder):
                holders.setdefault(loc, set()).add(holder_owner)
        result = []
        for heap_node in self.program.heap_nodes:
            owners = holders.get(heap_node, set())
            named = {o for o in owners if o is not None}
            if len(named) == 1 and None not in owners:
                result.append(system.name_of(heap_node))
        return sorted(result)

"""Shared query surface the checkers run against.

A :class:`CheckContext` bundles the constraint system, the solved
points-to relation and (when the input came through the C front-end) the
:class:`~repro.frontend.generator.GeneratedProgram` naming metadata.  It
answers what every checker asks — deref sites with their provenance,
location classes, address-taken lines — so individual checkers stay
small and none re-walks the constraint list.  Location classes come from
the front end's naming convention, read through the owner and block
tables of :class:`~repro.constraints.model.ConstraintSystem`.

The ``program`` field is optional on purpose: ``repro check`` also
accepts ``.cons`` files (including minimized repros out of ``repro
reduce``), where the special locations are recovered from the names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import (
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    Provenance,
    is_heap_name,
    is_synthetic_name,
)
from repro.frontend.generator import GeneratedProgram


def site_line_of(name: str) -> int:
    """Source line encoded in a ``heap@<line>#<k>``/``str@<line>#<k>`` name."""
    if "@" not in name:
        return 0
    tail = name.rsplit("@", 1)[1]
    digits = tail.split("#", 1)[0]
    return int(digits) if digits.isdigit() else 0


@dataclass(frozen=True)
class DerefSite:
    """One pointer dereference: a complex constraint plus its origin."""

    constraint: Constraint
    #: The dereferenced pointer variable (LOAD src / STORE dst).
    pointer: int
    offset: int

    @property
    def prov(self) -> Optional[Provenance]:
        return self.constraint.prov

    @property
    def line(self) -> int:
        return self.constraint.prov.line if self.constraint.prov else 0


class CheckContext:
    """Everything a checker may query, pre-indexed once per run."""

    def __init__(
        self,
        system: ConstraintSystem,
        solution: PointsToSolution,
        program: Optional[GeneratedProgram] = None,
        path: str = "<input>",
        expansion=None,
        expanded_solution: Optional[PointsToSolution] = None,
    ) -> None:
        self.system = system
        self.solution = solution
        self.program = program
        self.path = path
        self.functions = system.functions
        #: k-CFA context expansion the solver ran under, when any
        #: (a :class:`~repro.analysis.context.ContextExpansion`), plus
        #: the pre-projection clone-space solution that goes with it.
        self.expansion = expansion
        self.expanded_solution = expanded_solution

        if program is not None:
            self.null_node: Optional[int] = program.null_node
            self.heap_nodes: List[int] = list(program.heap_nodes)
        else:
            # .cons inputs: recover the special locations from the
            # front-end naming conventions, if present.
            self.null_node = None
            self.heap_nodes = []
            for node, name in enumerate(system.names):
                if name == "<null>":
                    self.null_node = node
                elif is_heap_name(name):
                    self.heap_nodes.append(node)

        self._owners = system.owners
        self._block_of = system.block_of
        self._base_lines: Optional[Dict[int, Provenance]] = None
        self._local_nodes: Optional[frozenset] = None

    def dataflow_view(
        self,
    ) -> Tuple[ConstraintSystem, PointsToSolution, Mapping[int, Tuple[int, ...]]]:
        """The most precise (system, solution, clone instances) triple
        available for value-flow clients.

        Under k-CFA the *projected* solution separates pointer targets,
        but value flow routed through base-space memory edges would
        re-merge at shared stores; propagating over the *expanded*
        system with the clone-space solution keeps contexts apart.  The
        instance map sends each base variable to its clones so seeds
        and sinks cover every context of a variable.
        """
        if (
            self.expansion is not None
            and self.expanded_solution is not None
            and not self.expansion.is_identity()
        ):
            return (
                self.expansion.expanded,
                self.expanded_solution,
                self.expansion.clone_groups,
            )
        return self.system, self.solution, {}

    # ------------------------------------------------------------------
    # Location classification (front-end naming conventions)
    # ------------------------------------------------------------------

    def name_of(self, node: int) -> str:
        return self.system.name_of(node)

    def owner(self, node: int) -> Optional[str]:
        return self._owners[node]

    def is_function(self, node: int) -> bool:
        return node in self.functions

    def is_heap(self, node: int) -> bool:
        return is_heap_name(self.system.name_of(node))

    def is_local(self, node: int) -> bool:
        """A function-owned stack location (local, param or temporary)."""
        return self._owners[node] is not None and node not in self.functions

    def is_global_var(self, node: int) -> bool:
        """A named file-scope variable — lives for the whole execution.

        Function-block members (the function variable, its return slot,
        its parameters) are never part of the global namespace."""
        if self._block_of[node] in self.functions:
            return False
        if self._owners[node] is not None:
            return False
        name = self.system.name_of(node)
        return not (is_heap_name(name) or is_synthetic_name(name))

    def local_nodes(self) -> frozenset:
        """All function-owned stack locations, computed once.

        The dangling checker intersects every persistent holder's
        points-to set against this; membership beats re-deriving
        ownership per pointee on large solutions.
        """
        if self._local_nodes is None:
            self._local_nodes = frozenset(
                node
                for node in range(self.system.num_vars)
                if self.is_local(node)
            )
        return self._local_nodes

    # ------------------------------------------------------------------
    # Constraint-derived indexes
    # ------------------------------------------------------------------

    def deref_sites(self) -> Iterator[DerefSite]:
        """All pointer dereferences, call-site desugarings included."""
        for constraint in self.system.constraints:
            if constraint.kind is ConstraintKind.LOAD:
                yield DerefSite(constraint, constraint.src, constraint.offset)
            elif constraint.kind is ConstraintKind.STORE:
                yield DerefSite(constraint, constraint.dst, constraint.offset)

    def is_call_site(self, site: DerefSite) -> bool:
        """Whether an offset dereference is a desugared indirect call.

        Provenance makes this exact: ``IndirectCall`` constructs, or any
        positive call-site id — the builder only stamps site ids on the
        constraints a call desugars into.  For provenance-free inputs,
        fall back to "some pointee is a function" — the heuristic the
        call-graph client also implies.
        """
        if site.offset == 0:
            return False
        if site.prov is not None:
            return site.prov.is_call
        return any(loc in self.functions for loc in self.pts(site.pointer))

    def address_taken_prov(self, loc: int) -> Optional[Provenance]:
        """Provenance of the first ``x = &loc`` constraint (where the
        location's address entered the points-to world)."""
        if self._base_lines is None:
            index: Dict[int, Provenance] = {}
            for constraint in self.system.constraints:
                if (
                    constraint.kind is ConstraintKind.BASE
                    and constraint.prov is not None
                    and constraint.src not in index
                ):
                    index[constraint.src] = constraint.prov
            self._base_lines = index
        return self._base_lines.get(loc)

    def location_line(self, loc: int) -> int:
        """Best source line for an abstract location: its allocation-site
        name if it encodes one, else where its address was first taken."""
        encoded = site_line_of(self.system.name_of(loc))
        if encoded:
            return encoded
        prov = self.address_taken_prov(loc)
        return prov.line if prov is not None else 0

    # ------------------------------------------------------------------
    # Points-to shorthands
    # ------------------------------------------------------------------

    def pts(self, var: int) -> FrozenSet[int]:
        return self.solution.points_to(var)

    def describe(self, node: int) -> str:
        """A message-friendly name: strips generator temporary noise."""
        name = self.system.name_of(node)
        if "$" in name:  # "fn$tag<N>@<line>" — cite the expression spot
            fn, tail = name.split("$", 1)
            return f"expression in {fn}() (temporary {tail})"
        return f"'{name}'"


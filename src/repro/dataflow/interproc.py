"""The function-level call graph, lifted from call-site constraints.

:mod:`repro.analysis.callgraph` resolves *call sites* (dereferenced
function pointers) to callees; interprocedural propagation additionally
needs the *caller* of every site.  The front end makes that recoverable
without new metadata:

- every direct call desugars into parameter/return ``COPY`` constraints
  stamped with a fresh call-site id, whose temporaries
  (``caller$ret_f<N>@<line>``) name the calling function;
- every indirect call desugars into offset ``STORE``/``LOAD``
  constraints whose argument/return temporaries do the same, and whose
  callees come from the points-to solution (offset-validated, exactly
  as :func:`~repro.analysis.callgraph.build_call_graph` resolves them);
- any remaining ambiguity falls back to a line-to-function index built
  from every function-owned name in the system.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import build_call_graph
from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintKind, ConstraintSystem


class FunctionGraph:
    """Caller → callee edges between function nodes, with call lines."""

    def __init__(
        self, system: ConstraintSystem, solution: PointsToSolution
    ) -> None:
        self.system = system
        self.functions = system.functions
        self._owners = system.owners
        self._fn_by_name: Dict[str, int] = {
            info.name: node for node, info in self.functions.items()
        }
        self._return_owner: Dict[int, int] = {
            info.return_node: node for node, info in self.functions.items()
        }
        self._param_owner: Dict[int, int] = {}
        for node, info in self.functions.items():
            for param in info.param_nodes:
                self._param_owner[param] = node
        self._line_owner: Dict[int, int] = {}
        #: (definition line, function node), line-sorted — the front
        #: end's functions are top-level and contiguous, so the last
        #: definition at or before a line encloses it.
        self._fn_starts: List[Tuple[int, int]] = []
        self._build_line_index()
        #: (caller function node, callee function node, call line)
        self.edges: Set[Tuple[int, int, int]] = set()
        self._build_edges(solution)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------

    def function_named(self, name: str) -> Optional[int]:
        return self._fn_by_name.get(name)

    @property
    def main_node(self) -> Optional[int]:
        return self._fn_by_name.get("main")

    def _owner_function(self, node: int) -> Optional[int]:
        owner = self._owners[node]
        if owner is None:
            return None
        return self._fn_by_name.get(owner)

    def _build_line_index(self) -> None:
        starts: Dict[int, int] = {}
        for constraint in self.system.constraints:
            prov = constraint.prov
            if prov is None or prov.line <= 0:
                continue
            if (
                prov.construct == "FunctionDef"
                and constraint.src in self.functions
            ):
                starts.setdefault(constraint.src, prov.line)
            if prov.line not in self._line_owner:
                for node in (constraint.dst, constraint.src):
                    fn = self._owner_function(node)
                    if fn is not None:
                        self._line_owner[prov.line] = fn
                        break
        self._fn_starts = sorted(
            (line, fn) for fn, line in starts.items()
        )

    def _enclosing_function(self, line: int) -> Optional[int]:
        """The function whose definition most recently opened at ``line``."""
        found: Optional[int] = None
        for start, fn in self._fn_starts:
            if start > line:
                break
            found = fn
        return found

    def attribute(self, nodes: Iterable[int], line: int) -> Optional[int]:
        """The function executing an operation over ``nodes`` at ``line``:
        the first function-owned operand, else whichever function owns
        other constraints on the same source line, else the function
        whose definition encloses the line (globals-only statements
        like ``g1 = g2;`` have no owned operand at all)."""
        for node in nodes:
            fn = self._owner_function(node)
            if fn is not None:
                return fn
        fn = self._line_owner.get(line)
        if fn is not None:
            return fn
        return self._enclosing_function(line)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def _build_edges(self, solution: PointsToSolution) -> None:
        site_graph = build_call_graph(self.system, solution)
        for constraint in self.system.constraints:
            prov = constraint.prov
            if prov is None:
                continue
            kind = constraint.kind
            if kind is ConstraintKind.COPY and prov.site > 0:
                # Direct-call desugarings: a return copy names the
                # callee by its return node, a parameter copy by its
                # parameter node.
                callee = self._return_owner.get(constraint.src)
                if callee is not None:
                    caller = self.attribute([constraint.dst], prov.line)
                    if caller is not None:
                        self.edges.add((caller, callee, prov.line))
                    continue
                callee = self._param_owner.get(constraint.dst)
                if callee is not None:
                    caller = self.attribute([constraint.src], prov.line)
                    if caller is not None:
                        self.edges.add((caller, callee, prov.line))
            elif kind is ConstraintKind.LOAD and constraint.offset:
                if prov.is_call:
                    caller = self.attribute(
                        [constraint.dst, constraint.src], prov.line
                    )
                    if caller is None:
                        continue
                    for callee in site_graph.callees(constraint.src):
                        self.edges.add((caller, callee, prov.line))
            elif kind is ConstraintKind.STORE and constraint.offset:
                if prov.is_call:
                    caller = self.attribute(
                        [constraint.src, constraint.dst], prov.line
                    )
                    if caller is None:
                        continue
                    for callee in site_graph.callees(constraint.dst):
                        self.edges.add((caller, callee, prov.line))

    def callees_of(self, function: int) -> List[Tuple[int, int]]:
        """``(callee, line)`` pairs for one caller, sorted."""
        return sorted(
            (callee, line)
            for caller, callee, line in self.edges
            if caller == function
        )

    def reachable(
        self,
        roots: Iterable[int],
        skip_edges: AbstractSet[Tuple[int, int]] = frozenset(),
    ) -> Set[int]:
        """Function nodes transitively callable from ``roots``.

        ``skip_edges`` — ``(callee, line)`` pairs — excludes specific
        call edges; the race detector uses it to keep a spawn's
        synthetic ``call_indirect`` (which hands the start routine to
        *another* thread) out of the spawning thread's own code.
        """
        seen: Set[int] = set()
        stack: List[int] = []
        for root in roots:
            if root not in seen:
                seen.add(root)
                stack.append(root)
        while stack:
            fn = stack.pop()
            for callee, line in self.callees_of(fn):
                if (callee, line) in skip_edges:
                    continue
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

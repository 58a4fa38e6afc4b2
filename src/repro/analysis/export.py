"""Exports: JSON solutions and Graphviz constraint-graph dumps.

Interchange glue for downstream tools: a solved system can be shipped as
JSON (stable, name-keyed) and the constraint graph inspected visually —
the first thing one reaches for when debugging a pointer-analysis client.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import Constraint, ConstraintKind, ConstraintSystem


def pointee_names(names: Sequence[str], pointees: Iterable[int]) -> List[str]:
    """The names of ``pointees``, sorted: how every output lists a set."""
    return sorted([names[loc] for loc in pointees])


class PointeeRenderer:
    """Renders each distinct points-to set once.

    ``render`` turns a set's sorted pointee names into text.  A solved
    system holds few distinct sets: cycle collapsing and offline
    substitution hand every variable of a class one shared frozenset, so
    an output names and sorts each set here once instead of once per
    variable holding it.
    """

    def __init__(
        self,
        names: Sequence[str],
        render: Callable[[List[str]], str] = ", ".join,
    ) -> None:
        self._names = names
        self._render = render
        self._rendered: Dict[FrozenSet[int], str] = {}

    def __call__(self, pointees: FrozenSet[int]) -> str:
        text = self._rendered.get(pointees)
        if text is None:
            text = self._render(pointee_names(self._names, pointees))
            self._rendered[pointees] = text
        return text


def solution_to_json(
    system: ConstraintSystem,
    solution: PointsToSolution,
    include_empty: bool = False,
    indent: Optional[int] = 2,
) -> str:
    """Serialize a solution as name-keyed JSON.

    Layout::

        {"num_vars": 7, "points_to": {"p": ["x", "y"], ...}}

    The text is exactly ``json.dumps(layout, indent=indent,
    sort_keys=True)``, assembled here instead: a :class:`PointeeRenderer`
    names, sorts and escapes each distinct points-to set once, and the
    document is joined once, since it is as large as the whole solution.
    """
    if indent is None:
        newline = ("", "", "", "")
        comma = ", "
    else:
        # newline[level] starts a line at nesting depth ``level``.
        newline = tuple("\n" + " " * (indent * level) for level in range(4))
        comma = ","
    encode = encode_basestring_ascii
    item = comma + newline[3]

    def render_list(sorted_names: List[str]) -> str:
        return "[" + newline[3] + item.join(map(encode, sorted_names)) + newline[2] + "]"

    names = system.names
    render = PointeeRenderer(names, render_list)
    entries: Dict[str, str] = {}
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if pointees:
            entries[names[var]] = render(pointees)
        elif include_empty:
            entries[names[var]] = "[]"

    parts = [
        "{", newline[1], f'"num_vars": {system.num_vars}', comma,
        newline[1], '"points_to": {',
    ]
    separator = newline[2]  # the first member follows the brace
    for name in sorted(entries):
        parts += (separator, encode(name), ": ", entries[name])
        separator = comma + newline[2]
    if entries:
        parts.append(newline[1])
    parts += ("}", newline[0], "}")
    return "".join(parts)


def solution_from_json(text: str, system: ConstraintSystem) -> PointsToSolution:
    """Inverse of :func:`solution_to_json` against the same system.

    A document written for another system raises ``ValueError`` naming
    the field or variable that does not match.
    """
    data = json.loads(text)
    num_vars = data.get("num_vars")
    if num_vars != system.num_vars:
        raise ValueError(
            f"num_vars is {num_vars!r}, but the system has "
            f"{system.num_vars} variables"
        )
    index = {name: node for node, name in enumerate(system.names)}

    def node_of(name: str) -> int:
        node = index.get(name)
        if node is None:
            raise ValueError(f"variable {name!r} is not in the system")
        return node

    mapping = {
        node_of(var): [node_of(loc) for loc in locs]
        for var, locs in data["points_to"].items()
    }
    return PointsToSolution(
        mapping, system.num_vars, system.names, num_locs=system.num_vars
    )


def indented_json(value: Any) -> str:
    """Exactly ``json.dumps(value, indent=2)``, for reports.

    With ``indent`` set, ``json.dumps`` runs CPython's pure-Python
    encoder, since the C encoder serves compact output only.  Here each
    string goes through the C escaper and the document is joined once,
    about three times faster on a ``check`` report.  ``value`` may hold
    dicts with string keys, lists, strings, ints, bools and ``None``,
    which is all a report holds; any other value raises ``TypeError``.
    """
    parts: List[str] = []
    append = parts.append
    encode = encode_basestring_ascii

    def emit(value: Any, newline: str) -> None:
        if isinstance(value, str):
            append(encode(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for key, item in value.items():
                append(separator)
                append(encode(key))
                append(": ")
                emit(item, inner)
                separator = "," + inner
            append(newline + "}")
        elif isinstance(value, list):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            separator = "[" + inner
            for item in value:
                append(separator)
                emit(item, inner)
                separator = "," + inner
            append(newline + "]")
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        else:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )

    emit(value, "\n")
    return "".join(parts)


def _dot_edge(constraint: Constraint) -> Tuple[int, int, str]:
    """The ``(tail, head, attributes)`` of one constraint's dot edge."""
    kind = constraint.kind
    suffix = f"+{constraint.offset}" if constraint.offset else ""
    if kind is ConstraintKind.BASE:
        return constraint.src, constraint.dst, ' [style=bold, label="&", dir=back]'
    if kind is ConstraintKind.COPY:
        return constraint.src, constraint.dst, ""
    if kind is ConstraintKind.LOAD:
        return constraint.src, constraint.dst, f' [style=dashed, label="load{suffix}"]'
    if kind is ConstraintKind.STORE:
        return (
            constraint.dst,
            constraint.src,
            f' [style=dotted, label="store{suffix}", dir=back]',
        )
    # OFFS: dst = src + k flows from src to dst.
    return constraint.src, constraint.dst, f' [label="offs{suffix}"]'


def constraint_graph_dot(
    system: ConstraintSystem,
    solution: Optional[PointsToSolution] = None,
    max_nodes: int = 200,
) -> str:
    """Render the (initial) constraint graph as Graphviz ``dot`` text.

    Copy constraints are solid edges; complex constraints dash/dot toward
    the dereferenced variable, and offset copies carry an ``offs+k``
    label.  When a solution is supplied, node labels carry their
    points-to sets.  Output stops before the first edge that would name
    more than ``max_nodes`` nodes, to stay plottable.
    """
    lines = ["digraph constraints {", "  rankdir=LR;", "  node [shape=box];"]
    mentioned: Set[int] = set()

    for constraint in system.constraints:
        tail, head, attributes = _dot_edge(constraint)
        if len(mentioned) + len({tail, head} - mentioned) > max_nodes:
            lines.append(f'  "..." [label="(truncated at {max_nodes} nodes)"];')
            break
        mentioned.update((tail, head))
        lines.append(
            f'  "{system.name_of(tail)}" -> "{system.name_of(head)}"{attributes};'
        )

    if solution is not None:
        render = PointeeRenderer(system.names)
        for node in sorted(mentioned):
            pointees = solution.points_to(node)
            if pointees:
                label = system.name_of(node) + "\\n{" + render(pointees) + "}"
                lines.append(f'  "{system.name_of(node)}" [label="{label}"];')

    lines.append("}")
    return "\n".join(lines)

"""The ``.cons`` reader that ``repro.constraints.parser.read_constraints``
replaced, as a test oracle.

The line loop kept unchanged as the reference that
``tests/test_cons_reader.py`` compares the one-pass reader against: on
every input both give the same names, functions, blocks and constraints
(provenance included), or the same
:class:`~repro.constraints.parser.ConstraintParseError`.  It strips a
comment at the first ``#`` anywhere on a line, splits the rest, and
resolves every operand through ``resolve``.  Its directive table and
annotation splitter are its own copies.
"""

from __future__ import annotations

from typing import Dict, List, TextIO

from repro.constraints.model import (
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    FunctionInfo,
    ObjectBlock,
    Provenance,
)
from repro.constraints.parser import ConstraintParseError

_KIND_BY_NAME = {kind.value: kind for kind in ConstraintKind}


def _split_prov(tokens: List[str], line_no: int):
    """Split a directive's tokens from its trailing ``!`` provenance
    annotation.  Returns ``(tokens, Provenance or None)``."""
    if "!" not in tokens:
        return tokens, None
    bang = tokens.index("!")
    annotation = tokens[bang + 1 :]
    if len(annotation) not in (3, 4):
        raise ConstraintParseError(
            line_no,
            "provenance annotation takes '! <line> <construct> <0|1> [site]'",
        )
    try:
        src_line = int(annotation[0])
    except ValueError:
        raise ConstraintParseError(
            line_no, "provenance line must be an integer"
        ) from None
    if annotation[2] not in ("0", "1"):
        raise ConstraintParseError(
            line_no, "provenance synthesized flag must be 0 or 1"
        )
    site = 0
    if len(annotation) == 4:
        try:
            site = int(annotation[3])
        except ValueError:
            raise ConstraintParseError(
                line_no, "provenance call-site id must be an integer"
            ) from None
        if site < 0:
            raise ConstraintParseError(
                line_no, "provenance call-site id must be non-negative"
            )
    prov = Provenance(
        line=src_line,
        # "?" is the serialized form of an empty construct name.
        construct="" if annotation[1] == "?" else annotation[1],
        synthesized=annotation[2] == "1",
        site=site,
    )
    return tokens[:bang], prov


def read_constraints(stream: TextIO) -> ConstraintSystem:
    """Parse a constraint file from a text stream."""
    names: List[str] = []
    by_name: Dict[str, int] = {}
    functions: Dict[int, FunctionInfo] = {}
    blocks: Dict[int, ObjectBlock] = {}
    constraints: List[Constraint] = []

    def declare(name: str, line_no: int) -> int:
        if name in by_name:
            raise ConstraintParseError(line_no, f"duplicate variable {name!r}")
        node = len(names)
        names.append(name)
        by_name[name] = node
        return node

    def resolve(token: str, line_no: int) -> int:
        if token.startswith("%"):
            try:
                node = int(token[1:])
            except ValueError:
                raise ConstraintParseError(line_no, f"bad id reference {token!r}") from None
            if not 0 <= node < len(names):
                raise ConstraintParseError(line_no, f"id {token} out of range")
            return node
        node = by_name.get(token)
        if node is None:
            raise ConstraintParseError(line_no, f"unknown variable {token!r}")
        return node

    for line_no, raw_line in enumerate(stream, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        tokens, prov = _split_prov(tokens, line_no)
        if not tokens:
            raise ConstraintParseError(line_no, "annotation without a directive")
        directive = tokens[0]
        if directive == "var":
            if len(tokens) != 2:
                raise ConstraintParseError(line_no, "var takes exactly one name")
            declare(tokens[1], line_no)
        elif directive == "fun":
            if len(tokens) != 3:
                raise ConstraintParseError(line_no, "fun takes a name and a param count")
            try:
                param_count = int(tokens[2])
            except ValueError:
                raise ConstraintParseError(line_no, "param count must be an integer") from None
            if param_count < 0:
                raise ConstraintParseError(line_no, "param count must be non-negative")
            fn_name = tokens[1]
            node = declare(fn_name, line_no)
            declare(f"{fn_name}.ret", line_no)
            for i in range(param_count):
                declare(f"{fn_name}::p{i}", line_no)
            functions[node] = FunctionInfo(node=node, name=fn_name, param_count=param_count)
            constraints.append(Constraint(ConstraintKind.BASE, node, node, prov=prov))
        elif directive == "obj":
            if len(tokens) != 3:
                raise ConstraintParseError(line_no, "obj takes a name and a field count")
            try:
                field_count = int(tokens[2])
            except ValueError:
                raise ConstraintParseError(line_no, "field count must be an integer") from None
            if field_count < 0:
                raise ConstraintParseError(line_no, "field count must be non-negative")
            obj_name = tokens[1]
            node = declare(obj_name, line_no)
            for i in range(field_count):
                declare(f"{obj_name}.f{i}", line_no)
            blocks[node] = ObjectBlock(node=node, name=obj_name, size=field_count)
        elif directive in _KIND_BY_NAME:
            kind = _KIND_BY_NAME[directive]
            expects_offset = kind in (
                ConstraintKind.LOAD,
                ConstraintKind.STORE,
                ConstraintKind.OFFS,
            )
            if len(tokens) not in ((3, 4) if expects_offset else (3,)):
                raise ConstraintParseError(line_no, f"bad arity for {directive}")
            dst = resolve(tokens[1], line_no)
            src = resolve(tokens[2], line_no)
            offset = 0
            if len(tokens) == 4:
                try:
                    offset = int(tokens[3])
                except ValueError:
                    raise ConstraintParseError(line_no, "offset must be an integer") from None
            try:
                constraints.append(Constraint(kind, dst, src, offset, prov=prov))
            except ValueError as exc:
                raise ConstraintParseError(line_no, str(exc)) from None
        else:
            raise ConstraintParseError(line_no, f"unknown directive {directive!r}")

    return ConstraintSystem(names, constraints, functions, blocks)

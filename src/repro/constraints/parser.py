"""Text serialization of constraint systems.

The paper keeps constraint generation and constraint solving separate,
communicating through constraint files; this module defines the equivalent
on-disk format so generated workloads can be saved, inspected and replayed.

Format (one directive per line; a ``#`` that starts a token, at the
start of a line or after whitespace, starts a comment)::

    var <name>                 declare a plain variable
    fun <name> <nparams>       declare a function block (var, ret, params)
    obj <name> <nfields>       declare an object block (var, fields)
    base <a> <b>               a = &b
    copy <a> <b>               a = b
    load <a> <b> [k]           a = *(b + k)
    store <a> <b> [k]          *(a + k) = b
    offs <a> <b> <k>           a = b + k, k > 0  (each pointee v of b puts v+k in a)

Variables may be referenced by name (declared earlier) or by ``%<id>``.
Declaration order fixes the id assignment, so a round-trip through
``dumps_constraints`` / ``loads_constraints`` is exact.

Any constraint directive (and ``fun``, whose implicit self-base
constraint is re-created on parse) may carry a trailing *provenance
annotation* ``! <line> <construct> <0|1> [site]`` recording the source
line, originating AST construct, synthesized flag, and (optionally) the
call-site id of the constraint — see
:class:`~repro.constraints.model.Provenance`.  Files without
annotations parse exactly as before (``prov`` stays ``None``).

A file may additionally open with a *repro-config header* comment::

    # repro-config: check=certify algorithm=lcd+hcd pts=int opt=hu k-cs=1 sanitize=1

written by ``repro reduce`` so a minimized repro records the exact
configuration that failed.  Being a comment, the header is invisible to
:func:`read_constraints`; :func:`parse_repro_header` recovers it and the
CLI replays the recorded algorithm(s), ``--pts``, ``--opt``, ``--k-cs``
and ``--sanitize``.
"""

from __future__ import annotations

import io
from typing import Dict, List, Mapping, Set, TextIO, Tuple

from repro.constraints.model import (
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    FunctionInfo,
    ObjectBlock,
    Provenance,
)

#: Leading-comment marker for the replayable CLI configuration.
REPRO_HEADER_PREFIX = "# repro-config:"

_KIND_BY_NAME = {kind.value: kind for kind in ConstraintKind}
#: The kinds whose three-token form, ``<kind> <dst> <src>``, is valid.
_PLAIN_KINDS = {
    name: kind for name, kind in _KIND_BY_NAME.items() if kind is not ConstraintKind.OFFS
}


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


def _prov_tokens(prov: Provenance) -> List[str]:
    """The serialized annotation for ``prov`` (inverse of ``_split_prov``)."""
    tokens = [
        "!",
        str(prov.line),
        prov.construct or "?",
        "1" if prov.synthesized else "0",
    ]
    # The call-site id is a trailing optional token, so annotation-bearing
    # files written before call sites existed round-trip byte-identically.
    if prov.site:
        tokens.append(str(prov.site))
    return tokens


class ConstraintParseError(ValueError):
    """Raised on a malformed constraint file, with line information."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.message = message
        self.line_no = line_no


def read_constraints(stream: TextIO) -> ConstraintSystem:
    """Parse a constraint file from a text stream.

    One pass, one ``split`` per line.  Two common line shapes are parsed
    inline: ``var <name>``, and ``base``/``copy``/``load``/``store``
    with two operands and nothing else.  Each operand costs one lookup in
    ``refs``, which maps the declared names and in-range ``%<id>``s to
    ids.  Every other line, malformed ones included, goes through
    ``parse_line``, which checks in a fixed order: comment, annotation,
    directive, arity, ``dst``, ``src``, offset, then the row's value
    checks.
    """
    names: List[str] = []
    declared: Set[str] = set()
    # Declared names (except those starting with ``%``, which only ever
    # parse as id references) and ``%<id>`` for every declared id.
    refs: Dict[str, int] = {}
    functions: Dict[int, FunctionInfo] = {}
    blocks: Dict[int, ObjectBlock] = {}
    constraints: List[Constraint] = []

    def declare(name: str, line_no: int) -> int:
        if name in declared:
            raise ConstraintParseError(line_no, f"duplicate variable {name!r}")
        node = len(names)
        names.append(name)
        declared.add(name)
        refs[f"%{node}"] = node
        if name[0] != "%":
            refs[name] = node
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
        node = refs.get(token)
        if node is None:
            raise ConstraintParseError(line_no, f"unknown variable {token!r}")
        return node

    def parse_line(tokens: List[str], line_no: int) -> None:
        for i, token in enumerate(tokens):
            if token[0] == "#":
                del tokens[i:]
                break
        if not tokens:
            return
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

    for line_no, raw_line in enumerate(stream, start=1):
        tokens = raw_line.split()
        if len(tokens) == 3:
            # No name starts with ``#`` or is ``!``, so two hits mean the
            # line carries no comment or annotation.
            kind = _PLAIN_KINDS.get(tokens[0])
            if kind is not None:
                dst = refs.get(tokens[1])
                src = refs.get(tokens[2])
                if dst is not None and src is not None:
                    constraints.append(Constraint(kind, dst, src))
                    continue
        elif len(tokens) == 2:
            name = tokens[1]
            # ``#x`` is a comment and ``!`` an annotation: both are errors.
            if tokens[0] == "var" and name[0] != "#" and name != "!":
                declare(name, line_no)
                continue
        elif not tokens:
            continue
        parse_line(tokens, line_no)

    return ConstraintSystem(names, constraints, functions, blocks)


def loads_constraints(text: str) -> ConstraintSystem:
    """Parse a constraint file from a string."""
    return read_constraints(io.StringIO(text))


def write_constraints(system: ConstraintSystem, stream: TextIO) -> None:
    """Serialize ``system`` to a text stream (inverse of ``read_constraints``)."""
    functions = system.functions
    implicit_self_base = {
        (info.node, info.node) for info in functions.values()
    }

    # The first self-pointing BASE constraint of each function is elided in
    # favour of the `fun` directive; its provenance (if any) is carried as an
    # annotation on that directive so the round-trip stays exact.
    self_base_prov: Dict[int, Provenance] = {}
    seen_self_base = set()
    for constraint in system.constraints:
        key = (constraint.dst, constraint.src)
        if (
            constraint.kind is ConstraintKind.BASE
            and key in implicit_self_base
            and key not in seen_self_base
        ):
            seen_self_base.add(key)
            if constraint.prov is not None:
                self_base_prov[constraint.dst] = constraint.prov

    blocks = system.object_blocks
    node = 0
    while node < system.num_vars:
        info = functions.get(node)
        block = blocks.get(node)
        if info is not None:
            parts = ["fun", info.name, str(info.param_count)]
            prov = self_base_prov.get(node)
            if prov is not None:
                parts.extend(_prov_tokens(prov))
            stream.write(" ".join(parts) + "\n")
            node += info.block_size
        elif block is not None:
            stream.write(f"obj {block.name} {block.size}\n")
            node += block.block_size
        else:
            stream.write(f"var {system.name_of(node)}\n")
            node += 1

    emitted_self_base = set()
    for constraint in system.constraints:
        if (
            constraint.kind is ConstraintKind.BASE
            and (constraint.dst, constraint.src) in implicit_self_base
            and (constraint.dst, constraint.src) not in emitted_self_base
        ):
            # `fun` re-creates the function's self-pointing base constraint.
            emitted_self_base.add((constraint.dst, constraint.src))
            continue
        parts = [constraint.kind.value, f"%{constraint.dst}", f"%{constraint.src}"]
        if constraint.offset:
            parts.append(str(constraint.offset))
        if constraint.prov is not None:
            parts.extend(_prov_tokens(constraint.prov))
        stream.write(" ".join(parts) + "\n")


def dumps_constraints(system: ConstraintSystem) -> str:
    """Serialize ``system`` to a string."""
    buffer = io.StringIO()
    write_constraints(system, buffer)
    return buffer.getvalue()


def format_repro_header(config: Mapping[str, object]) -> str:
    """The repro-config comment line for ``config`` (ordered as given).

    Values are rendered with ``str``; keys and values must not contain
    whitespace or ``=`` (the CLI only records flag-like tokens).
    """
    parts = []
    for key, value in config.items():
        key_s, value_s = str(key), str(value)
        for piece in (key_s, value_s):
            if "=" in piece or any(ch.isspace() for ch in piece):
                raise ValueError(f"unencodable repro-config entry {key_s}={value_s!r}")
        parts.append(f"{key_s}={value_s}")
    return f"{REPRO_HEADER_PREFIX} " + " ".join(parts)


def parse_repro_header(text: str) -> Tuple[Dict[str, str], int]:
    """Recover the repro-config mapping from a constraint file's text.

    Only the leading comment block is searched — a ``# repro-config:``
    buried after the first directive is ignored, so constraint payloads
    can never smuggle a header in.  Returns the mapping and the header's
    1-based line number, or ``({}, 0)`` when absent.
    """
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(REPRO_HEADER_PREFIX):
            config: Dict[str, str] = {}
            for token in line[len(REPRO_HEADER_PREFIX):].split():
                key, sep, value = token.partition("=")
                if not sep or not key:
                    raise ConstraintParseError(
                        line_no, f"malformed repro-config entry {token!r}"
                    )
                config[key] = value
            return config, line_no
        if not line.startswith("#"):
            break
    return {}, 0

"""Constraint and constraint-system data model.

Variables are dense integer ids (``0 .. num_vars - 1``); names are kept in a
side table for reporting.  The four constraint kinds and their semantics,
writing ``pts(v)`` for the points-to set of ``v`` and ``loc(v)`` for the
abstract memory location named by ``v``:

========  ==============  =======================================================
kind      program code    meaning
========  ==============  =======================================================
BASE      ``a = &b``      ``loc(b) in pts(a)``
COPY      ``a = b``       ``pts(a) >= pts(b)``
LOAD      ``a = *(b+k)``  ``for v in pts(b): pts(a) >= pts(v+k)``
STORE     ``*(a+k) = b``  ``for v in pts(a): pts(v+k) >= pts(b)``
========  ==============  =======================================================

Offsets (``k``) implement the paper's indirect-call scheme: "function
parameters are numbered contiguously starting immediately after their
corresponding function variable, and when resolving indirect calls they are
accessed as offsets to that function variable".  A function ``f`` with ``n``
parameters occupies ``n + 2`` consecutive ids::

    f        the function variable itself (what a function pointer points to)
    f + 1    the return-value node
    f + 2+i  the node of parameter i

An offset dereference ``v + k`` is only meaningful when ``v`` is a function
node whose layout extends at least ``k`` slots; other targets are skipped,
recorded in :attr:`ConstraintSystem.max_offset`.

The front end's naming rules live here too (:func:`owner_of`,
:func:`is_heap_name`, :func:`is_synthetic_name`), with the per-variable
tables :attr:`ConstraintSystem.owners` and :attr:`ConstraintSystem.block_of`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

#: Offset of the return-value node relative to its function variable.
RETURN_OFFSET = 1
#: Offset of the first parameter node relative to its function variable.
PARAM_OFFSET = 2

_T = TypeVar("_T")


@dataclass(frozen=True)
class Provenance:
    """Where a constraint came from, for diagnostics.

    ``line`` is the 1-based source line of the originating construct (0
    when unknown), ``construct`` names the AST form that produced the
    constraint (``"Declaration"``, ``"Call"``, ``"Deref"``, ...), and
    ``synthesized`` marks constraints the front-end invented rather than
    lowered from a source statement (function self-bases, stub
    summaries).  ``site`` is the call-site id (0 = not a call):
    every direct or indirect call expression gets a fresh positive id,
    stamped on all parameter/return copies it desugars into, so the
    k-CFA context manager (:mod:`repro.contexts`) can group the
    constraints of one call and bind them to one callee context.
    Provenance is carried by :class:`Constraint` but never participates
    in constraint equality — two systems that differ only in provenance
    solve identically, and the context-insensitive solvers ignore it.
    """

    line: int = 0
    construct: str = ""
    synthesized: bool = False
    site: int = 0

    @property
    def is_call(self) -> bool:
        """Whether the row belongs to a call's desugaring: an indirect
        call's offset store or load, or any row stamped with a call-site
        id (direct-call copies, and the calls stubs make through a
        function pointer)."""
        return self.construct == "IndirectCall" or self.site > 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = f"{self.construct or '?'}@{self.line}"
        if self.site:
            tag = f"{tag}#{self.site}"
        return f"{tag}!" if self.synthesized else tag


class ConstraintKind(enum.Enum):
    """The constraint taxonomy of paper Table 1 (plus OFFS).

    OFFS is the offset-copy form of Pearce et al.'s *field-sensitive*
    model (``a = &b->f`` desugars to ``a = b + k``): it is what a truly
    field-sensitive front-end needs beyond Table 1, and degenerates to
    COPY at offset 0.
    """

    BASE = "base"
    COPY = "copy"
    LOAD = "load"
    STORE = "store"
    OFFS = "offs"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _ConstraintFields(NamedTuple):
    """The fields of :class:`Constraint`, which adds the checks:
    a ``NamedTuple`` class may not define its own ``__new__``."""

    kind: ConstraintKind
    dst: int
    src: int
    offset: int = 0
    prov: Optional[Provenance] = None


class Constraint(_ConstraintFields):
    """One inclusion constraint: an immutable row.

    ``dst``/``src`` follow assignment orientation: ``dst`` is the left-hand
    side.  For STORE the dereference applies to ``dst`` (``*(dst+k) = src``);
    for LOAD it applies to ``src`` (``dst = *(src+k)``).

    ``prov`` is optional source provenance.  Equality and hashing cover
    ``(kind, dst, src, offset)`` only: solvers, the certifier and solution
    comparisons see the semantic quadruple, while diagnostics read the
    provenance.  A constraint never equals a plain tuple.  The value
    checks run once, when the row is built; that ids are below the
    variable count is checked by :class:`ConstraintSystem`.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: ConstraintKind,
        dst: int,
        src: int,
        offset: int = 0,
        prov: Optional[Provenance] = None,
    ) -> "Constraint":
        row = tuple.__new__(cls, (kind, dst, src, offset, prov))
        if dst < 0 or src < 0:
            raise ValueError(f"negative variable id in {row}")
        if offset < 0:
            raise ValueError(f"negative offset in {row}")
        if offset and kind in (ConstraintKind.BASE, ConstraintKind.COPY):
            raise ValueError(f"{kind} constraints cannot carry an offset")
        if kind is ConstraintKind.OFFS and offset == 0:
            raise ValueError("offset-copy with offset 0 should be a COPY")
        return row

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constraint) and self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        # tuple's own ``!=`` would compare ``prov`` and plain tuples.
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    def with_prov(self, prov: Optional[Provenance]) -> "Constraint":
        """A copy of this constraint carrying different provenance."""
        return Constraint(self.kind, self.dst, self.src, self.offset, prov)

    def __str__(self) -> str:
        if self.kind is ConstraintKind.BASE:
            return f"v{self.dst} = &v{self.src}"
        if self.kind is ConstraintKind.COPY:
            return f"v{self.dst} = v{self.src}"
        if self.kind is ConstraintKind.OFFS:
            return f"v{self.dst} = v{self.src}+{self.offset}"
        suffix = f"+{self.offset}" if self.offset else ""
        if self.kind is ConstraintKind.LOAD:
            return f"v{self.dst} = *(v{self.src}{suffix})"
        return f"*(v{self.dst}{suffix}) = v{self.src}"


@dataclass(frozen=True)
class FunctionInfo:
    """Layout of a function's node block (see module docstring)."""

    node: int
    name: str
    param_count: int

    @property
    def return_node(self) -> int:
        return self.node + RETURN_OFFSET

    @property
    def param_nodes(self) -> Tuple[int, ...]:
        return tuple(self.node + PARAM_OFFSET + i for i in range(self.param_count))

    @property
    def block_size(self) -> int:
        """Number of consecutive ids the function occupies."""
        return PARAM_OFFSET + self.param_count

    @property
    def max_offset(self) -> int:
        """Largest valid offset relative to the function variable."""
        return self.block_size - 1


@dataclass(frozen=True)
class ObjectBlock:
    """A field-sensitive object: a base id owning ``size`` extra slots.

    ``node + 1 + i`` is field ``i``'s location — the struct-variable
    analogue of the function block, enabling the full Pearce et al.
    field-sensitive model.
    """

    node: int
    name: str
    size: int  # number of field slots after the base

    @property
    def field_nodes(self) -> Tuple[int, ...]:
        return tuple(self.node + 1 + i for i in range(self.size))

    @property
    def block_size(self) -> int:
        return 1 + self.size

    @property
    def max_offset(self) -> int:
        return self.size


class ConstraintSystem:
    """An immutable set of inclusion constraints over dense variable ids.

    Build one through :class:`~repro.constraints.builder.ConstraintBuilder`,
    the text :mod:`~repro.constraints.parser`, the C front-end, or a
    workload generator.
    """

    def __init__(
        self,
        names: Sequence[str],
        constraints: Sequence[Constraint],
        functions: Optional[Dict[int, FunctionInfo]] = None,
        object_blocks: Optional[Dict[int, "ObjectBlock"]] = None,
    ) -> None:
        self._names: Tuple[str, ...] = tuple(names)
        self._functions: Dict[int, FunctionInfo] = dict(functions or {})
        self._object_blocks: Dict[int, ObjectBlock] = dict(object_blocks or {})
        self._validate_functions()
        self._validate_blocks()
        self._constraints: Tuple[Constraint, ...] = tuple(constraints)
        self._validate_constraints()
        self.max_offset: List[int] = [0] * len(self._names)
        for info in self._functions.values():
            self.max_offset[info.node] = info.max_offset
        for block in self._object_blocks.values():
            self.max_offset[block.node] = block.max_offset
        self._derived: Dict[Hashable, object] = {}

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate_functions(self) -> None:
        for node, info in self._functions.items():
            if node != info.node:
                raise ValueError(f"function table key {node} != info node {info.node}")
            if info.node + info.block_size > len(self._names):
                raise ValueError(f"function {info.name} block exceeds variable count")

    def _validate_blocks(self) -> None:
        for node, block in self._object_blocks.items():
            if node != block.node:
                raise ValueError(f"block table key {node} != block node {block.node}")
            if block.node + block.block_size > len(self._names):
                raise ValueError(f"object block {block.name} exceeds variable count")
            if node in self._functions:
                raise ValueError(f"node {node} is both a function and an object block")

    def _validate_constraints(self) -> None:
        limit = len(self._names)
        for constraint in self._constraints:
            if constraint.dst >= limit or constraint.src >= limit:
                raise ValueError(f"constraint {constraint} references unknown variable")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def name_of(self, node: int) -> str:
        return self._names[node]

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return self._constraints

    @property
    def functions(self) -> Dict[int, FunctionInfo]:
        return dict(self._functions)

    @property
    def object_blocks(self) -> Dict[int, "ObjectBlock"]:
        return dict(self._object_blocks)

    @property
    def owners(self) -> Tuple[Optional[str], ...]:
        """:func:`owner_of` of each variable's name, computed once per system."""
        return self.derived("owners", lambda s: tuple(map(owner_of, s._names)))

    @property
    def block_of(self) -> Tuple[Optional[int], ...]:
        """Per variable, the base id of the function or object block that
        holds it (a base holds itself), else ``None``; computed once per
        system."""
        return self.derived("block_of", _block_table)

    def by_kind(self, kind: ConstraintKind) -> Iterator[Constraint]:
        return (c for c in self._constraints if c.kind is kind)

    def kind_counts(self) -> Dict[ConstraintKind, int]:
        """Constraint-mix breakdown, as reported in paper Table 2."""
        counts = {kind: 0 for kind in ConstraintKind}
        for constraint in self._constraints:
            counts[constraint.kind] += 1
        return counts

    def complex_count(self) -> int:
        """Number of complex (LOAD + STORE) constraints."""
        counts = self.kind_counts()
        return counts[ConstraintKind.LOAD] + counts[ConstraintKind.STORE]

    def address_taken(self) -> List[int]:
        """Variables whose address is taken (appear as BASE source)."""
        seen = set()
        for constraint in self._constraints:
            if constraint.kind is ConstraintKind.BASE:
                seen.add(constraint.src)
        return sorted(seen)

    def dereferenced(self) -> List[int]:
        """Variables that are dereferenced by some complex constraint."""
        seen = set()
        for constraint in self._constraints:
            if constraint.kind is ConstraintKind.LOAD:
                seen.add(constraint.src)
            elif constraint.kind is ConstraintKind.STORE:
                seen.add(constraint.dst)
        return sorted(seen)

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSystem):
            return NotImplemented
        return (
            self._names == other._names
            and self._constraints == other._constraints
            and self._functions == other._functions
            and self._object_blocks == other._object_blocks
        )

    def __repr__(self) -> str:
        counts = self.kind_counts()
        mix = ", ".join(f"{kind.value}={count}" for kind, count in counts.items())
        return f"ConstraintSystem(vars={self.num_vars}, {mix})"

    # ------------------------------------------------------------------
    # Derived systems
    # ------------------------------------------------------------------

    def derived(self, key: Hashable, compute: Callable[["ConstraintSystem"], _T]) -> _T:
        """``compute(self)``, computed on the first call per ``key`` only.

        The offline stages store their results here, so every solver
        built on this system shares them.  Callers never mutate a stored
        result.  The memo takes no part in equality.
        """
        if key not in self._derived:
            self._derived[key] = compute(self)
        return self._derived[key]  # type: ignore[return-value]

    def with_constraints(self, constraints: Sequence[Constraint]) -> "ConstraintSystem":
        """A copy of this system with a different constraint list."""
        return ConstraintSystem(
            self._names, constraints, self._functions, self._object_blocks
        )


def _block_table(system: ConstraintSystem) -> Tuple[Optional[int], ...]:
    table: List[Optional[int]] = [None] * system.num_vars
    for layout in (*system._functions.values(), *system._object_blocks.values()):
        base = layout.node
        table[base : base + layout.block_size] = [base] * layout.block_size
    return tuple(table)


def owner_of(name: str) -> Optional[str]:
    """Owning function of a front-end variable name, or ``None`` for
    globals, heap sites and other unowned names.

    Locals are named ``fn::var`` and temporaries ``fn$tag<N>@<line>``
    (``<global>$tag<N>@<line>`` at file scope).
    """
    if "::" in name:
        return name.split("::", 1)[0]
    if "$" in name:
        return name.split("$", 1)[0] or None
    return None


def is_heap_name(name: str) -> bool:
    """A heap allocation site, ``heap@<line>#<k>``, or one of its fields."""
    return name.startswith("heap@")


def is_synthetic_name(name: str) -> bool:
    """An object the front end invents rather than a program variable:
    a string literal (``str@<line>#<k>``), the null object (``<null>``),
    an unsummarized external's object (``<extern:name>``) or a
    field-based mode field variable (``<field:name>``)."""
    return name.startswith(("str@", "<extern:", "<field:", "<null>"))

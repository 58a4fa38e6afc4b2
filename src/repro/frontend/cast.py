"""AST node definitions for the C subset.

Plain dataclasses, one per syntactic form.  Types are represented just
richly enough for pointer analysis: what matters is pointer depth and
function-ness, not arithmetic width, so the type model is a base name
plus declarator-derived wrappers (pointer / array / function).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CType:
    """A C type, reduced to what pointer analysis needs."""

    base: str  # "int", "char", "void", "struct S", ...
    pointer_depth: int = 0
    is_array: bool = False
    is_function: bool = False

    def pointer_to(self) -> "CType":
        return CType(self.base, self.pointer_depth + 1)

    def pointee(self) -> "CType":
        if self.pointer_depth == 0:
            return self
        return CType(self.base, self.pointer_depth - 1, self.is_array, self.is_function)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.base + "*" * self.pointer_depth + ("[]" if self.is_array else "")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    text: str = "0.0"


@dataclass
class CharLiteral(Expr):
    text: str = "' '"


@dataclass
class StringLiteral(Expr):
    text: str = '""'


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]
    #: True for postfix ++/--.
    postfix: bool = False


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Expr):
    op: str = "="  # "=", "+=", ...
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Conditional(Expr):
    condition: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    callee: Expr = None  # type: ignore[assignment]
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    #: True for ``->``, False for ``.``.
    arrow: bool = False


@dataclass
class Cast(Expr):
    type: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class SizeOf(Expr):
    #: Either a type or an expression operand.
    type: Optional[CType] = None
    operand: Optional[Expr] = None


@dataclass
class Comma(Expr):
    parts: List[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class Declaration(Stmt):
    """One declarator of a local/global declaration."""

    type: CType = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None
    #: Brace-initializer elements, for arrays/structs.
    init_list: Optional[List[Expr]] = None
    is_static: bool = False
    is_extern: bool = False


@dataclass
class Block(Stmt):
    body: List[Stmt] = field(default_factory=list)


@dataclass
class DeclGroup(Stmt):
    """Several declarators from one declaration (``int a, *b;``).

    Unlike :class:`Block` this does NOT open a scope — the declared names
    belong to the enclosing block.
    """

    declarations: List[Declaration] = field(default_factory=list)


@dataclass
class If(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]
    #: True for do/while.
    is_do: bool = False


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    condition: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str = ""


@dataclass
class Label(Stmt):
    name: str = ""
    statement: Optional[Stmt] = None


@dataclass
class Switch(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Case(Stmt):
    #: None for ``default:``.
    value: Optional[Expr] = None
    statement: Optional[Stmt] = None


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------


@dataclass
class Param:
    type: CType
    name: str
    line: int = 0


@dataclass
class FunctionDef:
    return_type: CType
    name: str
    params: List[Param]
    body: Optional[Block]  # None for a prototype
    line: int = 0
    is_static: bool = False
    is_varargs: bool = False


@dataclass
class StructDef:
    name: str
    fields: List[Param]
    line: int = 0
    is_union: bool = False


@dataclass
class TranslationUnit:
    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[Declaration] = field(default_factory=list)
    structs: List[StructDef] = field(default_factory=list)

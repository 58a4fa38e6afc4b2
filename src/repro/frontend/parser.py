"""Recursive-descent parser for the C subset.

Produces the AST of :mod:`repro.frontend.cast`.  Expressions use
precedence climbing; declarations use a simplified declarator grammar
(base type + ``*`` depth + name + array/function suffixes), which covers
the subset: no typedefs, no bitfields, no K&R definitions, and varargs
prototypes are accepted but bodies using ``va_arg`` are not (the paper's
implementations "handle all aspects of the C language except varargs").
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.frontend import cast as ast
from repro.frontend.lexer import Token, TokenKind, tokenize

_TYPE_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "float", "double", "signed",
     "unsigned", "struct", "union", "enum", "const", "volatile"}
)

_STORAGE_KEYWORDS = frozenset({"static", "extern", "auto", "register", "typedef"})

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

#: Most recursive grammar rules that may be open at once.  Every level
#: costs interpreter frames here and in the AST passes after parsing, so
#: this bound keeps hostile input (thousands of nested parentheses, ``*``
#: operators or blocks) inside Python's default recursion limit and turns
#: it into a located :class:`ParseError`.  A parenthesized subexpression
#: opens three rules: assignment, conditional and unary.
MAX_NESTING = 200

_T = TypeVar("_T")


class ParseError(ValueError):
    """Raised on a syntax error, with source position."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.column}: {message} (at {token.text!r})")
        self.token = token


def _nesting_level(rule: Callable[["Parser"], _T]) -> Callable[["Parser"], _T]:
    """Count one level of nesting around a recursive grammar rule.

    A :class:`ParseError` abandons the parser, so the count is not
    unwound on the error path.
    """

    @functools.wraps(rule)
    def guarded(self: "Parser") -> _T:
        if self._depth == MAX_NESTING:
            raise self._error(f"nesting exceeds {MAX_NESTING} levels")
        self._depth += 1
        result = rule(self)
        self._depth -= 1
        return result

    return guarded


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, ahead: int = 1) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept_op(self, text: str) -> bool:
        if self._current.is_op(text):
            self._advance()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._current.is_keyword(text):
            self._advance()
            return True
        return False

    def _expect_op(self, text: str) -> Token:
        if not self._current.is_op(text):
            raise ParseError(f"expected {text!r}", self._current)
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._current.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", self._current)
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._current)

    # ------------------------------------------------------------------
    # Types and declarators
    # ------------------------------------------------------------------

    def _at_type(self) -> bool:
        token = self._current
        return token.kind is TokenKind.KEYWORD and (
            token.text in _TYPE_KEYWORDS or token.text in _STORAGE_KEYWORDS
        )

    def _parse_type_specifier(self) -> Tuple[ast.CType, bool, bool]:
        """Parse storage class + type specifier; returns (type, static, extern)."""
        is_static = False
        is_extern = False
        parts: List[str] = []
        while True:
            token = self._current
            if token.kind is not TokenKind.KEYWORD:
                break
            text = token.text
            if text in ("static",):
                is_static = True
                self._advance()
            elif text in ("extern",):
                is_extern = True
                self._advance()
            elif text in ("auto", "register", "const", "volatile", "typedef"):
                if text == "typedef":
                    raise self._error("typedef is not supported by this subset")
                self._advance()
            elif text in ("struct", "union", "enum"):
                tag_kind = text
                self._advance()
                name = ""
                if self._current.kind is TokenKind.IDENT:
                    name = self._advance().text
                if self._current.is_op("{"):
                    # Inline definition handled by the caller for top-level
                    # structs; in type position we just skip the body.
                    self._skip_braced_body()
                parts.append(f"{tag_kind} {name}".strip())
            elif text in _TYPE_KEYWORDS:
                parts.append(text)
                self._advance()
            else:
                break
        if not parts:
            parts.append("int")
        return ast.CType(" ".join(parts)), is_static, is_extern

    def _skip_braced_body(self) -> None:
        self._expect_op("{")
        depth = 1
        while depth:
            token = self._advance()
            if token.kind is TokenKind.EOF:
                raise self._error("unterminated '{'")
            if token.is_op("{"):
                depth += 1
            elif token.is_op("}"):
                depth -= 1

    def _parse_declarator(self, base: ast.CType) -> Tuple[ast.CType, str, Optional[List[ast.Param]], bool]:
        """Parse ``* ... name [array] (params)``.

        Returns ``(type, name, params_or_None, is_varargs)``; ``params``
        is non-None when the declarator is a function.
        """
        ctype = base
        while self._accept_op("*"):
            while self._current.is_keyword("const") or self._current.is_keyword("volatile"):
                self._advance()
            ctype = ctype.pointer_to()

        # Function-pointer declarator: (*name)(params)
        if self._current.is_op("(") and self._peek().is_op("*"):
            self._advance()  # (
            self._expect_op("*")
            name = self._expect_ident().text
            while self._accept_op("["):
                # array of function pointers
                if not self._current.is_op("]"):
                    self._parse_expression()
                self._expect_op("]")
                ctype = ast.CType(ctype.base, ctype.pointer_depth, is_array=True)
            self._expect_op(")")
            self._expect_op("(")
            self._parse_param_list()
            # A pointer to function: one level of pointer is enough for
            # the analysis (what matters is that it can hold functions).
            return ctype.pointer_to(), name, None, False

        name = ""
        if self._current.kind is TokenKind.IDENT:
            name = self._advance().text

        params: Optional[List[ast.Param]] = None
        is_varargs = False
        if self._accept_op("("):
            params, is_varargs = self._parse_param_list()
            return ctype, name, params, is_varargs

        while self._accept_op("["):
            if not self._current.is_op("]"):
                self._parse_expression()
            self._expect_op("]")
            ctype = ast.CType(ctype.base, ctype.pointer_depth, is_array=True)

        return ctype, name, None, False

    @_nesting_level
    def _parse_param_list(self) -> Tuple[List[ast.Param], bool]:
        """Parse up to and including the closing ``)``."""
        params: List[ast.Param] = []
        is_varargs = False
        if self._accept_op(")"):
            return params, is_varargs
        while True:
            if self._accept_op("..."):
                is_varargs = True
                break
            base, _, _ = self._parse_type_specifier()
            line = self._current.line
            ctype, name, fn_params, _ = self._parse_declarator(base)
            if fn_params is not None:
                # Function parameter declared with function type: it
                # decays to a function pointer.
                ctype = ctype.pointer_to()
            if not (ctype.base == "void" and not ctype.pointer_depth and not name):
                params.append(ast.Param(ctype, name, line))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return params, is_varargs

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment()
        if self._current.is_op(","):
            parts = [expr]
            while self._accept_op(","):
                parts.append(self._parse_assignment())
            return ast.Comma(line=expr.line, parts=parts)
        return expr

    @_nesting_level
    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_conditional()
        token = self._current
        if token.kind is TokenKind.OP and token.text in _ASSIGN_OPS:
            self._advance()
            right = self._parse_assignment()
            return ast.Assign(line=token.line, op=token.text, target=left, value=right)
        return left

    @_nesting_level
    def _parse_conditional(self) -> ast.Expr:
        condition = self._parse_binary(1)
        if self._accept_op("?"):
            then = self._parse_expression()
            self._expect_op(":")
            otherwise = self._parse_conditional()
            return ast.Conditional(
                line=condition.line, condition=condition, then=then, otherwise=otherwise
            )
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._current
            precedence = (
                _BINARY_PRECEDENCE.get(token.text, 0)
                if token.kind is TokenKind.OP
                else 0
            )
            if precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(line=token.line, op=token.text, left=left, right=right)

    @_nesting_level
    def _parse_unary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.OP and token.text in ("*", "&", "-", "+", "!", "~"):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        if token.kind is TokenKind.OP and token.text in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        if token.is_keyword("sizeof"):
            self._advance()
            if self._current.is_op("(") and self._is_type_ahead(1):
                self._advance()
                ctype = self._parse_type_name()
                self._expect_op(")")
                return ast.SizeOf(line=token.line, type=ctype)
            operand = self._parse_unary()
            return ast.SizeOf(line=token.line, operand=operand)
        # Cast: '(' type ')' unary
        if token.is_op("(") and self._is_type_ahead(1):
            self._advance()
            ctype = self._parse_type_name()
            self._expect_op(")")
            operand = self._parse_unary()
            return ast.Cast(line=token.line, type=ctype, operand=operand)
        return self._parse_postfix()

    def _is_type_ahead(self, ahead: int) -> bool:
        token = self._peek(ahead) if ahead else self._current
        return token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS

    def _parse_type_name(self) -> ast.CType:
        base, _, _ = self._parse_type_specifier()
        ctype = base
        while self._accept_op("*"):
            ctype = ctype.pointer_to()
        while self._accept_op("["):
            if not self._current.is_op("]"):
                self._parse_expression()
            self._expect_op("]")
            ctype = ast.CType(ctype.base, ctype.pointer_depth, is_array=True)
        return ctype

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._current
            if token.is_op("("):
                self._advance()
                args: List[ast.Expr] = []
                if not self._current.is_op(")"):
                    args.append(self._parse_assignment())
                    while self._accept_op(","):
                        args.append(self._parse_assignment())
                self._expect_op(")")
                expr = ast.Call(line=token.line, callee=expr, args=args)
            elif token.is_op("["):
                self._advance()
                index = self._parse_expression()
                self._expect_op("]")
                expr = ast.Index(line=token.line, base=expr, index=index)
            elif token.is_op("."):
                self._advance()
                name = self._expect_ident().text
                expr = ast.Member(line=token.line, base=expr, name=name, arrow=False)
            elif token.is_op("->"):
                self._advance()
                name = self._expect_ident().text
                expr = ast.Member(line=token.line, base=expr, name=name, arrow=True)
            elif token.text in ("++", "--") and token.kind is TokenKind.OP:
                self._advance()
                expr = ast.Unary(line=token.line, op=token.text, operand=expr, postfix=True)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.Identifier(line=token.line, name=token.text)
        if token.kind is TokenKind.INT:
            self._advance()
            text = token.text.rstrip("uUlL")
            value = int(text, 16) if text.lower().startswith("0x") else int(text, 10 if not text.startswith("0") or text == "0" else 8)
            return ast.IntLiteral(line=token.line, value=value)
        if token.kind is TokenKind.FLOAT:
            self._advance()
            return ast.FloatLiteral(line=token.line, text=token.text)
        if token.kind is TokenKind.CHAR:
            self._advance()
            return ast.CharLiteral(line=token.line, text=token.text)
        if token.kind is TokenKind.STRING:
            self._advance()
            text = token.text
            while self._current.kind is TokenKind.STRING:  # adjacent concat
                text += self._advance().text
            return ast.StringLiteral(line=token.line, text=text)
        if token.is_op("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        raise self._error("expected expression")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    @_nesting_level
    def _parse_statement(self) -> ast.Stmt:
        token = self._current
        if token.is_op("{"):
            return self._parse_block()
        if token.is_keyword("if"):
            self._advance()
            self._expect_op("(")
            condition = self._parse_expression()
            self._expect_op(")")
            then = self._parse_statement()
            otherwise = None
            if self._accept_keyword("else"):
                otherwise = self._parse_statement()
            return ast.If(line=token.line, condition=condition, then=then, otherwise=otherwise)
        if token.is_keyword("while"):
            self._advance()
            self._expect_op("(")
            condition = self._parse_expression()
            self._expect_op(")")
            body = self._parse_statement()
            return ast.While(line=token.line, condition=condition, body=body)
        if token.is_keyword("do"):
            self._advance()
            body = self._parse_statement()
            if not self._accept_keyword("while"):
                raise self._error("expected 'while' after do-body")
            self._expect_op("(")
            condition = self._parse_expression()
            self._expect_op(")")
            self._expect_op(";")
            return ast.While(line=token.line, condition=condition, body=body, is_do=True)
        if token.is_keyword("for"):
            self._advance()
            self._expect_op("(")
            init: Optional[ast.Stmt] = None
            if not self._current.is_op(";"):
                if self._at_type():
                    init = self._parse_declaration_statement()
                else:
                    init = ast.ExprStmt(line=token.line, expr=self._parse_expression())
                    self._expect_op(";")
            else:
                self._advance()
            condition = None
            if not self._current.is_op(";"):
                condition = self._parse_expression()
            self._expect_op(";")
            step = None
            if not self._current.is_op(")"):
                step = self._parse_expression()
            self._expect_op(")")
            body = self._parse_statement()
            return ast.For(line=token.line, init=init, condition=condition, step=step, body=body)
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._current.is_op(";"):
                value = self._parse_expression()
            self._expect_op(";")
            return ast.Return(line=token.line, value=value)
        if token.is_keyword("break"):
            self._advance()
            self._expect_op(";")
            return ast.Break(line=token.line)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_op(";")
            return ast.Continue(line=token.line)
        if token.is_keyword("goto"):
            self._advance()
            label = self._expect_ident().text
            self._expect_op(";")
            return ast.Goto(line=token.line, label=label)
        if token.is_keyword("switch"):
            self._advance()
            self._expect_op("(")
            condition = self._parse_expression()
            self._expect_op(")")
            body = self._parse_statement()
            return ast.Switch(line=token.line, condition=condition, body=body)
        if token.is_keyword("case"):
            self._advance()
            value = self._parse_conditional()
            self._expect_op(":")
            statement = None
            if not self._current.is_op("}"):
                statement = self._parse_statement()
            return ast.Case(line=token.line, value=value, statement=statement)
        if token.is_keyword("default"):
            self._advance()
            self._expect_op(":")
            statement = None
            if not self._current.is_op("}"):
                statement = self._parse_statement()
            return ast.Case(line=token.line, value=None, statement=statement)
        if (
            token.kind is TokenKind.IDENT
            and self._peek().is_op(":")
        ):
            self._advance()
            self._advance()
            statement = None
            if not self._current.is_op("}"):
                statement = self._parse_statement()
            return ast.Label(line=token.line, name=token.text, statement=statement)
        if self._at_type():
            return self._parse_declaration_statement()
        if token.is_op(";"):
            self._advance()
            return ast.ExprStmt(line=token.line, expr=None)
        expr = self._parse_expression()
        self._expect_op(";")
        return ast.ExprStmt(line=token.line, expr=expr)

    def _parse_block(self) -> ast.Block:
        start = self._expect_op("{")
        body: List[ast.Stmt] = []
        while not self._current.is_op("}"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unterminated block")
            body.append(self._parse_statement())
        self._advance()
        return ast.Block(line=start.line, body=body)

    def _parse_declaration_statement(self) -> ast.Stmt:
        """Local declaration: possibly several comma declarators."""
        line = self._current.line
        base, is_static, is_extern = self._parse_type_specifier()
        declarations: List[ast.Declaration] = []
        if self._current.is_op(";"):  # bare "struct S;" — nothing to do
            self._advance()
            return ast.DeclGroup(line=line, declarations=[])
        while True:
            ctype, name, params, _ = self._parse_declarator(base)
            if params is not None:
                # Local function prototype: ignore for the analysis.
                declaration = None
            else:
                init = None
                init_list = None
                if self._accept_op("="):
                    if self._current.is_op("{"):
                        init_list = self._parse_brace_initializer()
                    else:
                        init = self._parse_assignment()
                declaration = ast.Declaration(
                    line=line,
                    type=ctype,
                    name=name,
                    init=init,
                    init_list=init_list,
                    is_static=is_static,
                    is_extern=is_extern,
                )
            if declaration is not None:
                declarations.append(declaration)
            if not self._accept_op(","):
                break
        self._expect_op(";")
        if len(declarations) == 1:
            return declarations[0]
        return ast.DeclGroup(line=line, declarations=declarations)

    @_nesting_level
    def _parse_brace_initializer(self) -> List[ast.Expr]:
        self._expect_op("{")
        elements: List[ast.Expr] = []
        if not self._current.is_op("}"):
            while True:
                if self._current.is_op("{"):
                    elements.extend(self._parse_brace_initializer())
                else:
                    if self._current.is_op("."):  # designated initializer
                        self._advance()
                        self._expect_ident()
                        self._expect_op("=")
                    elements.append(self._parse_assignment())
                if not self._accept_op(","):
                    break
                if self._current.is_op("}"):
                    break
        self._expect_op("}")
        return elements

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self._current.kind is not TokenKind.EOF:
            if self._accept_op(";"):
                continue
            self._parse_top_level(unit)
        return unit

    def _parse_top_level(self, unit: ast.TranslationUnit) -> None:
        line = self._current.line
        # struct/union/enum definition at file scope?
        if (
            self._current.kind is TokenKind.KEYWORD
            and self._current.text in ("struct", "union")
            and self._peek().kind is TokenKind.IDENT
            and self._peek(2).is_op("{")
        ):
            kind = self._advance().text
            name = self._advance().text
            fields = self._parse_struct_fields()
            if self._accept_op(";"):
                unit.structs.append(
                    ast.StructDef(name=name, fields=fields, line=line, is_union=kind == "union")
                )
                return
            # "struct S { ... } var;" — fall through to the declarator
            # with the struct as base type.
            unit.structs.append(
                ast.StructDef(name=name, fields=fields, line=line, is_union=kind == "union")
            )
            base = ast.CType(f"{kind} {name}")
            self._finish_global_declarators(unit, base, line, False, False)
            return
        if self._current.is_keyword("enum"):
            self._advance()
            if self._current.kind is TokenKind.IDENT:
                self._advance()
            if self._current.is_op("{"):
                self._skip_braced_body()
            self._expect_op(";")
            return

        base, is_static, is_extern = self._parse_type_specifier()
        ctype, name, params, is_varargs = self._parse_declarator(base)

        if params is not None:
            if self._current.is_op("{"):
                body = self._parse_block()
                unit.functions.append(
                    ast.FunctionDef(
                        return_type=ctype,
                        name=name,
                        params=params,
                        body=body,
                        line=line,
                        is_static=is_static,
                        is_varargs=is_varargs,
                    )
                )
            else:
                self._expect_op(";")
                unit.functions.append(
                    ast.FunctionDef(
                        return_type=ctype,
                        name=name,
                        params=params,
                        body=None,
                        line=line,
                        is_static=is_static,
                        is_varargs=is_varargs,
                    )
                )
            return

        # Global variable declaration(s).
        self._finish_global_declarator(unit, ctype, name, line, is_static, is_extern)
        while self._accept_op(","):
            ctype2, name2, params2, _ = self._parse_declarator(base)
            if params2 is None:
                self._finish_global_declarator(unit, ctype2, name2, line, is_static, is_extern)
        self._expect_op(";")

    def _finish_global_declarators(
        self,
        unit: ast.TranslationUnit,
        base: ast.CType,
        line: int,
        is_static: bool,
        is_extern: bool,
    ) -> None:
        while True:
            ctype, name, params, _ = self._parse_declarator(base)
            if params is None:
                self._finish_global_declarator(unit, ctype, name, line, is_static, is_extern)
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _finish_global_declarator(
        self,
        unit: ast.TranslationUnit,
        ctype: ast.CType,
        name: str,
        line: int,
        is_static: bool,
        is_extern: bool,
    ) -> None:
        init = None
        init_list = None
        if self._accept_op("="):
            if self._current.is_op("{"):
                init_list = self._parse_brace_initializer()
            else:
                init = self._parse_assignment()
        unit.globals.append(
            ast.Declaration(
                line=line,
                type=ctype,
                name=name,
                init=init,
                init_list=init_list,
                is_static=is_static,
                is_extern=is_extern,
            )
        )

    def _parse_struct_fields(self) -> List[ast.Param]:
        self._expect_op("{")
        fields: List[ast.Param] = []
        while not self._current.is_op("}"):
            base, _, _ = self._parse_type_specifier()
            while True:
                line = self._current.line
                ctype, name, params, _ = self._parse_declarator(base)
                if params is not None:
                    ctype = ctype.pointer_to()  # function field decays
                fields.append(ast.Param(ctype, name, line))
                if not self._accept_op(","):
                    break
            self._expect_op(";")
        self._advance()
        return fields


def parse_translation_unit(source: str) -> ast.TranslationUnit:
    """Tokenize and parse a C-subset source file."""
    return Parser(tokenize(source)).parse_translation_unit()

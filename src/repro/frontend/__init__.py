"""A from-scratch front-end for a C subset.

The paper generates constraints from C programs with the CIL front-end;
this package plays that role for a realistic C subset: a master-regex
lexer (:mod:`~repro.frontend.lexer`), a recursive-descent parser producing
a typed AST (:mod:`~repro.frontend.parser`, :mod:`~repro.frontend.cast`),
and a constraint generator (:mod:`~repro.frontend.generator`) that lowers
the AST to the field-insensitive inclusion constraints of Table 1 — one
dereference per constraint, auxiliary temporaries for nested dereferences,
fresh heap locations per allocation site, and Pearce-style offset
constraints for calls through function pointers.  External library calls
are summarized by the hand-written stubs in
:mod:`~repro.frontend.stubs`, as in the paper.

Flow- and context-insensitivity mean control flow is irrelevant: the
generator simply harvests constraints from every statement.
Field-insensitivity means ``s.f``, ``p->f`` and ``a[i]`` collapse onto
their base objects, matching the configuration the paper evaluates.
"""

from repro.frontend.generator import GeneratedProgram, generate_constraints
from repro.frontend.lexer import LexError, Token, TokenKind, tokenize
from repro.frontend.parser import ParseError, parse_translation_unit

__all__ = [
    "tokenize",
    "Token",
    "TokenKind",
    "LexError",
    "parse_translation_unit",
    "ParseError",
    "generate_constraints",
    "GeneratedProgram",
]

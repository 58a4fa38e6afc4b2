"""Tokenizer for the C subset.

One master regular expression scans the source: each token kind, each
kind of text between tokens (blanks, newlines, comments, preprocessor
lines) and each lexical error is a named alternative, and
:func:`tokenize` dispatches on the name of the alternative that matched.
The pattern is compiled on the first call, not at import: commands that
never read C do not pay for it.  Identifiers/keywords, integer, float,
character and string literals, the full C operator set, and both comment
styles.  Line/column positions ride along on every token for error
reporting in the parser.

The scanner classifies characters as ``str.isalpha`` (identifier start),
``str.isalnum`` (identifier continuation) and ``str.isdigit`` (number
digits) do.  A regex's ``\\w`` is exactly ``isalnum`` plus ``_`` and its
``\\d`` is ``str.isdecimal``, so ``[^\\W\\d]`` is an identifier start and
``\\d`` a digit for every character except the *odd* ones: those ``\\w``
takes that are neither letters nor decimal digits, such as ``²`` (a digit
to ``isdigit``), ``½`` and ``Ⅷ``.  A source holding odd characters gets
a pattern that lists them (see :func:`_odd_characters`).
"""

from __future__ import annotations

import enum
import functools
import re
from typing import Callable, Iterator, List, NamedTuple

KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "int", "long", "register", "return", "short", "signed",
        "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while",
    }
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    STRING = "string"
    OP = "op"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.text!r}@{self.line}:{self.column}"


class LexError(ValueError):
    """Raised on malformed input, with source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


#: The master pattern.  Every match is a run of blanks and then one
#: alternative, so blanks cost no iteration of their own.  Alternatives
#: that can start with the same text are ordered as the C rules want:
#: comments before the ``/`` operators, floats before integers (``1.5``
#: is not ``1``), hexadecimal before decimal (``0x1`` is not ``0``),
#: ``.5`` before the ``.`` operator, the operators longest first, and
#: each literal before its unterminated form.  ``{start}`` is an
#: identifier's first character and ``{digit}`` a digit.  ``ERROR``
#: leaves out the blanks so that blanks at the end of the source match
#: nothing, instead of the last of them being an error.
_PATTERN = r"""[ \t\r\f\v]*(?:
 (?P<IDENT>{start}\w*)
|(?P<NEWLINE>\n)
|(?P<LINE_COMMENT>//[^\n]*)
|(?P<BLOCK_COMMENT>/\*[\s\S]*?\*/)
|(?P<OPEN_COMMENT>/\*)
|(?P<FLOAT>(?:{digit}+\.{digit}*|\.{digit}+)(?:[eE][+-]?{digit}+)?[uUlLfF]*
          |{digit}+[eE][+-]?{digit}+[uUlLfF]*)
|(?P<INT>0[xX][0-9a-fA-F]*[uUlLfF]*|{digit}+[uUlLfF]*)
|(?P<OP>{operators})
|(?P<DIRECTIVE>\#[^\n]*)
|(?P<CHAR>'[^'\\\n]*(?:\\.[^'\\\n]*)*')
|(?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
|(?P<OPEN_LITERAL>['"])
|(?P<ERROR>[^ \t\r\f\v])
)"""

#: The alternatives that are tokens, by name.
_TOKEN_KINDS = {
    kind.name: kind
    for kind in (TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT,
                 TokenKind.CHAR, TokenKind.STRING, TokenKind.OP)
}


@functools.lru_cache(maxsize=16)
def _scanner(odd: str) -> Callable[[str], Iterator[re.Match]]:
    """The compiled master pattern's ``finditer``; built on first use.

    ``odd`` holds the odd characters of one source: none of them starts
    an identifier, and those ``str.isdigit`` accepts are digits.
    """
    odd_digits = "".join(ch for ch in odd if ch.isdigit())
    pattern = _PATTERN.format(
        start=rf"[^\W\d{re.escape(odd)}]",
        digit=rf"[\d{re.escape(odd_digits)}]" if odd_digits else r"\d",
        operators="|".join(map(re.escape, _OPERATORS)),
    )
    return re.compile(pattern, re.VERBOSE).finditer


def _odd_characters(source: str) -> str:
    """The odd characters in ``source``, sorted."""
    if source.isascii():
        return ""
    return "".join(sorted(
        ch for ch in set(source)
        if ch.isalnum() and not ch.isalpha() and not ch.isdecimal()
    ))


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into a token list terminated by an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    # ``Token(...)`` would call the NamedTuple's ``__new__``, a Python
    # function: a sixth of the scan.
    new_token = tuple.__new__
    kinds = _TOKEN_KINDS
    ident = TokenKind.IDENT
    keyword = TokenKind.KEYWORD
    line = 1
    line_start = 0  # offset of the current line's first character

    for match in _scanner(_odd_characters(source))(source):
        group = match.lastgroup
        kind = kinds.get(group)
        if kind is not None:
            text = match.group(group)
            if kind is ident and text in KEYWORDS:
                kind = keyword
            column = match.end() - len(text) - line_start + 1
            append(new_token(Token, (kind, text, line, column)))
        elif group == "NEWLINE":
            line += 1
            line_start = match.end()
        elif group == "BLOCK_COMMENT":
            text = match.group(group)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.end() - len(text) + text.rindex("\n") + 1
        elif group == "LINE_COMMENT":
            pass
        elif group == "DIRECTIVE" and (not tokens or tokens[-1].line != line):
            # A preprocessor line is skipped wholesale (the subset has no
            # macros; headers are modelled by the stub summaries instead),
            # but only where no token has started on its line.
            pass
        else:
            start = match.start(group)
            if group == "OPEN_COMMENT":
                message = "unterminated block comment"
            elif group == "OPEN_LITERAL":
                # The literal stops at the first newline, escaped or not,
                # or else at the end of the source.
                message = (
                    "newline in literal" if "\n" in source[start:]
                    else "unterminated literal"
                )
            else:  # ERROR, or a ``#`` after a token on its line
                message = f"unexpected character {source[start]!r}"
            raise LexError(message, line, start - line_start + 1)

    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens

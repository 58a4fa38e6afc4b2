"""The scanner that ``repro.frontend.lexer.tokenize`` replaced, as a test oracle.

A hand-written single-pass loop over the source, kept unchanged as the
reference that ``tests/test_frontend_lexer.py`` compares the master-regex
scanner against: on every input both give the same tokens, or the same
:class:`~repro.frontend.lexer.LexError`.  It classifies characters with
``str.isalpha``, ``str.isalnum`` and ``str.isdigit``, and tries the
operators one by one with ``str.startswith``.  The keyword and operator
tables are its own copies.
"""

from __future__ import annotations

from typing import List

from repro.frontend.lexer import LexError, Token, TokenKind

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


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into a token list terminated by an EOF token."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    length = len(source)

    def column() -> int:
        return pos - line_start + 1

    def error(message: str) -> LexError:
        return LexError(message, line, column())

    while pos < length:
        ch = source[pos]

        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r\f\v":
            pos += 1
            continue

        # Comments.
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end < 0 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise error("unterminated block comment")
            for i in range(pos, end):
                if source[i] == "\n":
                    line += 1
                    line_start = i + 1
            pos = end + 2
            continue

        # Preprocessor lines are skipped wholesale (the subset has no
        # macros; headers are modelled by the stub summaries instead).
        if ch == "#" and (not tokens or tokens[-1].line != line):
            end = source.find("\n", pos)
            pos = length if end < 0 else end
            continue

        start_col = column()

        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            end = pos + 1
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[pos:end]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, start_col))
            pos = end
            continue

        # Numbers.
        if ch.isdigit() or (ch == "." and pos + 1 < length and source[pos + 1].isdigit()):
            end = pos
            is_float = False
            if source.startswith(("0x", "0X"), pos):
                end = pos + 2
                while end < length and source[end] in "0123456789abcdefABCDEF":
                    end += 1
            else:
                while end < length and source[end].isdigit():
                    end += 1
                if end < length and source[end] == ".":
                    is_float = True
                    end += 1
                    while end < length and source[end].isdigit():
                        end += 1
                if end < length and source[end] in "eE":
                    peek = end + 1
                    if peek < length and source[peek] in "+-":
                        peek += 1
                    if peek < length and source[peek].isdigit():
                        is_float = True
                        end = peek
                        while end < length and source[end].isdigit():
                            end += 1
            while end < length and source[end] in "uUlLfF":
                end += 1
            kind = TokenKind.FLOAT if is_float else TokenKind.INT
            tokens.append(Token(kind, source[pos:end], line, start_col))
            pos = end
            continue

        # Character and string literals.
        if ch in "'\"":
            quote = ch
            end = pos + 1
            while end < length and source[end] != quote:
                if source[end] == "\\":
                    end += 1
                if end < length and source[end] == "\n":
                    raise error("newline in literal")
                end += 1
            if end >= length:
                raise error("unterminated literal")
            end += 1
            kind = TokenKind.CHAR if quote == "'" else TokenKind.STRING
            tokens.append(Token(kind, source[pos:end], line, start_col))
            pos = end
            continue

        # Operators and punctuation.
        for op in _OPERATORS:
            if source.startswith(op, pos):
                tokens.append(Token(TokenKind.OP, op, line, start_col))
                pos += len(op)
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenKind.EOF, "", line, column()))
    return tokens

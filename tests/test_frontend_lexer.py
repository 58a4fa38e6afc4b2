"""Tests for the C-subset lexer."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_lexer
from repro.frontend.lexer import LexError, TokenKind, tokenize
from repro.frontend.parser import ParseError, parse_translation_unit


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("int foo _bar x9") == [
            (TokenKind.KEYWORD, "int"),
            (TokenKind.IDENT, "foo"),
            (TokenKind.IDENT, "_bar"),
            (TokenKind.IDENT, "x9"),
        ]

    def test_integers(self):
        assert kinds("0 42 0x1F 10u 7L") == [
            (TokenKind.INT, "0"),
            (TokenKind.INT, "42"),
            (TokenKind.INT, "0x1F"),
            (TokenKind.INT, "10u"),
            (TokenKind.INT, "7L"),
        ]

    def test_floats(self):
        source = "3.14 1e10 2.5e-3 .5f 1. 1e+5"
        texts = [t for k, t in kinds(source)]
        assert texts == ["3.14", "1e10", "2.5e-3", ".5f", "1.", "1e+5"]
        assert all(k is TokenKind.FLOAT for k, _ in kinds(source))

    def test_char_and_string(self):
        assert kinds(r"'a' '\n' '\x41' " + r'"hi\"there"') == [
            (TokenKind.CHAR, "'a'"),
            (TokenKind.CHAR, r"'\n'"),
            (TokenKind.CHAR, r"'\x41'"),
            (TokenKind.STRING, r'"hi\"there"'),
        ]

    def test_operators_maximal_munch(self):
        source = "a<<=b ... ->++ -- <= >= == != && || +="
        texts = [t for _, t in kinds(source)]
        assert "<<=" in texts
        assert "..." in texts
        assert "->" in texts
        assert "++" in texts and "--" in texts

    def test_arrow_not_minus_gt(self):
        assert [t for _, t in kinds("p->f")] == ["p", "->", "f"]


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [
            (TokenKind.IDENT, "a"),
            (TokenKind.IDENT, "b"),
        ]

    def test_block_comment_tracks_lines(self):
        tokens = tokenize("a /* x\ny */ b")
        assert (tokens[1].line, tokens[1].column) == (2, 6)

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_preprocessor_lines_skipped(self):
        assert kinds("#include <stdio.h>\nint x;") == [
            (TokenKind.KEYWORD, "int"),
            (TokenKind.IDENT, "x"),
            (TokenKind.OP, ";"),
        ]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"never closed')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"line\nbreak"')

    def test_unexpected_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("int @ x;")
        assert excinfo.value.line == 1

    def test_error_position_reported(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ok\n   @")
        assert excinfo.value.line == 2


class TestUnicode:
    """The scanner classifies characters as ``str.isalpha``,
    ``str.isalnum`` and ``str.isdigit`` do, which regex classes do not."""

    def test_letter_is_an_identifier(self):
        assert kinds("é") == [(TokenKind.IDENT, "é")]

    def test_decimal_digit_is_an_int(self):
        assert kinds("٣") == [(TokenKind.INT, "٣")]
        (declaration,) = parse_translation_unit("int x = ٣;").globals
        assert declaration.init.value == 3

    def test_superscript_digit_is_a_malformed_int(self):
        # ``isdigit`` accepts ``²`` but ``\d`` does not.
        assert kinds("x = ²;")[2] == (TokenKind.INT, "²")
        with pytest.raises(ParseError, match="malformed integer literal"):
            parse_translation_unit("int x = ²;")

    @pytest.mark.parametrize("ch", ["½", "Ⅷ", "\xa0"])
    def test_numeric_or_space_is_unexpected(self, ch):
        # ``[^\W\d]`` takes ``½`` and ``Ⅷ``, but ``isalpha`` does not.
        with pytest.raises(LexError) as excinfo:
            tokenize(f"int a;\nint {ch}b;")
        error = excinfo.value
        assert error.message == f"unexpected character {ch!r}"
        assert (error.line, error.column) == (2, 5)

    def test_odd_characters_continue_identifiers(self):
        assert kinds("x² y½") == [(TokenKind.IDENT, "x²"), (TokenKind.IDENT, "y½")]

    def test_regex_classes_are_the_str_methods(self):
        """The premises of the scanner's odd-character rule, checked on
        this interpreter's Unicode database."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        word = "".join(c for c in every if c.isalnum() or c == "_")
        assert "".join(re.findall(r"\w", every)) == word
        assert "".join(re.findall(r"\d", every)) == "".join(
            c for c in every if c.isdecimal()
        )
        assert not any(c.isalpha() for c in every if c.isdigit())


# ----------------------------------------------------------------------
# The master-regex scanner against the scanner it replaced
# ----------------------------------------------------------------------


def scan(tokenizer, source):
    """Tokens as ``(kind, text, line, column)``, or the error's fields."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(source)]
    except LexError as error:
        return ("LexError", error.message, error.line, error.column)


def _check_programs():
    """Programs of the ``check-c`` benchmark's generator, small and full size."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "e2e", "programs.py"
    )
    spec = importlib.util.spec_from_file_location("e2e_programs", path)
    programs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(programs)
    shapes = [(1, 12, 20), (5, 3, 4), (2, 4, 6), (1, 3, 8)]
    return [
        programs.generate_check_program(seed, *shape)
        for seed, shape in enumerate(shapes)
    ]


CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
PROGRAMS = [
    open(os.path.join(CORPUS, kind, name), encoding="utf-8").read()
    for kind in ("buggy", "clean")
    for name in sorted(os.listdir(os.path.join(CORPUS, kind)))
    if name.endswith(".c")
] + _check_programs()

#: Every operator and its prefixes, and the characters and fragments
#: that start or end a token kind, including the Unicode traps.
PIECES = sorted(
    {op[:end] for op in reference_lexer._OPERATORS for end in range(1, len(op) + 1)}
) + [
    "'", '"', "\\", "/*", "*/", "//", "#", "\r", "\f", "\v", "0x", "1e", ".5",
    "é", "٣", "²", "½", "Ⅷ", "\xa0",
]


@st.composite
def mutated_programs(draw):
    """A corpus or generated program with a few pieces inserted, deleted
    or replaced."""
    source = draw(st.sampled_from(PROGRAMS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(source)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = "" if edit == "delete" else draw(st.sampled_from(PIECES))
        skip = 0 if edit == "insert" else 1
        source = source[:at] + piece + source[at + skip:]
    return source


WORDS = ["a", "e", "u", "L", "x9", "_", "0", "7", "int", " ", "\n"]

#: Short runs of pieces, words and blanks: the token boundaries they
#: can form, densely.
FRAGMENTS = st.lists(st.sampled_from(PIECES + WORDS), max_size=12).map("".join)

ORACLE = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestAgainstReference:
    @given(mutated_programs())
    @ORACLE
    def test_mutated_programs(self, source):
        assert scan(tokenize, source) == scan(reference_lexer.tokenize, source)

    @given(FRAGMENTS)
    @ORACLE
    def test_fragments(self, source):
        assert scan(tokenize, source) == scan(reference_lexer.tokenize, source)

    def test_every_pair_of_pieces(self):
        for first in PIECES + WORDS:
            for second in PIECES + WORDS:
                source = first + second
                assert scan(tokenize, source) == scan(
                    reference_lexer.tokenize, source
                ), source

    def test_unmutated_programs(self):
        for source in PROGRAMS:
            assert scan(tokenize, source) == scan(reference_lexer.tokenize, source)


def test_import_compiles_no_pattern():
    """``solve``, ``compare`` and ``verify`` never lex C, so importing the
    CLI must leave the master pattern uncompiled."""
    code = (
        "import repro.cli, repro.checkers\n"
        "from repro.frontend.lexer import _scanner\n"
        "print(_scanner.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "0"

"""The one-pass ``.cons`` reader against the reader it replaced.

``tests/reference_cons_reader.py`` keeps the old line loop as an oracle.
On every input both readers give the same names, functions, blocks and
constraints, provenance compared field by field, or both raise
:class:`~repro.constraints.parser.ConstraintParseError` with the same line
and message.  The one intended difference, a ``#`` inside a token, is
left out of that property and tested on its own, along with the C
corpus, whose heap-site names carry such a ``#``.
"""

import io
import pathlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_cons_reader
from conftest import random_system
from repro.constraints.parser import (
    ConstraintParseError,
    dumps_constraints,
    loads_constraints,
    read_constraints,
)
from repro.frontend import generate_constraints
from strategies import constraint_systems, mutated_constraint_files

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
C_FILES = sorted(CORPUS.glob("*/*.c"))

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def outcome(reader, text):
    """What ``reader`` makes of ``text``: the system's parts, with each
    constraint as the plain tuple of its five fields, or the error."""
    try:
        system = reader(io.StringIO(text))
    except ConstraintParseError as exc:
        return ("error", exc.line_no, exc.message)
    return (
        system.names,
        system.functions,
        system.object_blocks,
        [tuple(constraint) for constraint in system.constraints],
    )


def inner_hash(text):
    """Whether some token of ``text`` has a ``#`` after its first
    character, where the two readers' comment rules differ.  Of the
    inputs below only mutated files could hold one."""
    return any("#" in token[1:] for token in text.split())


def assert_same_outcome(text):
    assert outcome(read_constraints, text) == outcome(
        reference_cons_reader.read_constraints, text
    )


@given(text=mutated_constraint_files().filter(lambda text: not inner_hash(text)))
@SETTINGS
def test_mutated_files_read_alike(text):
    assert_same_outcome(text)


@given(seed=st.integers(0, 10**6))
@SETTINGS
def test_random_system_dumps_read_alike(seed):
    assert_same_outcome(dumps_constraints(random_system(seed)))


@given(system=constraint_systems())
@SETTINGS
def test_drawn_system_dumps_read_alike(system):
    assert_same_outcome(dumps_constraints(system))


#: Line parts that reach the rare branches: references like ``%05`` or
#: ``%+1``, names that start with ``%`` or hold ``!``, annotations,
#: comments and bad counts.
_DIRECTIVES = ["var", "fun", "obj", "base", "copy", "load", "store", "offs", "!", "#", "x"]
_OPERANDS = [
    "a", "b", "f", "f.ret", "f::p0", "o.f0", "%a", "%1", "a!", "%0", "%2",
    "%05", "%+1", "%-0", "%x", "%", "%99", "!", "#", "#x", "0", "1", "2", "-1", "x",
]
_TAILS = ["", "! 1 Call 0", "! 2 ? 1 3", "! x Call 0", "! 1 Call 2", "! 1 Call 1 -1", "!", "# c"]
_HEADER = "var a\nvar b\nfun f 1\nobj o 1\n"

_LINES = st.builds(
    lambda directive, operands, tail: " ".join([directive, *operands, tail]),
    st.sampled_from(_DIRECTIVES),
    st.lists(st.sampled_from(_OPERANDS), max_size=4),
    st.sampled_from(_TAILS),
)


@given(lines=st.lists(_LINES, max_size=6))
@SETTINGS
def test_line_soup_reads_alike(lines):
    assert_same_outcome(_HEADER + "".join(line + "\n" for line in lines))


#: One line each for the checks whose order the reader must keep.
EDGE_LINES = [
    "var !", "var #x", "var a", "var %1\ncopy %1 a", "var %z\ncopy %z a",
    "load a %x x", "load %x a x", "load a b x", "load a b -1", "load a b 0",
    "copy a b 1", "copy %05 %+1", "copy %-0 %99", "copy ! a", "base a",
    "offs a b", "offs a b 1 # c", "store a b 2 ! 1 Call 0 1",
    "base a b ! x Call 0", "! 1 Call 0", "fun g x", "fun g -1",
    "obj s 2 ! 1 Obj 0", "# repro-config: opt=hu",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_edge_lines_read_alike(line):
    assert_same_outcome(f"{_HEADER}{line}\n")


class TestCommentRule:
    """A ``#`` starts a comment only at the start of a token."""

    def test_hash_inside_a_name_is_part_of_it(self):
        system = loads_constraints(
            "var heap@4#1\nvar heap@4#2\nvar p\nbase p heap@4#2 # p = &heap\n"
        )
        assert system.names == ("heap@4#1", "heap@4#2", "p")
        assert [str(c) for c in system.constraints] == ["v2 = &v1"]

    def test_two_heap_sites_on_one_line_read_back(self):
        # The reference reader cuts at the first ``#``: both read as ``heap@2``.
        text = "var heap@2#1\nvar heap@2#2\n"
        assert dumps_constraints(loads_constraints(text)) == text
        with pytest.raises(ConstraintParseError, match="duplicate variable 'heap@2'"):
            reference_cons_reader.read_constraints(io.StringIO(text))

    @pytest.mark.parametrize(
        "line", ["#var b", "   # indented", "load a a\t#1", "load a a ## x"]
    )
    def test_comments_start_at_a_token(self, line):
        system = loads_constraints(f"var a\n{line}\n")
        assert system.names == ("a",)
        assert [(str(c), c.offset) for c in system.constraints] == (
            [("v0 = *(v0)", 0)] if line.startswith("load") else []
        )

    def test_undeclared_name_with_hash_is_located(self):
        with pytest.raises(ConstraintParseError) as info:
            loads_constraints("var a\ncopy a b#c\n")
        assert (info.value.line_no, info.value.message) == (2, "unknown variable 'b#c'")


@pytest.mark.parametrize("path", C_FILES, ids=lambda path: path.name)
def test_corpus_dump_reads_back(path):
    """The dump of each corpus program's system reads back to the same
    text, constraints and provenance.  Names may differ: ``fun`` and
    ``obj`` name their parameters and fields ``f::p<i>`` and ``o.f<i>``."""
    mode = "sensitive" if ".sensitive." in path.name else "insensitive"
    system = generate_constraints(path.read_text(), field_mode=mode).system
    text = dumps_constraints(system)
    replayed = loads_constraints(text)
    assert dumps_constraints(replayed) == text
    assert replayed.num_vars == system.num_vars
    assert replayed.functions == system.functions
    assert replayed.object_blocks == system.object_blocks
    # ``fun`` re-creates a function's self-base where it is declared, so
    # only the multiset of rows is kept, not their order.
    assert Counter(tuple(c) for c in replayed.constraints) == Counter(
        tuple(c) for c in system.constraints
    )

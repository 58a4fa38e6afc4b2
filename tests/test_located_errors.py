"""Malformed input never reaches the user as a Python traceback.

Hypothesis mutates well-formed inputs — corpus ``.c`` programs token by
token, constraint files line by line, and a recorded ``check --baseline``
file — and runs each through ``repro.cli.main``.  The property: no
exception escapes ``main``, and every ``error:`` line on stderr reads
``error: FILE:LINE[:COL]: ...`` with exit status 1.
"""

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from strategies import mutated_constraint_files

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
C_FILES = sorted(
    os.path.join(CORPUS, kind, name)
    for kind in ("buggy", "clean")
    for name in os.listdir(os.path.join(CORPUS, kind))
    if name.endswith(".c")
)
BASELINE_PROGRAM = os.path.join(CORPUS, "buggy", "null_deref_simple.c")

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_located(argv, path):
    """Run the CLI on ``argv`` and check the located-error property."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    located = re.compile(rf"error: {re.escape(path)}:\d+(:\d+)?: \S")
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    for line in errors:
        assert located.match(line), line
    if errors:
        assert code == 1, (code, errors)
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("located")


# ----------------------------------------------------------------------
# Token-mutated C programs through check and analyze
# ----------------------------------------------------------------------

_C_TOKEN = re.compile(
    r'"(?:\\.|[^"\\\n])*"|/\*.*?\*/|//[^\n]*|[A-Za-z_]\w*|\d+'
    r"|->|\+\+|--|==|!=|<=|>=|&&|\|\||\s+|\S",
    re.S,
)
_C_POOL = [
    "(", ")", "{", "}", "[", "]", ";", ",", "*", "&", "->", ".", "=", "==",
    "int", "char", "void", "struct", "return", "if", "else", "while",
    "malloc", "free", "NULL", "0", "42", "x", '"s"', "'", "@", "/*", "#",
]


def c_tokens(path):
    with open(path, encoding="utf-8") as handle:
        return _C_TOKEN.findall(handle.read())


@st.composite
def mutated_c_programs(draw):
    tokens = c_tokens(draw(st.sampled_from(C_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        solid = [i for i, token in enumerate(tokens) if not token.isspace()]
        i = draw(st.sampled_from(solid))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i] + " ")
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(_C_POOL))
        else:
            j = draw(st.sampled_from(solid))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


@given(source=mutated_c_programs())
@SETTINGS
def test_mutated_c_programs(workdir, source):
    path = str(workdir / "mutated.c")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    run_located(["check", path], path)
    run_located(["analyze", path], path)


#: A repeated parameter name, as a definition, a prototype and a
#: function-pointer declarator; C rejects all three.
DUPLICATE_PARAMETERS = [
    "int f(int a, int a) { return 0; }",
    "int f(int a, int a);",
    "int (*fp)(int a, int a);",
]


@pytest.mark.parametrize("declaration", DUPLICATE_PARAMETERS)
@pytest.mark.parametrize("command", ["check", "analyze"])
def test_duplicate_parameter_is_located(workdir, command, declaration):
    path = str(workdir / "duplicate.c")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(declaration + "\nint main() { return 0; }\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, path])
    # 1-based column of the second ``a``.
    column = declaration.index("int a)") + 5
    assert code == 1
    assert err.getvalue().startswith(
        f"error: {path}:1:{column}: duplicate parameter 'a'"
    ), err.getvalue()


@pytest.mark.parametrize("literal", ["4f", "08", "0x"])
@pytest.mark.parametrize("command", ["check", "analyze"])
def test_malformed_integer_literal_is_located(workdir, command, literal):
    path = str(workdir / "literal.c")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"int g;\nint main() {{ g = {literal}; return 0; }}\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, path])
    assert code == 1
    assert err.getvalue() == (
        f"error: {path}:2:18: malformed integer literal (at {literal!r})\n"
    )


# ----------------------------------------------------------------------
# Line-mutated constraint files through solve, verify, stats and compare
# ----------------------------------------------------------------------

@given(text=mutated_constraint_files())
@SETTINGS
def test_mutated_constraint_files(workdir, text):
    path = str(workdir / "mutated.cons")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    for argv in (
        ["solve", path],
        ["solve", path, "--k-cs", "1"],
        ["verify", path],
        ["stats", path],
        ["compare", path],
    ):
        run_located(argv, path)


# ----------------------------------------------------------------------
# Mutated baselines through check --baseline
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded_baseline(workdir):
    path = str(workdir / "recorded.json")
    assert run_located(["check", BASELINE_PROGRAM, "--baseline", path], path) == 0
    with open(path, encoding="utf-8") as handle:
        return handle.read()


_JSON_VALUES = st.sampled_from(
    [None, 0, 1, 2, "1", [], {}, [1], [[]], [{}], ["x"], [None], "fingerprints"]
)


@st.composite
def mutated_baselines(draw, text):
    if draw(st.booleans()):
        # Structural: a well-formed JSON document of the wrong shape.
        document = json.loads(text)
        key = draw(st.sampled_from(["version", "fingerprints", "extra"]))
        if draw(st.booleans()):
            document[key] = draw(_JSON_VALUES)
        else:
            document = draw(_JSON_VALUES)
        return json.dumps(document, indent=2)
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(chars) - 1))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        char = draw(st.sampled_from(list('{}[]",: 01a\n\\')))
        if op == "delete":
            del chars[i]
        elif op == "insert":
            chars.insert(i, char)
        else:
            chars[i] = char
    return "".join(chars)


@given(data=st.data())
@SETTINGS
def test_mutated_baselines(workdir, recorded_baseline, data):
    text = data.draw(mutated_baselines(recorded_baseline))
    path = str(workdir / "mutated.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    run_located(["check", BASELINE_PROGRAM, "--baseline", path], path)

"""Documentation anti-rot: the tutorial's code blocks must execute."""

import os
import re

import pytest

DOCS_DIR = os.path.join(os.path.dirname(__file__), "..", "docs")


def test_tutorial_snippets_run(tmp_path):
    with open(os.path.join(DOCS_DIR, "tutorial.md"), encoding="utf-8") as handle:
        text = handle.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 5

    prog = tmp_path / "prog.c"
    prog.write_text("int g; int *gp = &g;\nint main() { int *p = gp; return 0; }\n")

    namespace = {}
    for block in blocks:
        block = block.replace('open("prog.c")', f'open("{prog}")')
        exec(block, namespace)  # assertions inside the blocks do the checking


def test_readme_quickstart_runs():
    with open(
        os.path.join(DOCS_DIR, "..", "README.md"), encoding="utf-8"
    ) as handle:
        text = handle.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README must contain python examples"
    for block in blocks:
        exec(block, {})


def test_constraint_format_example_parses():
    from repro.constraints.parser import loads_constraints
    from repro.solvers.registry import solve

    with open(
        os.path.join(DOCS_DIR, "constraint-format.md"), encoding="utf-8"
    ) as handle:
        text = handle.read()
    # The worked example is the block containing the `fun id 1` line.
    example = next(
        block
        for block in re.findall(r"```\n(.*?)```", text, re.S)
        if "fun id 1" in block
    )
    system = loads_constraints(example)
    solution = solve(system, "lcd+hcd")
    r = system.names.index("r")
    g = system.names.index("g")
    assert solution.points_to(r) == {g}


def test_version_written_once():
    """``pyproject.toml`` reads the version from ``repro.__version__``,
    the one the SARIF reports carry, instead of keeping a copy."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(DOCS_DIR, "..", "pyproject.toml"), "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}

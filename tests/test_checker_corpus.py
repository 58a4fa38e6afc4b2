"""The seeded-bug corpus: goldens, precision, and provenance survival.

``tests/corpus/buggy/`` holds small C programs each planting specific
bugs, marked in-source with ``/* BUG: <rule> */`` comments and pinned
field-by-field by committed ``.golden.json`` files (regenerate with
``tests/corpus/regen_goldens.py``).  ``tests/corpus/clean/`` holds
bug-free programs the checkers must stay silent on — including
``steensgaard_fp.c``, where a unification-based solution produces a
bad-indirect-call false positive that inclusion-based analysis rules
out (the paper's Section 2 precision argument, as a test), and
``context_fp.c``, where *insensitive* inclusion-based analysis produces
the same class of false positive that 1-CFA (``--k-cs 1``) rules out;
``context_*.c`` files are analyzed at k=1 (see :func:`corpus_k_cs`) and
their insensitive findings are pinned by ``.k0.golden.json`` files.
"""

import json
import pathlib

import pytest

import repro
from repro.analysis.export import indented_json
from repro.checkers import (
    Severity,
    from_sarif,
    run_checkers,
    to_sarif,
    validate_sarif,
)
from repro.cli import main as cli_main
from repro.constraints.parser import dumps_constraints, loads_constraints
from repro.frontend import generate_constraints
from repro.solvers.registry import make_solver, solve
from repro.verify import minimize_system
from repro.workloads import expected_bug_findings

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
BUGGY = sorted((CORPUS / "buggy").glob("*.c"))
CLEAN = sorted((CORPUS / "clean").glob("*.c"))

#: Checkers for which a coarser solution can only ADD findings (see the
#: monotonicity note in ``repro/checkers/checks.py``); the precision
#: comparison below is only meaningful for these.  ``race`` is absent
#: on purpose: a coarser solution can inflate a mutex's points-to set,
#: grow locksets, and *suppress* races.
MONOTONE_RULES = ("bad-indirect-call", "dangling-stack-escape", "taint-flow")


def corpus_field_mode(path: pathlib.Path) -> str:
    return "sensitive" if ".sensitive." in path.name else "insensitive"


def corpus_k_cs(path: pathlib.Path) -> int:
    """Context-sensitivity level a corpus file is clean/buggy under.

    ``context_*.c`` files demonstrate insensitive false positives, so
    they are analyzed at k=1; everything else at the k=0 default.
    """
    return 1 if path.name.startswith("context_") else 0


def check_file(path: pathlib.Path, algorithm: str = "lcd+hcd", k_cs=None):
    program = generate_constraints(
        path.read_text(), field_mode=corpus_field_mode(path)
    )
    if k_cs is None:
        k_cs = corpus_k_cs(path)
    solver = make_solver(program.system, algorithm, k_cs=k_cs)
    solution = solver.solve()
    expansion = solver.context
    return run_checkers(
        program.system,
        solution,
        program=program,
        path=path.name,
        min_severity=Severity.WARNING,
        expansion=expansion,
        expanded_solution=(
            solver.context_solution() if expansion is not None else None
        ),
    )


def as_golden(report):
    """The committed golden shape of a report (see regen_goldens.py)."""
    return [
        {
            "rule": d.rule,
            "severity": d.severity.label,
            "line": d.line,
            "construct": d.construct,
            "message": d.message,
            "related": [
                {"message": r.message, "line": r.line, "file": r.file}
                for r in d.related
            ],
        }
        for d in report
    ]


def test_corpus_is_populated():
    """The acceptance floor: at least 22 buggy programs, all seven
    checkers covered, and a non-trivial clean set."""
    assert len(BUGGY) >= 22
    assert len(CLEAN) >= 8
    covered = set()
    for path in BUGGY:
        covered.update(rule for rule, _ in expected_bug_findings(path.read_text()))
    assert covered == {
        "null-deref",
        "dangling-stack-escape",
        "heap-leak",
        "bad-indirect-call",
        "invalid-field-offset",
        "taint-flow",
        "race",
    }


@pytest.mark.parametrize("path", BUGGY, ids=lambda p: p.name)
def test_buggy_program_findings_match_markers(path):
    """Every planted bug is reported by its intended checker on the
    exact marked line — and nothing else is."""
    report = check_file(path)
    got = sorted((d.rule, d.line) for d in report)
    want = sorted(expected_bug_findings(path.read_text()))
    assert want, f"{path.name} has no BUG markers"
    assert got == want


@pytest.mark.parametrize("path", BUGGY, ids=lambda p: p.name)
def test_buggy_program_matches_golden(path):
    """Field-by-field agreement with the committed golden."""
    golden = json.loads(path.with_suffix(".golden.json").read_text())
    assert as_golden(check_file(path)) == golden


@pytest.mark.parametrize("path", CLEAN, ids=lambda p: p.name)
def test_clean_program_has_zero_findings(path):
    report = check_file(path)
    assert list(report) == []


@pytest.mark.parametrize("path", BUGGY, ids=lambda p: p.name)
def test_sarif_roundtrip(path):
    """Diagnostics survive SARIF serialization losslessly."""
    report = check_file(path)
    doc = to_sarif(report)
    validate_sarif(doc)
    assert list(from_sarif(doc)) == list(report)
    # and through actual JSON text, as the CLI emits it
    assert list(from_sarif(json.loads(indented_json(doc)))) == list(report)


@pytest.mark.parametrize("path", BUGGY + CLEAN, ids=lambda p: p.name)
def test_precision_monotone_checkers(path):
    """For monotone checkers, inclusion-based analysis never reports
    more than unification-based — Steensgaard's delta is pure FPs."""
    precise = check_file(path, "lcd+hcd")
    coarse = check_file(path, "steensgaard")
    for rule in MONOTONE_RULES:
        n_precise = sum(1 for d in precise if d.rule == rule)
        n_coarse = sum(1 for d in coarse if d.rule == rule)
        assert n_precise <= n_coarse, (path.name, rule)


def test_context_false_positive_eliminated():
    """The k-CFA precision demo: context_fp.c is clean under 1-CFA but
    the insensitive solution merges a data pointer into the function
    pointer through a shared helper and fabricates a bad-indirect-call."""
    path = CORPUS / "clean" / "context_fp.c"
    assert len(check_file(path, k_cs=1)) == 0
    assert len(check_file(path, k_cs=2)) == 0
    coarse = check_file(path, k_cs=0)
    assert any(d.rule == "bad-indirect-call" for d in coarse)


@pytest.mark.parametrize(
    "name", ["context_fp", "context_taint_fp", "context_race_fp"]
)
def test_context_fp_matches_k0_golden(name):
    """The insensitive findings on the context_*.c demos are pinned
    field-by-field so the FPs the benches count can never silently
    drift."""
    path = CORPUS / "clean" / f"{name}.c"
    golden = json.loads((path.parent / f"{name}.k0.golden.json").read_text())
    assert as_golden(check_file(path, k_cs=0)) == golden


@pytest.mark.parametrize("path", BUGGY + CLEAN, ids=lambda p: p.name)
def test_context_sensitivity_monotone(path):
    """1-CFA only removes findings for the monotone checkers — and it
    never loses a seeded bug (the zero-missed-bugs half of the headline
    precision claim)."""
    k0 = check_file(path, k_cs=0)
    k1 = check_file(path, k_cs=1)
    for rule in MONOTONE_RULES:
        n_k1 = sum(1 for d in k1 if d.rule == rule)
        n_k0 = sum(1 for d in k0 if d.rule == rule)
        assert n_k1 <= n_k0, (path.name, rule)
    seeded = set(expected_bug_findings(path.read_text()))
    assert seeded <= {(d.rule, d.line) for d in k1}, path.name


def test_steensgaard_false_positive_eliminated():
    """The precision demo: steensgaard_fp.c is clean under lcd+hcd but
    unification merges a data pointer into the function pointer's class
    and fabricates a bad-indirect-call."""
    path = CORPUS / "clean" / "steensgaard_fp.c"
    assert len(check_file(path, "lcd+hcd")) == 0
    coarse = check_file(path, "steensgaard")
    assert any(d.rule == "bad-indirect-call" for d in coarse)


def test_context_taint_false_positive_eliminated():
    """The k-CFA precision demo for the dataflow engine: a shared
    helper stores untrusted data into one slot and a literal into
    another; insensitive analysis merges the stores and taints the
    clean slot's sink, 1-CFA keeps the flows apart."""
    path = CORPUS / "clean" / "context_taint_fp.c"
    assert len(check_file(path, k_cs=1)) == 0
    assert len(check_file(path, k_cs=2)) == 0
    coarse = check_file(path, k_cs=0)
    assert any(d.rule == "taint-flow" for d in coarse)


def test_context_race_false_positive_eliminated():
    """Same demo for the race detector: insensitive analysis merges
    the two pick() calls, making both threads appear to write through
    pointers to both slots."""
    path = CORPUS / "clean" / "context_race_fp.c"
    assert len(check_file(path, k_cs=1)) == 0
    assert len(check_file(path, k_cs=2)) == 0
    coarse = check_file(path, k_cs=0)
    assert any(d.rule == "race" for d in coarse)


def test_steensgaard_taint_false_positive_eliminated():
    """Unification merges the two string slots, so recorded taint in
    one appears readable through the other; inclusion-based analysis
    keeps them apart."""
    path = CORPUS / "clean" / "steensgaard_taint_fp.c"
    assert len(check_file(path, "lcd+hcd")) == 0
    coarse = check_file(path, "steensgaard")
    assert any(d.rule == "taint-flow" for d in coarse)


def test_steensgaard_race_false_positive_eliminated():
    """Unification merges the two pointer slots the threads write
    through, fabricating a write/write collision on shared storage."""
    path = CORPUS / "clean" / "steensgaard_race_fp.c"
    assert len(check_file(path, "lcd+hcd")) == 0
    coarse = check_file(path, "steensgaard")
    assert any(d.rule == "race" for d in coarse)


def test_two_site_findings_carry_related_locations():
    """Races cite both access sites; taint flows cite their source.
    Both survive the SARIF round-trip exactly."""
    race = check_file(CORPUS / "buggy" / "race_lockset.c")
    (finding,) = list(race)
    assert finding.rule == "race"
    assert finding.related and finding.related[0].line > 0
    assert finding.related[0].line != finding.line
    taint = check_file(CORPUS / "buggy" / "taint_via_copy.c")
    (finding,) = list(taint)
    assert finding.rule == "taint-flow"
    assert finding.related and finding.related[0].line > 0
    for report in (race, taint):
        doc = to_sarif(report)
        validate_sarif(doc)
        assert list(from_sarif(doc)) == list(report)
        (result,) = doc["runs"][0]["results"]
        assert result["relatedLocations"], "SARIF must carry the second site"


def test_reduce_preserves_provenance():
    """Minimizing a failing system keeps each surviving constraint's
    provenance, so the shrunken repro still points at the bad line."""
    path = CORPUS / "buggy" / "null_deref_simple.c"
    source = path.read_text()
    (rule, line), = expected_bug_findings(source)
    program = generate_constraints(source)

    def still_buggy(system):
        report = run_checkers(
            system, solve(system, "lcd+hcd"), min_severity=Severity.ERROR
        )
        return any(d.rule == rule and d.line == line for d in report)

    result = minimize_system(program.system, still_buggy)
    assert len(result) < len(program.system)
    originals = {c: c.prov for c in program.system.constraints}
    for constraint in result.system.constraints:
        assert constraint.prov is not None
        assert constraint.prov == originals[constraint]

    # ... and the minimized repro still round-trips through .cons with
    # provenance intact, reproducing the finding from the text alone.
    replayed = loads_constraints(dumps_constraints(result.system))
    report = run_checkers(
        replayed, solve(replayed, "lcd+hcd"), min_severity=Severity.ERROR
    )
    assert [(d.rule, d.line) for d in report] == [(rule, line)]


class TestCheckCli:
    """Exit codes and formats of ``repro check`` over the corpus."""

    def test_buggy_file_exits_nonzero(self, capsys):
        path = CORPUS / "buggy" / "null_deref_simple.c"
        assert cli_main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "null-deref" in out and ":5:" in out

    def test_clean_file_exits_zero(self, capsys):
        path = CORPUS / "clean" / "clean_basic.c"
        assert cli_main(["check", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_sensitive_corpus_needs_field_mode(self, capsys):
        path = CORPUS / "buggy" / "field_offset_cast.sensitive.c"
        assert (
            cli_main(["check", str(path), "--field-mode", "sensitive"]) == 1
        )
        assert "invalid-field-offset" in capsys.readouterr().out

    def test_sarif_output_validates(self, capsys):
        path = CORPUS / "buggy" / "badcall_data.c"
        assert cli_main(["check", str(path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_sarif(doc)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["version"] == repro.__version__
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["bad-indirect-call"]

    def test_checker_selection(self, capsys):
        path = CORPUS / "buggy" / "leak_chain.c"
        assert (
            cli_main(["check", str(path), "--checker", "null-deref"]) == 0
        )
        capsys.readouterr()
        assert (
            cli_main(["check", str(path), "--disable-checker", "heap-leak"])
            == 0
        )

    def test_json_output_carries_related(self, capsys):
        path = CORPUS / "buggy" / "race_global.c"
        assert cli_main(["check", str(path), "--format", "json"]) == 1
        (finding,) = json.loads(capsys.readouterr().out)
        assert finding["rule"] == "race"
        (related,) = finding["related"]
        assert related["line"] > 0 and related["message"]

    def test_baseline_records_then_suppresses(self, tmp_path, capsys):
        path = CORPUS / "buggy" / "taint_basic.c"
        baseline = tmp_path / "baseline.json"
        # First run records everything and succeeds.
        assert cli_main(["check", str(path), "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert "no findings" in capsys.readouterr().out
        # Second run: nothing new, still clean.
        assert cli_main(["check", str(path), "--baseline", str(baseline)]) == 0
        assert "no findings" in capsys.readouterr().out
        # A different program's findings are new against this baseline.
        other = CORPUS / "buggy" / "race_global.c"
        assert cli_main(["check", str(other), "--baseline", str(baseline)]) == 1
        assert "race" in capsys.readouterr().out

    def test_baseline_reports_only_new_findings(self, tmp_path, capsys):
        """A baseline recorded from a checker subset leaves findings of
        the other checkers as new."""
        path = CORPUS / "buggy" / "taint_sanitized.c"
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                [
                    "check", str(path),
                    "--checker", "heap-leak",
                    "--baseline", str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # Full run against that baseline: the taint finding is new.
        assert cli_main(["check", str(path), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "taint-flow" in out

"""Unit tests for the checker subsystem and the may-alias primitive.

The corpus tests (``test_checker_corpus.py``) exercise the pipeline
end-to-end; these tests pin the pieces: the registry contract, the
diagnostic/report machinery, each checker against a minimal program,
the call-graph parameter-offset edge cases ``bad-indirect-call``
mirrors, and ``PointsToSolution.intersects``.
"""

import pathlib
import re

import pytest

from repro.analysis.alias import AliasAnalysis
from repro.analysis.callgraph import build_call_graph
from repro.analysis.solution import PointsToSolution
from repro.checkers import (
    CheckReport,
    Diagnostic,
    Severity,
    checker_names,
    get_checker,
    register_checker,
    run_checkers,
    select_checkers,
)
from repro.checkers.registry import _REGISTRY
from repro.constraints.builder import ConstraintBuilder
from repro.frontend import generate_constraints
from repro.solvers.registry import solve

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"

BUILTINS = {
    "null-deref",
    "dangling-stack-escape",
    "heap-leak",
    "bad-indirect-call",
    "invalid-field-offset",
}


def check_source(source, field_mode="insensitive", **kwargs):
    program = generate_constraints(source, field_mode=field_mode)
    solution = solve(program.system, "lcd+hcd")
    return run_checkers(program.system, solution, program=program, **kwargs)


class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTINS <= set(checker_names())

    def test_get_checker(self):
        info = get_checker("null-deref")
        assert info.severity is Severity.ERROR
        with pytest.raises(ValueError, match="unknown checker"):
            get_checker("no-such-checker")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_checker("null-deref", severity=Severity.NOTE,
                              description="dup")
            def dup(ctx):  # pragma: no cover
                return iter(())

    def test_select_checkers(self):
        all_names = [info.name for info in select_checkers()]
        assert BUILTINS <= set(all_names)
        only = [info.name for info in select_checkers(["heap-leak"])]
        assert only == ["heap-leak"]
        without = [
            info.name for info in select_checkers(disabled=["heap-leak"])
        ]
        assert "heap-leak" not in without and "null-deref" in without
        with pytest.raises(ValueError):
            select_checkers(["nope"])

    def test_registration_is_removable(self):
        """(Cleanup guard for the duplicate test above's namespace.)"""
        @register_checker("tmp-test-checker", severity=Severity.NOTE,
                          description="t")
        def tmp(ctx):  # pragma: no cover
            return iter(())
        assert "tmp-test-checker" in checker_names()
        del _REGISTRY["tmp-test-checker"]
        assert "tmp-test-checker" not in checker_names()


class TestDiagnostics:
    def test_severity_parse_and_labels(self):
        assert Severity.parse("note") is Severity.NOTE
        assert Severity.parse("WARNING") is Severity.WARNING
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.ERROR.label == "error"
        with pytest.raises(ValueError):
            Severity.parse("fatal")
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR

    def _diag(self, line, rule="null-deref", severity=Severity.ERROR):
        return Diagnostic(rule=rule, severity=severity, message="m",
                          line=line)

    def test_report_finalize_dedups_and_sorts(self):
        report = CheckReport()
        report.extend([self._diag(9), self._diag(2), self._diag(9)])
        report.finalize()
        assert [d.line for d in report] == [2, 9]

    def test_report_filtered(self):
        report = CheckReport()
        report.extend([
            self._diag(1, severity=Severity.NOTE),
            self._diag(2, severity=Severity.WARNING),
            self._diag(3, severity=Severity.ERROR),
        ])
        report.finalize()
        assert [d.line for d in report.filtered(Severity.WARNING)] == [2, 3]
        assert len(report.filtered(Severity.NOTE)) == 3

    def test_report_text(self):
        empty = CheckReport()
        empty.finalize()
        assert "no findings" in empty.to_text()
        report = CheckReport()
        report.extend([self._diag(4)])
        report.finalize()
        text = report.to_text()
        assert "<input>:4: error: m [null-deref]" in text
        assert "1 finding" in text


class TestCheckersUnit:
    def test_null_deref_needs_null_only(self):
        findings = check_source(
            "int g;\nint main() { int *p = &g; int *n = NULL;\n"
            "if (g) { p = n; }\nreturn *p; }"
        )
        # p may be &g: not definitely null, so no error.
        assert not [d for d in findings if d.severity is Severity.ERROR]

    def test_null_deref_uninitialized_is_note_only(self):
        findings = check_source(
            "int main() { int *p; return *p; }",
            min_severity=Severity.NOTE,
        )
        assert [(d.rule, d.severity) for d in findings] == [
            ("null-deref", Severity.NOTE)
        ]

    def test_dangling_inner_frames_not_reported(self):
        findings = check_source(
            "int use(int *p) { return *p; }\n"
            "int main() { int x; return use(&x); }"
        )
        assert not list(findings)

    def test_dangling_forwarded_return_blamed_once(self):
        """g() returning f()'s leaked address is reported at f only."""
        findings = check_source(
            "int *f() { int x; return &x; }\n"
            "int *g() { return f(); }\n"
            "int main() { return *g(); }",
            min_severity=Severity.ERROR,
        )
        assert [d.rule for d in findings] == ["dangling-stack-escape"]
        assert findings.diagnostics[0].line == 1

    def test_heap_leak_transitive_rooting(self):
        findings = check_source(
            "int **keep;\n"
            "int main() {\n"
            "    keep = (int **) malloc(8);\n"
            "    *keep = (int *) malloc(4);\n"
            "    return 0;\n"
            "}"
        )
        assert not list(findings)

    def test_race_on_a_global_whatever_its_name(self):
        """A global is shared whatever its name: the corpus write/write
        race on ``slot`` is reported on ``tmpslot`` as well."""
        source = (CORPUS / "buggy" / "race_global.c").read_text()
        findings = check_source(re.sub(r"\bslot\b", "tmpslot", source))
        assert [(d.rule, d.line) for d in findings] == [("race", 8)]
        assert findings.diagnostics[0].message == (
            "possible data race on 'tmpslot': write in worker() at line 8 "
            "(thread@12) conflicts with write in main() at line 13 (main) "
            "with no common lock"
        )

    def test_invalid_field_offset_requires_sensitivity(self):
        source = (
            "struct a { int *x; };\n"
            "struct b { int *x; int *y; };\n"
            "int g;\n"
            "int main() {\n"
            "    struct a obj;\n"
            "    struct b *pb;\n"
            "    pb = (struct b *) &obj;\n"
            "    pb->y = &g;\n"
            "    return 0;\n"
            "}"
        )
        sensitive = check_source(source, field_mode="sensitive")
        assert [d.rule for d in sensitive] == ["invalid-field-offset"]
        assert sensitive.diagnostics[0].line == 8
        # Field-insensitive collapses every field to the base: no offsets,
        # nothing to check.
        assert not list(check_source(source))


class TestParameterOffsetEdgeCases:
    """The call-graph offset filtering and its checker mirror.

    One pointer's points-to set mixes (a) a function whose block is too
    small for the accessed slot, (b) a plain non-function location, and
    (c) a function that accommodates every access — the callee filter
    must keep exactly (c), and ``bad-indirect-call`` must explain (a)
    and (b).
    """

    def _system(self):
        b = ConstraintBuilder()
        small = b.function("small", ["a"])        # max_offset 2
        big = b.function("big", ["a", "b", "c"])  # max_offset 5
        data = b.var("data")
        fp = b.var("fp")
        b.address_of(fp, small.node)
        b.address_of(fp, big.node)
        b.address_of(fp, data)
        arg = b.var("arg")
        ret = b.var("ret")
        b.call_indirect(fp, [arg, arg, arg], ret=ret)  # slots +2..+4
        return b.build(), small, big, data, fp

    def test_call_graph_filters_by_block_size(self):
        system, small, big, data, fp = self._system()
        solution = solve(system, "lcd+hcd")
        graph = build_call_graph(system, solution)
        # Aggregated over the site's offsets: 'small' survives only the
        # +2 slot, 'big' survives all; 'data' never resolves.
        assert graph.callees(fp) == frozenset({small.node, big.node})
        assert data not in graph.callees(fp)

    def test_checker_explains_each_filtered_pointee(self):
        system, small, big, data, fp = self._system()
        solution = solve(system, "lcd+hcd")
        report = run_checkers(system, solution, checkers=["bad-indirect-call"])
        messages = sorted(d.message for d in report)
        assert len(messages) == 2
        assert "non-function location 'data'" in messages[0]
        assert "small() with too few parameters (1 declared" in messages[1]
        assert "+4 accessed" in messages[1]
        assert not any("big()" in m for m in messages)

    def test_offset_exactly_at_block_edge_is_valid(self):
        b = ConstraintBuilder()
        f = b.function("f", ["a", "b"])  # params at +2, +3; max_offset 3
        fp = b.var("fp")
        b.address_of(fp, f.node)
        arg, ret = b.var("arg"), b.var("ret")
        b.call_indirect(fp, [arg, arg], ret=ret)  # slots +2, +3: exact fit
        system = b.build()
        solution = solve(system, "lcd+hcd")
        assert build_call_graph(system, solution).callees(fp) == frozenset(
            {f.node}
        )
        assert not list(
            run_checkers(system, solution, checkers=["bad-indirect-call"])
        )

    def test_zero_arg_call_only_loads_return(self):
        b = ConstraintBuilder()
        f = b.function("f", [])  # block is (f, f.ret): max_offset 1
        fp = b.var("fp")
        b.address_of(fp, f.node)
        ret = b.var("ret")
        b.call_indirect(fp, [], ret=ret)  # just the +1 return load
        system = b.build()
        solution = solve(system, "lcd+hcd")
        assert build_call_graph(system, solution).callees(fp) == frozenset(
            {f.node}
        )
        assert not list(
            run_checkers(system, solution, checkers=["bad-indirect-call"])
        )


class TestIntersects:
    def _solved(self, algorithm):
        source = (
            "int g0, g1;\n"
            "int main() {\n"
            "    int *p = &g0;\n"
            "    int *q = &g1;\n"
            "    int *r = p;\n"
            "    if (g0) { r = q; }\n"
            "    int *dead;\n"
            "    return *r;\n"
            "}"
        )
        program = generate_constraints(source)
        solution = solve(program.system, algorithm)
        names = {program.system.name_of(i): i for i in range(program.system.num_vars)}
        return solution, names

    @pytest.mark.parametrize("algorithm", ["lcd+hcd", "steensgaard", "ht"])
    def test_matches_set_intersection(self, algorithm):
        """Graph solvers and Steensgaard agree with set intersection."""
        solution, names = self._solved(algorithm)
        p, q, r = names["main::p"], names["main::q"], names["main::r"]
        dead = names["main::dead"]
        for a in (p, q, r, dead):
            for b in (p, q, r, dead):
                expected = not solution.points_to(a).isdisjoint(
                    solution.points_to(b)
                )
                assert solution.intersects(a, b) == expected, (a, b)

    def test_alias_analysis_delegates(self):
        solution, names = self._solved("lcd+hcd")
        alias = AliasAnalysis(solution)
        p, q, r = names["main::p"], names["main::q"], names["main::r"]
        assert not alias.may_alias(p, q)
        assert alias.may_alias(p, r) and alias.may_alias(q, r)
        assert alias.must_not_alias(p, q)

    def test_backing_survives_expand(self):
        """Intersection queries survive an OVS-style substitution."""
        solution, names = self._solved("lcd+hcd")
        identity = list(range(solution.num_vars))
        expanded = solution.expand(identity)
        p, q = names["main::p"], names["main::q"]
        assert expanded.intersects(p, p)
        assert not expanded.intersects(p, q)

    def test_plain_solution_without_backing(self):
        solution = PointsToSolution(
            {0: frozenset({2}), 1: frozenset({2, 3})}, num_vars=4
        )
        assert solution.intersects(0, 1)
        assert not solution.intersects(0, 3)

"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.constraints.parser import dumps_constraints


@pytest.fixture
def constraint_file(tmp_path, simple_system):
    path = tmp_path / "system.constraints"
    path.write_text(dumps_constraints(simple_system))
    return str(path)


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        """
        int g;
        int *gp = &g;
        int *identity(int *p) { return p; }
        int *(*fp)(int *) = &identity;
        int main() {
            int *q = fp(gp);
            return 0;
        }
        """
    )
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_basic(self, constraint_file, capsys):
        code, out, err = run_cli(["solve", constraint_file], capsys)
        assert code == 0
        assert "p -> {x}" in out
        assert "lcd+hcd" in err

    def test_algorithm_choice(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--algorithm", "ht"], capsys
        )
        assert code == 0
        assert "p -> {x}" in out

    def test_stats_flag(self, constraint_file, capsys):
        code, out, _ = run_cli(["solve", constraint_file, "--stats"], capsys)
        assert "propagations" in out

    def test_all_flag_shows_empty(self, constraint_file, capsys):
        _, without_all, _ = run_cli(["solve", constraint_file], capsys)
        _, with_all, _ = run_cli(["solve", constraint_file, "--all"], capsys)
        assert len(with_all.splitlines()) >= len(without_all.splitlines())

    def test_bdd_representation(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--pts", "bdd"], capsys
        )
        assert code == 0
        assert "p -> {x}" in out

    def test_opt_stages_identical_output(self, constraint_file, capsys):
        _, none_out, _ = run_cli(
            ["solve", constraint_file, "--opt", "none"], capsys
        )
        for stage in ("ovs", "hu"):
            code, out, _ = run_cli(
                ["solve", constraint_file, "--opt", stage], capsys
            )
            assert code == 0
            assert out == none_out, stage

    def test_opt_stats_summary(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--opt", "hu", "--stats"], capsys
        )
        assert code == 0
        assert "opt_stage: hu" in out
        assert "opt_vars_merged" in out
        assert "[hu:" in out  # the human-readable offline summary line


class TestAnalyze:
    def test_query(self, c_file, capsys):
        code, out, _ = run_cli(
            ["analyze", c_file, "--query", "main::q"], capsys
        )
        assert code == 0
        assert "main::q -> {g}" in out

    def test_unknown_query(self, c_file, capsys):
        code, out, err = run_cli(
            ["analyze", c_file, "--query", "nope"], capsys
        )
        assert code == 0
        assert "unknown variable" in err

    def test_callgraph(self, c_file, capsys):
        code, out, _ = run_cli(["analyze", c_file, "--callgraph"], capsys)
        assert "indirect call sites" in out
        assert "identity" in out

    def test_default_lists_pointers(self, c_file, capsys):
        code, out, _ = run_cli(["analyze", c_file], capsys)
        assert "gp -> {g}" in out

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_sanitize_leaves_output_unchanged(self, c_file, capsys, command):
        plain = run_cli([command, c_file], capsys)
        assert run_cli([command, c_file, "--sanitize"], capsys) == plain


class TestGenerate:
    def test_to_stdout(self, capsys):
        code, out, _ = run_cli(
            ["generate", "emacs", "--scale", "512"], capsys
        )
        assert code == 0
        assert "base" in out or "copy" in out

    def test_to_file_roundtrips(self, tmp_path, capsys):
        target = tmp_path / "w.constraints"
        code, _, err = run_cli(
            ["generate", "linux", "--scale", "512", "-o", str(target)], capsys
        )
        assert code == 0
        from repro.constraints.parser import read_constraints

        with open(target) as handle:
            system = read_constraints(handle)
        assert len(system) > 0

    def test_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "doom"])

    @pytest.mark.parametrize("scale", ["0", "-4", "inf", "nan", "-inf", "x"])
    def test_rejects_a_scale_that_is_not_finite_and_positive(
        self, tmp_path, capsys, scale
    ):
        target = tmp_path / "w.cons"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "wine", f"--scale={scale}", "-o", str(target)])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert (
            f"argument --scale: invalid scale '{scale}': want a finite number "
            "above 0\n"
        ) in err
        assert not target.exists()

    def test_accepts_a_fractional_scale(self, tmp_path, capsys):
        target = tmp_path / "w.cons"
        code, _, err = run_cli(
            ["generate", "emacs", "--scale", "2048.5", "-o", str(target)], capsys
        )
        assert code == 0
        assert err.startswith("wrote ")


class TestCompareAndStats:
    def test_compare(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["compare", constraint_file, "--algorithms", "naive,lcd"], capsys
        )
        assert code == 0
        assert "naive" in out and "lcd" in out
        assert "propagations" in out

    def test_stats(self, constraint_file, capsys):
        code, out, _ = run_cli(["stats", constraint_file], capsys)
        assert code == 0
        assert "variables:" in out
        assert "OVS:" in out
        assert "HU:" in out

    def test_verify_accepts_optimized_run(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["verify", constraint_file, "--algorithms", "lcd+hcd",
             "--pts", "int", "--opt", "hu", "--sanitize"],
            capsys,
        )
        assert code == 0
        assert "ACCEPT" in out
        assert "REJECT" not in out


class TestOfflineStagesRunOnce:
    """Every solver a command builds on one system shares that system's
    offline stages (``ConstraintSystem.derived``): ``compare`` and
    ``verify`` run the opt stage once per system, not once per solver."""

    @pytest.fixture
    def wine_file(self, tmp_path, capsys):
        path = tmp_path / "wine.cons"
        code, _, _ = run_cli(
            ["generate", "wine", "--scale", "1024", "--seed", "2", "-o", str(path)],
            capsys,
        )
        assert code == 0
        return str(path)

    @pytest.fixture
    def stage_runs(self, monkeypatch):
        """The stage of every run of the rounds both stages share."""
        import repro.preprocess.hvn as hvn

        runs = []
        real = hvn._run_rounds

        def counted(system, stage):
            runs.append(stage)
            return real(system, stage)

        monkeypatch.setattr(hvn, "_run_rounds", counted)
        return runs

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["compare", "--opt", "ovs"], ["ovs"]),
            # The bootstrap's HU on its slice, then one HU on the expansion.
            (["compare", "--opt", "hu", "--k-cs", "1"], ["hu", "hu"]),
            (["verify", "--algorithms", "all", "--pts", "all", "--opt", "hu"], ["hu"]),
        ],
    )
    def test_opt_stage_runs_once_per_system(
        self, wine_file, stage_runs, capsys, argv, expected
    ):
        code, _, err = run_cli([argv[0], wine_file, *argv[1:]], capsys)
        assert code == 0
        assert "WARNING" not in err
        assert stage_runs == expected


class TestAlgorithmLists:
    """``compare`` and ``verify`` parse ``--algorithms`` the same way and
    check the whole list before they build the first solver."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.cli

        built = []
        real = repro.cli.make_solver

        def record(system, algorithm, **options):
            built.append(algorithm)
            return real(system, algorithm, **options)

        monkeypatch.setattr(repro.cli, "make_solver", record)
        return built

    @pytest.mark.parametrize("command", ["compare", "verify"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            (",", "--algorithms ',' has an empty entry\n"),
            ("", "--algorithms '' has an empty entry\n"),
            ("lcd,", "--algorithms 'lcd,' has an empty entry\n"),
            ("lcd,bogus", "unknown algorithm 'bogus'; known: blq, hcd,"),
        ],
    )
    def test_bad_list_fails_before_any_solve(
        self, constraint_file, builds, capsys, command, spec, message
    ):
        code, out, err = run_cli(
            [command, constraint_file, "--algorithms", spec], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert builds == []

    def test_verify_runs_a_pts_blind_solver_once(
        self, constraint_file, builds, capsys
    ):
        """BLQ and Steensgaard ignore ``pts``: ``verify --pts all`` runs
        each once and shows ``-`` for its family."""
        code, out, _ = run_cli(
            ["verify", constraint_file, "--algorithms", "blq,lcd,blq+hcd",
             "--pts", "all"],
            capsys,
        )
        assert code == 0
        assert builds == ["blq", "lcd", "lcd", "lcd", "blq+hcd"]
        rows = [line.split()[:2] for line in out.splitlines() if "ACCEPT" in line]
        assert rows == [
            ["blq", "-"], ["lcd", "bitmap"], ["lcd", "bdd"], ["lcd", "int"],
            ["blq+hcd", "-"],
        ]

    def test_names_are_stripped(self, constraint_file, builds, capsys):
        code, _, err = run_cli(
            ["compare", constraint_file, "--algorithms", " naive , steensgaard"],
            capsys,
        )
        assert code == 0
        assert builds == ["naive", "steensgaard"]
        assert err == "WARNING: steensgaard disagrees with naive\n"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_solvers(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        out = capsys.readouterr().out
        assert "lcd+hcd" in out

    @pytest.mark.parametrize(
        "command", ["solve", "analyze", "check", "compare", "verify", "reduce"]
    )
    def test_removed_shared_family_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "input.cons", "--pts", "shared"])
        assert exc.value.code == 2
        assert "invalid choice: 'shared'" in capsys.readouterr().err


class TestReplayHeader:
    """``repro reduce`` records its whole configuration in the header;
    every command replays what applies to it."""

    @pytest.fixture
    def int_repro(self, tmp_path, simple_system):
        path = tmp_path / "repro.cons"
        path.write_text(
            "# repro-config: check=certify algorithm=lcd+hcd pts=int "
            "opt=hu k-cs=0\n" + dumps_constraints(simple_system)
        )
        return str(path)

    @staticmethod
    def _families(out):
        return {line.split()[1] for line in out.splitlines() if "ACCEPT" in line}

    def test_recorded_pts_is_replayed(self, int_repro, capsys):
        code, out, err = run_cli(["verify", int_repro], capsys)
        assert code == 0
        assert self._families(out) == {"int"}
        assert err == (
            "replaying --algorithms lcd+hcd --pts int --opt hu --k-cs 0 from "
            f"the repro-config header of {int_repro}\n"
        )

    def test_explicit_pts_overrides_header(self, int_repro, capsys):
        code, out, err = run_cli(["verify", int_repro, "--pts", "bitmap"], capsys)
        assert code == 0
        assert self._families(out) == {"bitmap"}
        assert "--pts" not in err

    @pytest.fixture
    def disagree_repro(self, tmp_path, simple_system, capsys):
        """A repro of steensgaard disagreeing with naive, reduced with
        the sanitizer armed."""
        source = tmp_path / "system.cons"
        source.write_text(dumps_constraints(simple_system))
        path = tmp_path / "repro.cons"
        code, _, _ = run_cli(
            ["reduce", str(source), "--check", "disagree", "--algorithm",
             "steensgaard", "--against", "naive", "--sanitize", "-o", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == (
            "# repro-config: check=disagree algorithm=steensgaard "
            "against=naive pts=bitmap opt=none k-cs=0 sanitize=1"
        )
        return str(path)

    def test_bare_compare_replays_the_disagreement(self, disagree_repro, capsys):
        code, out, err = run_cli(["compare", disagree_repro], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[3:]] == [
            "steensgaard", "naive",
        ]
        assert err == (
            "replaying --algorithms steensgaard,naive --pts bitmap --opt none "
            f"--k-cs 0 --sanitize from the repro-config header of "
            f"{disagree_repro}\n"
            "WARNING: naive disagrees with steensgaard\n"
        )

    def test_recorded_algorithm_and_sanitize_replayed(
        self, disagree_repro, capsys
    ):
        code, out, err = run_cli(["solve", disagree_repro, "--stats"], capsys)
        assert code == 0
        assert "verify_invariant_checks" in out  # the sanitizer ran
        assert err.startswith(
            "replaying --algorithm steensgaard --pts bitmap --opt none "
            "--k-cs 0 --sanitize from the repro-config header"
        )
        assert "steensgaard:" in err

    def test_explicit_algorithm_overrides_header(self, disagree_repro, capsys):
        code, out, err = run_cli(
            ["compare", disagree_repro, "--algorithms", "naive,lcd"], capsys
        )
        assert code == 0
        assert "--algorithms" not in err and "WARNING" not in err
        assert "steensgaard" not in out

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("algorithm=wave", "unknown algorithm 'wave'; valid: blq, hcd, ht"),
            ("algorithm=lcd against=wave", "unknown algorithm 'wave'; valid:"),
            # An alias of hcd is accepted by --algorithm, never recorded.
            ("algorithm=naive+hcd", "unknown algorithm 'naive+hcd'; valid:"),
            ("sanitize=yes", "unknown sanitize value 'yes'; valid: 0, 1\n"),
        ],
    )
    def test_unknown_recorded_value_is_located(
        self, tmp_path, capsys, entry, message
    ):
        path = tmp_path / "repro.cons"
        path.write_text(f"# repro-config: {entry}\nvar a\n")
        code, _, err = run_cli(["compare", str(path)], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}:1: repro header records {message}")

    def test_unknown_recorded_pts_is_located(self, tmp_path, capsys):
        path = tmp_path / "repro.cons"
        path.write_text("# repro-config: pts=shared\nvar a\n")
        code, _, err = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert err == (
            f"error: {path}:1: repro header records unknown points-to family "
            "'shared'; valid: bitmap, bdd, int\n"
        )


class TestJsonAndDot:
    def test_solve_json(self, constraint_file, capsys):
        import json

        code, out, _ = run_cli(["solve", constraint_file, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["points_to"]["p"] == ["x"]

    def test_dot_output(self, constraint_file, capsys):
        code, out, _ = run_cli(["dot", constraint_file], capsys)
        assert code == 0
        assert out.startswith("digraph constraints {")
        assert '"p"' in out and "->" in out

    def test_dot_with_solution_labels(self, constraint_file, capsys):
        code, out, _ = run_cli(["dot", constraint_file, "--solve"], capsys)
        assert code == 0
        assert "{x" in out  # points-to annotation present

    @pytest.mark.parametrize("cap", ["0", "-1", "x"])
    def test_dot_rejects_an_invalid_node_cap(self, constraint_file, capsys, cap):
        with pytest.raises(SystemExit) as exc:
            main(["dot", constraint_file, f"--max-nodes={cap}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (
            f"argument --max-nodes: invalid node cap '{cap}': want a whole "
            "number of at least 1\n"
        ) in err


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["solve", "/nonexistent/file.constraints"], capsys)
        assert code == 1
        assert "error:" in err

    def test_malformed_constraint_file(self, tmp_path, capsys):
        path = tmp_path / "bad.constraints"
        path.write_text("var a\nbogus directive\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert err == f"error: {path}:2: unknown directive 'bogus'\n"

    @pytest.mark.parametrize("command", ["solve", "compare", "verify", "reduce", "stats", "dot"])
    def test_constraint_syntax_error_is_located_everywhere(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "bad.cons"
        path.write_text("var a\nvar b\ncopy a\n")
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 1
        assert err == f"error: {path}:3: bad arity for copy\n"

    def test_malformed_repro_header_is_located(self, tmp_path, capsys):
        path = tmp_path / "repro.cons"
        path.write_text("# repro-config: opt\nvar a\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert err == f"error: {path}:1: malformed repro-config entry 'opt'\n"

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_c_lex_error_is_located(self, tmp_path, capsys, command):
        path = tmp_path / "lex.c"
        path.write_text("int g;\nint main() { int x = 1 @ 2; }\n")
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 1
        assert err == f"error: {path}:2:24: unexpected character '@'\n"

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_c_parse_error_is_located(self, tmp_path, capsys, command):
        path = tmp_path / "parse.c"
        path.write_text("int g;\nint main( {\n")
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 1
        assert err == f"error: {path}:2:11: expected ')' (at '{{')\n"

    def test_header_bad_k_cs_is_located(self, tmp_path, capsys):
        path = tmp_path / "repro.cons"
        path.write_text("# repro-config: opt=hu k-cs=x\nvar a\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert err == (
            f"error: {path}:1: repro header records unknown k-cs level 'x'; "
            "valid: 0, 1, 2\n"
        )

    def test_header_unknown_opt_is_located(self, tmp_path, capsys):
        path = tmp_path / "repro.cons"
        path.write_text("# reduced by hand\n# repro-config: opt=turbo\nvar a\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert err == (
            f"error: {path}:2: repro header records unknown opt stage 'turbo'; "
            "valid: none, ovs, hu\n"
        )

    def test_malformed_baseline_json_is_located(self, c_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\n")
        code, _, err = run_cli(["check", c_file, "--baseline", str(baseline)], capsys)
        assert code == 1
        assert err == (
            f"error: {baseline}:2:1: Expecting property name enclosed in "
            "double quotes\n"
        )

    @pytest.mark.parametrize(
        "document",
        ['\n{"version": 2, "fingerprints": []}', '\n{"version": 1, "fingerprints": [[]]}'],
    )
    def test_baseline_of_the_wrong_shape_is_located(self, c_file, tmp_path, capsys, document):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(document)
        code, _, err = run_cli(["check", c_file, "--baseline", str(baseline)], capsys)
        assert code == 1
        assert err == (
            f'error: {baseline}:2: not a repro-check baseline file (want {{"version": 1, '
            '"fingerprints": [strings]})\n'
        )

    @pytest.mark.parametrize("kind", ["c", "cons", "baseline"])
    def test_invalid_utf8_is_located(self, c_file, tmp_path, capsys, kind):
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"int g;\nint *p = \xff;\n")
        args = {
            "c": ["check", str(bad)],
            "cons": ["solve", str(bad)],
            "baseline": ["check", c_file, "--baseline", str(bad)],
        }[kind]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert err == f"error: {bad}:2:10: invalid UTF-8 byte 0xff (invalid start byte)\n"

    def test_unknown_algorithm(self, constraint_file, capsys):
        code, _, err = run_cli(
            ["solve", constraint_file, "--algorithm", "magic"], capsys
        )
        assert code == 1
        assert "unknown algorithm" in err

    def test_syntax_error_in_c_source(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 1
        assert "error:" in err

    @staticmethod
    def _nested_program(shape, depth):
        if shape == "parens":
            return "int x; int *p; int main() { p = %s&x%s; return 0; }\n" % (
                "(" * depth, ")" * depth,
            )
        if shape == "stars":
            return "int **p; int *q; int main() { q = %sp; return 0; }\n" % (
                "*" * depth
            )
        return "int main() { %s%s return 0; }\n" % ("{" * depth, "}" * depth)

    @pytest.mark.parametrize("shape", ["parens", "stars", "blocks"])
    def test_deep_nesting_is_a_located_error(self, tmp_path, capsys, shape):
        path = tmp_path / "deep.c"
        path.write_text(self._nested_program(shape, 3000))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert re.fullmatch(
            rf"error: {re.escape(str(path))}:1:\d+: nesting exceeds \d+ levels"
            r" \(at '.+'\)\n",
            err,
        ), err

    @pytest.mark.parametrize(
        "shape, depth", [("parens", 60), ("stars", 190), ("blocks", 190)]
    )
    def test_nesting_within_limit_checks(self, tmp_path, capsys, shape, depth):
        """The guard leaves every later pass room on the default stack."""
        path = tmp_path / "nested.c"
        path.write_text(self._nested_program(shape, depth))
        code, _, err = run_cli(["check", str(path), "--k-cs", "1"], capsys)
        assert code == 0, err

    def test_analyze_field_mode_flag(self, tmp_path, capsys):
        path = tmp_path / "s.c"
        path.write_text(
            "struct s { int *f; int *g; };\n"
            "int main() { int x; struct s v; v.f = &x; int *r = v.g; return 0; }\n"
        )
        code, out_insens, _ = run_cli(
            ["analyze", str(path), "--query", "main::r"], capsys
        )
        assert code == 0 and "main::x" in out_insens
        code, out_sens, _ = run_cli(
            ["analyze", str(path), "--query", "main::r", "--field-mode", "sensitive"],
            capsys,
        )
        assert code == 0 and "main::r -> {}" in out_sens

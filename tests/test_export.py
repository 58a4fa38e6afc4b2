"""Tests for the JSON/dot export helpers."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.export import (
    PointeeRenderer,
    constraint_graph_dot,
    indented_json,
    solution_from_json,
    solution_to_json,
)
from repro.analysis.solution import PointsToSolution
from repro.cli import main
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintSystem
from repro.constraints.parser import loads_constraints, read_constraints, write_constraints
from repro.points_to.interface import FAMILY_KINDS
from repro.solvers.registry import make_solver, solve
from repro.workloads import generate_workload
from strategies import constraint_systems, k_levels, opt_stages, pts_families

INDENTS = [None, 0, 2, 4]

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def reference_json(system, solution, include_empty=False, indent=2):
    """The stdlib rendering that ``solution_to_json`` must match byte for
    byte: the document built as a dict and passed to ``json.dumps``."""
    points_to = {}
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if pointees or include_empty:
            points_to[system.name_of(var)] = sorted(
                system.name_of(loc) for loc in pointees
            )
    return json.dumps(
        {"num_vars": system.num_vars, "points_to": points_to},
        indent=indent,
        sort_keys=True,
    )


def assert_matches_reference(system, solution):
    for include_empty in (False, True):
        for indent in INDENTS:
            assert solution_to_json(
                system, solution, include_empty=include_empty, indent=indent
            ) == reference_json(system, solution, include_empty, indent), (
                include_empty, indent,
            )


class TestJson:
    def test_roundtrip(self, simple_system):
        solution = solve(simple_system, "naive")
        text = solution_to_json(simple_system, solution)
        again = solution_from_json(text, simple_system)
        assert again == solution

    def test_shape(self, simple_system):
        solution = solve(simple_system, "naive")
        data = json.loads(solution_to_json(simple_system, solution))
        assert data["num_vars"] == simple_system.num_vars
        assert data["points_to"]["q"] == ["x", "y"]
        assert "r" in data["points_to"]

    def test_include_empty(self):
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        b.address_of(p, x)
        b.var("untouched")
        system = b.build()
        solution = solve(system, "naive")
        sparse = json.loads(solution_to_json(system, solution))
        dense = json.loads(solution_to_json(system, solution, include_empty=True))
        assert len(dense["points_to"]) == system.num_vars
        assert len(sparse["points_to"]) < system.num_vars
        assert dense["points_to"]["untouched"] == []

    def test_compact_indent(self, simple_system):
        solution = solve(simple_system, "naive")
        text = solution_to_json(simple_system, solution, indent=None)
        assert "\n" not in text


class TestByteIdentity:
    """``solution_to_json`` assembles the document itself; every byte must
    equal ``json.dumps(..., indent=indent, sort_keys=True)``."""

    def test_simple_system_exact(self, simple_system):
        solution = solve(simple_system, "naive")
        assert solution_to_json(simple_system, solution) == (
            '{\n  "num_vars": 5,\n  "points_to": {\n'
            '    "p": [\n      "x"\n    ],\n'
            '    "q": [\n      "x",\n      "y"\n    ],\n'
            '    "r": [\n      "x"\n    ],\n'
            '    "x": [\n      "x"\n    ],\n'
            '    "y": [\n      "x"\n    ]\n'
            "  }\n}"
        )
        assert solution_to_json(simple_system, solution, indent=None) == (
            '{"num_vars": 5, "points_to": {"p": ["x"], "q": ["x", "y"], '
            '"r": ["x"], "x": ["x"], "y": ["x"]}}'
        )

    def test_empty_solution(self):
        system = ConstraintSystem(["a", "b"], [])
        solution = PointsToSolution({}, 2)
        assert solution_to_json(system, solution) == (
            '{\n  "num_vars": 2,\n  "points_to": {}\n}'
        )
        assert_matches_reference(system, solution)
        assert_matches_reference(ConstraintSystem([], []), PointsToSolution({}, 0))

    def test_names_that_need_escaping(self):
        b = ConstraintBuilder()
        names = ['quo"te', "back\\slash", "ctl\x01char", "café", "astral\U0001f600"]
        nodes = [b.var(name) for name in names]
        for i, node in enumerate(nodes):
            b.address_of(node, nodes[(i + 1) % len(nodes)])
            b.address_of(node, nodes[(i + 2) % len(nodes)])
        system = b.build()
        solution = solve(system, "naive")
        assert_matches_reference(system, solution)
        text = solution_to_json(system, solution)
        assert text.isascii()
        assert set(json.loads(text)["points_to"]) == set(names)
        assert solution_from_json(text, system) == solution

    def test_duplicate_names_keep_the_last_variable(self):
        system = ConstraintSystem(["p", "x", "p", "y"], [])
        solution = PointsToSolution({0: [1], 2: [3]}, 4)
        assert json.loads(solution_to_json(system, solution))["points_to"] == {
            "p": ["y"]
        }
        assert_matches_reference(system, solution)

    @given(constraint_systems(), pts_families, opt_stages, k_levels)
    @settings(max_examples=60, **COMMON)
    def test_solved_systems_match_reference(self, system, pts, opt, k_cs):
        solution = make_solver(
            system, "lcd+hcd", pts=pts, opt=opt, k_cs=k_cs
        ).solve()
        assert_matches_reference(system, solution)

    @given(st.data())
    @settings(max_examples=60, **COMMON)
    def test_arbitrary_names_and_sets_match_reference(self, data):
        names = data.draw(st.lists(st.text(max_size=6), max_size=8))
        n = len(names)
        sets = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
        shared = data.draw(st.lists(sets, min_size=1, max_size=3))
        mapping = {
            var: data.draw(st.sampled_from(shared) | sets) for var in range(n)
        }
        system = ConstraintSystem(names, [])
        solution = PointsToSolution(mapping, n)
        assert_matches_reference(system, solution)


#: What reports hold: dicts with text keys, lists, text (control and
#: non-ASCII characters included), ints of any size and sign, bools and
#: ``None``.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


class TestIndentedJson:
    """``indented_json`` is ``json.dumps(value, indent=2)``, byte for byte."""

    @given(JSON_VALUES)
    @settings(max_examples=300, **COMMON)
    def test_matches_json_dumps(self, value):
        assert indented_json(value) == json.dumps(value, indent=2)

    def test_empty_containers_and_edge_scalars(self):
        value = {"": [], "d": {}, "n": [None, True, False, -(2**80), 0], "s": "é\x00\n\""}
        assert indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "key"}, object()])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            indented_json(value)


class TestCliJson:
    """``repro solve --json [--all]`` prints the reference rendering."""

    @pytest.fixture(scope="class")
    def wine(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wine") / "wine.cons"
        with open(path, "w", encoding="utf-8") as handle:
            write_constraints(generate_workload("wine", scale=1 / 1024, seed=2), handle)
        # Read back: the file format renames function parameters.
        with open(path, encoding="utf-8") as handle:
            return read_constraints(handle), str(path)

    @pytest.mark.parametrize(
        "flags, opt, k_cs",
        [
            (["--opt", "none"], "none", 0),
            (["--opt", "hu"], "hu", 0),
            (["--k-cs", "1"], "hu", 1),
        ],
    )
    @pytest.mark.parametrize("include_empty", [False, True])
    def test_solve_json_matches_reference(
        self, wine, capsys, flags, opt, k_cs, include_empty
    ):
        system, path = wine
        argv = ["solve", path, "--json", *flags] + (["--all"] if include_empty else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The naive solver is an independent route to the same solution.
        solution = make_solver(system, "naive", opt=opt, k_cs=k_cs).solve()
        assert solution.non_empty_count() > 0
        assert out == reference_json(system, solution, include_empty) + "\n"


class TestSolutionFromJson:
    def test_rejects_another_num_vars(self, simple_system):
        text = json.dumps({"num_vars": 9, "points_to": {"p": ["x"]}})
        with pytest.raises(ValueError, match=r"num_vars is 9, but the system has 5"):
            solution_from_json(text, simple_system)

    def test_rejects_missing_num_vars(self, simple_system):
        text = json.dumps({"points_to": {"p": ["x"]}})
        with pytest.raises(ValueError, match=r"num_vars is None"):
            solution_from_json(text, simple_system)

    @pytest.mark.parametrize(
        "points_to, name",
        [({"nope": ["x"]}, "nope"), ({"p": ["x", "ghost"]}, "ghost")],
    )
    def test_rejects_unknown_variable(self, simple_system, points_to, name):
        text = json.dumps({"num_vars": 5, "points_to": points_to})
        with pytest.raises(ValueError, match=rf"variable '{name}' is not in the system"):
            solution_from_json(text, simple_system)


class TestPointeeRendering:
    def test_renderer_renders_each_set_once(self):
        calls = []

        def render(sorted_names):
            calls.append(sorted_names)
            return "|".join(sorted_names)

        renderer = PointeeRenderer(["x", "y", "z"], render)
        shared = frozenset({2, 0})
        assert renderer(shared) == "x|z"
        assert renderer(shared) == "x|z"
        assert renderer(frozenset([0, 2])) == "x|z"  # equal value, other object
        assert renderer(frozenset({1})) == "y"
        assert calls == [["x", "z"], ["y"]]

    def test_expansion_shares_set_objects(self):
        shared = frozenset({3})
        solution = PointsToSolution(
            {0: shared, 1: shared, 2: frozenset({3, 4})}, 6, num_locs=6
        )
        expanded = solution.expand([0, 1, 1, 2, 2, 5], loc_members={3: [3, 5]})
        assert expanded.points_to(0) == {3, 5}
        # Two representatives hold one set object: it is expanded once.
        assert expanded.points_to(0) is expanded.points_to(1) is expanded.points_to(2)
        assert expanded.points_to(3) == {3, 4, 5}
        assert expanded.points_to(3) is expanded.points_to(4)
        assert expanded.points_to(5) == frozenset()

    @pytest.mark.parametrize("pts", FAMILY_KINDS)
    def test_collapsed_variables_share_one_frozenset(self, cycle_system, pts):
        solution = solve(cycle_system, "lcd+hcd", pts=pts)
        a, c, d = (cycle_system.names.index(name) for name in "acd")
        assert solution.points_to(a) is solution.points_to(c) is solution.points_to(d)

    def test_canonical_bignums_share_one_frozenset(self):
        b = ConstraintBuilder()
        # Pad the id space so the sets are bignums, not cached small ints.
        for i in range(300):
            b.var(f"pad{i}")
        p, q, x = b.var("p"), b.var("q"), b.var("x")
        b.address_of(p, x)
        b.address_of(q, x)
        system = b.build()
        solution = solve(system, "naive", pts="int")
        assert solution.points_to(p) == {x}
        assert solution.points_to(p) is solution.points_to(q)


class TestDot:
    def test_contains_all_edge_kinds(self, simple_system):
        dot = constraint_graph_dot(simple_system)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "style=bold" in dot  # base
        assert "style=dashed" in dot  # load
        assert "style=dotted" in dot  # store

    def test_solution_annotations(self, simple_system):
        solution = solve(simple_system, "naive")
        dot = constraint_graph_dot(simple_system, solution)
        assert "\\n{" in dot
        assert '"q" [label="q\\n{x, y}"];' in dot

    def test_truncation(self):
        system = generate_workload("emacs", scale=1 / 256, seed=1)
        dot = constraint_graph_dot(system, max_nodes=10)
        assert "truncated" in dot

    def test_offs_is_its_own_edge(self):
        system = loads_constraints("obj s 2\nvar p\nvar q\nbase p s\noffs q p 1\n")
        dot = constraint_graph_dot(system)
        assert '  "p" -> "q" [label="offs+1"];' in dot
        assert "store" not in dot

    @pytest.mark.parametrize("max_nodes, edges", [(1, 0), (2, 1), (3, 1), (4, 3)])
    def test_cap_stops_before_the_edge_that_passes_it(self, max_nodes, edges):
        system = loads_constraints(
            "var a\nvar b\nvar c\nvar d\ncopy b a\ncopy d c\ncopy a d\n"
        )
        dot = constraint_graph_dot(system, max_nodes=max_nodes)
        assert dot.count(" -> ") == edges
        assert (f"(truncated at {max_nodes} nodes)" in dot) == (edges < 3)

    @given(system=constraint_systems(), max_nodes=st.integers(1, 12))
    @settings(max_examples=60, **COMMON)
    def test_output_names_at_most_max_nodes(self, system, max_nodes):
        dot = constraint_graph_dot(system, max_nodes=max_nodes)
        named = set()
        for line in dot.splitlines():
            if " -> " in line:
                tail, head = line.split(" [")[0].rstrip(";").split(" -> ")
                named.update((tail.strip(), head.strip()))
        assert len(named) <= max_nodes
        if "truncated" not in dot:
            assert dot.count(" -> ") == len(system.constraints)

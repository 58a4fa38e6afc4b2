"""Per-solver unit tests: hand-computed solutions and behavioural stats."""

import pytest

from repro.constraints.builder import ConstraintBuilder
from repro.solvers.blq import BLQSolver
from repro.solvers.hcd import HCDSolver
from repro.solvers.ht import HTSolver
from repro.solvers.lcd import LCDSolver
from repro.solvers.naive import NaiveSolver
from repro.solvers.pkh import PKHSolver
from repro.solvers.registry import (
    PAPER_ALGORITHMS,
    all_solvers,
    available_solvers,
    make_solver,
    solve,
)

ALL_SOLVER_CLASSES = [NaiveSolver, HTSolver, PKHSolver, BLQSolver, LCDSolver, HCDSolver]


def names_of(system, solution, var):
    return sorted(system.name_of(loc) for loc in solution.points_to(var))


@pytest.mark.parametrize("solver_cls", ALL_SOLVER_CLASSES)
class TestHandComputedSolutions:
    def test_base_and_copy(self, solver_cls):
        b = ConstraintBuilder()
        p, q, x = b.var("p"), b.var("q"), b.var("x")
        b.address_of(p, x)
        b.assign(q, p)
        system = b.build()
        solution = solver_cls(system).solve()
        assert solution.points_to(p) == {x}
        assert solution.points_to(q) == {x}
        assert solution.points_to(x) == frozenset()

    def test_load(self, solver_cls):
        b = ConstraintBuilder()
        p, x, y, r = b.var("p"), b.var("x"), b.var("y"), b.var("r")
        b.address_of(p, x)
        b.address_of(x, y)  # x points to y
        b.load(r, p)  # r = *p  ->  r >= pts(x) = {y}
        solution = solver_cls(b.build()).solve()
        assert solution.points_to(r) == {y}

    def test_store(self, solver_cls):
        b = ConstraintBuilder()
        p, q, x, y = b.var("p"), b.var("q"), b.var("x"), b.var("y")
        b.address_of(p, x)
        b.address_of(q, y)
        b.store(p, q)  # *p = q  ->  pts(x) >= pts(q) = {y}
        solution = solver_cls(b.build()).solve()
        assert solution.points_to(x) == {y}

    def test_simple_system(self, solver_cls, simple_system):
        solution = solver_cls(simple_system).solve()
        p, q, x, y, r = range(5)
        assert solution.points_to(p) == {x}
        assert solution.points_to(q) == {x, y}
        assert solution.points_to(x) == {x}  # via *q = p
        assert solution.points_to(y) == {x}
        assert solution.points_to(r) == {x}  # r = *q

    def test_copy_cycle(self, solver_cls, cycle_system):
        solution = solver_cls(cycle_system).solve()
        a, c, d, x = range(4)
        for var in (a, c, d):
            assert solution.points_to(var) == {x}

    def test_cycle_through_complex(self, solver_cls):
        """A cycle that only materializes via a store: p -> x -> p."""
        b = ConstraintBuilder()
        p, x, z = b.var("p"), b.var("x"), b.var("z")
        b.address_of(p, x)
        b.address_of(p, z)
        b.store(p, p)  # pts(x) >= pts(p), pts(z) >= pts(p)
        b.assign(p, x)  # pts(p) >= pts(x): closes the cycle
        solution = solver_cls(b.build()).solve()
        assert solution.points_to(p) == {x, z}
        assert solution.points_to(x) == {x, z}
        assert solution.points_to(z) == {x, z}

    def test_indirect_call(self, solver_cls):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        b.assign(f.return_node, f.params[0])  # identity
        x, fp, arg, ret = b.var("x"), b.var("fp"), b.var("arg"), b.var("ret")
        b.address_of(arg, x)
        b.address_of(fp, f.node)
        b.call_indirect(fp, [arg], ret=ret)
        solution = solver_cls(b.build()).solve()
        assert solution.points_to(f.params[0]) == {x}
        assert solution.points_to(ret) == {x}

    def test_indirect_call_invalid_target_skipped(self, solver_cls):
        b = ConstraintBuilder()
        f = b.function("f", params=[])  # arity 0: offset 2 invalid
        x, fp, arg, ret = b.var("x"), b.var("fp"), b.var("arg"), b.var("ret")
        b.address_of(arg, x)
        b.address_of(fp, f.node)
        b.address_of(fp, x)  # non-function pointee must be skipped too
        b.call_indirect(fp, [arg], ret=ret)
        solution = solver_cls(b.build()).solve()
        assert solution.points_to(ret) == frozenset()

    def test_empty_system(self, solver_cls):
        solution = solver_cls(ConstraintBuilder().build()).solve()
        assert solution.num_vars == 0
        assert solution.total_size() == 0

    def test_solve_is_idempotent(self, solver_cls, simple_system):
        solver = solver_cls(simple_system)
        assert solver.solve() is solver.solve()

    def test_stats_populated(self, solver_cls, simple_system):
        solver = solver_cls(simple_system)
        solver.solve()
        assert solver.stats.solve_seconds >= 0.0
        assert solver.stats.pts_memory_bytes >= 0


class TestLCDBehaviour:
    def test_lcd_collapses_cycle(self, cycle_system):
        solver = LCDSolver(cycle_system)
        solver.solve()
        assert solver.stats.nodes_collapsed == 2  # 3-cycle -> 1 rep
        assert solver.stats.lcd_triggers >= 1
        assert solver.stats.nodes_searched > 0

    def test_lcd_no_triggers_without_equal_sets(self):
        b = ConstraintBuilder()
        p, q = b.var("p"), b.var("q")
        b.address_of(p, b.var("x"))
        b.address_of(q, b.var("y"))
        b.assign(q, p)
        solver = LCDSolver(b.build())
        solver.solve()
        assert solver.stats.lcd_triggers == 0

    def test_lcd_never_retriggers_same_edge(self):
        """Equal sets without a cycle trigger exactly one search."""
        b = ConstraintBuilder()
        p, q, x = b.var("p"), b.var("q"), b.var("x")
        b.address_of(p, x)
        b.address_of(q, x)  # identical pts, no cycle
        b.assign(q, p)
        solver = LCDSolver(b.build())
        solver.solve()
        assert solver.stats.lcd_triggers <= 1
        assert solver.stats.nodes_collapsed == 0


class TestHCDBehaviour:
    def test_hcd_never_searches(self, cycle_system, simple_system):
        for system in (cycle_system, simple_system):
            solver = HCDSolver(system)
            solver.solve()
            assert solver.stats.nodes_searched == 0

    def test_hcd_collapses_figure3_cycle(self):
        b = ConstraintBuilder()
        va, vb, vc, vd = b.var("a"), b.var("b"), b.var("c"), b.var("d")
        b.address_of(va, vc)
        b.assign(vd, vc)
        b.load(vb, va)
        b.store(va, vb)
        solver = HCDSolver(b.build())
        solution = solver.solve()
        # c and b end up in a cycle (Figure 4) and must be collapsed.
        assert solver.stats.hcd_collapses >= 1
        assert solver.graph.find(vb) == solver.graph.find(vc)
        assert solution.points_to(vb) == solution.points_to(vc)

    def test_hcd_offline_time_separate(self, cycle_system):
        solver = HCDSolver(cycle_system)
        solver.solve()
        assert solver.stats.hcd_offline_seconds >= 0.0
        assert solver.hcd_offline is not None

    def test_hcd_direct_groups_precollapsed(self, cycle_system):
        solver = HCDSolver(cycle_system)
        # Copy cycle is collapsible offline, before solve() even runs.
        assert solver.stats.nodes_collapsed == 2


class TestPKHBehaviour:
    def test_pkh_sweeps_whole_graph(self, simple_system):
        solver = PKHSolver(simple_system)
        solver.solve()
        # Every round visits every representative.
        assert solver.stats.nodes_searched >= simple_system.num_vars

    def test_pkh_finds_all_cycles(self, cycle_system):
        solver = PKHSolver(cycle_system)
        solver.solve()
        assert solver.stats.nodes_collapsed == 2


class TestHTBehaviour:
    def test_ht_queries_are_memoized(self, simple_system):
        solver = HTSolver(simple_system)
        solver.solve()
        searched_once = solver.stats.nodes_searched
        # The final export pass queries every variable; total visits must
        # stay well under vars * rounds if memoization works.
        assert searched_once <= simple_system.num_vars * (solver.stats.iterations + 1)

    def test_ht_collapses_cycle(self, cycle_system):
        solver = HTSolver(cycle_system)
        solver.solve()
        assert solver.stats.nodes_collapsed == 2

    def test_ht_rounds_terminate(self, simple_system):
        solver = HTSolver(simple_system)
        solver.solve()
        assert 1 <= solver.stats.iterations <= 10


class TestBLQBehaviour:
    def test_blq_no_collapsing_without_hcd(self, cycle_system):
        solver = BLQSolver(cycle_system)
        solver.solve()
        assert solver.stats.nodes_collapsed == 0

    def test_blq_hcd_unifies(self):
        b = ConstraintBuilder()
        va, vb, vc, vd = b.var("a"), b.var("b"), b.var("c"), b.var("d")
        b.address_of(va, vc)
        b.assign(vd, vc)
        b.load(vb, va)
        b.store(va, vb)
        solver = BLQSolver(b.build(), hcd=True)
        solution = solver.solve()
        assert solver.stats.nodes_collapsed >= 1
        assert solution.points_to(vb) == solution.points_to(vc)

    def test_blq_pool_memory_reported(self, simple_system):
        solver = BLQSolver(simple_system)
        solver.solve()
        assert solver.stats.pts_memory_bytes > 0
        assert solver.stats.graph_memory_bytes == 0

    def test_blq_sequential_ordering_works(self, simple_system):
        solver = BLQSolver(simple_system, interleave=False)
        reference = NaiveSolver(simple_system).solve()
        assert solver.solve() == reference


class TestRegistry:
    def test_available_names(self):
        names = available_solvers()
        for expected in ["naive", "ht", "pkh", "blq", "lcd", "hcd", "lcd+hcd"]:
            assert expected in names

    def test_paper_algorithms_all_resolvable(self, simple_system):
        for name in PAPER_ALGORITHMS:
            assert make_solver(simple_system, name) is not None

    def test_hcd_suffix_sets_flag(self, simple_system):
        solver = make_solver(simple_system, "lcd+hcd")
        assert solver.hcd_enabled
        assert solver.full_name == "lcd+hcd"

    def test_hcd_plus_hcd_is_hcd(self, simple_system):
        solver = make_solver(simple_system, "hcd+hcd")
        assert solver.full_name == "hcd"

    def test_naive_plus_hcd_is_hcd(self, simple_system):
        assert "naive+hcd" not in available_solvers()
        solver = make_solver(simple_system, "naive+hcd")
        assert isinstance(solver, HCDSolver)
        assert solver.full_name == "hcd"

    def test_unknown_rejected(self, simple_system):
        with pytest.raises(ValueError):
            make_solver(simple_system, "das-one-level-flow")

    def test_solve_shorthand(self, simple_system):
        assert solve(simple_system, "lcd") == solve(simple_system, "naive")

    def test_case_insensitive(self, simple_system):
        assert make_solver(simple_system, " LCD+HCD ").hcd_enabled


@pytest.mark.parametrize("algorithm", all_solvers())
def test_options_forward_to_base_solver(simple_system, algorithm):
    """BaseSolver alone declares a run's options; every solver forwards
    them there and keeps only its own extras."""
    with pytest.raises(TypeError):
        make_solver(simple_system, algorithm, no_such_option=True)
    solver = make_solver(simple_system, algorithm, opt="hu", k_cs=1, sanitize=True)
    assert solver.context is not None
    assert solver.sanitizer is not None
    # Steensgaard pins opt="none": HU's merges assume inclusion semantics.
    assert (solver.preprocess is None) == (algorithm == "steensgaard")
    hcd = algorithm == "hcd" or algorithm.endswith("+hcd")
    assert make_solver(simple_system, algorithm).hcd_enabled == hcd

"""Integration: every algorithm and representation computes one solution.

This is the repository's core correctness property (and the paper's
"without impacting precision" claim): the naive Figure-1 baseline is the
semantic reference; HT, PKH, BLQ, LCD, HCD and every +HCD combination,
over every points-to family, must agree with it exactly — as must
solving after OVS preprocessing, modulo expansion.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.contexts import K_LEVELS
from repro.points_to.interface import FAMILY_KINDS
from repro.preprocess.hvn import OPT_STAGES, offline_variable_substitution
from repro.solvers.registry import all_solvers, available_solvers, make_solver, solve
from repro.workloads import generate_workload
from strategies import constraint_systems, k_levels, opt_stages, pts_families

ALGORITHMS = available_solvers()
GRAPH_ALGORITHMS = [a for a in ALGORITHMS if not a.startswith("blq")]
#: Parametrized rows: every configuration plus the ``naive+hcd`` alias,
#: which must keep building an ``hcd`` solver that agrees.
ALGORITHM_ROWS = ALGORITHMS + ["naive+hcd"]


class TestFixedSystems:
    @pytest.mark.parametrize("algorithm", ALGORITHM_ROWS)
    def test_simple_system(self, simple_system, algorithm):
        assert solve(simple_system, algorithm) == solve(simple_system, "naive")

    @pytest.mark.parametrize("algorithm", ALGORITHM_ROWS)
    def test_cycle_system(self, cycle_system, algorithm):
        assert solve(cycle_system, algorithm) == solve(cycle_system, "naive")

    @pytest.mark.parametrize("algorithm", ALGORITHM_ROWS)
    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    def test_all_representations(self, simple_system, algorithm, pts):
        assert solve(simple_system, algorithm, pts=pts) == solve(simple_system, "naive")

    def test_scc_heavy_system(self):
        """Nested copy cycles through loads/stores: the collapse-heavy case."""
        from repro.constraints.builder import ConstraintBuilder

        b = ConstraintBuilder()
        vs = [b.var(f"v{i}") for i in range(30)]
        objs = [b.var(f"o{i}") for i in range(6)]
        for i, obj in enumerate(objs):
            b.address_of(vs[i * 5], obj)
        for ring in range(5):  # five 6-variable copy rings
            members = vs[ring * 6 : ring * 6 + 6]
            for src, dst in zip(members, members[1:] + members[:1]):
                b.assign(dst, src)
        for i in range(0, 28, 4):  # cross-ring indirection
            b.store(vs[i], vs[i + 2])
            b.load(vs[i + 1], vs[i])
        system = b.build()
        reference = solve(system, "naive")
        for algorithm in ALGORITHMS:
            assert solve(system, algorithm) == reference, algorithm


class TestRandomizedDifferential:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_graph_algorithms_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for algorithm in GRAPH_ALGORITHMS:
            result = solve(system, algorithm)
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_blq_agrees(self, seed):
        system = random_system(seed, max_vars=15, max_constraints=35)
        reference = solve(system, "naive")
        for algorithm in ("blq", "blq+hcd"):
            result = solve(system, algorithm)
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bdd_representation_agrees(self, seed):
        system = random_system(seed, max_vars=15, max_constraints=35)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "ht", "pkh"):
            result = solve(system, algorithm, pts="bdd")
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ovs_preserves_every_algorithm(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        ovs = offline_variable_substitution(system)
        for algorithm in ("naive", "lcd+hcd", "ht+hcd", "pkh+hcd"):
            result = ovs.expand(solve(ovs.reduced, algorithm))
            assert result == reference, (algorithm, result.diff(reference))

    @given(system=constraint_systems(), pts=pts_families)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_systems_across_families(self, system, pts):
        """Hypothesis-shrinkable differential over every family."""
        assert solve(system, "lcd+hcd", pts=pts) == solve(system, "naive")

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_worklist_strategies_agree(self, seed):
        from repro.solvers.lcd import LCDSolver

        system = random_system(seed)
        reference = solve(system, "naive")
        for strategy in ("fifo", "lifo", "lrf", "divided-lrf", "divided-fifo"):
            solver = LCDSolver(system, worklist=strategy)
            assert solver.solve() == reference, strategy


class TestIntFamily:
    """The bignum family shares the solver kernel, diffs its sets
    word-parallel (``fresh``) and runs LCD's batched-trigger loop — so
    its bar is *bit-identical* to bitmaps for every algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_ROWS)
    def test_every_solver_on_fixtures(self, simple_system, cycle_system, algorithm):
        for system in (simple_system, cycle_system):
            assert solve(system, algorithm, pts="int") == solve(
                system, algorithm, pts="bitmap"
            ), algorithm

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", pts="bitmap")
        for algorithm in ("lcd", "hcd", "lcd+hcd", "pkh", "pkh03"):
            assert solve(system, algorithm, pts="int") == reference, algorithm

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "ht", "pkh", "hcd"):
            result = solve(system, algorithm, pts="int")
            assert result == reference, (algorithm, result.diff(reference))

    def test_int_pts_memory_accounted(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("emacs", scale=1 / 512, seed=2)
        solver = make_solver(system, "lcd+hcd", pts="int")
        solver.solve()
        assert solver.stats.pts_memory_bytes > 0

    def test_sanitized_run_accepts(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("wine", scale=1 / 512, seed=2)
        reference = solve(system, "naive", pts="bitmap")
        solver = make_solver(system, "lcd+hcd", pts="int", sanitize=True)
        assert solver.solve() == reference
        assert solver.stats.verify is not None


class TestCounterAgreement:
    """The families share one solver kernel, so the paper's section 5.3
    counters must not depend on the representation: every family reports
    bitmap's exact values.  The one exception is ``int`` under LCD, whose
    own loop batches a sweep's triggers into one search.  That loop stays
    because it carries int's speedup under LCD: the per-trigger loop
    nearly doubles int's lcd+hcd solve time, and bench_25 budgets int at
    2x bitmap (measurements in docs/internals.md)."""

    COUNTERS = (
        "propagations", "nodes_searched", "nodes_collapsed",
        "cycles_collapsed", "edges_added", "lcd_triggers",
        "hcd_collapses", "iterations",
    )

    @staticmethod
    def _offset_copy_system():
        """``q = &p->b`` with ``p`` pointing to either of two structs.

        Workloads and generated programs contain no OFFS constraints, so
        this input is what pins their per-location count."""
        from repro.constraints.builder import ConstraintBuilder

        b = ConstraintBuilder()
        s1 = b.object_block("s1", ["a", "b"])
        s2 = b.object_block("s2", ["a", "b"])
        p, q = b.var("p"), b.var("q")
        b.address_of(p, s1.node)
        b.address_of(p, s2.node)
        b.offset_assign(q, p, s1.field_offset(1))
        return b.build()

    def _assert_bitmap_counters(self, system, opt):
        from repro.solvers.registry import make_solver

        for algorithm in ALGORITHMS:
            counters = {}
            for pts in FAMILY_KINDS:
                if pts == "int" and algorithm.startswith("lcd"):
                    continue
                solver = make_solver(system, algorithm, pts=pts, opt=opt)
                solver.solve()
                stats = solver.stats.as_dict()
                counters[pts] = {key: stats[key] for key in self.COUNTERS}
            for pts, values in counters.items():
                assert values == counters["bitmap"], (algorithm, opt, pts)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux", "offs"])
    def test_families_report_bitmap_counters(self, name):
        if name == "offs":
            system = self._offset_copy_system()
        else:
            system = generate_workload(name, scale=1 / 512, seed=2)
        self._assert_bitmap_counters(system, "hu")

    @given(system=constraint_systems())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drawn_systems_report_bitmap_counters(self, system):
        """The strategy also draws OFFS constraints, object blocks and
        indirect calls, which the workloads above lack."""
        for opt in ("none", "hu"):
            self._assert_bitmap_counters(system, opt)


class TestSharedOfflineStages:
    """Solvers built on one system object share its k-CFA expansion, opt
    stage and HCD offline pass (``ConstraintSystem.derived``).  Sharing
    must be invisible: each solver in a sequence on one system reports the
    solution and section 5.3 counters of the same solver built on a fresh
    equal copy, whatever ran on the shared system before it."""

    @staticmethod
    def _assert_shared_matches_fresh(system, runs, opt, k):
        def counters(solver):
            stats = solver.stats.as_dict()
            return {key: stats[key] for key in TestCounterAgreement.COUNTERS}

        for algorithm, pts in runs:
            shared, fresh = (
                make_solver(copy, algorithm, pts=pts, opt=opt, k_cs=k)
                for copy in (system, system.with_constraints(system.constraints))
            )
            assert shared.solve() == fresh.solve(), (algorithm, pts)
            assert counters(shared) == counters(fresh), (algorithm, pts)

    @given(
        # Larger than the default draw, so HCD pairs and cycles through
        # them are common enough to exercise the shared pair lists.
        system=constraint_systems(max_plain_vars=20, max_constraints=40),
        runs=st.lists(
            st.tuples(st.sampled_from(all_solvers()), pts_families),
            min_size=2,
            max_size=5,
        ),
        opt=opt_stages,
        k=st.sampled_from([0, 1]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drawn_sequences_match_fresh_solvers(self, system, runs, opt, k):
        self._assert_shared_matches_fresh(system, runs, opt, k)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    @pytest.mark.parametrize("opt", ["ovs", "hu"])
    def test_hcd_sequences_match_fresh_solvers(self, name, opt):
        """Every HCD configuration in turn on one workload: the online
        collapses must never write through to the shared pair lists."""
        system = generate_workload(name, scale=1 / 512, seed=2)
        runs = [(a, "bitmap") for a in ALGORITHMS if a.endswith("hcd")]
        self._assert_shared_matches_fresh(system, runs, opt, 0)


class TestMetamorphic:
    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_adding_redundant_constraint_never_shrinks(self, seed):
        """Monotonicity: adding a constraint can only grow the solution."""
        from repro.constraints.model import Constraint, ConstraintKind

        system = random_system(seed)
        if system.num_vars < 2:
            return
        before = solve(system, "lcd+hcd")
        extra = Constraint(ConstraintKind.COPY, 0, system.num_vars - 1)
        grown = system.with_constraints(list(system.constraints) + [extra])
        after = solve(grown, "lcd+hcd")
        for var in range(system.num_vars):
            assert before.points_to(var) <= after.points_to(var)

    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_duplicate_constraints_are_noops(self, seed):
        system = random_system(seed)
        doubled = system.with_constraints(
            list(system.constraints) + list(system.constraints)
        )
        assert solve(doubled, "lcd+hcd") == solve(system, "lcd+hcd")

    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_constraint_order_irrelevant(self, seed):
        import random as random_module

        system = random_system(seed)
        shuffled_constraints = list(system.constraints)
        random_module.Random(seed).shuffle(shuffled_constraints)
        shuffled = system.with_constraints(shuffled_constraints)
        assert solve(shuffled, "lcd+hcd") == solve(system, "lcd+hcd")


class TestWorkloadAgreement:
    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_profiles_agree_at_small_scale(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive")
        for algorithm in ("ht", "pkh", "lcd", "hcd", "lcd+hcd"):
            assert solve(system, algorithm) == reference, algorithm

    def test_blq_on_workload(self):
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        assert solve(system, "blq") == solve(system, "naive")

class TestOptStages:
    """The offline pipeline (--opt) must be invisible in the results:
    every stage, under every algorithm and family, yields the exact
    solution of the unoptimized system after expansion."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_ROWS)
    @pytest.mark.parametrize("stage", OPT_STAGES)
    def test_every_solver_every_stage(
        self, simple_system, cycle_system, algorithm, stage
    ):
        for system in (simple_system, cycle_system):
            assert solve(system, algorithm, opt=stage) == solve(
                system, "naive"
            ), (algorithm, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", opt="none")
        for stage in ("ovs", "hu"):
            for algorithm in ("lcd", "hcd", "lcd+hcd", "ht", "pkh"):
                assert (
                    solve(system, algorithm, opt=stage) == reference
                ), (name, algorithm, stage)

    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    def test_all_families_under_hu(self, simple_system, pts):
        assert solve(simple_system, "lcd+hcd", pts=pts, opt="hu") == solve(
            simple_system, "naive"
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for stage in ("ovs", "hu"):
            for algorithm in ("naive", "lcd+hcd", "ht+hcd", "pkh+hcd", "pkh03"):
                result = solve(system, algorithm, opt=stage)
                assert result == reference, (
                    algorithm, stage, result.diff(reference),
                )

    @given(system=constraint_systems(), stage=opt_stages, pts=pts_families)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_systems_stage_family_grid(self, system, stage, pts):
        """Hypothesis-shrinkable differential over stages x families."""
        assert solve(system, "lcd+hcd", pts=pts, opt=stage) == solve(
            system, "naive"
        )

    def test_opt_stats_populated(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("emacs", scale=1 / 512, seed=2)
        solver = make_solver(system, "lcd+hcd", opt="hu")
        solver.solve()
        stats = solver.stats
        assert stats.opt is not None
        assert stats.opt.stage == "hu"
        assert stats.opt.vars_merged > 0
        assert stats.opt.constraints_deleted > 0
        assert stats.opt.passes >= 1
        data = stats.as_dict()
        assert data["opt_stage"] == "hu"
        assert data["opt_vars_merged"] == stats.opt.vars_merged
        # Unoptimized runs carry no opt_* keys at all.
        plain = make_solver(system, "lcd+hcd")
        plain.solve()
        assert "opt_stage" not in plain.stats.as_dict()


class TestContextSensitivity:
    """k-CFA (--k-cs) composes with everything: at any fixed k, every
    algorithm, points-to family and offline stage solves the *same*
    context-expanded system, so all must stay bit-identical — and the
    projected k-sensitive solution must be pointwise contained in the
    insensitive one (the paper's precision order)."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_ROWS)
    @pytest.mark.parametrize("k", K_LEVELS)
    def test_every_solver_every_k(self, call_system, algorithm, k):
        reference = solve(call_system, "naive", k_cs=k)
        assert solve(call_system, algorithm, k_cs=k) == reference, (algorithm, k)

    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    @pytest.mark.parametrize("stage", ("none", "hu"))
    def test_family_and_opt_grid_at_k1(self, call_system, pts, stage):
        reference = solve(call_system, "naive", k_cs=1)
        assert (
            solve(call_system, "lcd+hcd", pts=pts, opt=stage, k_cs=1)
            == reference
        ), (pts, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical_at_k1(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", k_cs=1)
        for algorithm in ("lcd", "hcd", "lcd+hcd", "ht", "pkh"):
            for stage in ("none", "hu"):
                assert (
                    solve(system, algorithm, opt=stage, k_cs=1) == reference
                ), (algorithm, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine"])
    def test_workloads_monotone_precision(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        by_k = {k: solve(system, "lcd+hcd", k_cs=k) for k in K_LEVELS}
        for k_fine, k_coarse in ((1, 0), (2, 1)):
            for var in range(system.num_vars):
                assert by_k[k_fine].points_to(var) <= by_k[k_coarse].points_to(
                    var
                ), (name, k_fine, k_coarse, system.name_of(var))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree_at_k1(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive", k_cs=1)
        for algorithm in ("lcd+hcd", "ht+hcd", "pkh", "hcd", "pkh03", "blq"):
            result = solve(system, algorithm, k_cs=1)
            assert result == reference, (algorithm, result.diff(reference))

    @given(system=constraint_systems(), k=k_levels, stage=opt_stages,
           pts=pts_families)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_systems_k_stage_family_grid(self, system, k, stage, pts):
        """Hypothesis-shrinkable differential over k x stages x families."""
        assert solve(system, "lcd+hcd", pts=pts, opt=stage, k_cs=k) == solve(
            system, "naive", k_cs=k
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_monotone_precision(self, seed):
        """Soundness + precision order: pts at k=1 never exceeds k=0."""
        system = random_system(seed)
        insensitive = solve(system, "lcd+hcd")
        sensitive = solve(system, "lcd+hcd", k_cs=1)
        for var in range(system.num_vars):
            assert sensitive.points_to(var) <= insensitive.points_to(var), (
                system.name_of(var)
            )

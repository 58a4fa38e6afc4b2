"""Unit tests for the k-CFA context manager (repro.contexts).

The solver-facing contract — every algorithm/family/opt bit-identical at
each k — lives in ``test_solver_agreement.py``; this file pins down the
expansion itself: call-string bounding, cloning/sharing policy, indirect
binding precision, monotone precision, the irregular-site fallback, the
demand-driven bootstrap slice, the per-system expansion memo and the
projection contract.
"""

import contextlib
import gc
import pathlib
import weakref
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro.contexts.manager as manager
import repro.solvers.registry as registry
from conftest import random_system
from repro.analysis.solution import PointsToSolution
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintKind
from repro.contexts import (
    K_LEVELS,
    expand_contexts,
    extend_call_string,
    format_call_string,
)
from repro.frontend.generator import generate_constraints
from repro.metrics.reporting import format_ctx_summary
from repro.solvers.registry import make_solver, solve
from strategies import constraint_systems

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"


def _pick_system():
    """The validated precision probe: one helper returning its argument,
    called once with a function address and once with a data address.
    Insensitive analysis conflates the two returns; 1-CFA separates them.
    """
    b = ConstraintBuilder()
    pick = b.function("pick", params=["p"])
    b.assign(pick.return_node, pick.params[0])
    target = b.function("target", params=["x"])
    cell = b.var("cell")
    at, ac = b.var("main::at"), b.var("main::ac")
    b.address_of(at, target.node)
    b.address_of(ac, cell)
    g, slot = b.var("g"), b.var("slot")
    b.call_direct(pick, [at], ret=g)
    b.call_direct(pick, [ac], ret=slot)
    return b.build(), g, slot, target.node, cell


class TestCallStrings:
    def test_k0_always_empty(self):
        assert extend_call_string((), 7, 0) == ()
        assert extend_call_string((3, 5), 7, 0) == ()

    def test_bounded_suffix(self):
        ctx = ()
        for site in (3, 5, 7):
            ctx = extend_call_string(ctx, site, 2)
        assert ctx == (5, 7)
        assert extend_call_string(ctx, 9, 1) == (9,)

    def test_recursive_self_site_truncates(self):
        """Recursion re-extends with the same site: bounded strings reach
        a fixpoint instead of growing without bound."""
        ctx = extend_call_string((), 4, 1)
        assert extend_call_string(ctx, 4, 1) == ctx

    def test_format(self):
        assert format_call_string(()) == "ε"
        assert format_call_string((3, 7)) == "3.7"


class TestExpansion:
    def test_k0_is_identity(self):
        system, *_ = _pick_system()
        expansion = expand_contexts(system, 0)
        assert expansion.is_identity()
        assert expansion.expanded is system
        assert expansion.clone_groups == {}

    def test_negative_k_rejected(self):
        system, *_ = _pick_system()
        with pytest.raises(ValueError):
            expand_contexts(system, -1)

    def test_function_free_system_is_identity(self):
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        b.address_of(p, x)
        system = b.build()
        assert expand_contexts(system, 2).is_identity()

    def test_clone_ids_live_above_base_space(self):
        system, *_ = _pick_system()
        expansion = expand_contexts(system, 1)
        assert not expansion.is_identity()
        for base, clones in expansion.clone_groups.items():
            assert 0 <= base < system.num_vars
            for clone in clones:
                assert clone >= system.num_vars

    def test_address_taken_locals_stay_shared(self):
        """A local whose address escapes is a memory location other
        contexts can reach — it must never be cloned."""
        b = ConstraintBuilder()
        f = b.function("f", params=["p"])
        kept = b.var("f::kept")
        escape = b.var("g_escape")
        b.address_of(escape, kept)  # &kept escapes into a global
        plain = b.var("f::plain")
        b.assign(plain, f.params[0])
        b.assign(f.return_node, plain)
        caller_arg = b.var("main::a")
        b.call_direct(f, [caller_arg], ret=b.var("main::r"))
        system = b.build()
        expansion = expand_contexts(system, 1)
        kept_node = system.names.index("f::kept")
        plain_node = system.names.index("f::plain")
        assert kept_node not in expansion.clone_groups
        assert plain_node in expansion.clone_groups

    def test_function_heads_are_never_cloned(self):
        system, *_ = _pick_system()
        expansion = expand_contexts(system, 1)
        for fn in system.functions:
            assert fn not in expansion.clone_groups

    def test_no_clone_is_ever_a_pointee(self):
        """BASE sources always map to base ids: clones are dataflow
        copies, not new abstract locations, so projection stays a pure
        re-labelling of pointers."""
        from repro.constraints.model import ConstraintKind

        system = random_system(42)
        expansion = expand_contexts(system, 2)
        for constraint in expansion.expanded.constraints:
            if constraint.kind is ConstraintKind.BASE:
                assert constraint.src < system.num_vars

    def test_stats_shape(self):
        system, *_ = _pick_system()
        expansion = expand_contexts(system, 1)
        stats = expansion.stats
        assert stats.k == 1
        assert stats.functions_total == 2
        assert stats.vars_cloned == sum(
            len(v) for v in expansion.clone_groups.values()
        )
        assert stats.constraints_after == len(expansion.expanded)
        data = stats.as_dict()
        assert data["k"] == 1
        assert data["vars_cloned"] == stats.vars_cloned


class TestPrecision:
    def test_direct_call_returns_separated_at_k1(self):
        system, g, slot, target, cell = _pick_system()
        insensitive = solve(system, "lcd+hcd")
        assert insensitive.points_to(g) == {target, cell}
        sensitive = solve(system, "lcd+hcd", k_cs=1)
        assert sensitive.points_to(g) == {target}
        assert sensitive.points_to(slot) == {cell}

    def test_indirect_call_bindings_specialized(self):
        """Indirect sites whose pointer resolves to functions bind
        per-context too — the checker-corpus FP pattern."""
        b = ConstraintBuilder()
        pick = b.function("pick", params=["p"])
        b.assign(pick.return_node, pick.params[0])
        target = b.function("target", params=["x"])
        cell = b.var("cell")
        at, ac = b.var("main::at"), b.var("main::ac")
        b.address_of(at, target.node)
        b.address_of(ac, cell)
        fp = b.var("main::fp")
        b.address_of(fp, pick.node)
        g, slot = b.var("g"), b.var("slot")
        b.call_indirect(fp, [at], ret=g)
        b.call_indirect(fp, [ac], ret=slot)
        system = b.build()
        expansion = expand_contexts(system, 1)
        assert expansion.stats.indirect_sites == 2
        assert expansion.stats.indirect_sites_specialized == 2
        sensitive = solve(system, "lcd+hcd", k_cs=1)
        assert sensitive.points_to(g) == {target.node}
        assert sensitive.points_to(slot) == {cell}

    @pytest.mark.parametrize("k", K_LEVELS)
    def test_projection_is_monotone_vs_insensitive(self, k):
        for seed in (1, 17, 99, 2024):
            system = random_system(seed)
            insensitive = solve(system, "lcd+hcd")
            sensitive = solve(system, "lcd+hcd", k_cs=k)
            for var in range(system.num_vars):
                assert sensitive.points_to(var) <= insensitive.points_to(var)

    def test_k2_refines_k1(self):
        """A two-deep identity chain needs k=2 to separate the callers."""
        b = ConstraintBuilder()
        inner = b.function("inner", params=["p"])
        b.assign(inner.return_node, inner.params[0])
        outer = b.function("outer", params=["q"])
        t = b.var("outer::t")
        b.call_direct(inner, [outer.params[0]], ret=t)
        b.assign(outer.return_node, t)
        x, y = b.var("x"), b.var("y")
        ax, ay = b.var("main::ax"), b.var("main::ay")
        b.address_of(ax, x)
        b.address_of(ay, y)
        rx, ry = b.var("main::rx"), b.var("main::ry")
        b.call_direct(outer, [ax], ret=rx)
        b.call_direct(outer, [ay], ret=ry)
        system = b.build()
        k1 = solve(system, "lcd+hcd", k_cs=1)
        k2 = solve(system, "lcd+hcd", k_cs=2)
        # k=1 merges at the single inner site; k=2 tracks caller-of-caller.
        assert k1.points_to(rx) == {x, y}
        assert k2.points_to(rx) == {x}
        assert k2.points_to(ry) == {y}


class TestFallbacks:
    def test_recursion_is_sound(self):
        """Self-recursive calls truncate the call string and stay sound."""
        b = ConstraintBuilder()
        f = b.function("rec", params=["p"])
        t = b.var("rec::t")
        b.call_direct(f, [f.params[0]], ret=t)
        b.assign(f.return_node, t)
        b.assign(f.return_node, f.params[0])
        x = b.var("x")
        ax = b.var("main::ax")
        b.address_of(ax, x)
        r = b.var("main::r")
        b.call_direct(f, [ax], ret=r)
        system = b.build()
        for k in K_LEVELS:
            assert solve(system, "lcd+hcd", k_cs=k).points_to(r) == {x}

    def test_unresolved_indirect_site_falls_back(self):
        """An indirect site whose pointer also holds a non-function with
        call-compatible offsets (an object block — a plain variable would
        be dropped by the max_offset guard anyway) cannot be specialized;
        the store/load form (plus the epsilon inheritance edges) keeps
        the expansion sound."""
        b = ConstraintBuilder()
        f = b.function("f", params=["p"])
        b.assign(f.return_node, f.params[0])
        junk = b.object_block("junk", ["f0", "f1", "f2"])
        fp = b.var("main::fp")
        b.address_of(fp, f.node)
        b.address_of(fp, junk.node)  # offset-compatible non-function
        x = b.var("x")
        ax = b.var("main::ax")
        b.address_of(ax, x)
        r = b.var("main::r")
        b.call_indirect(fp, [ax], ret=r)
        system = b.build()
        expansion = expand_contexts(system, 1)
        assert expansion.stats.indirect_sites == 1
        assert expansion.stats.indirect_sites_specialized == 0
        assert solve(system, "lcd+hcd", k_cs=1) == solve(system, "lcd+hcd")


class TestCacheAndProjection:
    def test_expansion_cached_per_system_and_k(self):
        system, *_ = _pick_system()
        first = expand_contexts(system, 1)
        assert expand_contexts(system, 1) is first
        assert expand_contexts(system, 2) is not first

    def test_derivations_die_with_their_system(self):
        """The memo lives on the system: nothing global keeps a system's
        expansion, opt stage or HCD offline pass alive after it."""
        system, *_ = _pick_system()
        solver = make_solver(system, "lcd+hcd", opt="hu", k_cs=1)
        derived = (solver.context, solver.preprocess, solver.hcd_offline)
        refs = [weakref.ref(obj) for obj in (system, *derived)]
        assert all(ref() is not None for ref in refs)
        del system, solver, derived
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_project_rejects_wrong_space(self):
        system, *_ = _pick_system()
        expansion = expand_contexts(system, 1)
        bogus = PointsToSolution({}, num_vars=3, num_locs=3)
        with pytest.raises(ValueError):
            expansion.project(bogus)

    def test_context_solution_lives_in_clone_space(self):
        """The solver keeps the clone-space solution around for the
        certifier (the projected one is deliberately *more* precise than
        the insensitive least model of the original constraints)."""
        from repro.verify.certifier import certify

        system, *_ = _pick_system()
        solver = make_solver(system, "lcd+hcd", k_cs=1)
        projected = solver.solve()
        clone_space = solver.context_solution()
        assert projected.num_vars == system.num_vars
        assert clone_space.num_vars == solver.context.expanded.num_vars
        assert clone_space.num_vars > system.num_vars
        assert certify(solver.context.expanded, clone_space).ok


def _fresh(system):
    """A copy of ``system`` with an empty memo, so it expands anew."""
    return system.with_constraints(system.constraints)


def _corpus_system(path):
    field_mode = "sensitive" if ".sensitive." in path.name else "insensitive"
    return generate_constraints(path.read_text(), field_mode=field_mode).system


@contextlib.contextmanager
def _bootstrap_spy():
    """Record the pointers an expansion queries, the system its bootstrap
    solves and that solve's solution."""
    seen = {}
    real_slice = manager._bootstrap_slice

    def slice_spy(system, pointers):
        seen["pointers"] = list(pointers)
        return real_slice(system, seen["pointers"])

    def solve_spy(system, algorithm, **options):
        seen["system"] = system
        seen["solution"] = solve(system, algorithm, **options)
        return seen["solution"]

    with mock.patch.object(manager, "_bootstrap_slice", slice_spy):
        with mock.patch.object(registry, "solve", solve_spy):
            yield seen


def _whole_system_expansion(system, k):
    """The oracle: the expansion whose bootstrap solves every constraint."""
    with mock.patch.object(
        manager, "_bootstrap_slice", lambda system, pointers: system.constraints
    ):
        return expand_contexts(_fresh(system), k)


def _assert_slice_exact(system):
    """At every pointer the expansion queries, the sliced bootstrap's set
    equals the whole system's, and at k=1 and k=2 the expansion equals
    the whole-system bootstrap's.  Returns whether anything was queried."""
    with _bootstrap_spy() as seen:
        expand_contexts(_fresh(system), 1)
    if seen:
        whole = solve(system, "lcd+hcd", pts="int", opt="hu")
        for pointer in seen["pointers"]:
            assert seen["solution"].points_to(pointer) == whole.points_to(pointer)
    for k in (1, 2):
        sliced = expand_contexts(_fresh(system), k)
        oracle = _whole_system_expansion(system, k)
        assert [(c, c.prov) for c in sliced.expanded.constraints] == [
            (c, c.prov) for c in oracle.expanded.constraints
        ]
        assert sliced.expanded.names == oracle.expanded.names
        assert sliced.clone_groups == oracle.clone_groups
        assert sliced.contexts_of == oracle.contexts_of
        assert (
            sliced.stats.indirect_sites_specialized
            == oracle.stats.indirect_sites_specialized
        )
    return bool(seen)


class TestDemandDrivenBootstrap:
    """The bootstrap solves only the slice its queried pointers depend on,
    and every expansion equals the one a whole-system bootstrap gives."""

    @given(system=constraint_systems())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_slice_exact_on_drawn_systems(self, system):
        _assert_slice_exact(system)

    def test_slice_exact_on_random_systems(self):
        queried = sum(_assert_slice_exact(random_system(seed)) for seed in range(120))
        assert queried > 50  # most seeds draw an indirect call

    def test_slice_exact_on_corpus(self):
        programs = sorted(CORPUS.glob("*/*.c"))
        assert programs
        for path in programs:
            _assert_slice_exact(_corpus_system(path))

    @pytest.mark.parametrize(
        "program, size, all_stores",
        [
            # g's value comes back through pick's return node, a block
            # member a store could write: every store joins the slice.
            ("clean/context_fp.c", 18, True),
            # The thread start pointer is a plain local: two rows.
            ("buggy/race_fnptr.c", 2, False),
        ],
    )
    def test_corpus_slice_cases(self, program, size, all_stores):
        system = _corpus_system(CORPUS / program)
        with _bootstrap_spy() as seen:
            expansion = expand_contexts(system, 1)
        assert expansion.stats.bootstrap_constraints == size
        assert len(seen["system"]) == size < len(system)
        stores = [c for c in system if c.kind is ConstraintKind.STORE]
        sliced = [c for c in seen["system"] if c.kind is ConstraintKind.STORE]
        assert stores
        assert (sliced == stores) is all_stores

    def test_no_indirect_site_no_bootstrap(self):
        system, *_ = _pick_system()
        with _bootstrap_spy() as seen:
            expansion = expand_contexts(system, 1)
        assert not seen
        assert expansion.stats.bootstrap_constraints == 0

    def test_stats_line_reports_the_slice(self):
        system = _corpus_system(CORPUS / "clean" / "context_fp.c")
        line = format_ctx_summary(make_solver(system, k_cs=1).stats.as_dict())
        assert "s offline (bootstrap 18 constraints, " in line

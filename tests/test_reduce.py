"""The delta-debugging minimizer: ddmin properties and end-to-end shrinks.

Three properties hold for every minimization: the output still fails the
predicate, the output is 1-minimal (removing any single non-pinned
constraint makes the predicate pass), and the process is deterministic.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.constraints.parser import read_constraints
from repro.solvers.registry import solve
from repro.verify import certify, ddmin, minimize_system, solvers_disagree
from repro.workloads import generate_workload
from test_certifier_mutations import SkipLoadSolver


def _mutant_rejected(system) -> bool:
    """Predicate: the certifier rejects the skip-load mutant's solution."""
    return not certify(system, SkipLoadSolver(system).solve()).ok


class TestDdminProperties:
    @given(
        st.integers(2, 40),
        st.sets(st.integers(0, 39), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ddmin_finds_exact_target(self, n, target):
        """Against a 'contains all of T' predicate, the minimum IS T."""
        target = {t % n for t in target}
        items = list(range(n))
        result = ddmin(items, lambda subset: target <= set(subset))
        assert set(result) == target

    def test_ddmin_counts_tests(self):
        counter = [0]
        ddmin(list(range(16)), lambda s: 7 in s, counter=counter)
        assert counter[0] > 0

    def test_ddmin_single_item(self):
        assert ddmin([42], lambda s: True) == [42]


class TestMinimizeSystem:
    def test_requires_failing_input(self, simple_system):
        with pytest.raises(ValueError, match="does not fail"):
            minimize_system(simple_system, lambda system: False)

    def test_output_still_fails(self):
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        predicate = solvers_disagree("steensgaard", "naive")
        result = minimize_system(system, predicate)
        assert predicate(result.system)

    def test_output_is_one_minimal(self):
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        predicate = solvers_disagree("steensgaard", "naive")
        result = minimize_system(system, predicate)
        kept = list(result.kept)
        pinned = list(result.pinned)
        for index in range(len(kept)):
            probe = system.with_constraints(
                pinned + kept[:index] + kept[index + 1 :]
            )
            assert not predicate(probe), f"constraint {index} is removable"

    def test_deterministic(self):
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        predicate = solvers_disagree("steensgaard", "naive")
        first = minimize_system(system, predicate)
        second = minimize_system(system, predicate)
        assert first.kept == second.kept
        assert first.pinned == second.pinned

    def test_seeded_solver_bug_shrinks_small(self):
        """Acceptance: a genuine seeded solver bug reduces to a repro a
        human can read — at most 12 constraints, 1-minimal."""
        from test_certifier_mutations import SkipStoreSolver

        def rejected(system) -> bool:
            return not certify(system, SkipStoreSolver(system).solve()).ok

        system = generate_workload("linux", scale=1 / 512, seed=2)
        assert rejected(system)  # the bug fires at full size
        result = minimize_system(system, rejected)
        assert len(result) <= 12
        assert rejected(result.system)
        kept = list(result.kept)
        pinned = list(result.pinned)
        for index in range(len(kept)):
            probe = system.with_constraints(
                pinned + kept[:index] + kept[index + 1 :]
            )
            assert not rejected(probe)

    def test_written_repro_replays(self):
        """The .cons round-trip reproduces the failure byte-for-byte."""
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        predicate = solvers_disagree("steensgaard", "naive")
        result = minimize_system(system, predicate)
        buffer = io.StringIO()
        result.write(buffer)
        buffer.seek(0)
        replayed = read_constraints(buffer)
        assert predicate(replayed)
        # Replaying and re-minimizing cannot shrink further.
        again = minimize_system(replayed, predicate)
        assert len(again) == len(result)

    @given(st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_with_mutant_predicate(self, seed):
        system = random_system(seed, max_vars=12, max_constraints=25)
        if not _mutant_rejected(system):
            return  # this seed never tickles the skip-load bug
        result = minimize_system(system, _mutant_rejected)
        assert _mutant_rejected(result.system)
        assert len(result) <= len(system)

    def test_pinned_function_bases_survive(self):
        """Function self-base constraints stay in the repro even when
        removable, so the parser's ``fun`` directive round-trips."""
        from repro.constraints.builder import ConstraintBuilder

        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        p, q, r, x, y = (b.var(n) for n in "pqrxy")
        b.address_of(p, x)
        b.address_of(q, y)
        # Steensgaard unifies x and y through the double assignment into
        # r, so p spuriously gains y — a guaranteed disagreement.
        b.assign(r, p)
        b.assign(r, q)
        system = b.build()
        predicate = solvers_disagree("steensgaard", "naive")
        assert predicate(system)
        result = minimize_system(system, predicate)
        base_pairs = {(c.dst, c.src) for c in result.pinned}
        assert (f.node, f.node) in base_pairs


class TestStockPredicates:
    def test_sanitizer_violation_counts_as_disagreement(
        self, simple_system, monkeypatch
    ):
        from repro.verify.sanitizer import InvariantViolation, Sanitizer

        def tripped(self):
            raise InvariantViolation("rep-consistency", "seeded", "lcd")

        monkeypatch.setattr(Sanitizer, "final_check", tripped)
        assert not solvers_disagree("lcd", "naive")(simple_system)
        assert solvers_disagree("lcd", "naive", sanitize=True)(simple_system)


class TestSolutionsMatchAfterReduce:
    def test_reduced_system_still_well_formed(self):
        system = generate_workload("wine", scale=1 / 512, seed=2)
        predicate = solvers_disagree("steensgaard", "naive")
        result = minimize_system(system, predicate)
        # Every inclusion-based solver still agrees on the shrunk system.
        reference = solve(result.system, "naive")
        for algorithm in ("lcd+hcd", "pkh", "ht"):
            assert solve(result.system, algorithm) == reference

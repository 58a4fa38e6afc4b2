"""Tests for Offline Variable Substitution: HU's first round without
location equivalence."""

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintKind
from repro.frontend import generate_constraints
from repro.preprocess.hvn import hvn_reduce, offline_variable_substitution
from repro.solvers.registry import solve
from strategies import constraint_systems

CORPUS = Path(__file__).parent / "corpus"


class TestBasicMerging:
    def test_copy_chain_collapses(self):
        """t1 = p; t2 = t1; q = t2 — all pointer-equivalent to p."""
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        b.address_of(p, x)
        t1, t2, q = b.var("t1"), b.var("t2"), b.var("q")
        b.assign(t1, p)
        b.assign(t2, t1)
        b.assign(q, t2)
        result = offline_variable_substitution(b.build())
        rep = result.substitution.var_to_rep
        assert rep[t1] == rep[t2] == rep[q]
        # The three copies collapse to at most one onto the class rep.
        assert len(result.reduced) <= 2

    def test_same_base_merges(self):
        b = ConstraintBuilder()
        x = b.var("x")
        p, q = b.var("p"), b.var("q")
        b.address_of(p, x)
        b.address_of(q, x)
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[q] == p
        assert len(result.reduced) == 1  # one base constraint survives

    def test_different_bases_not_merged(self):
        b = ConstraintBuilder()
        p, q = b.var("p"), b.var("q")
        b.address_of(p, b.var("x"))
        b.address_of(q, b.var("y"))
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[p] != result.substitution.var_to_rep[q] or p == q

    def test_empty_variables_share_class(self):
        b = ConstraintBuilder()
        a, c = b.var("a"), b.var("c")
        d = b.var("d")
        b.assign(a, c)  # all provably empty
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[c] == result.substitution.var_to_rep[d] or c == d
        assert len(result.reduced) == 0  # the dead copy is dropped

    def test_union_labels_merge_subsumed_join(self):
        """c >= a,b with pts(a) subset pts(b): the label union matches a
        plain copy of b."""
        b = ConstraintBuilder()
        x, y = b.var("x"), b.var("y")
        va, vb = b.var("a"), b.var("b")
        b.address_of(va, x)
        b.address_of(vb, x)
        b.address_of(vb, y)
        c, d = b.var("c"), b.var("d")
        b.assign(c, va)
        b.assign(c, vb)  # pts(c) = {x} | {x,y} = {x,y} = pts(b)
        b.assign(d, vb)  # plain copy of b
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[c] == result.substitution.var_to_rep[d]

    def test_copy_cycle_merges(self):
        b = ConstraintBuilder()
        x = b.var("x")
        p, q, r = b.var("p"), b.var("q"), b.var("r")
        b.address_of(p, x)
        b.assign(q, p)
        b.assign(r, q)
        b.assign(p, r)
        result = offline_variable_substitution(b.build())
        rep = result.substitution.var_to_rep
        assert rep[p] == rep[q] == rep[r]


class TestProtection:
    def test_address_taken_never_merged(self):
        b = ConstraintBuilder()
        x, y = b.var("x"), b.var("y")
        p = b.var("p")
        b.address_of(p, x)
        b.address_of(p, y)
        b.assign(x, p)
        b.assign(y, p)  # x and y get identical flow but are address-taken
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[x] == x
        assert result.substitution.var_to_rep[y] == y

    def test_function_block_never_merged(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        p = b.var("p")
        b.assign(f.params[0], p)
        b.assign(b.var("q"), p)
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[f.params[0]] == f.params[0]

    def test_loaded_values_not_overmerged(self):
        """Loads through different pointers must stay distinct."""
        b = ConstraintBuilder()
        p, q = b.var("p"), b.var("q")
        b.address_of(p, b.var("x"))
        b.address_of(q, b.var("y"))
        u, v = b.var("u"), b.var("v")
        b.load(u, p)
        b.load(v, q)
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[u] != result.substitution.var_to_rep[v]


class TestDeadConstraintElimination:
    def test_load_through_empty_pointer_dropped(self):
        b = ConstraintBuilder()
        empty, dst = b.var("empty"), b.var("dst")
        b.load(dst, empty)
        result = offline_variable_substitution(b.build())
        assert len(result.reduced) == 0

    def test_store_through_empty_pointer_dropped(self):
        b = ConstraintBuilder()
        empty, src = b.var("empty"), b.var("src")
        b.address_of(src, b.var("x"))
        b.store(empty, src)
        result = offline_variable_substitution(b.build())
        assert all(c.kind is not ConstraintKind.STORE for c in result.reduced)

    def test_duplicates_deduped(self):
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        for _ in range(5):
            b.address_of(p, x)
        result = offline_variable_substitution(b.build())
        assert len(result.reduced) == 1


class TestSolutionPreservation:
    def test_simple_system_preserved(self, simple_system):
        result = offline_variable_substitution(simple_system)
        direct = solve(simple_system, "naive")
        reduced = result.expand(solve(result.reduced, "naive"))
        assert reduced == direct

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_random_systems_preserved(self, seed):
        system = random_system(seed)
        result = offline_variable_substitution(system)
        direct = solve(system, "naive")
        reduced = result.expand(solve(result.reduced, "naive"))
        assert reduced == direct, reduced.diff(direct)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_reduction_never_grows(self, seed):
        system = random_system(seed)
        result = offline_variable_substitution(system)
        assert len(result.reduced) <= len(system)
        assert 0.0 <= result.reduction_ratio <= 1.0

    def test_workload_reduction_in_paper_ballpark(self):
        from repro.workloads import generate_workload

        system = generate_workload("emacs", scale=1 / 128, seed=1)
        result = offline_variable_substitution(system)
        # Paper: 60-77% across benchmarks; the synthetic stand-in should
        # land in a generous band around that.
        assert 0.45 <= result.reduction_ratio <= 0.9

    def test_merged_count_and_expand(self):
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        b.address_of(p, x)
        q = b.var("q")
        b.assign(q, p)
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[q] == p
        assert result.merged_count() == 1
        solution = result.expand(solve(result.reduced, "naive"))
        assert solution.points_to(q) == {x}


class TestSharedHURules:
    """OVS runs HU's label pass, pointer classes and rewrite, so it
    follows HU's merge, deletion and provenance rules."""

    def test_copy_joins_an_address_taken_class(self):
        """``q = x`` with ``x`` address-taken: ``x`` keeps its node and
        ``q`` adopts it as representative."""
        b = ConstraintBuilder()
        p, x, q = b.var("p"), b.var("x"), b.var("q")
        b.address_of(p, x)
        b.assign(q, x)
        result = offline_variable_substitution(b.build())
        assert result.substitution.var_to_rep[q] == x
        assert result.substitution.var_to_rep[x] == x

    def test_store_of_empty_value_dropped(self):
        b = ConstraintBuilder()
        p, x, e = b.var("p"), b.var("x"), b.var("e")
        b.address_of(p, x)
        b.store(p, e)  # *p = e, and e points nowhere
        result = offline_variable_substitution(b.build())
        assert all(c.kind is not ConstraintKind.STORE for c in result.reduced)

    def test_rewritten_constraints_keep_provenance(self):
        source = (CORPUS / "buggy" / "dangling_heap.c").read_text()
        system = generate_constraints(source).system
        result = offline_variable_substitution(system)
        assert len(result.reduced) > 0
        assert all(c.prov is not None for c in result.reduced.constraints)

    @given(system=constraint_systems())
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hu_refines_ovs(self, system):
        """HU's later rounds and location equivalence only add merges and
        deletions to what OVS finds, and both keep the solution."""
        ovs = offline_variable_substitution(system)
        hu = hvn_reduce(system)
        ovs_rep = ovs.substitution.var_to_rep
        hu_rep = hu.substitution.var_to_rep
        for var, rep in enumerate(ovs_rep):
            assert hu_rep[var] == hu_rep[rep], (var, rep)
        assert len(hu.reduced) <= len(ovs.reduced)
        assert ovs.passes == 1
        assert ovs.expand(solve(ovs.reduced, "naive")) == solve(system, "naive")

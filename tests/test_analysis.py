"""Tests for the solution object and the client analyses."""

import pytest

from repro.analysis.alias import AliasAnalysis
from repro.analysis.callgraph import build_call_graph
from repro.analysis.solution import PointsToSolution
from repro.constraints.builder import ConstraintBuilder
from repro.solvers.registry import solve


class TestSolution:
    def test_points_to_and_defaults(self):
        sol = PointsToSolution({0: [2, 3]}, num_vars=4)
        assert sol.points_to(0) == {2, 3}
        assert sol.points_to(1) == frozenset()

    def test_out_of_range(self):
        sol = PointsToSolution({}, num_vars=2)
        with pytest.raises(ValueError):
            sol.points_to(2)
        with pytest.raises(ValueError):
            PointsToSolution({5: [0]}, num_vars=2)

    def test_shared_out_of_range_set_rejected(self):
        # One set object held by every variable is checked once, and
        # still rejected.
        bad = frozenset({1, 99})
        with pytest.raises(ValueError, match=r"pointee id 99 in pts\(0\) outside \[0, 40\)"):
            PointsToSolution({var: bad for var in range(40)}, num_vars=40)

    def test_out_of_range_set_after_shared_good_set_rejected(self):
        good = frozenset({1})
        mapping = {var: good for var in range(39)}
        mapping[39] = frozenset({1, -2})
        with pytest.raises(ValueError, match=r"pointee id -2 in pts\(39\)"):
            PointsToSolution(mapping, num_vars=40)

    def test_value_equal_set_in_another_object_rejected(self):
        accepted = frozenset({2, 7})
        PointsToSolution({0: accepted, 1: accepted}, num_vars=2, num_locs=8)
        # The same value, now out of range, held in a different object,
        # and then the accepted object itself: each check is per solution.
        copy = frozenset(sorted(accepted))
        assert copy == accepted and copy is not accepted
        with pytest.raises(ValueError, match=r"pointee id 7 in pts\(0\)"):
            PointsToSolution({0: copy, 1: copy}, num_vars=2, num_locs=4)
        with pytest.raises(ValueError, match=r"pointee id 7 in pts\(1\)"):
            PointsToSolution({0: frozenset({1}), 1: accepted}, num_vars=2, num_locs=4)

    def test_sizes(self):
        sol = PointsToSolution({0: [1], 1: [1, 0]}, num_vars=3)
        assert sol.non_empty_count() == 2
        assert sol.total_size() == 3
        assert sol.average_size() == 1.5
        assert PointsToSolution({}, 3).average_size() == 0.0

    def test_equality_and_hash(self):
        a = PointsToSolution({0: [1]}, 2)
        b = PointsToSolution({0: [1]}, 2)
        c = PointsToSolution({0: [1]}, 3)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_diff(self):
        a = PointsToSolution({0: [1]}, 2)
        b = PointsToSolution({0: [1], 1: [0]}, 2)
        diff = a.diff(b)
        assert 1 in diff
        assert diff[1]["only_other"] == {0}

    def test_expand(self):
        # Pointee ids may outrange the (substituted) variable count, but
        # only when the producer declares the wider location space.
        sol = PointsToSolution({0: [5]}, 3, num_locs=6)
        expanded = sol.expand([0, 0, 2])
        assert expanded.points_to(1) == {5}
        assert expanded.points_to(2) == frozenset()

    def test_expand_length_checked(self):
        with pytest.raises(ValueError):
            PointsToSolution({}, 3).expand([0])

    def test_by_name(self):
        sol = PointsToSolution({0: [1]}, 2, names=["p", "x"])
        view = sol.by_name(["p", "x"])
        assert view["p"] == {"x"}

    def test_name_of(self):
        named = PointsToSolution({}, 1, names=["alpha"])
        assert named.name_of(0) == "alpha"
        anonymous = PointsToSolution({}, 1)
        assert anonymous.name_of(0) == "v0"


class TestAlias:
    @pytest.fixture
    def analysis(self):
        b = ConstraintBuilder()
        x, y = b.var("x"), b.var("y")
        p, q, r = b.var("p"), b.var("q"), b.var("r")
        b.address_of(p, x)
        b.address_of(q, x)
        b.address_of(q, y)
        b.address_of(r, y)
        system = b.build()
        return AliasAnalysis(solve(system, "lcd+hcd")), (p, q, r, x, y)

    def test_may_alias(self, analysis):
        alias, (p, q, r, x, y) = analysis
        assert alias.may_alias(p, q)  # share x
        assert alias.may_alias(q, r)  # share y
        assert not alias.may_alias(p, r)

    def test_must_not_alias(self, analysis):
        alias, (p, q, r, *_rest) = analysis
        assert alias.must_not_alias(p, r)
        assert not alias.must_not_alias(p, q)

    def test_empty_pointer_never_aliases(self, analysis):
        alias, (p, q, r, x, y) = analysis
        assert not alias.may_alias(x, p)  # x has empty pts

    def test_alias_set(self, analysis):
        alias, (p, q, r, *_rest) = analysis
        assert alias.alias_set(q, [p, r]) == [p, r]
        assert alias.alias_set(p, [r]) == []

    def test_alias_pairs(self, analysis):
        alias, (p, q, r, *_rest) = analysis
        assert alias.alias_pairs([p, q, r]) == [(p, q), (q, r)]

    def test_dereference(self, analysis):
        alias, (p, q, r, x, y) = analysis
        assert alias.dereference(q) == {x, y}


class TestCallGraph:
    def build(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        g = b.function("g", params=["a", "b"])
        h = b.function("h", params=[])
        fp1, fp2 = b.var("fp1"), b.var("fp2")
        x, r = b.var("x"), b.var("r")
        b.address_of(x, x)
        b.address_of(fp1, f.node)
        b.address_of(fp1, g.node)
        b.address_of(fp2, h.node)
        b.call_indirect(fp1, [x], ret=r)
        b.call_indirect(fp2, [], ret=r)
        system = b.build()
        return system, solve(system, "lcd+hcd"), (f, g, h, fp1, fp2)

    def test_callees_resolved(self):
        system, solution, (f, g, h, fp1, fp2) = self.build()
        graph = build_call_graph(system, solution)
        assert graph.callees(fp1) == {f.node, g.node}
        assert graph.callees(fp2) == {h.node}

    def test_callers_of(self):
        system, solution, (f, g, h, fp1, fp2) = self.build()
        graph = build_call_graph(system, solution)
        assert graph.callers_of(f.node) == [fp1]
        assert graph.callers_of(h.node) == [fp2]

    def test_monomorphic_sites(self):
        system, solution, (f, g, h, fp1, fp2) = self.build()
        graph = build_call_graph(system, solution)
        assert graph.monomorphic_sites() == [fp2]
        assert graph.is_resolved(fp1)

    def test_arity_filtering(self):
        """A pointee function whose block is too small is not a callee."""
        b = ConstraintBuilder()
        short = b.function("short", params=[])  # max offset 1
        fp, x, r = b.var("fp"), b.var("x"), b.var("r")
        b.address_of(x, x)
        b.address_of(fp, short.node)
        b.call_indirect(fp, [x], ret=r)  # needs param offset 2
        system = b.build()
        graph = build_call_graph(system, solve(system, "naive"))
        # The return-value load (offset 1) resolves; the argument store
        # (offset 2) exceeds short's block.
        assert graph.callees(fp) == {short.node}
        assert graph.function_names[short.node] == "short"

    def test_edge_count(self):
        system, solution, *_ = self.build()
        graph = build_call_graph(system, solution)
        assert graph.edge_count == 3

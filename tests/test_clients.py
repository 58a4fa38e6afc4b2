"""Tests for the mod/ref and escape client analyses."""

import pytest

from repro.analysis.escape import EscapeAnalysis
from repro.analysis.mod_ref import ModRefAnalysis
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import Constraint, ConstraintKind, owner_of
from repro.frontend.generator import generate_constraints
from repro.solvers.registry import solve


class TestModRef:
    @pytest.fixture
    def setup(self):
        b = ConstraintBuilder()
        p, q, x, y, r, s = (b.var(n) for n in "pqxyrs")
        b.address_of(p, x)
        b.address_of(q, y)
        store = Constraint(ConstraintKind.STORE, p, s)  # *p = s
        load = Constraint(ConstraintKind.LOAD, r, q)  # r = *q
        b.raw(store)
        b.raw(load)
        system = b.build()
        solution = solve(system, "naive")
        return system, ModRefAnalysis(system, solution), (p, q, x, y, store, load)

    def test_written_through(self, setup):
        system, modref, (p, q, x, y, store, load) = setup
        assert modref.written_through(p) == {x}
        assert modref.read_through(q) == {y}

    def test_constraint_mod_ref(self, setup):
        system, modref, (p, q, x, y, store, load) = setup
        assert modref.constraint_mod(store) == {x}
        assert modref.constraint_ref(store) == frozenset()
        assert modref.constraint_ref(load) == {y}
        assert modref.constraint_mod(load) == frozenset()

    def test_no_interference_when_disjoint(self, setup):
        system, modref, (p, q, x, y, store, load) = setup
        assert not modref.may_interfere(store, load)

    def test_write_read_interference(self):
        b = ConstraintBuilder()
        p, q, x = b.var("p"), b.var("q"), b.var("x")
        b.address_of(p, x)
        b.address_of(q, x)  # same target
        store = Constraint(ConstraintKind.STORE, p, b.var("s"))
        load = Constraint(ConstraintKind.LOAD, b.var("r"), q)
        b.raw(store)
        b.raw(load)
        system = b.build()
        modref = ModRefAnalysis(system, solve(system, "naive"))
        assert modref.may_interfere(store, load)
        assert modref.may_interfere(store, store)  # write/write

    def test_offset_respects_function_blocks(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        fp = b.var("fp")
        b.address_of(fp, f.node)
        b.address_of(fp, b.var("plain"))  # invalid for offsets
        system = b.build()
        modref = ModRefAnalysis(system, solve(system, "naive"))
        # Offset 2 = first parameter slot; only the function qualifies.
        assert modref.written_through(fp, offset=2) == {f.params[0]}

    def test_aggregates(self, setup):
        system, modref, (p, q, x, y, store, load) = setup
        assert modref.mod_set() == {x}
        assert modref.ref_set() == {y}
        assert modref.mod_set([load]) == frozenset()


class TestEscape:
    SOURCE = """
    int *global_sink;
    void leak(int *p) { global_sink = p; }
    int local_only(void) {
        int kept = 1;
        int *lp = &kept;
        return *lp;
    }
    int main(void) {
        int leaked = 2;
        leak(&leaked);
        int *a = (int *) malloc(4);
        int *b = (int *) malloc(4);
        global_sink = b;
        return 0;
    }
    """

    @pytest.fixture
    def analysis(self):
        program = generate_constraints(self.SOURCE)
        solution = solve(program.system, "lcd+hcd")
        return program, EscapeAnalysis(program, solution)

    def test_leak_through_global(self, analysis):
        program, escape = analysis
        assert escape.escapes("main::leaked")

    def test_pure_local_does_not_escape(self, analysis):
        program, escape = analysis
        assert not escape.escapes("local_only::kept")

    def test_escaped_locals_list(self, analysis):
        program, escape = analysis
        names = escape.escaped_locals()
        assert "main::leaked" in names
        assert "local_only::kept" not in names

    def test_stack_allocatable_heap(self, analysis):
        program, escape = analysis
        candidates = escape.stack_allocatable_heap()
        # Exactly one of the two malloc sites stays function-local.
        assert len(candidates) == 1
        assert candidates[0].startswith("heap@")

    def test_param_pointee_crossing_functions(self):
        """Passing &x to another function makes x escape its frame."""
        program = generate_constraints(
            """
            void callee(int *p) { }
            int main(void) { int x; callee(&x); return 0; }
            """
        )
        escape = EscapeAnalysis(program, solve(program.system, "naive"))
        assert escape.escapes("main::x")

    def test_owner_parsing(self):
        assert owner_of("main::x") == "main"
        assert owner_of("main$tmp1@3") == "main"
        assert owner_of("global") is None

"""Edge cases of the escape and mod/ref analyses.

These two analyses became load-bearing for the dataflow clients (the
race detector's shared-location set comes from escape analysis, its
access collection and the taint engine's memory edges from mod/ref),
so the corners the basic tests skip are pinned here: address-taken
locals crossing calls, globals reachable only through the heap, and
function pointees at nonzero offsets.
"""

from repro.analysis.escape import EscapeAnalysis
from repro.analysis.mod_ref import ModRefAnalysis
from repro.frontend import generate_constraints
from repro.solvers.registry import solve


def _solved(source, field_mode="insensitive"):
    program = generate_constraints(source, field_mode=field_mode)
    return program, solve(program.system, "lcd+hcd")


class TestEscapeAcrossCalls:
    def test_local_passed_down_does_not_escape(self):
        """&x handed to a callee is held only by the callee's frame —
        an inner frame cannot outlive the owner, so x stays local."""
        program, solution = _solved(
            """
void reader(int *p) {
    int *q = p;
}

int main() {
    int x;
    reader(&x);
    return 0;
}
"""
        )
        analysis = EscapeAnalysis(program, solution)
        # The callee's frame holds &x, which this analysis treats as an
        # escape from x's owner (flow-insensitive may-escape)...
        assert analysis.escapes("main::x")
        # ...but the dedicated accessor exposes the same set the race
        # detector consumes.
        assert program.node_of("main::x") in analysis.escaped_nodes()

    def test_local_stored_through_param_escapes(self):
        """The callee stashes its argument in a global: the local is
        now reachable after main's call returns."""
        program, solution = _solved(
            """
int *keep;

void stash(int *p) {
    keep = p;
}

int main() {
    int x;
    stash(&x);
    return 0;
}
"""
        )
        analysis = EscapeAnalysis(program, solution)
        assert analysis.escapes("main::x")
        assert "main::x" in analysis.escaped_locals()

    def test_purely_local_pointer_does_not_escape(self):
        program, solution = _solved(
            """
int main() {
    int x;
    int *p;
    p = &x;
    return 0;
}
"""
        )
        analysis = EscapeAnalysis(program, solution)
        assert not analysis.escapes("main::x")
        assert analysis.escaped_nodes() == frozenset()


class TestGlobalsViaHeap:
    SOURCE = """
int g;
int **cell;

void hide() {
    cell = malloc(8);
    *cell = &g;
}

int main() {
    int *out;
    hide();
    out = *cell;
    return 0;
}
"""

    def test_global_reachable_only_via_heap_in_modref(self):
        """*cell = &g routes the global through the heap cell; loads
        through cell must reference the cell, and the loaded pointer
        must reach g."""
        program, solution = _solved(self.SOURCE)
        modref = ModRefAnalysis(program.system, solution)
        cell = program.node_of("cell")
        heap_nodes = set(program.heap_nodes)
        assert set(modref.read_through(cell)) == heap_nodes
        out = program.node_of("main::out")
        assert program.node_of("g") in solution.points_to(out)

    def test_heap_holding_a_global_is_not_stack_allocatable(self):
        """The cell is reachable from the global 'cell' pointer, so no
        single function owns it."""
        program, solution = _solved(self.SOURCE)
        analysis = EscapeAnalysis(program, solution)
        assert analysis.stack_allocatable_heap() == []

    def test_single_owner_heap_is_stack_allocatable(self):
        program, solution = _solved(
            """
int main() {
    int *p;
    p = malloc(8);
    return 0;
}
"""
        )
        analysis = EscapeAnalysis(program, solution)
        assert analysis.stack_allocatable_heap() == ["heap@4#1"]


class TestFunctionPointeesAtOffsets:
    def test_nonzero_offset_into_function_block(self):
        """A function pointee supports offsets up to its block size
        (return slot, parameters); beyond that the dereference denotes
        nothing and mod/ref must drop it."""
        program, solution = _solved(
            """
int callee(int *a, int *b) {
    return 0;
}

int (*fp)(int *, int *);

int main() {
    int x;
    fp = &callee;
    fp(&x, &x);
    return 0;
}
"""
        )
        system = program.system
        modref = ModRefAnalysis(system, solution)
        fp = program.node_of("fp")
        callee = program.node_of("callee")
        info = system.functions[callee]
        # Offset 0 is the function itself; the return and both
        # parameter slots are offset pointees.
        assert set(modref.read_through(fp, 0)) == {callee}
        assert set(modref.read_through(fp, 1)) == {info.return_node}
        assert set(modref.written_through(fp, 2)) == {info.param_nodes[0]}
        assert set(modref.written_through(fp, 3)) == {info.param_nodes[1]}
        # Past the block: max_offset filtering drops the pointee.
        beyond = info.block_size
        assert modref.written_through(fp, beyond + 1) == frozenset()

    def test_mixed_pointees_filter_per_location(self):
        """When a pointer targets both a one-param and a two-param
        function, a +3 access (second argument slot) only reaches the
        larger block."""
        program, solution = _solved(
            """
int one(int *a) {
    return 0;
}

int two(int *a, int *b) {
    return 0;
}

int (*fp)(int *, int *);

int main() {
    int x;
    fp = &one;
    fp = &two;
    fp(&x, &x);
    return 0;
}
"""
        )
        system = program.system
        modref = ModRefAnalysis(system, solution)
        fp = program.node_of("fp")
        two = program.node_of("two")
        targets = modref.written_through(fp, 3)
        assert targets == frozenset({system.functions[two].param_nodes[1]})

"""Unit tests for the interprocedural dataflow engine and its clients.

The corpus tests (``test_checker_corpus.py``) cover the two checkers
end-to-end; here the engine layers are exercised directly — the
union/intersect worklists, witness recording, the value-flow graph's
memory routing and sanitizer barriers, and the function graph's caller
attribution.
"""

from repro.analysis.escape import EscapeAnalysis
from repro.constraints.model import owner_of
from repro.dataflow import (
    IntersectDataflow,
    UnionDataflow,
    build_value_flow,
    find_races,
    find_taint_flows,
)
from repro.dataflow.engine import SEED_PRED
from repro.dataflow.interproc import FunctionGraph
from repro.frontend import generate_constraints
from repro.solvers.registry import solve


class TestUnionDataflow:
    def test_facts_flow_along_edges(self):
        flow = UnionDataflow()
        flow.add_edge(1, 2)
        flow.add_edge(2, 3)
        flow.seed(1, 0b1)
        flow.run()
        assert flow.facts(3) == 0b1
        assert flow.facts(4) == 0

    def test_bits_are_word_parallel(self):
        """Many facts propagate in one step each — the propagation count
        does not scale with the number of bits in flight."""
        flow = UnionDataflow()
        flow.add_edge(0, 1)
        flow.seed(0, (1 << 64) - 1)  # 64 facts at once
        flow.run()
        assert flow.facts(1) == (1 << 64) - 1
        assert flow.stats.propagations == 1

    def test_cycles_terminate(self):
        flow = UnionDataflow()
        flow.add_edge(1, 2)
        flow.add_edge(2, 1)
        flow.seed(1, 0b10)
        flow.run()
        assert flow.facts(1) == flow.facts(2) == 0b10

    def test_incremental_reseeding(self):
        flow = UnionDataflow()
        flow.add_edge(1, 2)
        flow.seed(1, 0b1)
        flow.run()
        flow.seed(1, 0b10)
        flow.run()
        assert flow.facts(2) == 0b11

    def test_witness_walks_back_to_seed(self):
        flow = UnionDataflow()
        flow.add_edge(1, 2, line=10)
        flow.add_edge(2, 3, line=20)
        flow.seed(1, 0b1, line=5)
        flow.run()
        chain = flow.witness(3, 0)
        assert chain == [(1, 5), (2, 10), (3, 20)]
        assert flow.witness(3, 1) == []  # fact 1 never reached node 3

    def test_witness_prefers_first_delivery(self):
        flow = UnionDataflow()
        flow.add_edge(1, 3, line=10)
        flow.add_edge(2, 3, line=20)
        flow.seed(1, 0b1, line=1)
        flow.run()
        flow.seed(2, 0b1, line=2)
        flow.run()
        assert flow.witness(3, 0)[-1] == (3, 10)

    def test_seed_pred_sentinel_is_not_a_node(self):
        assert SEED_PRED < 0


class TestIntersectDataflow:
    def test_unvisited_nodes_are_top(self):
        flow = IntersectDataflow(universe=0b111)
        assert flow.facts(9) == 0b111

    def test_meet_is_intersection(self):
        flow = IntersectDataflow(universe=0b111)
        flow.add_edge(1, 3)
        flow.add_edge(2, 3)
        flow.seed(1, 0b011)
        flow.seed(2, 0b110)
        flow.run()
        assert flow.facts(3) == 0b010

    def test_edges_generate_bits(self):
        """A call edge adds the locks held at the call site."""
        flow = IntersectDataflow(universe=0b11)
        flow.add_edge(1, 2, gen=0b10)
        flow.seed(1, 0)
        flow.run()
        assert flow.facts(2) == 0b10

    def test_cyclic_narrowing_terminates(self):
        flow = IntersectDataflow(universe=0b11)
        flow.add_edge(1, 2, gen=0b01)
        flow.add_edge(2, 1)
        flow.seed(1, 0)
        flow.run()
        assert flow.facts(1) == 0
        assert flow.facts(2) == 0b01


SOURCE = """
char *route(char *s) {
    return s;
}

char **box;

int main() {
    char *raw;
    char *out;
    box = malloc(8);
    raw = getenv("CMD");
    *box = route(raw);
    out = *box;
    system(out);
    return 0;
}
"""


def _solved(source):
    program = generate_constraints(source)
    return program, solve(program.system, "lcd+hcd")


class TestValueFlow:
    def test_memory_flow_routes_through_points_to(self):
        """A store into a heap cell and a load back out connect the
        stored value to the loaded variable."""
        program, solution = _solved(SOURCE)
        flow = build_value_flow(program.system, solution)
        raw = program.node_of("main::raw")
        out = program.node_of("main::out")
        flow.seed(raw, 0b1)
        flow.run()
        assert flow.facts(out) == 0b1

    def test_barrier_constructs_block_flow(self):
        program, solution = _solved(SOURCE)
        # 'Return' barriers cut route()'s return edge, severing the chain.
        flow = build_value_flow(
            program.system, solution, barrier_constructs=frozenset({"Return"})
        )
        raw = program.node_of("main::raw")
        out = program.node_of("main::out")
        flow.seed(raw, 0b1)
        flow.run()
        assert flow.facts(out) == 0

    def test_taint_client_reports_the_flow(self):
        program, solution = _solved(SOURCE)
        findings, stats = find_taint_flows(
            program.system,
            solution,
            program.taint_sources,
            program.taint_sinks,
        )
        (finding,) = findings
        assert finding.source.name == "getenv"
        assert finding.sink.name == "system"
        assert finding.path_lines  # witness survives to the report
        assert stats.edges > 0

    def test_no_sources_short_circuits(self):
        program, solution = _solved("int main() { return 0; }")
        findings, stats = find_taint_flows(
            program.system, solution, [], []
        )
        assert findings == [] and stats.edges == 0


class TestFunctionGraph:
    def test_owner_name_conventions(self):
        """The one owning-function rule the front end's names follow,
        shared by contexts, escape analysis, checkers and dataflow."""
        assert owner_of("main::raw") == "main"
        assert owner_of("route$ret1@12") == "route"
        assert owner_of("main$tmp1@3") == "main"
        assert owner_of("<global>$tmp2@1") == "<global>"
        assert owner_of("$x") is None
        assert owner_of("box") is None
        assert owner_of("heap@10#1") is None

    def test_direct_call_edges(self):
        program, solution = _solved(SOURCE)
        graph = FunctionGraph(program.system, solution)
        main = graph.function_named("main")
        route = graph.function_named("route")
        assert main is not None and route is not None
        assert (route, 13) in {(c, l) for c, l in graph.callees_of(main)}
        assert graph.reachable([main]) >= {main, route}

    def test_attribution_of_globals_only_statements(self):
        """A statement touching only globals is attributed by its
        enclosing function definition."""
        program, solution = _solved(
            "char *g1;\nchar *g2;\n"
            "void helper(void) {\n    g1 = g2;\n}\n"
            "int main() {\n    g2 = g1;\n    return 0;\n}\n"
        )
        graph = FunctionGraph(program.system, solution)
        helper = graph.function_named("helper")
        main = graph.function_named("main")
        assert graph.attribute([], 4) == helper
        assert graph.attribute([], 7) == main


class TestRaces:
    def test_lockset_suppression_and_spawn_isolation(self):
        program, solution = _solved(
            """
char *safe;
char *v;
int mu;

void worker(void *arg) {
    pthread_mutex_lock(&mu);
    safe = v;
    pthread_mutex_unlock(&mu);
}

int main() {
    pthread_create(0, 0, &worker, 0);
    pthread_mutex_lock(&mu);
    safe = v;
    pthread_mutex_unlock(&mu);
    return 0;
}
"""
        )
        escaped = EscapeAnalysis(program, solution).escaped_nodes()
        findings = find_races(
            program.system,
            solution,
            program.thread_spawns,
            program.lock_ops,
            escaped,
        )
        assert findings == []

    def test_no_spawns_means_no_races(self):
        program, solution = _solved("char *g;\nint main() { return 0; }")
        assert (
            find_races(program.system, solution, [], [], frozenset()) == []
        )

    def test_two_site_finding_shape(self):
        program, solution = _solved(
            """
char *slot;
char *a;

void worker(void *arg) {
    slot = a;
}

int main() {
    slot = a;
    pthread_create(0, 0, &worker, 0);
    slot = a;
    return 0;
}
"""
        )
        escaped = EscapeAnalysis(program, solution).escaped_nodes()
        findings = find_races(
            program.system,
            solution,
            program.thread_spawns,
            program.lock_ops,
            escaped,
        )
        assert findings, "unsynchronized write/write must be reported"
        for finding in findings:
            assert finding.first.line <= finding.second.line
            assert finding.first_thread != finding.second_thread
            # main's line-9 store predates the spawn: initialization.
            assert finding.first.line != 9 and finding.second.line != 9

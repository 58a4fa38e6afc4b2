"""Ablation — Offline Variable Substitution pre-processing.

The paper solves the OVS-reduced constraint files (60-77% smaller).  This
bench solves both forms with the headline algorithm and reports the
speedup OVS buys, verifying that the expanded solutions agree.
"""

import pytest

from conftest import SCALE, emit_table
from repro.metrics.reporting import Table
from repro.preprocess.hvn import offline_variable_substitution
from repro.solvers.registry import make_solver
from repro.workloads import generate_workload

BENCHES = ["emacs", "ghostscript", "linux"]

_results = {}


@pytest.mark.parametrize("name", BENCHES)
@pytest.mark.parametrize("reduced", [True, False], ids=["with-ovs", "without-ovs"])
def test_ablation_ovs(benchmark, reduced, name):
    system = generate_workload(name, scale=SCALE, seed=1)
    ovs = offline_variable_substitution(system)

    def run():
        if reduced:
            solver = make_solver(ovs.reduced, "lcd+hcd")
            solver.solve()
            return solver, ovs.expand(solver.solve())
        solver = make_solver(system, "lcd+hcd")
        return solver, solver.solve()

    solver, solution = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[(reduced, name)] = (solver.stats, solution)

    if len(_results) == 2 * len(BENCHES):
        table = Table(
            "Ablation — solving with vs without OVS (lcd+hcd; time s / propagations)",
            ["configuration"] + BENCHES,
        )
        for flag, label in [(True, "with OVS (paper)"), (False, "without OVS")]:
            table.add_row(
                [label]
                + [
                    f"{_results[(flag, b)][0].solve_seconds:.2f} / "
                    f"{_results[(flag, b)][0].propagations:,}"
                    for b in BENCHES
                ]
            )
        emit_table(table)

        # OVS must preserve the solution exactly.
        for b in BENCHES:
            assert _results[(True, b)][1] == _results[(False, b)][1], b

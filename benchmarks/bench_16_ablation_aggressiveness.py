"""Ablation — how aggressively to look for cycles (paper Discussion, §5.3).

"Could we do better by being even more aggressive?  However, past
experience has shown that we must carefully balance the work we do — too
much aggression can lead to overhead that overwhelms any benefits."  The
paper cites Pearce et al.'s original 2003 algorithm (cycle detection at
every order-violating edge insertion) as an order of magnitude slower
than anything it evaluates.

This bench lines up the full aggressiveness spectrum on one axis:

    never (naive) .. on-effect (lcd) .. periodic (pkh) .. per-edge (pkh03)

and reports time plus the search-overhead counter.
"""

import pytest

from conftest import emit_table, workload
from repro.metrics.reporting import Table
from repro.solvers.registry import make_solver

SPECTRUM = ["naive", "hcd", "lcd", "pkh", "pkh03"]
BENCHES = ["emacs", "ghostscript", "linux"]

_results = {}


@pytest.mark.parametrize("name", BENCHES)
@pytest.mark.parametrize("algorithm", SPECTRUM)
def test_ablation_aggressiveness(benchmark, algorithm, name):
    system = workload(name).reduced

    def run():
        solver = make_solver(system, algorithm)
        solver.solve()
        return solver

    solver = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[(algorithm, name)] = solver.stats

    if len(_results) == len(SPECTRUM) * len(BENCHES):
        table = Table(
            "Ablation — cycle-detection aggressiveness "
            "(time s / nodes searched / collapsed)",
            ["algorithm"] + BENCHES,
        )
        for algo in SPECTRUM:
            table.add_row(
                [algo]
                + [
                    f"{_results[(algo, b)].solve_seconds:.2f} / "
                    f"{_results[(algo, b)].nodes_searched:,} / "
                    f"{_results[(algo, b)].nodes_collapsed:,}"
                    for b in BENCHES
                ]
            )
        emit_table(table)

        for b in BENCHES:
            # Per-edge detection is complete (collapses everything PKH does)
            assert (
                _results[("pkh03", b)].nodes_collapsed
                == _results[("pkh", b)].nodes_collapsed
            )
            # ...but lazy detection searches far less than either sweep
            # discipline (the grasshopper's whole point).
            assert (
                _results[("lcd", b)].nodes_searched
                < _results[("pkh", b)].nodes_searched
            )

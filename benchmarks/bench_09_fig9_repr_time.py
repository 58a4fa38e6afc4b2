"""Figure 9 — alternative points-to representations vs bitmaps (time).

Paper: the BDD representation averages ~2x slower, with most of the cost
in ``bdd_allsat`` (set enumeration while resolving complex constraints);
PKH and HCD — the heaviest propagators — can actually get *faster* with
BDDs on some benchmarks.
"""


from conftest import TABLE5_ALGORITHMS, emit_table, run_solver
from paper_data import FIG9_BDD_SLOWDOWN
from repro.metrics.reporting import Table, geometric_mean
from repro.workloads import BENCHMARK_ORDER


def _time_ratios(pts: str):
    return {
        algorithm: [
            run_solver(n, algorithm, pts=pts).stats.solve_seconds
            / max(run_solver(n, algorithm, pts="bitmap").stats.solve_seconds, 1e-9)
            for n in BENCHMARK_ORDER
        ]
        for algorithm in TABLE5_ALGORITHMS
    }


def _emit(title: str, ratios) -> float:
    table = Table(title, ["algorithm"] + BENCHMARK_ORDER + ["geo-mean"])
    means = []
    for algorithm in TABLE5_ALGORITHMS:
        mean = geometric_mean(ratios[algorithm])
        means.append(mean)
        table.add_row(
            [algorithm] + [f"{r:.2f}" for r in ratios[algorithm]] + [f"{mean:.2f}"]
        )
    overall = geometric_mean(means)
    table.add_row(["average"] + [""] * len(BENCHMARK_ORDER) + [f"{overall:.2f}"])
    emit_table(table)
    return overall


def test_fig9_bdd_time_ratio(benchmark):
    ratios = benchmark.pedantic(
        lambda: _time_ratios("bdd"), rounds=1, iterations=1
    )
    overall = _emit(
        f"Figure 9 — BDD time / bitmap time (paper average ~{FIG9_BDD_SLOWDOWN}x)",
        ratios,
    )
    # Shape: BDD sets cost time on average (the paper's 2x direction).
    assert overall > 1.0

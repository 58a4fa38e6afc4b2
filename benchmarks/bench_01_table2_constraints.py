"""Table 2 — benchmark suite statistics.

Paper columns: LOC, original constraints, reduced constraints, and the
base/simple/complex breakdown of the reduced form.  Here the "original"
constraints are the synthetic profile workloads and the reduction is our
own Offline Variable Substitution pass (the paper: "reduces the number of
constraints by 60-77%", taking under a second to a few seconds).
"""

import pytest

from conftest import SCALE, emit_table
from repro.constraints.model import ConstraintKind
from repro.metrics.reporting import Table
from repro.preprocess.hvn import offline_variable_substitution
from repro.workloads import BENCHMARK_ORDER, BENCHMARKS, generate_workload

_rows = {}


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_table2_ovs_reduction(benchmark, name):
    """Benchmark the OVS pre-processing pass itself (paper: <1-3 s)."""
    system = generate_workload(name, scale=SCALE, seed=1)

    result = benchmark.pedantic(
        offline_variable_substitution, args=(system,), rounds=1, iterations=1
    )

    counts = result.reduced.kind_counts()
    _rows[name] = {
        "original": len(system),
        "reduced": len(result.reduced),
        "base": counts[ConstraintKind.BASE],
        "simple": counts[ConstraintKind.COPY],
        "complex": result.reduced.complex_count(),
        "ratio": result.reduction_ratio,
    }
    # The paper's reduction band is 60-77%; allow a generous margin for
    # the synthetic stand-ins.
    assert 0.40 <= result.reduction_ratio <= 0.92

    if len(_rows) == len(BENCHMARK_ORDER):
        table = Table(
            "Table 2 — benchmarks (paper values in parentheses, scaled)",
            [
                "name", "LOC (paper)", "original", "(paper/scale)",
                "reduced", "(paper/scale)", "base", "simple", "complex", "reduction",
            ],
        )
        for bench in BENCHMARK_ORDER:
            row = _rows[bench]
            profile = BENCHMARKS[bench]
            table.add_row(
                [
                    bench,
                    f"{profile.loc:,}",
                    row["original"],
                    round(profile.original_constraints * SCALE),
                    row["reduced"],
                    round(profile.reduced_constraints * SCALE),
                    row["base"],
                    row["simple"],
                    row["complex"],
                    f"{row['ratio']:.0%} (paper {profile.reduction_ratio:.0%})",
                ]
            )
        emit_table(table)

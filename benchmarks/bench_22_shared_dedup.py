"""Extension — hash-consing effectiveness of the ``shared`` family.

Not a paper table: this measures the mechanism behind the MDE-style
interning layer (`datastructs/intern_table.py`) on the generated
workloads.  Two numbers summarize why sharing closes the bitmap/BDD
memory gap (Figure 10) from the bitmap side:

- **dedup ratio** — points-to set handles created vs distinct canonical
  values alive at convergence.  Every count above 1 is a set the bitmap
  family would have stored as a separate copy;
- **union memo hit rate** — fraction of non-trivial unions answered by
  the bounded memo cache instead of a block merge (the dominant
  operation profile per MDE: the same operand pairs recur constantly).

The correctness half — ``shared`` bit-identical to ``bitmap`` — lives in
``tests/test_solver_agreement.py``; this bench doubles as the CI smoke
entry point for the ``--pts shared`` leg.
"""

from conftest import emit_table, run_solver
from repro.metrics.reporting import Table
from repro.workloads import BENCHMARK_ORDER

ALGORITHMS = ["lcd", "lcd+hcd"]


def test_shared_dedup(benchmark):
    def collect():
        return {
            (name, algorithm): run_solver(name, algorithm, pts="shared")
            for name in BENCHMARK_ORDER
            for algorithm in ALGORITHMS
        }

    runs = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = Table(
        "Extension — shared-family dedup ratio and memo hit rate",
        [
            "benchmark", "algorithm", "sets made", "live nodes", "peak nodes",
            "dedup ratio", "memo hit rate", "memo evictions",
        ],
    )
    for (name, algorithm), solver in runs.items():
        intern = solver.stats.intern
        assert intern is not None, (name, algorithm)
        dedup = solver.family.sets_made / max(intern.live_nodes, 1)
        table.add_row(
            [
                name,
                algorithm,
                solver.family.sets_made,
                intern.live_nodes,
                intern.peak_nodes,
                f"{dedup:.1f}x",
                f"{intern.union_memo_hit_rate:.0%}",
                intern.memo_evictions,
            ]
        )
        # Shape: interning must actually deduplicate (many handles per
        # canonical value) and the memo must absorb repeated unions.
        assert intern.live_nodes <= solver.family.sets_made
        assert dedup > 1.0, (name, algorithm)
        assert 0.0 <= intern.union_memo_hit_rate <= 1.0
    emit_table(table)

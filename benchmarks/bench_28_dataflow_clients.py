"""Extension — interprocedural dataflow clients (taint + race).

Not a paper table: this measures the two checkers built on the
``repro/dataflow/`` engine (``taint-flow`` and ``race``).  Two halves:

- **Overhead (synthetic workloads)**: emacs/wine/linux are solved with
  the headline configuration (lcd+hcd, ``--pts int``, ``--opt hu``),
  then the value-flow graph is built over the solved system and 64
  synthetic facts are propagated to a fixpoint with witness tracking on
  — the full cost a dataflow client adds on top of a points-to solve.
  The budget arms at REPRO_SCALE ≤ 128: the client pass may cost at
  most 0.5x the solve it rides on (geo-mean).  The engine is
  word-parallel over Python bignums, so the fact count barely moves
  the needle; the bound is really about value-flow graph construction.
- **Precision (checker corpus)**: the corpus is swept with only the
  dataflow rules counted, under three configurations — the insensitive
  baseline (lcd+hcd, k=0), 1-CFA (lcd+hcd, k=1), and unification-based
  Steensgaard (k=0).  Always-on budgets pin the qualitative story: the
  baseline and Steensgaard each fabricate at least one false taint
  flow and one false race, 1-CFA reports zero false positives, and no
  configuration misses a seeded bug (both clients degrade *soundly*
  under merging: coarser points-to can only add flows/conflicts).
"""

import gc
import pathlib
import time

from conftest import SCALE_DENOMINATOR, emit_table, record_extra, workload
from repro.checkers import Severity, run_checkers
from repro.dataflow import build_value_flow
from repro.frontend.generator import generate_constraints
from repro.metrics.reporting import Table, geometric_mean
from repro.solvers.registry import make_solver
from repro.workloads import expected_bug_findings

ALGORITHM = "lcd+hcd"
PTS = "int"
BENCHMARKS = ["emacs", "wine", "linux"]
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "corpus"
DATAFLOW_RULES = frozenset({"taint-flow", "race"})
SEED_BITS = 64
OVERHEAD_BUDGET = 0.5  # dataflow client seconds / solve seconds (geo-mean, le)

#: (label, solver algorithm, k) — the three precision configurations.
CONFIGS = [
    ("lcd+hcd/k0", ALGORITHM, 0),
    ("lcd+hcd/k1", ALGORITHM, 1),
    ("steensgaard", "steensgaard", 0),
]


def _best_of_three(fn):
    best = None
    result = None
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def _client_pass(system, solution):
    """One full dataflow-client pass: build the value-flow graph over
    the solved system, seed 64 synthetic facts spread across the
    variable space, and propagate to a fixpoint (witnesses on, as the
    taint client runs them)."""
    flow = build_value_flow(system, solution)
    stride = max(1, system.num_vars // SEED_BITS)
    for bit in range(SEED_BITS):
        flow.seed((bit * stride) % max(system.num_vars, 1), 1 << bit)
    flow.run()
    return flow


def test_dataflow_client_overhead(benchmark):
    """Value-flow construction + propagation vs the solve it rides on."""

    def collect():
        runs = {}
        for name in BENCHMARKS:
            system = workload(name).original

            # One fresh copy of the system per timed solve, made before the
            # timers start: solvers built on one system object share its
            # HU stage, and the solve charges that stage.
            fresh = [system.with_constraints(system.constraints) for _ in range(3)]

            def solve_pass():
                solver = make_solver(fresh.pop(), ALGORITHM, pts=PTS, opt="hu")
                return solver.solve()

            solution, solve_seconds = _best_of_three(solve_pass)
            flow, client_seconds = _best_of_three(
                lambda: _client_pass(system, solution)
            )
            runs[name] = {
                "solve_seconds": solve_seconds,
                "client_seconds": client_seconds,
                "flow_nodes": flow.stats.nodes,
                "flow_edges": flow.stats.edges,
                "propagations": flow.stats.propagations,
            }
        return runs

    runs = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = Table(
        f"Extension — dataflow client overhead "
        f"({ALGORITHM}, --pts {PTS}, --opt hu, {SEED_BITS} facts)",
        ["benchmark", "solve (s)", "client (s)", "ratio",
         "flow edges", "propagations"],
    )
    ratios = []
    for name in BENCHMARKS:
        row = runs[name]
        ratio = (
            row["client_seconds"] / row["solve_seconds"]
            if row["solve_seconds"] > 0
            else 0.0
        )
        ratios.append(max(ratio, 1e-9))
        table.add_row(
            [
                name,
                f"{row['solve_seconds']:.4f}",
                f"{row['client_seconds']:.4f}",
                f"{ratio:.2f}x",
                row["flow_edges"],
                row["propagations"],
            ]
        )
        record_extra(
            {
                "kind": "dataflow_overhead",
                "workload": name,
                "solver": f"{ALGORITHM}/{PTS}",
                "solve_seconds": row["solve_seconds"],
                "client_seconds": row["client_seconds"],
                "flow_nodes": row["flow_nodes"],
                "flow_edges": row["flow_edges"],
                "propagations": row["propagations"],
            }
        )

    ratio_geo = geometric_mean(ratios)
    table.add_row(["geo-mean", None, None, f"{ratio_geo:.2f}x", None, None])
    emit_table(table)

    summary = {
        "kind": "dataflow_overhead_summary",
        "solver": f"{ALGORITHM}/{PTS}",
        "workloads": ",".join(BENCHMARKS),
        "dataflow_overhead_ratio": ratio_geo,
    }
    if SCALE_DENOMINATOR <= 128:
        summary["dataflow_overhead_ratio_budget"] = OVERHEAD_BUDGET
        summary["dataflow_overhead_ratio_budget_cmp"] = "le"
    record_extra(summary)

    if SCALE_DENOMINATOR <= 128:
        assert ratio_geo <= OVERHEAD_BUDGET, (
            f"dataflow client overhead geo-mean {ratio_geo:.2f}x > "
            f"{OVERHEAD_BUDGET:.1f}x of solve time"
        )


def _check_corpus_file(path: pathlib.Path, algorithm: str, k: int):
    """Dataflow-rule findings + seeded markers for one corpus program."""
    field_mode = "sensitive" if ".sensitive." in path.name else "insensitive"
    program = generate_constraints(path.read_text(), field_mode=field_mode)
    solver = make_solver(program.system, algorithm, k_cs=k)
    solution = solver.solve()
    expansion = solver.context
    report = run_checkers(
        program.system,
        solution,
        program=program,
        path=path.name,
        min_severity=Severity.WARNING,
        expansion=expansion,
        expanded_solution=(
            solver.context_solution() if expansion is not None else None
        ),
    )
    seeded = {
        (rule, line)
        for rule, line in expected_bug_findings(path.read_text())
        if rule in DATAFLOW_RULES
    }
    found = {
        (d.rule, d.line) for d in report if d.rule in DATAFLOW_RULES
    }
    per_rule_fp = {rule: 0 for rule in DATAFLOW_RULES}
    for rule, line in found - seeded:
        per_rule_fp[rule] += 1
    missed = len(seeded - found)
    return per_rule_fp, missed, len(found)


def test_dataflow_client_precision_on_corpus(benchmark):
    """Taint and race false positives per configuration, zero misses."""
    corpus = sorted((CORPUS / "buggy").glob("*.c")) + sorted(
        (CORPUS / "clean").glob("*.c")
    )
    assert corpus, "checker corpus not found"

    def sweep():
        per_config = {}
        for label, algorithm, k in CONFIGS:
            taint_fp = race_fp = missed = findings = 0
            for path in corpus:
                fp, m, n = _check_corpus_file(path, algorithm, k)
                taint_fp += fp["taint-flow"]
                race_fp += fp["race"]
                missed += m
                findings += n
            per_config[label] = {
                "taint_fp": taint_fp,
                "race_fp": race_fp,
                "missed": missed,
                "findings": findings,
            }
        return per_config

    per_config = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        f"Extension — dataflow client precision on the checker corpus "
        f"({len(corpus)} programs)",
        ["configuration", "findings", "false taints", "false races",
         "missed seeded bugs"],
    )
    for label, _algorithm, _k in CONFIGS:
        row = per_config[label]
        table.add_row(
            [label, row["findings"], row["taint_fp"], row["race_fp"],
             row["missed"]]
        )
    emit_table(table)

    k0 = per_config["lcd+hcd/k0"]
    k1 = per_config["lcd+hcd/k1"]
    steens = per_config["steensgaard"]
    summary = {
        "kind": "dataflow_precision_corpus",
        "programs": len(corpus),
        "taint_fp_k0": k0["taint_fp"],
        "race_fp_k0": k0["race_fp"],
        "taint_fp_k1": k1["taint_fp"],
        "race_fp_k1": k1["race_fp"],
        "taint_fp_steensgaard": steens["taint_fp"],
        "race_fp_steensgaard": steens["race_fp"],
        "missed_k0": k0["missed"],
        "missed_k1": k1["missed"],
        "missed_steensgaard": steens["missed"],
        # Precision is a property of the corpus, not the scale: the
        # budgets are always declared and always asserted.
        "taint_fp_k0_budget": 1,
        "taint_fp_k0_budget_cmp": "ge",
        "race_fp_k0_budget": 1,
        "race_fp_k0_budget_cmp": "ge",
        "taint_fp_k1_budget": 0,
        "taint_fp_k1_budget_cmp": "le",
        "race_fp_k1_budget": 0,
        "race_fp_k1_budget_cmp": "le",
        "taint_fp_steensgaard_budget": 1,
        "taint_fp_steensgaard_budget_cmp": "ge",
        "race_fp_steensgaard_budget": 1,
        "race_fp_steensgaard_budget_cmp": "ge",
        "missed_k0_budget": 0,
        "missed_k0_budget_cmp": "le",
        "missed_k1_budget": 0,
        "missed_k1_budget_cmp": "le",
        "missed_steensgaard_budget": 0,
        "missed_steensgaard_budget_cmp": "le",
    }
    record_extra(summary)

    # The insensitive baseline and the unification baseline each invent
    # at least one false taint flow AND one false race that 1-CFA (with
    # Andersen-style inclusion) does not.
    assert k0["taint_fp"] >= 1 and k0["race_fp"] >= 1, (
        "the corpus must exhibit insensitive dataflow false positives"
    )
    assert steens["taint_fp"] >= 1 and steens["race_fp"] >= 1, (
        "the corpus must exhibit unification dataflow false positives"
    )
    assert k1["taint_fp"] == 0 and k1["race_fp"] == 0, (
        f"1-CFA must clear the corpus: {k1['taint_fp']} false taints, "
        f"{k1['race_fp']} false races remain"
    )
    # Soundness on the seeded corpus: merging only ever adds flows and
    # conflicts, so no configuration may miss a planted bug.
    for label, _algorithm, _k in CONFIGS:
        assert per_config[label]["missed"] == 0, (
            f"{label} missed seeded dataflow bugs"
        )

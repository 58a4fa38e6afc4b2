"""Tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e``."""

import dataclasses
import json
import statistics

import child
import hostspeed
import oracle
import pytest
import run
import tracing
from tracing import Span, Tracer, TracePoint, op_layers, self_times
from workloads import WORKLOADS

from repro.cli import main as repro_main


def tiny(name, **params):
    """A one-input copy of workload ``name`` with small generator params."""
    return dataclasses.replace(WORKLOADS[name], inputs=1, params=params)


def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        run.tail_p90([0.1] * 99)
    samples = [i / 100 for i in range(100)]
    assert run.tail_p90(samples) == statistics.quantiles(samples, n=10)[-1]
    # Ten samples lie beyond it.
    assert sum(s > run.tail_p90(samples) for s in samples) == 10


def test_op_time_is_rescaled_by_its_host_probes():
    ref = hostspeed.REFERENCE_S
    ops = [
        {"input": 0, "seconds": 0.2, "probe_s": ref},
        {"input": 1, "seconds": 0.2, "probe_s": 2 * ref},  # half speed
        {"input": 0, "seconds": 0.3, "probe_s": ref},
        {"input": 1, "seconds": 0.3, "probe_s": ref},
    ]
    assert run.op_seconds(ops) == pytest.approx([0.2, 0.1, 0.3, 0.3])
    # An input's time is its fastest pass after rescaling.
    assert run.input_seconds(ops) == pytest.approx([0.2, 0.1])
    assert 0 < hostspeed.probe() < 1


def test_self_time_of_nested_spans():
    # cli > contexts.expand > contexts.bootstrap > solvers.online, then a
    # checker beside the expansion.
    spans = [
        Span(0, -1, 0, "cli", 0.0, 10.0),
        Span(1, 0, 0, "contexts.expand", 1.0, 6.0),
        Span(2, 1, 0, "contexts.bootstrap", 2.0, 5.0),
        Span(3, 2, 0, "solvers.online", 3.0, 4.0, {"solvers.propagations": 7}),
        Span(4, 0, 0, "checkers.race", 7.0, 9.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0}
    layers = op_layers(spans)
    assert layers["cli.self_s"] == 3.0
    assert layers["contexts.expand_s"] == 2.0  # self time
    assert layers["contexts.bootstrap_s"] == 3.0  # inclusive of its solve
    assert layers["solvers.online_s"] == 1.0
    assert layers["clients_s"] == 2.0
    assert layers["solvers.propagations"] == 7
    assert layers["trace.self_sum_s"] == 10.0
    # Host-speed rescaling applies to times, not to counts.
    scaled = tracing.layer_metrics(spans, {0: 0.5})
    assert scaled["cli.self_s"] == 1.5
    assert scaled["solvers.propagations"] == 7


@pytest.mark.parametrize("k", [0, 1])
def test_every_marker_is_reported(tmp_path, k):
    workload = tiny(
        "check-c-k1" if k else "check-c", pools=k + 1, functions=3, statements=5
    )
    for index in range(3):
        inp = workload.make_input(seed=7, index=index, directory=str(tmp_path))
        rules = {rule for rule, _ in inp.markers}
        assert rules == {
            "null-deref", "dangling-stack-escape", "heap-leak", "taint-flow", "race",
        }
        with oracle.recorded_solver_calls() as calls:
            code = repro_main(list(inp.argv))
        with open(inp.report, encoding="utf-8") as handle:
            report = handle.read()
        assert oracle.op_failure(workload, inp, code, "", report) is None
        assert calls[0][1]["k_cs"] == k
        assert oracle.certify_input(workload, inp, "", calls[0]) is None


def test_op_that_writes_no_report_fails(tmp_path):
    workload = tiny("check-c", pools=1, functions=3, statements=5)
    inp = workload.make_input(seed=7, index=0, directory=str(tmp_path))
    repro_main(list(inp.argv))  # leaves a valid report behind
    child.run_op(lambda argv: 1, inp)  # exits 1 without writing one
    failure = oracle.op_failure(workload, inp, 1, "", child._read(inp.report))
    assert failure.startswith("invalid SARIF report")


def _originals():
    return {
        (id(owner), name): original
        for owner, name, original in map(tracing.resolve, tracing.TRACE_POINTS)
    }


def test_traced_run_records_nested_bootstrap_and_restores_wrappers(tmp_path):
    workload = tiny("check-c-k1", pools=2, functions=3, statements=5)
    inputs = workload.make_inputs(seed=1, directory=str(tmp_path))
    before = _originals()
    result = child.run_workload(workload, inputs, seconds=0, trace=True)
    assert _originals() == before
    assert [op["traced"] for op in result["ops"]] == [False, True]
    assert not [op for op in result["ops"] if op["failure"]]

    spans = [Span(**span) for span in result["spans"]]
    by_id = {span.id: span for span in spans}
    bootstraps = [s for s in spans if s.name == "contexts.bootstrap"]
    assert bootstraps
    assert all(by_id[s.parent].name == "contexts.expand" for s in bootstraps)
    for op in {span.op for span in spans}:
        op_spans = [s for s in spans if s.op == op]
        root = next(s for s in op_spans if s.parent == -1)
        assert op_layers(op_spans)["trace.self_sum_s"] == pytest.approx(root.duration)


def test_missing_trace_point_fails_loudly_and_wraps_nothing():
    before = _originals()
    points = tracing.TRACE_POINTS + (
        TracePoint("solvers.gone", "repro.solvers.base", "BaseSolver.no_such_method"),
    )
    with pytest.raises(AttributeError, match="no_such_method"):
        with Tracer(points).installed():
            pass
    assert _originals() == before


def test_wrong_solution_fails_every_op_of_its_input(tmp_path, monkeypatch):
    workload = tiny("solve-json", profile="wine", scale=4096)
    inputs = workload.make_inputs(seed=1, directory=str(tmp_path))
    right = child._read

    def wrong(path):
        # Drop one points-to fact from the solution the certifier reads.
        text = right(path)
        if path.endswith(".stdout"):
            data = json.loads(text)
            var = next(v for v, locs in sorted(data["points_to"].items()) if locs)
            data["points_to"][var] = data["points_to"][var][1:]
            text = json.dumps(data)
        return text

    monkeypatch.setattr(child, "_read", wrong)
    result = child.run_workload(workload, inputs, seconds=0, trace=False)
    assert result["certified"] == 0
    assert len(result["ops"]) == 2
    assert all("certifier rejected" in op["failure"] for op in result["ops"])


def test_changed_output_between_passes_fails_the_op():
    first = oracle.output_digest("solve", '{"a": 1}', "", "")
    assert oracle.output_digest("solve", '{"a": 2}', "", "") != first
    # compare's timing column may change; nothing else may.
    table = "== t ==\nalgorithm  time (s)  searched\n----\nht   0.02   5\n"
    slower = table.replace("0.02", "10.50")
    assert oracle.output_digest("compare", slower, "", "") == oracle.output_digest(
        "compare", table, "", ""
    )
    assert oracle.output_digest(
        "compare", table.replace(" 5", " 6"), "", ""
    ) != oracle.output_digest("compare", table, "", "")

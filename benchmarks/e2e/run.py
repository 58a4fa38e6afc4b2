"""End-to-end benchmark of the ``repro`` pipeline users run.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1 --out results.json
    python3 benchmarks/e2e/run.py --workload check-c --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --compare before.json after.json

Each (workload, trace) run generates its seeded inputs, times the import
set-up in fresh interpreters, then runs the workload in a fresh child
interpreter (``child.py``) that checks every op with the oracle.  Every
time is rescaled by host probes taken around it (``hostspeed.py``).
Without ``--workload`` all four workloads run, each untraced and then
traced.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  For a single run the metrics
are the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or
its ``per_layer`` metrics (``--trace 1``); for all runs each name is
prefixed with its workload.  ``--out`` also keeps the full layer table
and the spans of the traced runs.  ``--compare`` prints, per workload
and end-to-end metric, the change from the first results file to the
second against the metric's bound, and exits 1 if a bound is exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from typing import Dict, List, Optional

from hostspeed import normalized

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 11
#: The import every ``repro`` invocation pays before it does any work,
#: between two host probes (the first probe call runs cold).
SETUP_CODE = (
    "import sys, time; sys.path[:0] = [{here!r}, {src!r}]; import hostspeed; "
    "hostspeed.probe(); before = hostspeed.probe(); t = time.perf_counter(); "
    "import repro.cli, repro.checkers; seconds = time.perf_counter() - t; "
    "print(seconds, (before + hostspeed.probe()) / 2)"
)
#: Seconds a child may run before the benchmark gives up on it.
CHILD_TIMEOUT = 150
#: ``op_p90_s`` needs this many samples to have ten beyond it.
TAIL_MIN_SAMPLES = 100


def tail_p90(samples: List[float]) -> float:
    """The 90th percentile, which needs 100 samples to have 10 beyond it."""
    if len(samples) < TAIL_MIN_SAMPLES:
        raise ValueError(
            f"p90 needs {TAIL_MIN_SAMPLES} samples, got {len(samples)}"
        )
    return statistics.quantiles(samples, n=10)[-1]


def op_seconds(ops: List[dict]) -> List[float]:
    """Each op's wall time, rescaled by the host probes around it."""
    return [normalized(op["seconds"], op["probe_s"]) for op in ops]


def input_seconds(ops: List[dict]) -> List[float]:
    """Each input's fastest op over the passes of one run, rescaled.

    The probes between ops cannot see a stall inside an op: after
    rescaling, the two passes of one input still differ by 4% at the
    median and by 15-33% for the most disturbed tenth of inputs.  A slow
    input is slow in every pass; a stall rarely hits both.
    """
    best: Dict[int, float] = {}
    for op, seconds in zip(ops, op_seconds(ops)):
        best[op["input"]] = min(best.get(op["input"], seconds), seconds)
    return [best[index] for index in sorted(best)]


def child_env() -> Dict[str, str]:
    # A fixed hash seed makes set iteration, and so the work each op
    # does, the same in every run of the same input.  Bytecode caching is
    # on, as for an installed package: after the first interpreter,
    # set-up loads and runs the modules instead of compiling them.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> float:
    """Median import time of ``repro.cli`` and ``repro.checkers`` over
    fresh interpreters, each rescaled by its own host probes."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(here=HERE, src=SRC)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        seconds, probe_s = map(float, done.stdout.split())
        samples.append(normalized(seconds, probe_s))
    return statistics.median(samples)


def run_child(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    inputs = workload.make_inputs(seed, workdir)
    manifest = os.path.join(workdir, "manifest.json")
    result = os.path.join(workdir, "result.json")
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seconds": seconds, "trace": trace,
            "inputs": [asdict(inp) for inp in inputs],
        }, handle)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), manifest, result],
        env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=CHILD_TIMEOUT,
        check=True,
    )
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def e2e_metrics(ops: List[dict], peak_rss_kib: int, setup_s: float) -> Dict[str, float]:
    latencies = input_seconds(ops)
    return {
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": tail_p90(latencies),
        "ops_per_s": len(ops) / sum(op_seconds(ops)),
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "setup_s": setup_s,
        # As measured, before rescaling: how fast the host ran.
        "wall.op_p50_s": statistics.median(op["seconds"] for op in ops),
        "host.probe_s": statistics.median(op["probe_s"] for op in ops),
    }


def trace_metrics(child: dict) -> Dict[str, float]:
    """The full layer table of a traced run (medians per traced op)."""
    from tracing import Span, layer_metrics

    ops = child["ops"]
    layers = layer_metrics(
        [Span(**span) for span in child["spans"]],
        {op_id: normalized(1.0, op["probe_s"]) for op_id, op in enumerate(ops)},
    )
    traced = statistics.median(op_seconds([op for op in ops if op["traced"]]))
    untraced = statistics.median(op_seconds([op for op in ops if not op["traced"]]))
    layers["trace.overhead_frac"] = traced / untraced - 1
    layers["trace.self_sum_frac"] = layers.pop("trace.self_sum_s") / traced
    layers["output.bytes"] = statistics.median(op["bytes"] for op in ops)
    return layers


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=os.path.join(HERE, ".work"))
    try:
        setup_s = measure_setup()
        child = run_child(WORKLOADS[name], seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = child["ops"]
    failures = [op for op in ops if op["failure"] is not None]
    if trace:
        layers = trace_metrics(child)
        wanted = spec["per_layer"]
    else:
        layers = e2e_metrics(ops, child["peak_rss_kib"], setup_s)
        wanted = spec["end_to_end"]
    return {
        "workload": name,
        "trace": trace,
        "seed": seed,
        "passes": child["passes"],
        "certified": child["certified"],
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [f"input {op['input']} pass {op['pass']}: {op['failure']}" for op in failures],
        "metrics": {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
        "layers": layers,
        "spans": child["spans"],
    }


def print_run(run: dict) -> None:
    print(
        f"{run['workload']} (trace {int(run['trace'])}, seed {run['seed']}): "
        f"{run['attempted']} ops in {run['passes']} passes, {run['failed']} failed, "
        f"{run['certified']} inputs certified"
    )
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    units = {name: m["unit"] for name, m in run["metrics"].items()}
    for name, value in sorted(run["layers"].items()):
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Print each end-to-end metric's change from A to B against its bound."""
    runs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            runs.append({r["workload"]: r for r in json.load(handle)["runs"] if not r["trace"]})
    exceeded = 0
    print(f"{'workload':14s} {'metric':14s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}")
    for workload in sorted(set(runs[0]) & set(runs[1])):
        a, b = runs[0][workload]["metrics"], runs[1][workload]["metrics"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, new = a[name]["value"], b[name]["value"]
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            verdict = "EXCEEDED" if worse > metric["bound"] else "ok"
            exceeded += verdict != "ok"
            print(
                f"{workload:14s} {name:14s} {old:12.6g} {new:12.6g} "
                f"{worse:+9.1%} {metric['bound']:6.0%} {verdict}"
            )
    return 1 if exceeded else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: layer metrics (default: both)")
    parser.add_argument("--out", help="write every run, with layers and spans, here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.compare:
        return compare(spec, *args.compare)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}")
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for name in names:
        for trace in traces:
            run = run_one(spec, name, args.seed, seconds, trace)
            print_run(run)
            runs.append(run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, handle)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": value
            for r in runs for name, value in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

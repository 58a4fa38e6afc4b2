"""One workload run in a fresh interpreter: ``python child.py MANIFEST RESULT``.

``run.py`` generates the inputs and writes ``MANIFEST`` before starting
this process, so input generation never counts towards its peak memory.
The child is a closed loop with one client and no threads: one untimed
warm-up op, then whole passes over the inputs in pass-major order, at
least :data:`MIN_PASSES`, and more while another pass still fits in the
run's seconds.  Each op is one ``repro.cli.main(argv)``
call with stdout and stderr captured in memory; ``gc.collect()`` and
:func:`hostspeed.probe` run between ops, outside the timed region, and
each op records the mean of the probes before and after it.

With tracing on, odd passes run under :class:`tracing.Tracer`, so every
input is timed once without and once with the wrappers and their ratio
is the tracing overhead.  Peak memory is read right after the last timed
op; the oracle's certification runs after that.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Input, Workload  # noqa: E402

#: Every input runs at least twice: its output must repeat, and its time
#: is its faster pass.
MIN_PASSES = 2


def run_op(main, inp: Input, tracer: Optional[Tracer] = None, op_id: int = 0):
    """Run one op; returns ``(seconds, exit_code, stdout, stderr, error)``."""
    argv = list(inp.argv)
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code: object = None
    error = None
    root = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
    if inp.report:
        # An op that stops writing its report must not pass on the
        # report an earlier op left behind.
        with contextlib.suppress(FileNotFoundError):
            os.remove(inp.report)
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            with root:
                exit_code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        except Exception:
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
    return seconds, exit_code, stdout.getvalue(), stderr.getvalue(), error


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def run_workload(
    workload: Workload, inputs: List[Input], seconds: float, trace: bool
) -> Dict[str, object]:
    from repro.cli import main

    tracer = Tracer() if trace else None
    with oracle.recorded_solver_calls() as calls:
        run_op(main, inputs[0])
    hostspeed.probe()  # warm-up: the first call runs cold
    first_digest: Dict[int, str] = {}
    ops: List[Dict[str, object]] = []
    passes = 0
    start = time.perf_counter()
    probe = hostspeed.probe()
    while passes < MIN_PASSES or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        traced = tracer is not None and passes % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            for index, inp in enumerate(inputs):
                op_id = len(ops)
                elapsed, code, out, err, error = run_op(
                    main, inp, tracer if traced else None, op_id
                )
                after = hostspeed.probe()
                probe_s, probe = (probe + after) / 2, after
                report = _read(inp.report) if inp.report else ""
                digest = oracle.output_digest(workload.command, out, err, report)
                failure = error or oracle.op_failure(workload, inp, code, err, report)
                if index not in first_digest:
                    first_digest[index] = digest
                    # The certifier reads the solution from the first
                    # pass; later passes must print the same bytes.
                    with open(inp.path + ".stdout", "w", encoding="utf-8") as handle:
                        handle.write(out)
                elif digest != first_digest[index] and failure is None:
                    failure = "output differs from the first pass"
                ops.append({
                    "input": index, "pass": passes, "traced": traced,
                    "seconds": elapsed, "probe_s": probe_s,
                    "bytes": len(out) + len(err) + len(report),
                    "failure": failure,
                })
        passes += 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rejected = {}
    for index, inp in enumerate(inputs):
        verdict = oracle.certify_input(
            workload, inp, _read(inp.path + ".stdout"), calls[0]
        )
        if verdict is not None:
            rejected[index] = verdict
    for op in ops:
        if op["failure"] is None and op["input"] in rejected:
            op["failure"] = rejected[op["input"]]
    return {
        "passes": passes,
        "ops": ops,
        "peak_rss_kib": peak_rss_kib,
        "certified": len(inputs) - len(rejected),
        "spans": [asdict(span) for span in tracer.spans] if tracer else [],
    }


def main(argv: List[str]) -> int:
    manifest_path, result_path = argv
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    result = run_workload(
        WORKLOADS[manifest["workload"]],
        [Input.from_json(item) for item in manifest["inputs"]],
        manifest["seconds"],
        manifest["trace"],
    )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

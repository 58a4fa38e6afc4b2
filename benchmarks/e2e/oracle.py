"""The correctness oracle: when an op counts as failed.

An op fails when it raises, exits with another code than its workload
expects, prints output that differs from its first pass over the same
input, leaves a seeded ``/* BUG: */`` marker unreported, writes SARIF that
does not validate, or (``compare``) warns that two algorithms disagree.
After timing, :func:`certify_input` has the independent certifier check
one solution per input; a rejection fails every op of that input.

Checker and certifier modules are imported inside the functions, so a
child that times ``solve`` or ``compare`` does not load them before its
peak memory is read.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from workloads import Input, Workload

#: ``(algorithm, keyword arguments)`` of one ``make_solver`` call.
SolverCall = Tuple[str, Dict[str, Any]]


@contextlib.contextmanager
def recorded_solver_calls() -> Iterator[List[SolverCall]]:
    """Record every ``make_solver`` call ``repro.cli`` makes in the block.

    The certifier rebuilds a solver with the options the CLI really
    passed, defaults included, instead of a copy of those defaults that
    could drift from the CLI's.
    """
    import repro.cli

    original = repro.cli.make_solver
    calls: List[SolverCall] = []

    def record(system, algorithm, **kwargs):
        calls.append((algorithm, kwargs))
        return original(system, algorithm, **kwargs)

    repro.cli.make_solver = record
    try:
        yield calls
    finally:
        repro.cli.make_solver = original


def stable_output(command: str, stdout: str) -> str:
    """``stdout`` without the parts that legitimately vary between passes.

    ``compare`` prints each algorithm's solve time; that column is
    dropped, and spacing is normalized since column widths follow it.
    """
    if command != "compare":
        return stdout
    lines = []
    rows = False
    for line in stdout.splitlines():
        cells = line.split()
        if rows and len(cells) > 1:
            del cells[1]  # the "time (s)" column
        rows = rows or (bool(line) and set(line) == {"-"})
        lines.append(" ".join(cells))
    return "\n".join(lines)


def output_digest(command: str, stdout: str, stderr: str, report: str) -> str:
    """Digest of everything an op showed its user (stdout, stderr, report)."""
    digest = hashlib.sha256()
    for part in (stable_output(command, stdout), stderr, report):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def op_failure(
    workload: Workload, inp: Input, exit_code: object, stderr: str, report: str
) -> Optional[str]:
    """Why one completed op is wrong, or ``None`` when it is correct."""
    if exit_code != workload.expect_exit:
        return f"exit code {exit_code!r}, expected {workload.expect_exit}"
    if workload.command == "compare" and "WARNING" in stderr:
        return "algorithms disagree: " + stderr.strip().splitlines()[0]
    if workload.command == "check":
        from repro.checkers import from_sarif

        try:
            # from_sarif runs validate_sarif before reading the results.
            findings = from_sarif(json.loads(report))
        except ValueError as exc:  # JSONDecodeError, SarifValidationError
            return f"invalid SARIF report: {exc}"
        reported = {(d.rule, d.line) for d in findings}
        missing = [m for m in inp.markers if m not in reported]
        if missing:
            return f"seeded bugs not reported: {missing}"
    return None


def certify_input(
    workload: Workload, inp: Input, stdout: str, call: SolverCall
) -> Optional[str]:
    """Certify the solution behind one input's ops; ``None`` on ACCEPT.

    ``solve --json`` is certified on its own output, parsed back with
    ``solution_from_json``.  ``check`` and ``compare`` print no solution,
    so the solution of ``call``, the first solver the CLI built for an op
    of this workload (see :func:`recorded_solver_calls`), is certified:
    at k > 0 the clone-space solution against the expanded system, which
    is the system with standard semantics.  ``compare`` itself checks
    that its other algorithms agree with the first.
    """
    from repro.cli import build_parser
    from repro.constraints.parser import read_constraints
    from repro.solvers.registry import make_solver
    from repro.verify.certifier import certify

    if workload.command == "check":
        from repro.frontend.generator import generate_constraints

        args = build_parser().parse_args(list(inp.argv))
        with open(inp.path, encoding="utf-8") as handle:
            system = generate_constraints(
                handle.read(), field_mode=args.field_mode
            ).system
    else:
        with open(inp.path, encoding="utf-8") as handle:
            system = read_constraints(handle)

    if workload.command == "solve":
        from repro.analysis.export import solution_from_json

        try:
            solution = solution_from_json(stdout, system)
        except (ValueError, KeyError) as exc:
            return f"unreadable solution JSON: {exc!r}"
    else:
        algorithm, options = call
        solver = make_solver(system, algorithm, **options)
        solution = solver.solve()
        if solver.context is not None:
            system = solver.context.expanded
            solution = solver.context_solution()
    report = certify(system, solution)
    if report.ok:
        return None
    return "certifier rejected: " + report.summary(system).splitlines()[0]

"""Command-line interface.

Mirrors how the paper's artifact was used: constraint files in, points-to
solutions and statistics out.

::

    python -m repro solve FILE [--algorithm lcd+hcd] [--pts bitmap] [--opt hu] [--k-cs 1]
    python -m repro analyze FILE.c [--query main::p ...] [--callgraph]
    python -m repro check FILE.c [--checker null-deref ...] [--format text|sarif|json]
    python -m repro generate BENCHMARK [--scale 128] [--seed 1] [-o FILE]
    python -m repro compare FILE [--algorithms ht,pkh,lcd+hcd]
    python -m repro verify FILE [--algorithms all] [--pts all] [--k-cs 1] [--sanitize]
    python -m repro reduce FILE --check certify|disagree [-o OUT.cons]
    python -m repro stats FILE

The algorithm flags, ``--pts``, ``--opt`` and ``--k-cs`` use
``None``-sentinel defaults so a ``# repro-config:`` header written by
``repro reduce`` can replay the recorded failure configuration (with
``--sanitize`` when it was recorded) unless the user overrides it
explicitly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import build_call_graph
from repro.analysis.export import PointeeRenderer, indented_json
from repro.constraints.parser import (
    ConstraintParseError,
    parse_repro_header,
    read_constraints,
    write_constraints,
)
from repro.contexts import K_LEVELS
from repro.frontend.generator import generate_constraints
from repro.frontend.lexer import LexError
from repro.frontend.parser import ParseError
from repro.inputs import InputError, read_text
from repro.metrics.memory import to_megabytes
from repro.metrics.reporting import Table, format_ctx_summary, format_opt_summary
from repro.points_to.interface import FAMILY_KINDS
from repro.preprocess.hvn import OPT_STAGES, preprocess_system
from repro.solvers.registry import all_solvers, available_solvers, make_solver, solver_class
from repro.verify.sanitizer import InvariantViolation
from repro.workloads import BENCHMARK_ORDER, generate_workload


@contextlib.contextmanager
def _located(path: str) -> Iterator[None]:
    """Report a syntax error in ``path`` as an :class:`InputError` at
    ``FILE:LINE[:COL]``: the parsers know positions, not file names."""
    try:
        yield
    except ConstraintParseError as exc:
        raise InputError(path, exc.message, line=exc.line_no) from None
    except (LexError, ParseError) as exc:
        raise InputError(path, exc.message, line=exc.line, col=exc.column) from None


def _read_system(path: str):
    text = read_text(path)
    with _located(path):
        return read_constraints(io.StringIO(text))


def _read_system_and_header(path: str) -> Tuple[object, Dict[str, str], int]:
    """Load a constraint file plus its repro-config header: the mapping
    (``{}`` if none) and its line number (0 if none)."""
    text = read_text(path)
    with _located(path):
        header, header_line = parse_repro_header(text)
        return read_constraints(io.StringIO(text)), header, header_line


def _read_program(path: str, field_mode: str):
    """Run the C front end on ``path``."""
    text = read_text(path)
    with _located(path):
        return generate_constraints(text, field_mode=field_mode)


#: Each solving command's algorithm flag (its ``args`` attribute, also
#: the flag's name) and its built-in default.
_ALGORITHM_FLAGS = {
    "solve": ("algorithm", "lcd+hcd"),
    "analyze": ("algorithm", "lcd+hcd"),
    "reduce": ("algorithm", "lcd+hcd"),
    "check": ("solver", "lcd+hcd"),
    "verify": ("algorithms", "lcd+hcd"),
    "compare": ("algorithms", "ht,pkh,lcd,hcd,lcd+hcd"),
}


def _resolve_replay_flags(
    args: argparse.Namespace,
    default_opt: str,
    header: Optional[Dict[str, str]] = None,
    path: str = "",
    header_line: int = 0,
) -> Dict[str, object]:
    """Fill in the algorithm, ``--pts``, ``--opt`` and ``--k-cs``
    sentinels on ``args``, and ``--sanitize`` when it is off; return the
    run's solver options, which the command passes on unchanged.

    A value the user passed explicitly always wins; otherwise a repro
    header's recorded value is adopted (with a stderr note, so replays
    are never silent); otherwise the command's built-in default applies.
    ``compare`` replays the recorded ``algorithm`` and then ``against``.
    A recorded value outside the flag's choices is an :class:`InputError`
    at ``path:header_line`` listing the valid values.
    """
    header = header or {}
    adopted = []

    def recorded(key: str, noun: str, valid: Sequence[str]) -> str:
        value = header[key]
        if value not in valid:
            raise InputError(
                path,
                f"repro header records unknown {noun} {value!r}; "
                f"valid: {', '.join(valid)}",
                line=header_line,
            )
        return value

    attr, default = _ALGORITHM_FLAGS[args.command]
    if getattr(args, attr) is None:
        value = default
        if "algorithm" in header:
            solvers = all_solvers()
            value = recorded("algorithm", "algorithm", solvers)
            if args.command == "compare" and "against" in header:
                value += "," + recorded("against", "algorithm", solvers)
            adopted.append(f"--{attr} {value}")
        setattr(args, attr, value)
    for flag, noun, valid, default, convert in (
        ("pts", "points-to family", FAMILY_KINDS, "bitmap", str),
        ("opt", "opt stage", OPT_STAGES, default_opt, str),
        ("k-cs", "k-cs level", [str(k) for k in K_LEVELS], "0", int),
    ):
        attr = flag.replace("-", "_")
        if getattr(args, attr) is not None:
            continue
        value = default
        if flag in header:
            value = recorded(flag, noun, valid)
            adopted.append(f"--{flag} {value}")
        setattr(args, attr, convert(value))
    if not args.sanitize and "sanitize" in header:
        if recorded("sanitize", "sanitize value", ["0", "1"]) == "1":
            args.sanitize = True
            adopted.append("--sanitize")
    if adopted:
        print(
            f"replaying {' '.join(adopted)} from the repro-config header"
            + (f" of {path}" if path else ""),
            file=sys.stderr,
        )
    return {"pts": args.pts, "sanitize": args.sanitize, "opt": args.opt, "k_cs": args.k_cs}


def _algorithm_list(spec: str, allow_all: bool = False) -> List[str]:
    """The stripped names of a comma-separated ``--algorithms`` value,
    each checked before the first solver is built; ``all`` (when
    ``allow_all``) means every inclusion-based configuration.  An empty
    entry or an unknown name is a ``ValueError`` naming it."""
    if allow_all and spec.strip() == "all":
        return available_solvers()
    names = [name.strip() for name in spec.split(",")]
    for name in names:
        if not name:
            raise ValueError(f"--algorithms {spec!r} has an empty entry")
        solver_class(name)
    return names


def _cmd_solve(args: argparse.Namespace) -> int:
    system, header, header_line = _read_system_and_header(args.file)
    options = _resolve_replay_flags(args, "hu", header, args.file, header_line)
    solver = make_solver(system, args.algorithm, **options)
    solution = solver.solve()

    if args.json:
        from repro.analysis.export import solution_to_json

        print(solution_to_json(system, solution, include_empty=args.all))
        return 0

    render = PointeeRenderer(system.names)
    shown = 0
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if not pointees and not args.all:
            continue
        print(f"{system.name_of(var)} -> {{{render(pointees)}}}")
        shown += 1
    if args.stats:
        print()
        for key, value in solver.stats.as_dict().items():
            print(f"  {key}: {value}")
        stats_dict = solver.stats.as_dict()
        for summary in (
            format_opt_summary(stats_dict),
            format_ctx_summary(stats_dict),
        ):
            if summary:
                print(f"  [{summary}]")
    print(
        f"\n{solver.full_name}: {shown} pointers, "
        f"{solution.total_size()} points-to facts, "
        f"{solver.stats.solve_seconds:.3f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = _read_program(args.file, args.field_mode)
    system = program.system
    options = _resolve_replay_flags(args, "hu")
    solver = make_solver(system, args.algorithm, **options)
    solution = solver.solve()
    render = PointeeRenderer(system.names)

    if args.query:
        for name in args.query:
            try:
                node = program.node_of(name)
            except KeyError:
                print(f"{name}: unknown variable", file=sys.stderr)
                continue
            print(f"{name} -> {{{render(solution.points_to(node))}}}")
    else:
        for name in sorted(program.variables):
            node = program.variables[name]
            pointees = solution.points_to(node)
            if pointees:
                print(f"{name} -> {{{render(pointees)}}}")

    if args.callgraph:
        graph = build_call_graph(system, solution)
        print("\nindirect call sites:")
        for site in sorted(graph.edges):
            callees = sorted(
                graph.function_names.get(c, f"v{c}") for c in graph.callees(site)
            )
            print(f"  {system.name_of(site)} -> {callees}")
    return 0


def _load_checkable(path: str, field_mode: str):
    """Load ``path`` as a front-end program (``.c``) or constraint file.

    Returns ``(system, program_or_None, header, header_line)`` — checkers
    degrade gracefully on bare constraint systems (minimized repros,
    generated workloads); ``header`` is the repro-config mapping of a
    ``.cons`` input (``{}`` otherwise) and ``header_line`` its line.
    """
    if path.endswith(".cons"):
        system, header, header_line = _read_system_and_header(path)
        return system, None, header, header_line
    program = _read_program(path, field_mode)
    return program.system, program, {}, 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.checkers import Severity, run_checkers, to_sarif
    from repro.checkers.baseline import apply_baseline

    system, program, header, header_line = _load_checkable(
        args.file, args.field_mode
    )
    options = _resolve_replay_flags(args, "hu", header, args.file, header_line)
    solver = make_solver(system, args.solver, **options)
    solution = solver.solve()
    expansion = solver.context
    report = run_checkers(
        system,
        solution,
        program=program,
        path=args.file,
        checkers=args.checker or None,
        disabled=args.disable_checker or None,
        min_severity=Severity.parse(args.min_severity),
        expansion=expansion,
        expanded_solution=(
            solver.context_solution() if expansion is not None else None
        ),
    )

    if args.baseline:
        report, created = apply_baseline(args.baseline, report)
        if created:
            print(
                f"recorded baseline in {args.baseline}; "
                "subsequent runs report only new findings",
                file=sys.stderr,
            )

    if args.format == "sarif":
        rendered = indented_json(to_sarif(report)) + "\n"
    elif args.format == "json":
        rendered = indented_json(
            [
                {
                    "rule": d.rule,
                    "severity": d.severity.label,
                    "message": d.message,
                    "file": d.file,
                    "line": d.line,
                    "construct": d.construct,
                    "related": [
                        {"message": r.message, "line": r.line, "file": r.file}
                        for r in d.related
                    ],
                }
                for d in report
            ]
        ) + "\n"
    else:
        rendered = report.to_text()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(
            f"wrote {len(report)} finding(s) to {args.output}", file=sys.stderr
        )
    else:
        sys.stdout.write(rendered)
    return 1 if len(report) else 0


def _scale_denominator(text: str) -> float:
    """``generate --scale``: a finite number above 0 (paper counts / N)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"invalid scale {text!r}: want a finite number above 0"
        )
    return value


def _node_cap(text: str) -> int:
    """``dot --max-nodes``: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid node cap {text!r}: want a whole number of at least 1"
        )
    return value


def _cmd_generate(args: argparse.Namespace) -> int:
    system = generate_workload(
        args.benchmark, scale=1.0 / args.scale, seed=args.seed
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_constraints(system, handle)
        print(
            f"wrote {len(system)} constraints / {system.num_vars} vars "
            f"to {args.output}",
            file=sys.stderr,
        )
    else:
        write_constraints(system, sys.stdout)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    system, header, header_line = _read_system_and_header(args.file)
    options = _resolve_replay_flags(args, "hu", header, args.file, header_line)
    algorithms = _algorithm_list(args.algorithms)
    table = Table(
        f"comparison on {args.file}",
        ["algorithm", "time (s)", "propagations", "searched",
         "collapsed", "memory (MB)"],
    )
    reference = None
    ctx_summary = ""
    for algorithm in algorithms:
        solver = make_solver(system, algorithm, **options)
        solution = solver.solve()
        if reference is None:
            reference = solution
        elif solution != reference:
            print(f"WARNING: {algorithm} disagrees with {algorithms[0]}",
                  file=sys.stderr)
        table.add_row(
            [
                solver.full_name,
                solver.stats.solve_seconds,
                solver.stats.propagations,
                solver.stats.nodes_searched,
                solver.stats.nodes_collapsed,
                to_megabytes(solver.stats.total_memory_bytes),
            ]
        )
        # Every solver shares the system's one expansion
        # (ConstraintSystem.derived), so one line describes every run.
        ctx_summary = format_ctx_summary(solver.stats.as_dict())
    print(table.render())
    if ctx_summary:
        print(f"[{ctx_summary}]")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.certifier import certify

    system, header, header_line = _read_system_and_header(args.file)
    options = _resolve_replay_flags(args, "hu", header, args.file, header_line)
    algorithms = _algorithm_list(args.algorithms, allow_all=True)
    families = list(FAMILY_KINDS) if args.pts == "all" else [args.pts]

    table = Table(
        f"certification on {args.file}",
        ["algorithm", "pts", "k", "verdict", "facts", "checks",
         "solve (s)", "certify (s)"],
    )
    failures = []
    for algorithm in algorithms:
        # A solver that ignores the family runs once, with "-" for it.
        reads_pts = solver_class(algorithm)[0].reads_pts
        for family in families if reads_pts else families[:1]:
            solver = make_solver(system, algorithm, **{**options, "pts": family})
            shown_pts = family if reads_pts else "-"
            # k-CFA certification runs in clone space: the projected
            # solution is strictly *more* precise than the insensitive
            # least model, so the original constraints would reject it.
            # The expanded system has standard semantics, so the same
            # independent certifier covers cloning + opt + solving.
            certified_system = (
                solver.context.expanded if solver.context is not None else system
            )
            report = certify(certified_system, solver.context_solution())
            table.add_row(
                [
                    solver.full_name,
                    shown_pts,
                    args.k_cs,
                    "ACCEPT" if report.ok else "REJECT",
                    report.claimed_facts,
                    report.facts_checked,
                    solver.stats.solve_seconds,
                    report.total_seconds,
                ]
            )
            if not report.ok:
                failures.append(
                    (solver.full_name, shown_pts, certified_system, report)
                )
    print(table.render())
    for name, family, certified_system, report in failures:
        print(f"\n{name} / {family}:", file=sys.stderr)
        print(report.summary(certified_system), file=sys.stderr)
    return 1 if failures else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from repro.verify.reduce import (
        certifier_rejects,
        minimize_system,
        solvers_disagree,
    )

    system, header, header_line = _read_system_and_header(args.file)
    options = _resolve_replay_flags(args, "none", header, args.file, header_line)
    if args.check == "certify":
        predicate = certifier_rejects(args.algorithm, **options)
    else:
        predicate = solvers_disagree(args.algorithm, args.against, **options)
    result = minimize_system(system, predicate)
    config = {"check": args.check, "algorithm": args.algorithm}
    if args.check == "disagree":
        config["against"] = args.against
    config.update(
        {
            "pts": args.pts,
            "opt": args.opt,
            "k-cs": args.k_cs,
            "sanitize": int(args.sanitize),
        }
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            result.write(handle, config=config)
    else:
        result.write(sys.stdout, config=config)
    print(
        f"minimized {len(system)} -> {len(result)} constraints "
        f"({len(result.pinned)} pinned, {result.tests_run} predicate runs)"
        + (f"; wrote {args.output}" if args.output else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.analysis.export import constraint_graph_dot

    system = _read_system(args.file)
    solution = None
    if args.solve:
        solution = make_solver(system, "lcd+hcd").solve()
    print(constraint_graph_dot(system, solution, max_nodes=args.max_nodes))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    counts = system.kind_counts()
    print(f"variables:    {system.num_vars}")
    print(f"constraints:  {len(system)}")
    for kind, count in counts.items():
        print(f"  {kind.value:6s}  {count}")
    print(f"functions:    {len(system.functions)}")
    print(f"address-taken variables: {len(system.address_taken())}")
    print(f"dereferenced variables:  {len(system.dereferenced())}")
    ovs = preprocess_system(system, "ovs")
    print(
        f"OVS: {len(system)} -> {len(ovs.reduced)} constraints "
        f"({ovs.reduction_ratio:.0%} reduction, "
        f"{ovs.merged_count()} variables merged)"
    )
    hu = preprocess_system(system, "hu")
    print(
        f"HU: {len(system)} -> {len(hu.reduced)} constraints "
        f"({hu.reduction_ratio:.0%} reduction, "
        f"{hu.merged_count()} variables merged, "
        f"{hu.locations_merged()} locations merged, "
        f"{hu.passes} passes)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inclusion-based pointer analysis (Hardekopf & Lin, PLDI 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_flags(p: argparse.ArgumentParser, pts_all: bool = False) -> None:
        """Declare the solver-pipeline flags shared by every solving command.

        ``pts_all`` adds verify's ``all`` choice (certify every family).
        """
        p.add_argument(
            "--pts",
            default=None,
            choices=list(FAMILY_KINDS) + (["all"] if pts_all else []),
            help="points-to representation (default bitmap): GCC-style "
            "sparse bitmaps, per-variable BDDs, or bignum intsets "
            "(word-parallel set operations)"
            + ("; 'all' runs every family" if pts_all else ""),
        )
        p.add_argument(
            "--opt",
            default=None,
            choices=list(OPT_STAGES),
            help="offline optimization stage run before solving: raw "
            "constraints (none), offline variable substitution as one "
            "round of Hardekopf & Lin's union-tracking HU (ovs), or HU "
            "iterated to a fixpoint with location equivalence (hu); "
            "solutions are expanded back to the original variable space, "
            "so results are identical across stages (default hu, except "
            "reduce, which defaults to none so repros replay the raw "
            "failure)",
        )
        p.add_argument(
            "--k-cs",
            type=int,
            default=None,
            choices=list(K_LEVELS),
            dest="k_cs",
            help="k-CFA context sensitivity: clone function-local "
            "variables per bounded call string before the --opt stage "
            "and project the solution back onto the base variables "
            "(default 0, context-insensitive); composable with every "
            "algorithm and points-to family",
        )
        p.add_argument(
            "--sanitize", action="store_true",
            help="install solver invariant checks (collapse consistency, "
            "monotone growth, LCD trigger discipline); a violation aborts "
            "with exit status 2, and under reduce --check certify it "
            "counts as the failure being minimized",
        )

    algorithm_help = f"one of: {', '.join(available_solvers())} (default lcd+hcd)"

    p_solve = sub.add_parser("solve", help="solve a constraint file")
    p_solve.add_argument("file")
    p_solve.add_argument("--algorithm", help=algorithm_help)
    add_pipeline_flags(p_solve)
    p_solve.add_argument("--all", action="store_true", help="print empty sets too")
    p_solve.add_argument("--stats", action="store_true", help="print solver counters")
    p_solve.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_solve.set_defaults(func=_cmd_solve)

    p_dot = sub.add_parser("dot", help="dump the constraint graph as Graphviz dot")
    p_dot.add_argument("file")
    p_dot.add_argument("--solve", action="store_true",
                       help="annotate nodes with their points-to sets")
    p_dot.add_argument("--max-nodes", type=_node_cap, default=200)
    p_dot.set_defaults(func=_cmd_dot)

    p_analyze = sub.add_parser("analyze", help="analyze a C-subset source file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--algorithm", help=algorithm_help)
    add_pipeline_flags(p_analyze)
    p_analyze.add_argument("--query", nargs="*", help="variable names to report")
    p_analyze.add_argument("--callgraph", action="store_true")
    p_analyze.add_argument(
        "--field-mode",
        default="insensitive",
        choices=["insensitive", "based", "sensitive"],
        help="field treatment: the paper's insensitive default, the "
        "footnote-2 field-based variant, or full field-sensitivity",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_check = sub.add_parser(
        "check",
        help="run the points-to-powered bug checkers on a C or .cons file",
    )
    p_check.add_argument("file", help="a .c source file or a .cons constraint file")
    p_check.add_argument(
        "--solver",
        help=f"points-to algorithm to check against; {algorithm_help}",
    )
    add_pipeline_flags(p_check)
    p_check.add_argument(
        "--checker",
        action="append",
        help="run only this checker (repeatable); default: all registered",
    )
    p_check.add_argument(
        "--disable-checker",
        action="append",
        help="drop this checker from the selection (repeatable)",
    )
    p_check.add_argument(
        "--min-severity",
        default="warning",
        choices=["note", "warning", "error"],
        help="report only findings at or above this severity",
    )
    p_check.add_argument(
        "--format",
        default="text",
        choices=["text", "sarif", "json"],
        help="compiler-style text, SARIF 2.1.0, or plain JSON",
    )
    p_check.add_argument(
        "--field-mode",
        default="insensitive",
        choices=["insensitive", "based", "sensitive"],
        help="front-end field treatment for .c inputs",
    )
    p_check.add_argument(
        "--baseline",
        help="findings-fingerprint file: created (and all current findings "
        "recorded) when missing, otherwise only findings not in it are "
        "reported and the exit status reflects new findings only",
    )
    p_check.add_argument("-o", "--output", help="write the report here")
    p_check.set_defaults(func=_cmd_check)

    p_generate = sub.add_parser("generate", help="emit a synthetic benchmark workload")
    p_generate.add_argument("benchmark", choices=BENCHMARK_ORDER)
    p_generate.add_argument("--scale", type=_scale_denominator, default=128.0,
                            help="scale denominator (paper counts / N)")
    p_generate.add_argument("--seed", type=int, default=1)
    p_generate.add_argument("-o", "--output")
    p_generate.set_defaults(func=_cmd_generate)

    p_compare = sub.add_parser("compare", help="run several algorithms on one file")
    p_compare.add_argument("file")
    p_compare.add_argument(
        "--algorithms",
        help="comma-separated solver names (default ht,pkh,lcd,hcd,lcd+hcd)",
    )
    add_pipeline_flags(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_verify = sub.add_parser(
        "verify",
        help="solve and independently certify (soundness + precision)",
    )
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--algorithms",
        help="comma-separated solver names (default lcd+hcd), or 'all' "
        "for every inclusion-based configuration",
    )
    add_pipeline_flags(p_verify, pts_all=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser(
        "reduce",
        help="delta-debug a failing constraint file to a 1-minimal repro",
    )
    p_reduce.add_argument("file")
    p_reduce.add_argument(
        "--check",
        default="certify",
        choices=["certify", "disagree"],
        help="failure predicate: the certifier rejects --algorithm's "
        "solution, or --algorithm disagrees with --against",
    )
    p_reduce.add_argument("--algorithm", help=algorithm_help)
    p_reduce.add_argument(
        "--against",
        default="naive",
        help="second solver for --check disagree",
    )
    add_pipeline_flags(p_reduce)
    p_reduce.add_argument("-o", "--output", help="write the repro here")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_stats = sub.add_parser("stats", help="constraint-file statistics + OVS preview")
    p_stats.add_argument("file")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        # A --sanitize run tripped a solver invariant: report the
        # structured context and exit distinctly from usage errors.
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Covers located input errors (InputError: syntax errors in .cons
        # and .c files, bad headers and baselines, undecodable bytes),
        # front-end lowering errors and unknown algorithm names.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

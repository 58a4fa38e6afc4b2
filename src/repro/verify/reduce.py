"""Delta-debugging constraint minimizer (ddmin).

When the certifier rejects a solution or two solvers disagree on a
linux-scale workload, the failing constraint file is far too large to
read.  This module shrinks it: classic Zeller/Hildebrandt ddmin over the
constraint list, against any caller-supplied predicate ("this input is
still interesting"), followed by an explicit one-at-a-time pass so the
result is *1-minimal* — removing any single remaining constraint makes
the predicate pass.

The variable table is never shrunk: every subset is
``system.with_constraints(subset)``, so constraint ids, function blocks
and offsets stay valid and the output replays byte-for-byte through the
text format (``repro reduce ... -o repro.cons`` then
``repro verify repro.cons``).  The implicit self-base constraint the
``fun`` directive re-creates on parse is pinned (always kept) so a
written repro round-trips to exactly the system that was minimized.

Everything is deterministic: same system + same (deterministic)
predicate => same minimized output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, TextIO, Tuple

from repro.constraints.model import Constraint, ConstraintKind, ConstraintSystem
from repro.constraints.parser import format_repro_header, write_constraints

#: A predicate over constraint systems: True = "still fails / interesting".
Predicate = Callable[[ConstraintSystem], bool]


@dataclass
class MinimizationResult:
    """Outcome of :func:`minimize_system`."""

    system: ConstraintSystem
    #: Constraints ddmin was allowed to remove and kept.
    kept: Tuple[Constraint, ...]
    #: Constraints pinned into every candidate (function self-base facts).
    pinned: Tuple[Constraint, ...]
    #: Predicate evaluations performed (the minimizer's cost).
    tests_run: int = 0

    def __len__(self) -> int:
        return len(self.kept) + len(self.pinned)

    def write(
        self, stream: TextIO, config: Optional[Mapping[str, object]] = None
    ) -> None:
        """Serialize the minimized system as a replayable ``.cons`` file.

        ``config``, when given, is recorded as a leading ``# repro-config:``
        header comment (see :func:`repro.constraints.parser
        .parse_repro_header`) so the repro remembers the exact failure
        configuration — the CLI replays ``opt``/``k-cs`` from it.
        """
        if config:
            stream.write(format_repro_header(config) + "\n")
        write_constraints(self.system, stream)


def ddmin(
    items: Sequence,
    predicate: Callable[[List], bool],
    counter: Optional[List[int]] = None,
) -> List:
    """Zeller's ddmin: a minimal sublist of ``items`` still satisfying
    ``predicate`` (which must hold for ``items`` itself).

    ``counter``, when given, is a single-element list incremented per
    predicate evaluation.  The result is 1-minimal with respect to the
    subsets ddmin probes; :func:`minimize_system` adds the explicit
    single-removal sweep that makes 1-minimality unconditional.
    """

    def test(candidate: List) -> bool:
        if counter is not None:
            counter[0] += 1
        return predicate(candidate)

    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [current[i : i + chunk] for i in range(0, len(current), chunk)]
        reduced = False
        for index, subset in enumerate(subsets):
            if len(subsets) > 1 and test(subset):
                current = subset
                granularity = 2
                reduced = True
                break
            complement = [
                item
                for other, subset_ in enumerate(subsets)
                for item in subset_
                if other != index
            ]
            if complement and len(subsets) > 2 and test(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(granularity * 2, len(current))
    return current


def minimize_system(
    system: ConstraintSystem,
    predicate: Predicate,
    pin_function_bases: bool = True,
) -> MinimizationResult:
    """Shrink ``system`` to a locally minimal subset still failing
    ``predicate``.

    Raises ``ValueError`` if the predicate does not hold for the full
    input (nothing to minimize).  ``pin_function_bases`` keeps the
    self-base constraint of every declared function in each candidate,
    because the text format's ``fun`` directive re-creates it on parse —
    without pinning, a written repro would replay to a different system.
    """
    tests = [0]
    pinned: List[Constraint] = []
    candidates: List[Constraint] = []
    if pin_function_bases:
        function_bases = {
            (info.node, info.node) for info in system.functions.values()
        }
    else:
        function_bases = set()
    for constraint in system.constraints:
        if (
            constraint.kind is ConstraintKind.BASE
            and (constraint.dst, constraint.src) in function_bases
        ):
            pinned.append(constraint)
        else:
            candidates.append(constraint)

    def still_fails(subset: List[Constraint]) -> bool:
        return predicate(system.with_constraints(pinned + subset))

    tests[0] += 1
    if not predicate(system):
        raise ValueError("predicate does not fail on the full input")

    kept = ddmin(candidates, still_fails, counter=tests)

    # Explicit 1-minimality sweep: retry every single removal until none
    # succeeds (ddmin's own guarantee only covers the subsets it probed).
    changed = True
    while changed and len(kept) > 1:
        changed = False
        for index in range(len(kept)):
            probe = kept[:index] + kept[index + 1 :]
            tests[0] += 1
            if still_fails(probe):
                kept = probe
                changed = True
                break

    return MinimizationResult(
        system=system.with_constraints(pinned + kept),
        kept=tuple(kept),
        pinned=tuple(pinned),
        tests_run=tests[0],
    )


# ----------------------------------------------------------------------
# Stock predicates for the CLI
# ----------------------------------------------------------------------


def certifier_rejects(
    algorithm: str = "lcd+hcd",
    pts: str = "bitmap",
    sanitize: bool = False,
    opt: str = "none",
    k_cs: int = 0,
) -> Predicate:
    """Predicate: the certifier rejects ``algorithm``'s solution (or the
    sanitizer aborts the run with an :class:`InvariantViolation`).

    At ``k_cs > 0`` the certifier checks the clone-space solution against
    the context-expanded system — the projected solution is strictly more
    precise than the insensitive least model, so checking it against the
    original constraints would reject every correct run.
    """
    from repro.solvers.registry import make_solver
    from repro.verify.certifier import certify
    from repro.verify.sanitizer import InvariantViolation

    def predicate(system: ConstraintSystem) -> bool:
        solver = make_solver(
            system, algorithm, pts=pts, sanitize=sanitize, opt=opt, k_cs=k_cs,
        )
        try:
            solution = solver.solve()
        except InvariantViolation:
            return True
        if k_cs and solver.context is not None:
            return not certify(
                solver.context.expanded, solver.context_solution()
            ).ok
        return not certify(system, solution).ok

    return predicate


def solvers_disagree(
    algorithm_a: str,
    algorithm_b: str,
    pts_a: str = "bitmap",
    pts_b: str = "bitmap",
    opt: str = "none",
    k_cs: int = 0,
) -> Predicate:
    """Predicate: two solver configurations produce different solutions.

    Solutions are compared in the base variable space (k-CFA runs project
    back before returning), so any ``k_cs`` composes with any pair.
    """
    from repro.solvers.registry import solve

    def predicate(system: ConstraintSystem) -> bool:
        first = solve(system, algorithm_a, pts=pts_a, opt=opt, k_cs=k_cs)
        second = solve(system, algorithm_b, pts=pts_b, opt=opt, k_cs=k_cs)
        return first != second

    return predicate

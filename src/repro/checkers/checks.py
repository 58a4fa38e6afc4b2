"""The built-in checkers.

Each checker is a pure function from a :class:`CheckContext` to
diagnostics, registered on the :mod:`~repro.checkers.registry`.  They
are deliberately *clients* of the points-to solution — everything they
know comes from ``ctx.pts`` plus the constraint provenance — so running
them against solvers of different precision (``lcd+hcd`` versus
``steensgaard``) measures exactly what the paper's Section 2 argues:
imprecision surfaces as extra findings.

Monotonicity matters for that comparison and differs per checker:

- **bad-indirect-call** and **dangling-stack-escape** are *monotone* —
  a coarser (larger) solution can only add findings, so Steensgaard
  reports a superset and the delta is pure false positives;
- **null-deref**, **heap-leak** and **invalid-field-offset** quantify
  over *every* pointee ("pts is exactly null", "unreachable from all
  roots", "outside every layout"), so extra pointees can mask a real
  bug rather than add a false one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.checkers.context import CheckContext
from repro.checkers.diagnostics import Diagnostic, RelatedLocation, Severity
from repro.checkers.registry import register_checker


def _site_note(ctx: CheckContext, loc: int, message: str) -> Tuple[RelatedLocation, ...]:
    """A related location for an abstract location, when it has one.

    Findings used to *mention* their secondary site only in the message
    text, dropping the location; anchoring it here lets SARIF consumers
    jump to both sites."""
    line = ctx.location_line(loc)
    if line < 1:
        return ()
    return (RelatedLocation(message=message, line=line, file=ctx.path),)


@register_checker(
    "null-deref",
    severity=Severity.ERROR,
    description="dereference of a pointer whose only value is NULL",
)
def check_null_deref(ctx: CheckContext) -> Iterator[Diagnostic]:
    """A dereference is definitely-null when the analysis — which only
    over-approximates — still cannot find any pointee but ``<null>``."""
    null_node = ctx.null_node
    for site in ctx.deref_sites():
        if ctx.is_call_site(site):
            continue
        pts = ctx.pts(site.pointer)
        if pts:
            if null_node is not None and all(loc == null_node for loc in pts):
                yield Diagnostic(
                    rule="null-deref",
                    severity=Severity.ERROR,
                    message=(
                        f"dereference of {ctx.describe(site.pointer)} "
                        "which can only be NULL"
                    ),
                    line=site.line,
                    construct=site.prov.construct if site.prov else "",
                    file=ctx.path,
                )
        elif site.prov is not None and not site.prov.synthesized:
            # No pointee at all: nothing was ever assigned.  Informational
            # (NOTE) because uncalled code trips it on sound programs.
            yield Diagnostic(
                rule="null-deref",
                severity=Severity.NOTE,
                message=(
                    f"dereference of {ctx.describe(site.pointer)} "
                    "which has no referents (uninitialized?)"
                ),
                line=site.line,
                construct=site.prov.construct,
                file=ctx.path,
            )


@register_checker(
    "dangling-stack-escape",
    severity=Severity.WARNING,
    description="address of a stack local outlives its frame",
)
def check_dangling_stack_escape(ctx: CheckContext) -> Iterator[Diagnostic]:
    """A local is dangling-prone when a *persistent* holder — a global
    variable, a heap object, or the owner's own return slot — may point
    at it.  Inner frames holding an outer local (ordinary ``&x``
    arguments) are fine and not reported."""
    locals_ = ctx.local_nodes()
    if not locals_:
        return
    return_owner: Dict[int, str] = {
        info.return_node: info.name for info in ctx.functions.values()
    }
    for holder in range(ctx.system.num_vars):
        via = None
        if ctx.is_global_var(holder):
            via = f"global '{ctx.name_of(holder)}'"
        elif ctx.is_heap(holder):
            via = f"heap object '{ctx.name_of(holder)}'"
        elif holder in return_owner:
            via = f"return value of {return_owner[holder]}()"
        if via is None:
            continue
        for loc in ctx.pts(holder):
            if loc not in locals_:
                continue
            loc_owner = ctx.owner(loc)
            if holder in return_owner and return_owner[holder] != loc_owner:
                # Another function returning a forwarded address: the
                # escape is reported at the frame that leaked it.
                continue
            yield Diagnostic(
                rule="dangling-stack-escape",
                severity=Severity.ERROR
                if holder in return_owner
                else Severity.WARNING,
                message=(
                    f"address of local '{ctx.name_of(loc)}' may outlive "
                    f"its frame via {via}"
                ),
                line=ctx.location_line(loc),
                construct="AddressOf",
                file=ctx.path,
                related=_site_note(
                    ctx, holder, f"held past the frame by {via}"
                ),
            )


@register_checker(
    "heap-leak",
    severity=Severity.WARNING,
    description="heap allocation unreachable from any root at exit",
)
def check_heap_leak(ctx: CheckContext) -> Iterator[Diagnostic]:
    """Reachability at exit: roots are global variables plus ``main``'s
    frame (alive until the program ends).  A heap object no chain of
    pointers connects to any root has provably leaked — there is no
    free() modelling to get wrong, because losing the last reference is
    already the bug."""
    if not ctx.heap_nodes:
        return
    roots: List[int] = []
    for var in range(ctx.system.num_vars):
        if ctx.is_global_var(var) or ctx.owner(var) == "main":
            roots.append(var)
    reachable: Set[int] = set()
    stack: List[int] = []
    for root in roots:
        for loc in ctx.pts(root):
            if loc not in reachable:
                reachable.add(loc)
                stack.append(loc)
    while stack:
        loc = stack.pop()
        for nxt in ctx.pts(loc):
            if nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)
    for heap_node in ctx.heap_nodes:
        if heap_node not in reachable:
            yield Diagnostic(
                rule="heap-leak",
                severity=Severity.WARNING,
                message=(
                    f"allocation '{ctx.name_of(heap_node)}' is unreachable "
                    "from every root at exit (leaked)"
                ),
                line=ctx.location_line(heap_node),
                construct="Alloc",
                file=ctx.path,
            )


@register_checker(
    "bad-indirect-call",
    severity=Severity.WARNING,
    description="indirect call whose targets include non-functions",
)
def check_bad_indirect_call(ctx: CheckContext) -> Iterator[Diagnostic]:
    """Every pointee of a called pointer must be a function whose block
    covers the accessed parameter offset — precisely the pointees
    ``build_call_graph`` (and the solvers' own offset filtering)
    silently drop.  Dropping them is sound for the analysis; for the
    program it means the call would be through a corrupted pointer."""
    # One site spans several constraints (a STORE per argument, a LOAD
    # for the return value): aggregate per (pointer, line) first.
    sites: Dict[Tuple[int, int], Dict[int, int]] = {}
    for site in ctx.deref_sites():
        if not ctx.is_call_site(site):
            continue
        worst = sites.setdefault((site.pointer, site.line), {})
        for loc in ctx.pts(site.pointer):
            info = ctx.functions.get(loc)
            if info is None:
                worst[loc] = -1  # not a function at all
            elif info.max_offset < site.offset:
                worst[loc] = max(worst.get(loc, 0), site.offset)
    for (pointer, line), targets in sorted(sites.items()):
        for loc, offset in sorted(targets.items()):
            if offset < 0:
                what = f"non-function location '{ctx.name_of(loc)}'"
                if loc == ctx.null_node:
                    what = "NULL"
                message = (
                    f"indirect call through {ctx.describe(pointer)} "
                    f"may target {what}"
                )
            else:
                info = ctx.functions[loc]
                message = (
                    f"indirect call through {ctx.describe(pointer)} may "
                    f"target {info.name}() with too few parameters "
                    f"({info.param_count} declared, argument slot "
                    f"+{offset} accessed)"
                )
            yield Diagnostic(
                rule="bad-indirect-call",
                severity=Severity.WARNING,
                message=message,
                line=line,
                construct="IndirectCall",
                file=ctx.path,
                related=_site_note(
                    ctx,
                    loc,
                    f"offending target '{ctx.name_of(loc)}' originates here",
                ),
            )


@register_checker(
    "invalid-field-offset",
    severity=Severity.WARNING,
    description="field offset outside every pointee's layout",
)
def check_invalid_field_offset(ctx: CheckContext) -> Iterator[Diagnostic]:
    """An offset dereference (or field-address OFFS) that no pointee's
    block can accommodate: ``max_offset`` makes the solvers skip such
    pointees silently, so when *every* pointee is skipped the access
    denotes nothing — an out-of-layout field access in the source."""
    max_offset = ctx.system.max_offset
    seen: Set[Tuple[int, int, int]] = set()
    for constraint in ctx.system.constraints:
        if not constraint.offset:
            continue
        kind = constraint.kind.value
        if kind == "load":
            pointer = constraint.src
        elif kind == "store":
            pointer = constraint.dst
        elif kind == "offs":
            pointer = constraint.src
        else:
            continue
        prov = constraint.prov
        if prov is not None and prov.is_call:
            continue  # call desugarings belong to bad-indirect-call
        pts = ctx.pts(pointer)
        if not pts:
            continue
        if kind != "offs" and any(loc in ctx.functions for loc in pts):
            # Provenance-free call-site heuristic (bare .cons input).
            if prov is None:
                continue
        if any(max_offset[loc] >= constraint.offset for loc in pts):
            continue
        line = prov.line if prov is not None else 0
        key = (pointer, constraint.offset, line)
        if key in seen:
            continue
        seen.add(key)
        largest = max(max_offset[loc] for loc in pts)
        yield Diagnostic(
            rule="invalid-field-offset",
            severity=Severity.WARNING,
            message=(
                f"field offset +{constraint.offset} on "
                f"{ctx.describe(pointer)} is outside every pointee's "
                f"layout (largest is +{largest})"
            ),
            line=line,
            construct=prov.construct if prov is not None else "",
            file=ctx.path,
        )

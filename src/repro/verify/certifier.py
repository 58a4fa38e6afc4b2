"""Independent solution certifier.

Given a :class:`~repro.constraints.model.ConstraintSystem` and a claimed
:class:`~repro.analysis.solution.PointsToSolution`, check two directions
**without reusing any solver code** (no constraint graph, no union-find,
no worklist module, no points-to family — plain builtin sets only):

**Soundness** — the solution is closed under the inclusion rules, one
linear pass per rule, writing ``S(v)`` for the claimed set of ``v``:

========  ==============  ==========================================
BASE      ``a = &b``      ``b in S(a)``
COPY      ``a = b``       ``S(a) >= S(b)``
LOAD      ``a = *(b+k)``  ``for v in S(b), v+k valid: S(a) >= S(v+k)``
STORE     ``*(a+k) = b``  ``for v in S(a), v+k valid: S(v+k) >= S(b)``
OFFS      ``a = b + k``   ``for v in S(b), v+k valid: v+k in S(a)``
========  ==============  ==========================================

**Precision** — every claimed fact has a derivation: the certifier
rebuilds the least model from the base constraints by a semi-naive
fact-at-a-time closure and reports every claimed fact outside it.  For
each spurious fact it reconstructs the *shortest missing-derivation
witness*: a chain of claimed facts, each justified under the claimed
solution only through the next (equally spurious) fact, ending either at
a fact with no justification at all or looping back into the chain
(circular, unfounded support).

A solution that passes both checks *is* the least fixpoint: soundness
makes it a model, precision makes it contained in (hence equal to) the
least one.  Soundness is near-linear in the solution size; rebuilding
the least model is the expensive half.  Both passes run on an arbitrary
-precision *integer bitset* engine (``pts`` as one Python ``int`` per
variable, subset/union/difference as word-parallel ``&``, ``|``,
``&~``), which shares nothing with the solvers' sparse-bitmap machinery
yet costs one machine word per 64 locations instead of one hash probe
per location — that is what keeps certification well under solve time
(``bench_23``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import Constraint, ConstraintKind, ConstraintSystem

#: A points-to fact: (pointer variable, location).
Fact = Tuple[int, int]


@dataclass(frozen=True)
class SoundnessViolation:
    """One closure failure: ``loc`` is missing from ``S(var)``.

    ``constraint`` is the rule instance that demands the fact and
    ``pointee`` the intermediate pointee that triggered a complex rule
    (``None`` for BASE/COPY).
    """

    constraint: Constraint
    var: int
    loc: int
    pointee: Optional[int] = None

    def describe(self, system: ConstraintSystem) -> str:
        via = (
            f" (via pointee {system.name_of(self.pointee)})"
            if self.pointee is not None
            else ""
        )
        return (
            f"{self.constraint} demands "
            f"{system.name_of(self.loc)} in pts({system.name_of(self.var)}){via}"
        )


@dataclass(frozen=True)
class SpuriousFact:
    """A claimed fact with no derivation from any base constraint.

    ``witness`` is the shortest chain of claimed facts starting at this
    one in which each fact's only support under the claimed solution
    runs through the next; ``terminal`` says how the chain ends:
    ``"unsupported"`` (no rule produces the last fact at all) or
    ``"circular"`` (the last fact's support loops back into the chain).
    """

    var: int
    loc: int
    witness: Tuple[Fact, ...]
    terminal: str

    def describe(self, system: ConstraintSystem) -> str:
        chain = " <- ".join(
            f"({system.name_of(v)}, {system.name_of(loc)})" for v, loc in self.witness
        )
        return (
            f"spurious {system.name_of(self.loc)} in pts({system.name_of(self.var)}): "
            f"{chain} [{self.terminal}]"
        )


@dataclass
class CertificationReport:
    """Outcome of one :func:`certify` run."""

    sound: bool
    precise: bool
    violations: List[SoundnessViolation] = field(default_factory=list)
    spurious: List[SpuriousFact] = field(default_factory=list)
    #: Individual rule applications checked by the soundness pass.
    facts_checked: int = 0
    #: Size of the claimed solution (total points-to facts).
    claimed_facts: int = 0
    #: Size of the independently rebuilt least model.
    derived_facts: int = 0
    soundness_seconds: float = 0.0
    precision_seconds: float = 0.0
    #: True when reporting stopped at the ``max_reports`` cap.
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return self.sound and self.precise

    @property
    def total_seconds(self) -> float:
        return self.soundness_seconds + self.precision_seconds

    def summary(self, system: Optional[ConstraintSystem] = None) -> str:
        lines = [
            f"certifier: {'ACCEPT' if self.ok else 'REJECT'} "
            f"({self.claimed_facts} facts, {self.facts_checked} checks, "
            f"{self.total_seconds:.3f}s)"
        ]
        if not self.sound:
            lines.append(f"  soundness: {len(self.violations)} violation(s)")
            for violation in self.violations:
                detail = (
                    violation.describe(system)
                    if system is not None
                    else f"{violation.constraint}: missing ({violation.var}, {violation.loc})"
                )
                lines.append(f"    {detail}")
        if not self.precise:
            lines.append(
                f"  precision: {len(self.spurious)} spurious fact(s) "
                f"(claimed {self.claimed_facts}, derivable {self.derived_facts})"
            )
            for fact in self.spurious:
                detail = (
                    fact.describe(system)
                    if system is not None
                    else f"spurious ({fact.var}, {fact.loc}) [{fact.terminal}]"
                )
                lines.append(f"    {detail}")
        if self.truncated:
            lines.append("  (report truncated)")
        return "\n".join(lines)


def certify(
    system: ConstraintSystem,
    solution: PointsToSolution,
    max_reports: int = 20,
) -> CertificationReport:
    """Independently check ``solution`` against ``system``.

    Runs the soundness pass first, then the precision pass; both always
    run so one report covers both directions.  ``max_reports`` bounds
    the number of violations/spurious facts carried in the report (the
    booleans always reflect the full check).
    """
    if solution.num_vars != system.num_vars:
        raise ValueError(
            f"solution over {solution.num_vars} variables cannot certify a "
            f"system with {system.num_vars}"
        )
    report = CertificationReport(sound=True, precise=True)
    empty: FrozenSet[int] = frozenset()
    claimed: List[FrozenSet[int]] = [empty] * system.num_vars
    claimed_bits = [0] * system.num_vars
    for var, locs in solution.items():
        claimed[var] = locs
        claimed_bits[var] = _to_bits(locs)
    report.claimed_facts = solution.total_size()

    start = time.perf_counter()
    _check_soundness(system, claimed, claimed_bits, report, max_reports)
    report.soundness_seconds = time.perf_counter() - start

    start = time.perf_counter()
    derived = _least_model(system)
    report.derived_facts = sum(bits.bit_count() for bits in derived)
    _check_precision(system, claimed, claimed_bits, derived, report, max_reports)
    report.precision_seconds = time.perf_counter() - start
    return report


# ----------------------------------------------------------------------
# Integer-bitset primitives
# ----------------------------------------------------------------------


def _to_bits(locs) -> int:
    """Pack an iterable of location ids into one big-int bitset."""
    bits = 0
    for loc in locs:
        bits |= 1 << loc
    return bits


def _iter_bits(bits: int) -> Iterator[int]:
    """Yield the set location ids of a bitset, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _offset_mask(system: ConstraintSystem, cache: Dict[int, int], offset: int) -> int:
    """Bitset of locations whose block layout admits ``offset``."""
    mask = cache.get(offset)
    if mask is None:
        max_offset = system.max_offset
        mask = _to_bits(
            loc for loc in range(system.num_vars) if max_offset[loc] >= offset
        )
        cache[offset] = mask
    return mask


# ----------------------------------------------------------------------
# Soundness: one linear pass per rule
# ----------------------------------------------------------------------


def _check_soundness(
    system: ConstraintSystem,
    claimed: List[FrozenSet[int]],
    claimed_bits: List[int],
    report: CertificationReport,
    max_reports: int,
) -> None:
    max_offset = system.max_offset
    masks: Dict[int, int] = {}
    #: Per dereferenced ``(var, offset)``: the union of ``S(v+k)`` over
    #: valid pointees ``v`` (for LOAD) and the intersection (for STORE).
    #: Distinct load/store sites frequently dereference the same
    #: variable, so both caches pay for themselves quickly.
    load_union: Dict[Tuple[int, int], int] = {}
    store_inter: Dict[Tuple[int, int], int] = {}
    checks = 0

    def record(constraint, var, loc, pointee=None) -> None:
        report.sound = False
        if len(report.violations) < max_reports:
            report.violations.append(
                SoundnessViolation(constraint, var, loc, pointee)
            )
        else:
            report.truncated = True

    for constraint in system.constraints:
        kind = constraint.kind
        if kind is ConstraintKind.BASE:
            checks += 1
            if not (claimed_bits[constraint.dst] >> constraint.src) & 1:
                record(constraint, constraint.dst, constraint.src)
        elif kind is ConstraintKind.COPY:
            checks += 1
            missing = claimed_bits[constraint.src] & ~claimed_bits[constraint.dst]
            if missing:
                for loc in _iter_bits(missing):
                    record(constraint, constraint.dst, loc)
        elif kind is ConstraintKind.LOAD:
            offset = constraint.offset
            dst = constraint.dst
            key = (constraint.src, offset)
            valid = claimed_bits[constraint.src]
            if offset:
                valid &= _offset_mask(system, masks, offset)
            checks += valid.bit_count()
            union = load_union.get(key)
            if union is None:
                union = 0
                for pointee in _iter_bits(valid):
                    union |= claimed_bits[pointee + offset]
                load_union[key] = union
            if union & ~claimed_bits[dst]:
                # Failure path: re-walk pointees for attribution.
                for pointee in _iter_bits(valid):
                    missing = claimed_bits[pointee + offset] & ~claimed_bits[dst]
                    for loc in _iter_bits(missing):
                        record(constraint, dst, loc, pointee)
        elif kind is ConstraintKind.STORE:
            offset = constraint.offset
            src_bits = claimed_bits[constraint.src]
            key = (constraint.dst, offset)
            valid = claimed_bits[constraint.dst]
            if offset:
                valid &= _offset_mask(system, masks, offset)
            checks += valid.bit_count()
            inter = store_inter.get(key)
            if inter is None:
                inter = -1  # identity: all-ones (vacuous over no pointees)
                for pointee in _iter_bits(valid):
                    inter &= claimed_bits[pointee + offset]
                store_inter[key] = inter
            if src_bits & ~inter:
                for pointee in _iter_bits(valid):
                    target = pointee + offset
                    missing = src_bits & ~claimed_bits[target]
                    for loc in _iter_bits(missing):
                        record(constraint, target, loc, pointee)
        else:  # OFFS
            offset = constraint.offset
            valid = claimed_bits[constraint.src] & _offset_mask(system, masks, offset)
            checks += valid.bit_count()
            missing = (valid << offset) & ~claimed_bits[constraint.dst]
            if missing:
                for loc in _iter_bits(missing):
                    record(constraint, constraint.dst, loc, loc - offset)
    report.facts_checked = checks


# ----------------------------------------------------------------------
# Precision: rebuild the least model, fact by fact
# ----------------------------------------------------------------------


def _least_model(system: ConstraintSystem) -> List[int]:
    """The least Andersen model, by semi-naive fact propagation.

    Deliberately naive about cycles (no collapsing, no equivalence
    classes): each fact enters a node's delta once and crosses each
    out-edge once, so the pass is linear in ``edges x facts`` and shares
    nothing with the solvers it is checking.  Points-to sets are big-int
    bitsets, so an edge crossing is one word-parallel ``&~`` regardless
    of how many facts ride it; individual pointees are decoded only at
    nodes that anchor load/store constraints.
    """
    n = system.num_vars
    pts: List[int] = [0] * n
    delta: List[int] = [0] * n
    succ: List[Set[int]] = [set() for _ in range(n)]
    loads: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    stores: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    offs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    masks: Dict[int, int] = {}

    queue: deque = deque()
    queued = [False] * n

    def add_facts(node: int, bits: int) -> None:
        new = bits & ~pts[node]
        if new:
            pts[node] |= new
            delta[node] |= new
            if not queued[node]:
                queued[node] = True
                queue.append(node)

    def add_edge(src: int, dst: int) -> None:
        if dst != src and dst not in succ[src]:
            succ[src].add(dst)
            if pts[src]:
                add_facts(dst, pts[src])

    for constraint in system.constraints:
        kind = constraint.kind
        if kind is ConstraintKind.BASE:
            add_facts(constraint.dst, 1 << constraint.src)
        elif kind is ConstraintKind.COPY:
            add_edge(constraint.src, constraint.dst)
        elif kind is ConstraintKind.LOAD:
            loads[constraint.src].append((constraint.dst, constraint.offset))
        elif kind is ConstraintKind.STORE:
            stores[constraint.dst].append((constraint.src, constraint.offset))
        else:  # OFFS
            offs[constraint.src].append((constraint.dst, constraint.offset))

    while queue:
        node = queue.popleft()
        queued[node] = False
        fresh = delta[node]
        delta[node] = 0
        if not fresh:
            continue
        if loads[node] or stores[node]:
            for dst, offset in loads[node]:
                bits = fresh
                if offset:
                    bits &= _offset_mask(system, masks, offset)
                while bits:
                    low = bits & -bits
                    bits ^= low
                    src = low.bit_length() - 1 + offset
                    edges = succ[src]
                    if dst != src and dst not in edges:
                        edges.add(dst)
                        if pts[src]:
                            add_facts(dst, pts[src])
            for src, offset in stores[node]:
                bits = fresh
                if offset:
                    bits &= _offset_mask(system, masks, offset)
                src_edges = succ[src]
                while bits:
                    low = bits & -bits
                    bits ^= low
                    dst = low.bit_length() - 1 + offset
                    if dst != src and dst not in src_edges:
                        src_edges.add(dst)
                        if pts[src]:
                            add_facts(dst, pts[src])
        for dst, offset in offs[node]:
            shifted = (fresh & _offset_mask(system, masks, offset)) << offset
            if shifted:
                add_facts(dst, shifted)
        for dst in succ[node]:
            add_facts(dst, fresh)
    return pts


def _check_precision(
    system: ConstraintSystem,
    claimed: List[FrozenSet[int]],
    claimed_bits: List[int],
    derived: List[int],
    report: CertificationReport,
    max_reports: int,
) -> None:
    spurious_by_var: Dict[int, Set[int]] = {}
    for var in range(system.num_vars):
        extra = claimed_bits[var] & ~derived[var]
        if extra:
            spurious_by_var[var] = set(_iter_bits(extra))
    if not spurious_by_var:
        return
    report.precise = False
    witnesses = _WitnessBuilder(system, claimed, spurious_by_var)
    reported = 0
    for var in sorted(spurious_by_var):
        for loc in sorted(spurious_by_var[var]):
            if reported >= max_reports:
                report.truncated = True
                return
            report.spurious.append(witnesses.witness(var, loc))
            reported += 1


class _WitnessBuilder:
    """Shortest missing-derivation witnesses for spurious facts.

    Key property used here: a spurious fact's every justification under
    the claimed solution must involve at least one spurious premise
    (if all premises of some rule application were derivable, the fact
    would be derivable too).  So following spurious premises backwards
    from a spurious fact by BFS always ends at either a fact no rule
    produces at all (*unsupported*) or a cycle (*circular*).
    """

    def __init__(
        self,
        system: ConstraintSystem,
        claimed: List[FrozenSet[int]],
        spurious_by_var: Dict[int, Set[int]],
    ) -> None:
        self.system = system
        self.claimed = claimed
        self.spurious_by_var = spurious_by_var
        n = system.num_vars
        max_offset = system.max_offset
        #: Per variable: incoming simple edges and complex producers.
        self.copy_into: List[List[int]] = [[] for _ in range(n)]
        self.base_into: List[Set[int]] = [set() for _ in range(n)]
        self.load_into: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self.offs_into: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        #: store-resolved producers: target -> [(deref var, pointee, src)]
        self.store_into: Dict[int, List[Tuple[int, int, int]]] = {}
        for constraint in system.constraints:
            kind = constraint.kind
            if kind is ConstraintKind.BASE:
                self.base_into[constraint.dst].add(constraint.src)
            elif kind is ConstraintKind.COPY:
                self.copy_into[constraint.dst].append(constraint.src)
            elif kind is ConstraintKind.LOAD:
                self.load_into[constraint.dst].append(
                    (constraint.src, constraint.offset)
                )
            elif kind is ConstraintKind.OFFS:
                self.offs_into[constraint.dst].append(
                    (constraint.src, constraint.offset)
                )
            else:  # STORE — resolve against the claimed solution
                offset = constraint.offset
                for pointee in claimed[constraint.dst]:
                    if max_offset[pointee] < offset:
                        continue
                    self.store_into.setdefault(pointee + offset, []).append(
                        (constraint.dst, pointee, constraint.src)
                    )

    def _is_spurious(self, fact: Fact) -> bool:
        var, loc = fact
        return loc in self.spurious_by_var.get(var, ())

    def _spurious_premises(self, fact: Fact) -> Tuple[bool, List[Fact]]:
        """``(supported, premises)``: whether any rule produces ``fact``
        under the claimed solution, and the spurious premise of each
        such justification (one representative per justification)."""
        var, loc = fact
        claimed = self.claimed
        max_offset = self.system.max_offset
        supported = False
        premises: List[Fact] = []

        if loc in self.base_into[var]:
            return True, premises  # base-supported; cannot be spurious

        for src in self.copy_into[var]:
            if loc in claimed[src]:
                supported = True
                premises.append((src, loc))

        for deref, offset in self.load_into[var]:
            for pointee in claimed[deref]:
                if max_offset[pointee] < offset:
                    continue
                target = pointee + offset
                if loc in claimed[target]:
                    supported = True
                    if self._is_spurious((target, loc)):
                        premises.append((target, loc))
                    elif self._is_spurious((deref, pointee)):
                        premises.append((deref, pointee))

        for deref, pointee, src in self.store_into.get(var, ()):
            if loc in claimed[src]:
                supported = True
                if self._is_spurious((src, loc)):
                    premises.append((src, loc))
                elif self._is_spurious((deref, pointee)):
                    premises.append((deref, pointee))

        for src, offset in self.offs_into[var]:
            pointee = loc - offset
            if pointee >= 0 and max_offset[pointee] >= offset and pointee in claimed[src]:
                supported = True
                premises.append((src, pointee))

        return supported, [p for p in premises if self._is_spurious(p)]

    def witness(self, var: int, loc: int) -> SpuriousFact:
        """Shortest chain of spurious facts explaining ``(var, loc)``."""
        root: Fact = (var, loc)
        parent: Dict[Fact, Optional[Fact]] = {root: None}
        frontier: deque = deque([root])
        terminal: Optional[Fact] = None
        kind = "circular"
        while frontier:
            fact = frontier.popleft()
            supported, premises = self._spurious_premises(fact)
            if not supported:
                terminal, kind = fact, "unsupported"
                break
            for premise in premises:
                if premise not in parent:
                    parent[premise] = fact
                    frontier.append(premise)
        if terminal is None:
            # Every reachable fact is circularly supported; the farthest
            # BFS fact closes the loop as well as any.
            terminal = fact
        chain: List[Fact] = []
        cursor: Optional[Fact] = terminal
        while cursor is not None:
            chain.append(cursor)
            cursor = parent[cursor]
        chain.reverse()  # root first
        return SpuriousFact(var, loc, tuple(chain), kind)

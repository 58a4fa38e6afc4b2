"""Lockset-based static race detection.

The classic recipe (Eraser's lockset discipline, made static):

1. *Threads* are ``main`` plus one per ``pthread_create``-style spawn;
   the spawned entry points are the function pointees of the
   start-routine pointer, straight from the points-to solution.
2. A thread's *code* is everything reachable from its entries over the
   :class:`~repro.dataflow.interproc.FunctionGraph`.
3. *Shared locations* are escaped locals (from
   :mod:`repro.analysis.escape`), globals and heap objects.
4. *Locksets* — the locks certainly held at each access — propagate
   over the call graph with the intersection-meet engine: a function's
   entry lockset is the meet over its call sites of the caller's locks
   at the site, and lock/unlock calls open/close intervals within a
   function (lines approximate intra-procedural order, the same
   flow-proxy the rest of the front end uses).
5. Two accesses *race* when distinct threads may execute them, at
   least one writes, their targets may alias on a shared location, and
   their locksets are disjoint.

``main``'s accesses before the first spawn are treated as
single-threaded initialization and skipped — the standard static
companion to Eraser's dynamic "first thread" exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.alias import AliasAnalysis
from repro.analysis.mod_ref import ModRefAnalysis
from repro.analysis.solution import PointsToSolution
from repro.constraints.model import (
    ConstraintKind,
    ConstraintSystem,
    is_synthetic_name,
)
from repro.dataflow.engine import IntersectDataflow
from repro.dataflow.events import LockOp, ThreadSpawn
from repro.dataflow.interproc import FunctionGraph


@dataclass(frozen=True)
class RaceAccess:
    """One may-access of a shared location by one function."""

    #: Owning function node.
    function: int
    line: int
    write: bool
    #: Dereferenced pointer for indirect accesses (None when direct).
    pointer: Optional[int]
    #: The shared abstract location touched.
    target: int


@dataclass(frozen=True)
class RaceFinding:
    """A two-site diagnostic: conflicting accesses with no common lock."""

    location: int
    first: RaceAccess
    second: RaceAccess
    first_thread: str
    second_thread: str


def shared_locations(
    system: ConstraintSystem, escaped: AbstractSet[int]
) -> Set[int]:
    """Locations more than one thread could reach: the nodes in no
    function block and of no synthetic object (strings, externs, field
    variables, ``<null>``) that are unowned (globals and heap objects)
    or escaped."""
    functions = system.functions
    block_of = system.block_of
    owners = system.owners
    return {
        node
        for node, name in enumerate(system.names)
        if block_of[node] not in functions
        and not is_synthetic_name(name)
        and (owners[node] is None or node in escaped)
    }


def _spawn_threads(
    system: ConstraintSystem,
    solution: PointsToSolution,
    spawns: Sequence[ThreadSpawn],
    graph: FunctionGraph,
) -> List[Tuple[str, Tuple[int, ...]]]:
    """``(name, entry function nodes)`` per concurrent thread."""
    threads: List[Tuple[str, Tuple[int, ...]]] = []
    main_node = graph.main_node
    if main_node is not None:
        threads.append(("main", (main_node,)))
    functions = system.functions
    for spawn in spawns:
        entries = tuple(
            sorted(
                loc
                for loc in solution.points_to(spawn.fn_ptr)
                if loc in functions
            )
        )
        if entries:
            threads.append((f"thread@{spawn.line}", entries))
    return threads


class _Locksets:
    """Must-held locks per (function, line), via the intersect engine."""

    def __init__(
        self,
        solution: PointsToSolution,
        lock_ops: Sequence[LockOp],
        graph: FunctionGraph,
        roots: Sequence[int],
    ) -> None:
        mutexes: Set[int] = set()
        for op in lock_ops:
            mutexes.update(solution.points_to(op.mutex))
        self._bit_of: Dict[int, int] = {
            loc: index for index, loc in enumerate(sorted(mutexes))
        }
        self.universe = (1 << len(self._bit_of)) - 1
        #: function node -> [(line, is_lock, mutex bitmask)], line-sorted.
        self._ops_by_fn: Dict[int, List[Tuple[int, bool, int]]] = {}
        for op in lock_ops:
            fn = graph.attribute([op.mutex], op.line)
            if fn is None:
                continue
            mask = 0
            for loc in solution.points_to(op.mutex):
                mask |= 1 << self._bit_of[loc]
            self._ops_by_fn.setdefault(fn, []).append(
                (op.line, op.op == "lock", mask)
            )
        for ops in self._ops_by_fn.values():
            ops.sort()

        self._entry = IntersectDataflow(self.universe)
        for root in roots:
            self._entry.seed(root, 0)
        for caller, callee, line in graph.edges:
            self._entry.add_edge(caller, callee, gen=self.held_within(caller, line))
        self._entry.run()

    def held_within(self, function: int, line: int) -> int:
        """Locks held at ``line`` relative to the function's entry."""
        held = 0
        for op_line, is_lock, mask in self._ops_by_fn.get(function, []):
            if op_line > line:
                break
            held = held | mask if is_lock else held & ~mask
        return held

    def at(self, function: int, line: int) -> int:
        return (
            self._entry.facts(function) | self.held_within(function, line)
        ) & self.universe


def _collect_accesses(
    system: ConstraintSystem,
    modref: ModRefAnalysis,
    graph: FunctionGraph,
    shared: AbstractSet[int],
) -> List[RaceAccess]:
    accesses: Set[RaceAccess] = set()

    def note(
        function: Optional[int],
        line: int,
        write: bool,
        pointer: Optional[int],
        targets: AbstractSet[int],
    ) -> None:
        if function is None:
            return
        for target in targets:
            if target in shared:
                accesses.add(
                    RaceAccess(function, line, write, pointer, target)
                )

    for constraint in system.constraints:
        prov = constraint.prov
        if prov is None or prov.line <= 0 or prov.synthesized:
            continue
        line = prov.line
        kind = constraint.kind
        is_call = constraint.offset > 0 and prov.is_call
        if kind is ConstraintKind.COPY or kind is ConstraintKind.OFFS:
            note(
                graph.attribute([constraint.src, constraint.dst], line),
                line, True, None, {constraint.dst},
            )
            note(
                graph.attribute([constraint.dst, constraint.src], line),
                line, False, None, {constraint.src},
            )
        elif kind is ConstraintKind.BASE:
            note(
                graph.attribute([constraint.src, constraint.dst], line),
                line, True, None, {constraint.dst},
            )
        elif kind is ConstraintKind.LOAD:
            fn = graph.attribute([constraint.dst, constraint.src], line)
            note(fn, line, False, None, {constraint.src})
            if not is_call:
                note(
                    fn, line, False, constraint.src,
                    modref.read_through(constraint.src, constraint.offset),
                )
        elif kind is ConstraintKind.STORE:
            fn = graph.attribute([constraint.src, constraint.dst], line)
            note(fn, line, False, None, {constraint.dst, constraint.src})
            if not is_call:
                note(
                    fn, line, True, constraint.dst,
                    modref.written_through(constraint.dst, constraint.offset),
                )
    return sorted(
        accesses, key=lambda a: (a.target, a.line, a.function, not a.write)
    )


def find_races(
    system: ConstraintSystem,
    solution: PointsToSolution,
    spawns: Sequence[ThreadSpawn],
    lock_ops: Sequence[LockOp],
    escaped: AbstractSet[int],
) -> List[RaceFinding]:
    """Report conflicting unsynchronized shared accesses, two sites each."""
    if not spawns:
        return []
    graph = FunctionGraph(system, solution)
    threads = _spawn_threads(system, solution, spawns, graph)
    if len(threads) < 2:
        return []
    # A spawn's synthetic call edge hands the start routine to a *new*
    # thread; it must not pull the routine into the spawner's own code.
    spawn_edges = {
        (entry, spawn.line)
        for spawn in spawns
        for entry in solution.points_to(spawn.fn_ptr)
        if entry in system.functions
    }
    reachable = [
        graph.reachable(entries, skip_edges=spawn_edges)
        for _name, entries in threads
    ]

    shared = shared_locations(system, escaped)
    modref = ModRefAnalysis(system, solution)
    alias = AliasAnalysis(solution)
    accesses = _collect_accesses(system, modref, graph, shared)

    main_node = graph.main_node
    first_spawn = min(spawn.line for spawn in spawns)
    if main_node is not None:
        # Pre-spawn statements in main() run single-threaded.
        accesses = [
            a
            for a in accesses
            if not (a.function == main_node and a.line < first_spawn)
        ]

    roots = [entry for _name, entries in threads for entry in entries]
    locksets = _Locksets(solution, lock_ops, graph, roots)
    held: Dict[Tuple[int, int], int] = {}
    for access in accesses:
        key = (access.function, access.line)
        if key not in held:
            held[key] = locksets.at(access.function, access.line)

    by_target: Dict[int, List[Tuple[int, RaceAccess]]] = {}
    for access in accesses:
        for index, _reach in enumerate(reachable):
            if access.function in reachable[index]:
                by_target.setdefault(access.target, []).append(
                    (index, access)
                )

    findings: List[RaceFinding] = []
    reported: Set[Tuple[int, int, int]] = set()
    for target in sorted(by_target):
        instances = by_target[target]
        for i, (thread_a, a) in enumerate(instances):
            for thread_b, b in instances[i:]:
                if thread_a == thread_b:
                    continue
                if not (a.write or b.write):
                    continue
                if held[(a.function, a.line)] & held[(b.function, b.line)]:
                    continue  # a common lock serializes them
                if (
                    a.pointer is not None
                    and b.pointer is not None
                    and not alias.may_alias(a.pointer, b.pointer)
                ):
                    continue
                first, second = sorted(
                    (a, b), key=lambda x: (x.line, x.function, not x.write)
                )
                key = (target, first.line, second.line)
                if key in reported:
                    continue
                reported.add(key)
                if first is a:
                    names = (threads[thread_a][0], threads[thread_b][0])
                else:
                    names = (threads[thread_b][0], threads[thread_a][0])
                findings.append(
                    RaceFinding(
                        location=target,
                        first=first,
                        second=second,
                        first_thread=names[0],
                        second_thread=names[1],
                    )
                )
    findings.sort(
        key=lambda f: (f.first.line, f.second.line, f.location)
    )
    return findings

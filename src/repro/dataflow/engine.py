"""Generic forward propagation engines over explicit flow edges.

Facts are bit positions packed into one plain arbitrary-precision
integer per node (the representation the ``int`` points-to family
already uses), so one propagation step — however many facts are in
flight — is a single word-parallel bignum operation.  Two meet
disciplines cover the clients:

- :class:`UnionDataflow` (*may* facts, e.g. taint): facts accumulate
  along edges; a node's set only ever grows, so the worklist terminates
  at the least fixed point.
- :class:`IntersectDataflow` (*must* facts, e.g. locksets): unvisited
  nodes are implicitly ``⊤`` (the full universe) and facts narrow
  toward the greatest fixed point; edges may *generate* extra bits
  (locks held at a call site) before the meet.

:class:`UnionDataflow` reconstructs provenance witness paths *lazily*:
propagation itself is nothing but bignum ORs, and :meth:`~UnionDataflow.
witness` recovers a seed-to-node path afterwards by searching the
subgraph of nodes that carry the fact.  Clients report a handful of
findings out of millions of propagated (node, fact) pairs, so paying
per query instead of per delivery keeps the engine word-parallel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.graph.scc import tarjan_scc


@dataclass
class DataflowStats:
    """Work accounting for one propagation run."""

    nodes: int = 0
    edges: int = 0
    seeds: int = 0
    propagations: int = 0
    seconds: float = 0.0


#: Sentinel predecessor id marking a seeded fact (no inbound edge).
SEED_PRED = -1


class UnionDataflow:
    """May-analysis worklist: facts accumulate along directed edges.

    Nodes are arbitrary non-negative ints (constraint-system variable
    ids for the clients here); each fact is a bit position.  ``run`` is
    idempotent and incremental: seeding more facts and calling it again
    resumes from the previous fixed point.
    """

    def __init__(self) -> None:
        self._succs: Dict[int, List[int]] = {}
        #: first-added source line per (src, dst) edge; consulted only
        #: at witness-reconstruction time, never during propagation.
        self._lines: Dict[Tuple[int, int], int] = {}
        #: (node, bitmask, line) seed records, in seeding order.
        self._seeded: List[Tuple[int, int, int]] = []
        self._facts: Dict[int, int] = {}
        #: SCCs of the edge graph in topological order of the
        #: condensation; invalidated by add_edge, rebuilt on run().
        self._order: List[List[int]] = []
        self._order_stale = True
        self._facts_stale = False
        self.stats = DataflowStats()

    def add_edge(self, src: int, dst: int, line: int = 0) -> None:
        """A flow edge: every fact at ``src`` also holds at ``dst``.

        ``line`` is the source line of the constraint inducing the edge
        (0 when unknown) — it becomes the witness-path step.
        """
        if src == dst:
            return
        self._succs.setdefault(src, []).append(dst)
        self._lines.setdefault((src, dst), line)
        self._order_stale = True
        self._facts_stale = True
        self.stats.edges += 1

    def seed(self, node: int, bits: int, line: int = 0) -> None:
        """Introduce fact ``bits`` at ``node`` (a bitmask, not an index)."""
        held = self._facts.get(node, 0)
        fresh = bits & ~held
        if not fresh:
            return
        self._facts[node] = held | fresh
        self.stats.seeds += 1
        self._facts_stale = True
        self._seeded.append((node, fresh, line))

    def _condense(self) -> List[List[int]]:
        """Strongly connected components of the edge graph, listed in
        topological order of the condensation."""
        succs = self._succs
        sccs: List[List[int]] = tarjan_scc(list(succs), lambda node: succs.get(node, ()))
        # Tarjan emits components in reverse topological order.
        sccs.reverse()
        return sccs

    def run(self) -> None:
        """Propagate to the least fixed point.

        One sweep over the SCC condensation in topological order: by
        the time a component is visited every transitive predecessor
        has already pushed into it, so each edge is crossed exactly
        once per run — however many seeds (and seed nodes) are in
        flight, each step a single word-parallel bignum OR."""
        if not self._facts_stale:
            return
        started = time.perf_counter()
        if self._order_stale:
            self._order = self._condense()
            self._order_stale = False
        all_facts = self._facts
        succs = self._succs
        for scc in self._order:
            if len(scc) > 1:
                # Merge the cycle: every member sees the union.
                union = 0
                for member in scc:
                    union |= all_facts.get(member, 0)
                if union:
                    for member in scc:
                        if all_facts.get(member, 0) != union:
                            all_facts[member] = union
                            self.stats.propagations += 1
            for node in scc:
                bits = all_facts.get(node, 0)
                if not bits:
                    continue
                for dst in succs.get(node, ()):
                    target = all_facts.get(dst, 0)
                    if bits & ~target:
                        all_facts[dst] = target | bits
                        self.stats.propagations += 1
        self._facts_stale = False
        self.stats.seconds += time.perf_counter() - started

    def facts(self, node: int) -> int:
        """The fact bitmask currently known at ``node``."""
        return self._facts.get(node, 0)

    def witness(self, node: int, bit: int, limit: int = 128) -> List[Tuple[int, int]]:
        """A flow of fact ``bit`` from a seed into ``node``.

        Returns ``[(node, line), ...]`` from the seed to ``node`` —
        each step names the node the fact arrived at and the source
        line of the edge (or seed) that delivered it.  Reconstructed on
        demand: a breadth-first search from the seeds carrying ``bit``,
        restricted to nodes that hold the fact at the current fixed
        point, so the path is shortest-by-edges.  Empty when the fact
        never reached ``node``.
        """
        mask = 1 << bit
        if not self.facts(node) & mask:
            return []
        #: node -> (predecessor, line of the edge/seed that reached it).
        parents: Dict[int, Tuple[int, int]] = {}
        queue: List[int] = []
        for seed_node, seed_bits, seed_line in self._seeded:
            if seed_bits & mask and seed_node not in parents:
                parents[seed_node] = (SEED_PRED, seed_line)
                queue.append(seed_node)
        head = 0
        while head < len(queue) and node not in parents:
            current = queue[head]
            head += 1
            for dst in self._succs.get(current, ()):
                if dst in parents or not self.facts(dst) & mask:
                    continue
                parents[dst] = (current, self._lines.get((current, dst), 0))
                queue.append(dst)
        if node not in parents:
            return []
        chain: List[Tuple[int, int]] = []
        current = node
        while current != SEED_PRED:
            pred, line = parents[current]
            chain.append((current, line))
            current = pred
        chain.reverse()
        return chain[-limit:]


class IntersectDataflow:
    """Must-analysis worklist: facts narrow along edges toward the
    greatest fixed point.

    Every node starts at ``⊤`` (``universe``); roots are pinned with
    :meth:`seed`.  An edge transfers ``facts(src) | gen`` and the meet
    at ``dst`` is intersection — the classic lockset discipline, where
    ``gen`` is the locks held at the propagating call site.
    """

    def __init__(self, universe: int) -> None:
        self._universe = universe
        self._succs: Dict[int, List[Tuple[int, int]]] = {}
        self._facts: Dict[int, int] = {}
        self._dirty: List[int] = []
        self._queued: Set[int] = set()
        self.stats = DataflowStats()

    def add_edge(self, src: int, dst: int, gen: int = 0) -> None:
        self._succs.setdefault(src, []).append((dst, gen))
        self.stats.edges += 1

    def seed(self, node: int, bits: int) -> None:
        """Pin ``node``'s facts to (at most) ``bits``: meet with ⊤ so
        repeated seeds intersect."""
        held = self._facts.get(node)
        self._facts[node] = bits if held is None else held & bits
        self.stats.seeds += 1
        if node not in self._queued:
            self._queued.add(node)
            self._dirty.append(node)

    def run(self) -> None:
        started = time.perf_counter()
        worklist = self._dirty
        queued = self._queued
        while worklist:
            node = worklist.pop()
            queued.discard(node)
            source = self._facts.get(node)
            if source is None:
                continue
            for dst, gen in self._succs.get(node, []):
                candidate = source | gen
                target = self._facts.get(dst)
                if target is None:
                    # First visit: narrow straight down from ⊤.
                    self._facts[dst] = candidate & self._universe
                    changed = True
                else:
                    narrowed = target & candidate
                    changed = narrowed != target
                    self._facts[dst] = narrowed
                if changed:
                    self.stats.propagations += 1
                    if dst not in queued:
                        queued.add(dst)
                        worklist.append(dst)
        self.stats.seconds += time.perf_counter() - started

    def facts(self, node: int) -> int:
        """Facts that *must* hold at ``node`` (⊤ when unreachable)."""
        return self._facts.get(node, self._universe)

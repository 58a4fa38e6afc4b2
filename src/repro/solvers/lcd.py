"""Lazy Cycle Detection (paper Section 4.1, Figure 2).

Cycle members end up with identical points-to sets, so LCD inverts the
usual search discipline: instead of looking for cycles when edges are
*created*, it waits for their *effect* — before propagating across an edge
``n -> z`` it checks whether ``pts(n) == pts(z)`` already, and only then
launches a depth-first search rooted at ``z``.

Two refinements keep the heuristic cheap and focused:

- an edge never triggers a search twice (the set ``R`` below), so node
  pairs that coincidentally share a points-to set without being in a cycle
  cannot cause repeated searches — this is what makes LCD *incomplete*;
- empty set pairs never trigger (an empty-vs-empty match carries no
  evidence of a cycle).

The detection itself is a Nuutila SCC pass over the subgraph reachable
from ``z``; every non-trivial component found along the way is collapsed.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintSystem
from repro.datastructs.worklist import make_worklist
from repro.graph.scc import nuutila_scc
from repro.solvers.base import GraphSolver


class LCDSolver(GraphSolver):
    """Figure 2: lazy, effect-triggered cycle detection.

    ``once_per_edge`` is the paper's refinement ("we never trigger cycle
    detection on the same edge twice"); it can be disabled to measure the
    ablation — expect many more fruitless searches.
    """

    name = "lcd"

    def __init__(
        self, system: ConstraintSystem, once_per_edge: bool = True, **options
    ) -> None:
        super().__init__(system, **options)
        self.once_per_edge = once_per_edge

    def _run(self) -> PointsToSolution:
        graph = self.graph
        worklist = make_worklist(self.worklist_strategy)
        #: R — edges that already triggered a (possibly fruitless) search.
        attempted: Set[Tuple[int, int]] = set()

        for node in graph.rep_nodes():
            if len(graph.pts_of(node)):
                worklist.push(node)

        if self.family.fused_kernel:
            self._run_fused(worklist, attempted)
        else:
            while worklist:
                node = graph.find(worklist.pop())
                self.stats.iterations += 1
                if self.hcd_enabled:
                    node = self.hcd_check(node, worklist.push)
                self.resolve_complex(node, worklist.push)

                for raw_succ in list(graph.successors(node)):
                    rep = graph.find(node)
                    succ = graph.find(raw_succ)
                    if succ == rep:
                        continue
                    pts_rep = graph.pts_of(rep)
                    pts_succ = graph.pts_of(succ)
                    edge = (rep, succ)
                    if (
                        len(pts_rep)
                        and pts_succ.same_as(pts_rep)
                        and edge not in attempted
                    ):
                        if self.once_per_edge:
                            attempted.add(edge)
                        if self.sanitizer is not None:
                            self.sanitizer.on_lcd_trigger(edge)
                        self.stats.lcd_triggers += 1
                        self._detect_and_collapse(succ, worklist.push)
                        rep = graph.find(node)
                        succ = graph.find(raw_succ)
                        if succ == rep:
                            continue
                    self.stats.propagations += 1
                    if graph.pts_of(succ).ior_and_test(graph.pts_of(rep)):
                        worklist.push(succ)

        return self._export_solution()

    def _run_fused(self, worklist, attempted: Set[Tuple[int, int]]) -> None:
        """The Figure 2 loop for the ``int`` family, the one solver path
        kept per family: union-find and points-to lists hoisted into
        locals, the trigger's set equality and each edge union done as
        single bignum expressions, and a sweep's triggers batched into
        one search.  The batching carries most of int's speedup over
        bitmap under LCD; it also changes the search counters, so int
        under LCD reports its own."""
        graph = self.graph
        uf_find = graph.uf.find
        #: Direct parent-array fast path: nodes that are their own parent
        #: (the overwhelming majority) resolve with two list indexes and
        #: no call; chains fall back to the compressing find.
        parent = graph.uf._parent
        pts_list = graph.pts
        stats = self.stats
        push = worklist.push

        while worklist:
            node = uf_find(worklist.pop())
            stats.iterations += 1
            if self.hcd_enabled:
                node = self.hcd_check(node, push)
            self.resolve_complex(node, push)

            rep = uf_find(node)
            pts_rep = pts_list[rep]
            pts_rep_bits = pts_rep.bits
            # Triggers collect during the sweep and launch ONE multi-root
            # DFS afterwards: overlapping reachable regions are searched
            # once (Nuutila shares visited state across roots) instead of
            # once per trigger, and the sweep's representatives stay
            # stable, keeping the hoisted locals valid throughout.
            trigger_roots = []
            edge_bits = graph.succ[rep].bits
            while edge_bits:
                low = edge_bits & -edge_bits
                edge_bits ^= low
                raw = low.bit_length() - 1
                succ = parent[raw]
                if parent[succ] != succ:
                    succ = uf_find(raw)
                if succ == rep:
                    continue
                pts_succ = pts_list[succ]
                succ_bits = pts_succ.bits
                if succ_bits == pts_rep_bits and pts_rep_bits:
                    edge = (rep, succ)
                    if edge not in attempted:
                        if self.once_per_edge:
                            attempted.add(edge)
                        if self.sanitizer is not None:
                            self.sanitizer.on_lcd_trigger(edge)
                        stats.lcd_triggers += 1
                        trigger_roots.append(succ)
                    continue  # equal sets: the union below is a no-op
                stats.propagations += 1
                merged = succ_bits | pts_rep_bits
                if merged != succ_bits:
                    # A union equal to the source adopts its object, as
                    # IntBitSet.ior_and_test does.
                    pts_succ.bits = (
                        pts_rep_bits if merged == pts_rep_bits else merged
                    )
                    push(succ)
            if trigger_roots:
                self._detect_and_collapse(trigger_roots, push)

    def _detect_and_collapse(self, roots, push) -> None:
        """DFS (Nuutila) from ``roots``; collapse every cycle found.

        ``roots`` is one node or a list of them — a multi-root search
        shares its visited state, so overlapping reachable regions cost
        one traversal (the ``int`` loop batches a whole sweep's triggers).
        """
        graph = self.graph
        visited = 0

        if self.family.fused_kernel:
            # Same normalization as graph.successors, without the
            # generator machinery — this callback runs once per node the
            # DFS touches, which LCD does a lot of.
            uf_find = graph.uf.find
            parent = graph.uf._parent
            succ_list = graph.succ

            def successors(node: int):
                nonlocal visited
                visited += 1
                node = uf_find(node)
                out = []
                bits = succ_list[node].bits
                while bits:
                    low = bits & -bits
                    bits ^= low
                    raw = low.bit_length() - 1
                    rep = parent[raw]
                    if parent[rep] != rep:
                        rep = uf_find(raw)
                    if rep != node:
                        out.append(rep)
                return out

        else:

            def successors(node: int):
                nonlocal visited
                visited += 1
                return list(graph.successors(node))

        if isinstance(roots, int):
            roots = [roots]
        components = nuutila_scc([graph.find(root) for root in roots], successors)
        self.stats.nodes_searched += max(visited, len(components))
        for component in components:
            if len(component) >= 2:
                rep = self.collapse_nodes(component, push)
                push(rep)

"""The original Pearce, Kelly & Hankin solver (SCAM 2003).

The paper's Related Work describes it: "In order to avoid cycle detection
at every edge insertion, the algorithm dynamically maintains a topological
ordering of the constraint graph.  Only a newly-inserted edge that
violates the current ordering could possibly create a cycle, so only in
this case are cycle detection and topological re-ordering performed.
This algorithm proves to still have too much overhead" — the paper's
Discussion places it (with Faehndrich et al.) "an order of magnitude
slower than any of the algorithms evaluated in this paper", the
cautionary tale about being *too* aggressive.

We implement it as an extension solver (name ``pkh03``) so that
aggressiveness trade-off can be measured: an initial SCC pass seeds a
topological order; every subsequent edge insertion runs through the
Pearce-Kelly dynamic-order maintenance, and an order violation that
witnesses a cycle collapses it on the spot.  Collapsing can itself leave
stale order relations on the representative's edges, which are repaired
by re-inserting the violated edges — possibly discovering further cycles.
"""

from __future__ import annotations

from typing import List

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintSystem
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.datastructs.worklist import make_worklist
from repro.graph.scc import tarjan_scc
from repro.graph.topo_order import DynamicTopologicalOrder
from repro.solvers.base import GraphSolver


class PKH03Solver(GraphSolver):
    """Per-edge cycle detection via dynamic topological ordering."""

    name = "pkh03"

    def __init__(self, system: ConstraintSystem, **options) -> None:
        super().__init__(system, **options)
        system = self.system  # the (possibly) offline-reduced system
        self.topo = DynamicTopologicalOrder(system.num_vars)
        #: preds mirror of the successor sets, for the backward searches.
        self.preds: List[SparseBitmap] = [
            SparseBitmap() for _ in range(system.num_vars)
        ]

    # ------------------------------------------------------------------
    # Initial order: collapse pre-existing cycles, then number the DAG
    # ------------------------------------------------------------------

    def _initialize_order(self, push) -> None:
        graph = self.graph
        reps = list(graph.rep_nodes())
        self.stats.nodes_searched += len(reps)
        components = tarjan_scc(reps, lambda n: list(graph.successors(n)))
        total = len(components)
        # Tarjan emits sinks (downstream components) first; downstream
        # nodes need the *larger* order values.
        for index, component in enumerate(components):
            if len(component) >= 2:
                rep = self.collapse_nodes(component, push)
            else:
                rep = component[0]
            self.topo.set_order(rep, total - index)
        for node in graph.rep_nodes():
            for raw in graph.succ[node]:
                self.preds[graph.find(raw)].add(node)

    # ------------------------------------------------------------------
    # Edge insertion through the dynamic order
    # ------------------------------------------------------------------

    def _apply_complex(self, loads, stores, offs, locs: List[int], push) -> None:
        """Route every new edge through the dynamic topological order."""
        graph = self.graph
        find = graph.find
        max_offset = graph.system.max_offset
        # Snapshot: collapses triggered by edge insertion can merge the
        # very constraint sets being iterated.
        loads = list(loads)
        stores = list(stores)
        offs = list(offs)
        for dst, offset in loads:
            for loc in locs:
                if offset and max_offset[loc] < offset:
                    continue
                source = find(loc + offset) if offset else find(loc)
                self._insert_edge(source, find(dst), push)
        for src, offset in stores:
            for loc in locs:
                if offset and max_offset[loc] < offset:
                    continue
                target = find(loc + offset) if offset else find(loc)
                self._insert_edge(find(src), target, push)
        for dst, offset in offs:
            dst_rep = find(dst)
            dst_pts = graph.pts[dst_rep]
            changed = False
            for loc in locs:
                if max_offset[loc] < offset:
                    continue
                self.stats.propagations += 1
                if dst_pts.add(loc + offset):
                    changed = True
            if changed:
                push(dst_rep)

    def _insert_edge(self, src: int, dst: int, push) -> None:
        graph = self.graph
        if src == dst or not graph.succ[src].add(dst):
            return
        self.stats.edges_added += 1
        self.preds[dst].add(src)
        push(src)

        result = self.topo.add_edge(
            src, dst, successors=self._successors, predecessors=self._predecessors
        )
        if result is not None:
            forward, backward = result
            members = (forward & backward) | {src, dst}
            rep = self.collapse_nodes(sorted(members), push)
            self._merge_preds(members, rep)
            push(rep)
            self._repair_order(rep, push)

    def _merge_preds(self, members, rep: int) -> None:
        graph = self.graph
        merged = SparseBitmap()
        for member in members:
            merged.ior(self.preds[member])
            if graph.find(member) != rep:
                self.preds[member] = SparseBitmap()
        self.preds[rep] = merged

    def _repair_order(self, rep: int, push) -> None:
        """Re-establish order consistency around a collapsed node.

        The representative keeps its own order value, which may violate
        relations its inherited edges used to satisfy; re-inserting the
        violated edges restores the invariant and may expose (and
        collapse) further cycles.
        """
        graph = self.graph
        work = [rep]
        while work:
            node = graph.find(work.pop())
            changed = None
            for raw in list(graph.succ[node]):
                succ = graph.find(raw)
                if succ != node and not self.topo.consistent(node, succ):
                    result = self.topo.add_edge(
                        node,
                        succ,
                        successors=self._successors,
                        predecessors=self._predecessors,
                    )
                    if result is not None:
                        forward, backward = result
                        members = (forward & backward) | {node, succ}
                        changed = self.collapse_nodes(sorted(members), push)
                        self._merge_preds(members, changed)
                        push(changed)
                        break
            for raw in list(self.preds[node]):
                pred = graph.find(raw)
                if pred != node and not self.topo.consistent(pred, node):
                    result = self.topo.add_edge(
                        pred,
                        node,
                        successors=self._successors,
                        predecessors=self._predecessors,
                    )
                    if result is not None:
                        forward, backward = result
                        members = (forward & backward) | {pred, node}
                        changed = self.collapse_nodes(sorted(members), push)
                        self._merge_preds(members, changed)
                        push(changed)
                        break
            if changed is not None:
                work.append(changed)

    def _successors(self, node: int):
        graph = self.graph
        node = graph.find(node)
        return [graph.find(raw) for raw in graph.succ[node]]

    def _predecessors(self, node: int):
        graph = self.graph
        node = graph.find(node)
        return [
            pred
            for raw in self.preds[node]
            if (pred := graph.find(raw)) != node
        ]

    # ------------------------------------------------------------------
    # Driver: the Figure-1 loop with eager per-edge detection
    # ------------------------------------------------------------------

    def _run(self) -> PointsToSolution:
        graph = self.graph
        worklist = make_worklist(self.worklist_strategy)
        searched_before = self.topo.visited
        self._initialize_order(worklist.push)

        for node in graph.rep_nodes():
            if len(graph.pts_of(node)):
                worklist.push(node)

        while worklist:
            node = graph.find(worklist.pop())
            self.stats.iterations += 1
            if self.hcd_enabled:
                node = self.hcd_check(node, worklist.push)
            self.resolve_complex(node, worklist.push)
            self.propagate(node, worklist.push)

        self.stats.nodes_searched += self.topo.visited - searched_before
        return self._export_solution()

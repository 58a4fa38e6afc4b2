"""The online constraint graph.

One node per program variable; a directed edge ``b -> a`` for each simple
constraint ``a (superset) b``; complex constraints indexed by the variable
they dereference.  Nodes collapse through a union-find when a cycle is
found — the representative inherits the merged points-to set, successor
set and complex-constraint index.

Locations (the elements *inside* points-to sets) are variable ids of the
system being solved — compact ids after ``--opt ovs|hu``, which renumbers
the reduced system (see :func:`repro.preprocess.hvn.preprocess_system`).
Collapsing merges solver state, not memory locations, and the
function-block offset arithmetic of indirect calls must keep working on the
block layout, so set contents are never rewritten.  Graph-level lookups
normalize through :meth:`find`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.datastructs.union_find import UnionFind
from repro.points_to.interface import PointsToFamily, PointsToSet


class ConstraintGraph:
    """Mutable solver state shared by the explicit-closure algorithms."""

    def __init__(self, system: ConstraintSystem, family: PointsToFamily) -> None:
        self.system = system
        self.family = family
        n = system.num_vars
        self.uf = UnionFind(n)
        #: Adjacency sets share the family's scratch layout, so the
        #: ``int`` family iterates and merges them with the same
        #: word-parallel machinery as the points-to sets themselves.
        self._edge_set = family.make_scratch().__class__
        #: succ[u] holds v  <=>  edge u -> v  <=>  pts(v) >= pts(u).
        self.succ = [self._edge_set() for _ in range(n)]
        self.pts: List[PointsToSet] = [family.make() for _ in range(n)]
        #: loads[p]  = {(dst, k)}  for constraints  dst = *(p + k)
        self.loads: List[Set[Tuple[int, int]]] = [set() for _ in range(n)]
        #: stores[p] = {(src, k)}  for constraints  *(p + k) = src
        self.stores: List[Set[Tuple[int, int]]] = [set() for _ in range(n)]
        #: offs[p]   = {(dst, k)}  for constraints  dst = p + k  (field
        #: address / GEP form): each pointee v of p puts v+k into pts(dst).
        self.offs: List[Set[Tuple[int, int]]] = [set() for _ in range(n)]
        #: complex_done[p] — pointees already run through p's complex
        #: constraints (difference processing: a pointee is handled once
        #: per node, not once per worklist visit).  Allocated by the
        #: family so its ``fresh`` step can diff them against points-to
        #: sets in the representation's own layout.
        self.complex_done = [family.make_scratch() for _ in range(n)]
        #: Cross-resolution jobs created by collapses: when two nodes with
        #: different processed-pointee sets merge, each side's already-done
        #: pointees still owe a pass over the *other* side's constraints.
        #: Each job is (loads, stores, offs, locs).
        self.pending_complex: List[List[Tuple[Set, Set, Set, SparseBitmap]]] = [
            [] for _ in range(n)
        ]
        self._load_constraints(system)

    def _load_constraints(self, system: ConstraintSystem) -> None:
        for constraint in system.constraints:
            kind = constraint.kind
            if kind is ConstraintKind.BASE:
                self.pts[constraint.dst].add(constraint.src)
            elif kind is ConstraintKind.COPY:
                if constraint.src != constraint.dst:
                    self.succ[constraint.src].add(constraint.dst)
            elif kind is ConstraintKind.LOAD:
                self.loads[constraint.src].add((constraint.dst, constraint.offset))
            elif kind is ConstraintKind.STORE:
                self.stores[constraint.dst].add((constraint.src, constraint.offset))
            else:  # OFFS
                self.offs[constraint.src].add((constraint.dst, constraint.offset))

    # ------------------------------------------------------------------
    # Representatives
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.system.num_vars

    def find(self, node: int) -> int:
        return self.uf.find(node)

    def rep_nodes(self) -> Iterator[int]:
        """Iterate current representative nodes."""
        uf = self.uf
        for node in range(self.num_vars):
            if uf.find(node) == node:
                yield node

    def offset_target(self, loc: int, offset: int) -> Optional[int]:
        """Location reached by ``loc + offset``, or ``None`` if invalid.

        Offsets address function blocks: ``loc`` must be a function variable
        whose layout extends at least ``offset`` slots (Section 5.1's
        indirect-call scheme).  Offset 0 is always the location itself.
        """
        if offset == 0:
            return loc
        if self.system.max_offset[loc] >= offset:
            return loc + offset
        return None

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def add_edge(self, src: int, dst: int) -> bool:
        """Insert edge ``find(src) -> find(dst)``; report novelty.

        Self-edges (within a collapsed cycle) are dropped — propagation
        around a collapsed node is a no-op by construction.
        """
        src = self.uf.find(src)
        dst = self.uf.find(dst)
        if src == dst:
            return False
        return self.succ[src].add(dst)

    def successors(self, node: int) -> Iterator[int]:
        """Iterate normalized successors of ``find(node)`` (may repeat)."""
        uf = self.uf
        node = uf.find(node)
        for raw in self.succ[node]:
            succ = uf.find(raw)
            if succ != node:
                yield succ

    def pts_of(self, node: int) -> PointsToSet:
        return self.pts[self.uf.find(node)]

    # ------------------------------------------------------------------
    # Collapsing
    # ------------------------------------------------------------------

    def collapse(self, members: Iterator[int]) -> Tuple[int, int]:
        """Merge ``members`` into one node.

        Returns ``(representative, merged_count)`` where ``merged_count``
        is the number of formerly-distinct representatives that were fused
        (0 when the members already shared one representative).
        """
        uf = self.uf
        member_list = [uf.find(m) for m in members]
        if not member_list:
            raise ValueError("collapse of an empty member set")
        rep = member_list[0]
        merged = 0
        for member in member_list[1:]:
            member = uf.find(member)
            rep = uf.find(rep)
            if member == rep:
                continue
            uf.union_into(rep, member)
            merged += 1
            self.pts[rep].ior_and_test(self.pts[member])
            self.succ[rep].ior(self.succ[member])
            # Pointees processed on one side only still owe a pass over
            # the other side's exclusive constraints; emit precise
            # cross-resolution jobs instead of reprocessing everything.
            rep_done = self.complex_done[rep]
            mem_done = self.complex_done[member]
            mem_only_loads = self.loads[member] - self.loads[rep]
            mem_only_stores = self.stores[member] - self.stores[rep]
            mem_only_offs = self.offs[member] - self.offs[rep]
            if (mem_only_loads or mem_only_stores or mem_only_offs) and len(rep_done):
                locs = rep_done.copy()
                locs.difference_update(mem_done)
                if len(locs):
                    self.pending_complex[rep].append(
                        (mem_only_loads, mem_only_stores, mem_only_offs, locs)
                    )
            rep_only_loads = self.loads[rep] - self.loads[member]
            rep_only_stores = self.stores[rep] - self.stores[member]
            rep_only_offs = self.offs[rep] - self.offs[member]
            if (rep_only_loads or rep_only_stores or rep_only_offs) and len(mem_done):
                locs = mem_done.copy()
                locs.difference_update(rep_done)
                if len(locs):
                    self.pending_complex[rep].append(
                        (rep_only_loads, rep_only_stores, rep_only_offs, locs)
                    )
            rep_done.ior(mem_done)
            self.loads[rep] |= self.loads[member]
            self.stores[rep] |= self.stores[member]
            self.offs[rep] |= self.offs[member]
            self.pending_complex[rep].extend(self.pending_complex[member])
            # Release the loser's state: all lookups go through find().
            self.succ[member] = self._edge_set()
            self.pts[member] = self.family.make()
            self.loads[member] = set()
            self.stores[member] = set()
            self.offs[member] = set()
            self.complex_done[member] = self.family.make_scratch()
            self.pending_complex[member] = []
        if merged:
            self._normalize_succ(rep)
        return rep, merged

    def _normalize_succ(self, node: int) -> None:
        """Rewrite a successor set to representative ids, dropping loops."""
        uf = self.uf
        fresh = self._edge_set()
        for raw in self.succ[node]:
            succ = uf.find(raw)
            if succ != node:
                fresh.add(succ)
        self.succ[node] = fresh

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def graph_memory_bytes(self) -> int:
        """Footprint of the successor bitmaps (the constraint graph)."""
        return sum(self.succ[node].memory_bytes() for node in self.rep_nodes())


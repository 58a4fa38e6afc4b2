"""The Heintze & Tardieu solver (PLDI 2001), field-insensitive.

HT never materializes the transitive closure.  The constraint graph is
kept in *pre-transitive* form — only edges from simple constraints plus
the edges the complex constraints demand — and a variable's points-to set
is computed on demand by a **backward reachability query**::

    pts(n) = base(n)  U  union of pts(p) for every edge p -> n

Queries are memoized per *round*; a round walks every complex constraint,
queries the dereferenced variable, and adds the demanded edges.  When a
round adds nothing, the memo table reflects the complete graph and the
analysis is done.  The redundancy the paper describes ("it is impossible
to know whether a reachability query will encounter a newly-added
inclusion edge ... until after it completes") is exactly these re-queries.

Cycle detection comes for free: the query DFS is a Tarjan pass
(:func:`~repro.graph.scc.tarjan_scc` over the preds not yet resolved this
round), and every SCC it closes is collapsed before its points-to set is
computed — this is why HT searches only "the subset of the graph
necessary for resolving indirect constraints" (Section 5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.datastructs.union_find import UnionFind
from repro.graph.scc import tarjan_scc
from repro.points_to.interface import PointsToSet, make_family
from repro.solvers.base import BaseSolver


class HTSolver(BaseSolver):
    """Pre-transitive graph + cached reachability queries."""

    name = "ht"

    def __init__(self, system: ConstraintSystem, **options) -> None:
        super().__init__(system, **options)
        system = self.system  # the (possibly) offline-reduced system
        self.family = make_family(self.pts_kind, system.num_vars)
        n = system.num_vars
        self.uf = UnionFind(n)
        #: preds[a] holds b  <=>  edge b -> a  <=>  pts(a) >= pts(b)
        self.preds: List[SparseBitmap] = [SparseBitmap() for _ in range(n)]
        self.base: List[PointsToSet] = [self.family.make() for _ in range(n)]
        self._cache: Dict[int, PointsToSet] = {}
        self._loads: List[Tuple[int, int, int]] = []  # (dst, ptr, offset)
        self._stores: List[Tuple[int, int, int]] = []  # (src, ptr, offset)
        self._offs: List[Tuple[int, int, int]] = []  # (dst, src, offset)
        for constraint in system.constraints:
            kind = constraint.kind
            if kind is ConstraintKind.BASE:
                self.base[constraint.dst].add(constraint.src)
            elif kind is ConstraintKind.COPY:
                if constraint.src != constraint.dst:
                    self.preds[constraint.dst].add(constraint.src)
            elif kind is ConstraintKind.LOAD:
                self._loads.append((constraint.dst, constraint.src, constraint.offset))
            elif kind is ConstraintKind.STORE:
                self._stores.append((constraint.src, constraint.dst, constraint.offset))
            else:  # OFFS: resolved per round like the other complex forms
                self._offs.append((constraint.dst, constraint.src, constraint.offset))
        self._changed = False
        if self.hcd_offline is not None:
            for group in self.hcd_offline.direct_groups:
                self._collapse(group)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def _run(self) -> PointsToSolution:
        hcd_pairs = self.hcd_offline.pairs if self.hcd_offline is not None else {}

        while True:
            self.stats.iterations += 1
            self._changed = False
            self._cache.clear()

            for dst, ptr, offset in self._loads:
                pointees = self._pointees_of(ptr, hcd_pairs)
                target = self.uf.find(dst)
                for loc in pointees:
                    source = self._offset_target(loc, offset)
                    if source is None:
                        continue
                    if self.preds[target].add(self.uf.find(source)):
                        self.stats.edges_added += 1
                        self._changed = True

            for src, ptr, offset in self._stores:
                pointees = self._pointees_of(ptr, hcd_pairs)
                source = self.uf.find(src)
                for loc in pointees:
                    target = self._offset_target(loc, offset)
                    if target is None:
                        continue
                    if self.preds[self.uf.find(target)].add(source):
                        self.stats.edges_added += 1
                        self._changed = True

            for dst, src, offset in self._offs:
                # dst = src + k: shifted pointees enter dst as base facts.
                pointees = self._pointees_of(src, hcd_pairs)
                dst_base = self.base[self.uf.find(dst)]
                for loc in pointees:
                    target = self._offset_target(loc, offset)
                    if target is None:
                        continue
                    if dst_base.add(target):
                        self._changed = True

            if not self._changed:
                break

        # The last round changed nothing, so the memo table is consistent
        # with the final graph; materialize the remaining variables.
        mapping = {
            var: list(self._query(var)) for var in range(self.system.num_vars)
        }
        return PointsToSolution(
            mapping, self.system.num_vars, self.system.names,
            num_locs=self.system.num_vars,
        )

    def _pointees_of(self, ptr: int, hcd_pairs) -> List[int]:
        """Query pts(ptr), applying any HCD pairs registered for ``ptr``."""
        pointees = list(self._query(ptr))
        pairs = hcd_pairs.get(ptr)
        if pairs and pointees:
            for offset, partner in pairs:
                members = [partner]
                for loc in pointees:
                    target = self._offset_target(loc, offset)
                    if target is not None:
                        members.append(target)
                if len(members) > 1:
                    before = self.stats.nodes_collapsed
                    self._collapse(members)
                    if self.stats.nodes_collapsed > before:
                        self.stats.hcd_collapses += 1
                        self._changed = True
        return pointees

    def _offset_target(self, loc: int, offset: int) -> Optional[int]:
        if offset == 0:
            return loc
        if self.system.max_offset[loc] >= offset:
            return loc + offset
        return None

    # ------------------------------------------------------------------
    # Collapsing
    # ------------------------------------------------------------------

    def _collapse(self, members: List[int]) -> int:
        uf = self.uf
        rep = uf.find(members[0])
        merged_any = False
        for member in members[1:]:
            member = uf.find(member)
            rep = uf.find(rep)
            if member == rep:
                continue
            uf.union_into(rep, member)
            merged_any = True
            self.stats.nodes_collapsed += 1
            self.preds[rep].ior(self.preds[member])
            self.base[rep].ior_and_test(self.base[member])
            self.preds[member] = SparseBitmap()
            self.base[member] = self.family.make()
            # Mid-round memo entries for the losers are no longer keyed
            # correctly; drop them (the representative recomputes lazily).
            self._cache.pop(member, None)
        if merged_any:
            self.stats.cycles_collapsed += 1
            self._cache.pop(uf.find(rep), None)
        return uf.find(rep)

    # ------------------------------------------------------------------
    # The reachability query: Tarjan DFS over pred edges, memoized
    # ------------------------------------------------------------------

    def _query(self, node: int) -> PointsToSet:
        uf = self.uf
        cache = self._cache
        root = uf.find(node)
        cached = cache.get(root)
        if cached is not None:
            return cached

        def unresolved_preds(n: int) -> List[int]:
            self.stats.nodes_searched += 1  # once per node the search visits
            preds = [uf.find(pred) for pred in self.preds[n]]
            return [pred for pred in preds if pred not in cache]

        # Tarjan emits every component after the components its preds
        # fall in, so each one finishes with its external preds memoized.
        for component in tarjan_scc([root], unresolved_preds):
            self._finish_component(component)
        return cache[uf.find(root)]

    def _finish_component(self, component: List[int]) -> None:
        """Collapse a completed SCC and compute its points-to set."""
        uf = self.uf
        if len(component) >= 2:
            rep = self._collapse(component)
        else:
            rep = uf.find(component[0])
        member_set = {uf.find(m) for m in component}
        member_set.add(rep)
        pts = self.base[rep].copy()
        # External contributions, de-duplicated by representative.  Every
        # external pred finished before this SCC (Tarjan invariant), so its
        # points-to set is already memoized.
        seen_preds: Set[int] = set()
        for raw in list(self.preds[rep]):
            pred = uf.find(raw)
            if pred in member_set or pred in seen_preds:
                continue
            seen_preds.add(pred)
            cached = self._cache.get(pred)
            if cached is None:
                raise AssertionError(
                    f"HT query order violated: pred {pred} of {rep} not memoized"
                )
            self.stats.propagations += 1
            pts.ior_and_test(cached)
        self._cache[rep] = pts

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _account_memory(self) -> None:
        self.stats.pts_memory_bytes = self.family.memory_bytes()
        self.stats.graph_memory_bytes = sum(
            self.preds[node].memory_bytes()
            for node in range(self.system.num_vars)
            if self.uf.find(node) == node
        )

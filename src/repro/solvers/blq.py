"""The Berndl, Lhoták, Qian, Hendren & Umanee solver (PLDI 2003).

The entire analysis lives in BDD-land: the points-to relation ``P(x, o)``,
the constraint-graph edges ``E(x, y)`` and the complex-constraint tables
are all relations over interleaved finite domains, and one iteration is a
handful of relational products — propagation is performed "simultaneously
across all the edges using BDD operations", which is why BLQ needs no
cycle detection and why its memory footprint is a near-constant node pool.

This implementation is field-insensitive, handles indirect calls (unlike
the original, which relied on a pre-computed call graph), and uses the
*incrementalization* optimization of Berndl et al. Section 4.2: after the
first pass, only newly discovered points-to facts (``delta``) flow across
edges, and newly added edges ship the existing facts exactly once.

Composed with HCD (``blq+hcd``), the offline pair list drives explicit
variable unification: merged rows of ``P``/``E`` and the constraint tables
are rewritten onto the representative.  As the paper observes, collapsing
still costs real BDD work here, so HCD helps BLQ far less than the
graph-based solvers (≈1.1x).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.solution import PointsToSolution
from repro.bdd.domain import Domain, DomainAllocator
from repro.bdd.manager import FALSE, BDDManager
from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.datastructs.union_find import UnionFind
from repro.solvers.base import BaseSolver


class BLQSolver(BaseSolver):
    """BDD-relational inclusion constraint solver."""

    name = "blq"
    reads_pts = False

    #: Modelled bytes per BDD node, matching the BDD points-to family.
    BYTES_PER_NODE = 24

    def __init__(
        self, system: ConstraintSystem, interleave: bool = True, **options
    ) -> None:
        # Always BDD-based: ``pts`` is accepted for interface parity and
        # unused (``reads_pts``).
        super().__init__(system, **options)
        system = self.system  # the (possibly) offline-reduced system
        n = max(system.num_vars, 1)
        self._alloc = DomainAllocator(
            [("src", n), ("dst", n), ("obj", n)], interleave=interleave
        )
        self.manager: BDDManager = self._alloc.manager
        self.src: Domain = self._alloc["src"]
        self.dst: Domain = self._alloc["dst"]
        self.obj: Domain = self._alloc["obj"]
        self._src_levels = list(self.src.levels)
        self._dst_levels = list(self.dst.levels)
        self._obj_levels = list(self.obj.levels)
        self._dst_to_src = self.dst.replace_map(self.src)
        self._obj_to_src = self.obj.replace_map(self.src)
        self._obj_to_dst = self.obj.replace_map(self.dst)
        self._src_to_obj = self.src.replace_map(self.obj)
        self.uf = UnionFind(system.num_vars)

        self.points_to = FALSE  # P(src, obj)
        self.edges = FALSE  # E(src, dst)
        #: offset -> load relation  {(p, a) : a = *(p+k)}  over (src, dst)
        self._load_rel: Dict[int, int] = {}
        #: offset -> store relation {(p, b) : *(p+k) = b}  over (src, dst)
        self._store_rel: Dict[int, int] = {}
        #: offset -> offset-copy relation {(b, a) : a = b + k} over (src, dst)
        self._offs_rel: Dict[int, int] = {}
        self._build_relations(system)
        #: offset -> {(v, v+k)} over (obj, src) / (obj, dst), lazily built
        self._off_src: Dict[int, int] = {}
        self._off_dst: Dict[int, int] = {}
        #: every variable ever merged away by HCD unification; freshly
        #: derived edge rows must be renamed onto the representatives.
        self._merged_vars: Set[int] = set()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build_relations(self, system: ConstraintSystem) -> None:
        manager = self.manager
        for constraint in system.constraints:
            kind = constraint.kind
            if kind is ConstraintKind.BASE:
                row = manager.apply_and(
                    self.src.encode(constraint.dst), self.obj.encode(constraint.src)
                )
                self.points_to = manager.apply_or(self.points_to, row)
            elif kind is ConstraintKind.COPY:
                if constraint.src == constraint.dst:
                    continue
                row = manager.apply_and(
                    self.src.encode(constraint.src), self.dst.encode(constraint.dst)
                )
                self.edges = manager.apply_or(self.edges, row)
            elif kind is ConstraintKind.LOAD:
                row = manager.apply_and(
                    self.src.encode(constraint.src), self.dst.encode(constraint.dst)
                )
                rel = self._load_rel.get(constraint.offset, FALSE)
                self._load_rel[constraint.offset] = manager.apply_or(rel, row)
            elif kind is ConstraintKind.STORE:
                row = manager.apply_and(
                    self.src.encode(constraint.dst), self.dst.encode(constraint.src)
                )
                rel = self._store_rel.get(constraint.offset, FALSE)
                self._store_rel[constraint.offset] = manager.apply_or(rel, row)
            else:  # OFFS: dst = src + k, relation {(src, dst)} per offset
                row = manager.apply_and(
                    self.src.encode(constraint.src), self.dst.encode(constraint.dst)
                )
                rel = self._offs_rel.get(constraint.offset, FALSE)
                self._offs_rel[constraint.offset] = manager.apply_or(rel, row)

    def _offset_relation(self, offset: int, onto_src: bool) -> int:
        """The relation {(v, v+offset)} over (obj, src|dst), memoized."""
        cache = self._off_src if onto_src else self._off_dst
        rel = cache.get(offset)
        if rel is None:
            manager = self.manager
            target = self.src if onto_src else self.dst
            rel = FALSE
            for loc, max_off in enumerate(self.system.max_offset):
                if max_off >= offset:
                    row = manager.apply_and(
                        self.obj.encode(loc), target.encode(loc + offset)
                    )
                    rel = manager.apply_or(rel, row)
            cache[offset] = rel
        return rel

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def _run(self) -> PointsToSolution:
        manager = self.manager
        delta = self.points_to

        while True:
            self.stats.iterations += 1
            self._propagate_to_fixpoint(delta)
            delta = FALSE

            if self.hcd_enabled and self._apply_hcd_pairs():
                # Unification moved rows onto representatives; their merged
                # facts must flow along the representatives' edges, so the
                # next round re-propagates the full relation.
                delta = self.points_to

            # Offset copies contribute points-to facts directly.
            new_facts = manager.apply_diff(self._resolve_offs(), self.points_to)
            if new_facts != FALSE:
                self.points_to = manager.apply_or(self.points_to, new_facts)
                delta = manager.apply_or(delta, new_facts)

            new_edges = self._normalize_rows(self._resolve_complex())
            new_edges = manager.apply_diff(new_edges, self.edges)
            if new_edges == FALSE and delta == FALSE:
                break
            if new_edges != FALSE:
                self.edges = manager.apply_or(self.edges, new_edges)
                # Ship the existing facts across the new edges exactly once
                # (the incrementalization optimization).
                shipped = self._flow(new_edges, self.points_to)
                fresh = manager.apply_diff(shipped, self.points_to)
                self.points_to = manager.apply_or(self.points_to, fresh)
                delta = manager.apply_or(delta, fresh)

        return self._export_solution()

    def _propagate_to_fixpoint(self, delta: int) -> None:
        """Semi-naive closure: flow only new facts until none appear."""
        manager = self.manager
        while delta != FALSE:
            self.stats.propagations += 1
            flowed = self._flow(self.edges, delta)
            fresh = manager.apply_diff(flowed, self.points_to)
            self.points_to = manager.apply_or(self.points_to, fresh)
            delta = fresh

    def _flow(self, edges: int, facts: int) -> int:
        """One step of ``P(y,o) |= E(x,y) and P(x,o)``, result over (src,obj)."""
        manager = self.manager
        moved = manager.relprod(edges, facts, self._src_levels)  # (dst, obj)
        return manager.replace(moved, self._dst_to_src)

    def _resolve_complex(self) -> int:
        """Edges demanded by the load/store tables against current P."""
        manager = self.manager
        result = FALSE
        for offset, rel in self._load_rel.items():
            # a = *(p+k):  edge (v+k) -> a  for  (p,a) in L, (p,v) in P.
            joined = manager.relprod(rel, self.points_to, self._src_levels)
            # joined over (dst=a, obj=v)
            if offset == 0:
                new = manager.replace(joined, self._obj_to_src)  # (src=v, dst=a)
            else:
                off = self._offset_relation(offset, onto_src=True)
                new = manager.relprod(joined, off, self._obj_levels)  # (src, dst)
            result = manager.apply_or(result, new)
        for offset, rel in self._store_rel.items():
            # *(p+k) = b: edge b -> (v+k)  for  (p,b) in S, (p,v) in P.
            joined = manager.relprod(rel, self.points_to, self._src_levels)
            # joined over (dst=b, obj=v); move b into the src column first.
            moved = manager.replace(joined, self._dst_to_src)  # (src=b, obj=v)
            if offset == 0:
                new = manager.replace(moved, self._obj_to_dst)  # (src=b, dst=v)
            else:
                off = self._offset_relation(offset, onto_src=False)
                new = manager.relprod(moved, off, self._obj_levels)
            result = manager.apply_or(result, new)
        return result

    def _resolve_offs(self) -> int:
        """Points-to rows demanded by the offset-copy (GEP) relations.

        For ``a = b + k``: ``P(a, v+k)`` for every ``(b, v)`` in P with a
        valid shift.  Computed as two relprods and two order-preserving
        renames per offset.
        """
        manager = self.manager
        result = FALSE
        for offset, rel in self._offs_rel.items():
            # rel over (src=b, dst=a); join with P on src.
            joined = manager.relprod(rel, self.points_to, self._src_levels)
            # joined over (dst=a, obj=v); shift v by the offset relation
            # {(v, v+k)} over (obj, src): result (dst=a, src=v+k).
            off = self._offset_relation(offset, onto_src=True)
            shifted = manager.relprod(joined, off, self._obj_levels)
            # Move v+k into the obj column, then a into the src column.
            shifted = manager.replace(shifted, self._src_to_obj)
            rows = manager.replace(shifted, self._dst_to_src)
            result = manager.apply_or(result, rows)
        return result

    # ------------------------------------------------------------------
    # HCD composition: explicit unification in BDD-land
    # ------------------------------------------------------------------

    def _apply_hcd_pairs(self) -> bool:
        assert self.hcd_offline is not None
        changed = False
        groups: List[List[int]] = list(self.hcd_offline.direct_groups)
        for var, pairs in self.hcd_offline.pairs.items():
            pointees = self._pts_values(var)
            if not pointees:
                continue
            for offset, partner in pairs:
                members = [partner]
                for loc in pointees:
                    if offset == 0:
                        members.append(loc)
                    elif self.system.max_offset[loc] >= offset:
                        members.append(loc + offset)
                if len(members) > 1:
                    groups.append(members)
        for group in groups:
            if self._unify(group):
                changed = True
        return changed

    def _unify(self, members: List[int]) -> bool:
        uf = self.uf
        rep = uf.find(members[0])
        losers: Set[int] = set()
        for member in members[1:]:
            member = uf.find(member)
            rep = uf.find(rep)
            if member == rep:
                continue
            uf.union_into(rep, member)
            losers.add(member)
            self.stats.nodes_collapsed += 1
        if not losers:
            return False
        self.stats.hcd_collapses += 1
        rep = uf.find(rep)
        manager = self.manager
        src_losers = self.src.set_of(losers)
        dst_losers = self.dst.set_of(losers)
        src_rep = self.src.encode(rep)
        dst_rep = self.dst.encode(rep)

        def rewrite_src(rel: int) -> int:
            hit = manager.apply_and(rel, src_losers)
            if hit == FALSE:
                return rel
            rest = manager.apply_diff(rel, src_losers)
            moved = manager.apply_and(manager.exist(hit, self._src_levels), src_rep)
            return manager.apply_or(rest, moved)

        def rewrite_dst(rel: int) -> int:
            hit = manager.apply_and(rel, dst_losers)
            if hit == FALSE:
                return rel
            rest = manager.apply_diff(rel, dst_losers)
            moved = manager.apply_and(manager.exist(hit, self._dst_levels), dst_rep)
            return manager.apply_or(rest, moved)

        self.points_to = rewrite_src(self.points_to)
        self.edges = rewrite_dst(rewrite_src(self.edges))
        self._load_rel = {
            k: rewrite_dst(rewrite_src(rel)) for k, rel in self._load_rel.items()
        }
        self._store_rel = {
            k: rewrite_dst(rewrite_src(rel)) for k, rel in self._store_rel.items()
        }
        self._offs_rel = {
            k: rewrite_dst(rewrite_src(rel)) for k, rel in self._offs_rel.items()
        }
        self._merged_vars |= losers
        return True

    def _normalize_rows(self, rel: int) -> int:
        """Rename any merged-away variable in an edge relation to its rep.

        Freshly derived edges name pointees by their original location id
        (points-to set contents are never rewritten), so an edge endpoint
        may be a variable that HCD unified away.
        """
        if not self._merged_vars:
            return rel
        manager = self.manager
        by_rep: Dict[int, List[int]] = {}
        for var in self._merged_vars:
            by_rep.setdefault(self.uf.find(var), []).append(var)
        for rep, losers in by_rep.items():
            src_losers = self.src.set_of(losers)
            hit = manager.apply_and(rel, src_losers)
            if hit != FALSE:
                rel = manager.apply_or(
                    manager.apply_diff(rel, src_losers),
                    manager.apply_and(
                        manager.exist(hit, self._src_levels), self.src.encode(rep)
                    ),
                )
            dst_losers = self.dst.set_of(losers)
            hit = manager.apply_and(rel, dst_losers)
            if hit != FALSE:
                rel = manager.apply_or(
                    manager.apply_diff(rel, dst_losers),
                    manager.apply_and(
                        manager.exist(hit, self._dst_levels), self.dst.encode(rep)
                    ),
                )
        return rel

    # ------------------------------------------------------------------
    # Export and accounting
    # ------------------------------------------------------------------

    def _pts_values(self, var: int) -> List[int]:
        manager = self.manager
        row = manager.apply_and(self.points_to, self.src.encode(self.uf.find(var)))
        if row == FALSE:
            return []
        projected = manager.exist(row, self._src_levels)
        return list(self.obj.values(projected))

    def _export_solution(self) -> PointsToSolution:
        mapping = {
            var: self._pts_values(var) for var in range(self.system.num_vars)
        }
        return PointsToSolution(
            mapping, self.system.num_vars, self.system.names,
            num_locs=self.system.num_vars,
        )

    def _account_memory(self) -> None:
        # BLQ's footprint is the BDD pool: every node the manager ever made.
        self.stats.pts_memory_bytes = self.manager.node_count * self.BYTES_PER_NODE
        self.stats.graph_memory_bytes = 0

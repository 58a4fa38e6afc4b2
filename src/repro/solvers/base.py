"""Solver interface, statistics, and the shared HCD online machinery.

Section 5.3 of the paper explains the algorithms' relative performance
through three machine-independent counters, all tracked here:

- **nodes collapsed** — variables merged away by cycle collapsing;
- **nodes searched** — nodes visited by cycle-detection graph traversals
  (pure overhead; HCD's headline property is that this is zero);
- **propagations** — points-to set unions performed across constraint
  edges (the most expensive operation in the analysis).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintSystem
from repro.contexts.manager import ContextExpansion, CtxStats, expand_contexts
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.graph.constraint_graph import ConstraintGraph
from repro.points_to.interface import PointsToFamily, make_family
from repro.preprocess.hcd_offline import HCDOfflineResult, hcd_offline_analysis
from repro.preprocess.hvn import PreprocessResult, preprocess_system
from repro.verify.sanitizer import Sanitizer, VerifyStats


_NO_LOCATIONS: FrozenSet[int] = frozenset()


@dataclass
class OptStats:
    """Counters for the offline optimization stage (``--opt``).

    ``vars_merged`` counts the original variables with no node of their
    own after the stage: ``num_vars`` minus the size of the stage's
    compact id space (variables substituted by a pointer-equivalent
    representative, and variables no reduced constraint can reach).
    ``locations_merged`` counts the locations folded into a
    location-equivalence class.  Both are undone at export time through
    the stage's substitution map, so they are pure node-count savings.
    """

    stage: str = "none"
    passes: int = 0
    vars_merged: int = 0
    locations_merged: int = 0
    constraints_deleted: int = 0
    offline_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "passes": self.passes,
            "vars_merged": self.vars_merged,
            "locations_merged": self.locations_merged,
            "constraints_deleted": self.constraints_deleted,
            "offline_seconds": self.offline_seconds,
        }


@dataclass
class SolverStats:
    """Counters and timings for one solver run."""

    propagations: int = 0
    nodes_searched: int = 0
    nodes_collapsed: int = 0
    cycles_collapsed: int = 0
    edges_added: int = 0
    lcd_triggers: int = 0
    hcd_collapses: int = 0
    iterations: int = 0
    hcd_offline_seconds: float = 0.0
    solve_seconds: float = 0.0
    pts_memory_bytes: int = 0
    graph_memory_bytes: int = 0
    #: Filled in by runs with the invariant sanitizer installed.
    verify: Optional[VerifyStats] = None
    #: Filled in by runs with an offline optimization stage (--opt).
    opt: Optional[OptStats] = None
    #: Filled in by context-sensitive runs (--k-cs > 0).
    ctx: Optional[CtxStats] = None

    @property
    def total_memory_bytes(self) -> int:
        return self.pts_memory_bytes + self.graph_memory_bytes

    def as_dict(self) -> Dict[str, float]:
        data = {
            "propagations": self.propagations,
            "nodes_searched": self.nodes_searched,
            "nodes_collapsed": self.nodes_collapsed,
            "cycles_collapsed": self.cycles_collapsed,
            "edges_added": self.edges_added,
            "lcd_triggers": self.lcd_triggers,
            "hcd_collapses": self.hcd_collapses,
            "iterations": self.iterations,
            "hcd_offline_seconds": self.hcd_offline_seconds,
            "solve_seconds": self.solve_seconds,
            "pts_memory_bytes": self.pts_memory_bytes,
            "graph_memory_bytes": self.graph_memory_bytes,
        }
        if self.verify is not None:
            for key, value in self.verify.as_dict().items():
                data[f"verify_{key}"] = value
        if self.opt is not None:
            for key, value in self.opt.as_dict().items():
                data[f"opt_{key}"] = value
        if self.ctx is not None:
            for key, value in self.ctx.as_dict().items():
                data[f"ctx_{key}"] = value
        return data


class BaseSolver:
    """Common solver shell: naming, timing, stats, solution export.

    The only place a run's options and their defaults are declared;
    subclasses take their own extra options and forward the rest here.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Whether the ``pts`` family shapes the run; solvers that keep their
    #: own representation set it False, and ``repro verify --pts all``
    #: then runs them once.
    reads_pts = True

    def __init__(
        self,
        system: ConstraintSystem,
        pts: str = "bitmap",
        hcd: bool = False,
        sanitize: bool = False,
        opt: str = "none",
        k_cs: int = 0,
    ) -> None:
        """Run the offline pipeline on ``system``; solving waits for :meth:`solve`.

        ``pts`` names the points-to family (:data:`repro.points_to
        .interface.FAMILY_KINDS`) and ``hcd`` composes Hybrid Cycle
        Detection's offline pass with the solver.  ``sanitize`` installs
        the :mod:`repro.verify.sanitizer` invariant checks at the
        solver's collapse/propagate boundaries.  ``k_cs`` selects k-CFA
        context sensitivity (:mod:`repro.contexts`): the system is cloned
        per bounded call string, and the solution is projected back onto
        the base variables.  ``opt`` selects the offline optimization
        stage (:data:`repro.preprocess.hvn.OPT_STAGES`) run on the
        (cloned) constraints; solutions are expanded back to the
        original variable space.  Solvers built on one system object
        share its offline stages
        (:meth:`~repro.constraints.model.ConstraintSystem.derived`).
        """
        self.preprocess: Optional[PreprocessResult] = None
        self.context: Optional[ContextExpansion] = None
        self.stats = SolverStats()
        if k_cs:
            # Context expansion runs before *everything* else in the
            # offline pipeline: the opt stage and HCD's offline pass analyze the
            # cloned constraint system the solver will actually solve.
            context = expand_contexts(system, k_cs)
            self.context = context
            system = context.expanded
            self.stats.ctx = context.stats
        if opt != "none":
            # The offline pipeline stage runs before *everything* —
            # including HCD's offline pass, which should analyze the
            # constraints the solver will actually see.
            pre = preprocess_system(system, opt)
            self.preprocess = pre
            system = pre.reduced
            self.stats.opt = OptStats(
                stage=pre.stage,
                passes=pre.passes,
                vars_merged=pre.merged_count(),
                locations_merged=pre.locations_merged(),
                constraints_deleted=pre.constraints_deleted(),
                offline_seconds=pre.offline_seconds,
            )
        self.system = system
        self.pts_kind = pts
        self.hcd_enabled = hcd
        #: Invariant checks at collapse/propagate boundaries (--sanitize).
        self.sanitizer: Optional[Sanitizer] = Sanitizer(self) if sanitize else None
        self._solution: Optional[PointsToSolution] = None
        self._context_solution: Optional[PointsToSolution] = None
        self.hcd_offline: Optional[HCDOfflineResult] = None
        if hcd:
            self.hcd_offline = hcd_offline_analysis(system)
            self.stats.hcd_offline_seconds = self.hcd_offline.offline_seconds

    def solve(self) -> PointsToSolution:
        """Run the analysis (idempotent) and return the solution.

        When an offline stage substituted variables away (and renumbered
        the rest into a compact id space), the reduced solution is
        expanded back to the original variable space here —
        every subclass and every consumer sees original-space solutions.
        At ``k_cs > 0`` the clone-space solution is additionally
        projected onto the base variables (per-variable union over its
        context instances); :meth:`context_solution` keeps the
        unprojected form for the certifier.
        """
        if self._solution is None:
            start = time.perf_counter()
            solution = self._run()
            if self.preprocess is not None:
                solution = self.preprocess.expand(solution)
            self._context_solution = solution
            if self.context is not None:
                solution = self.context.project(solution)
            self._solution = solution
            self.stats.solve_seconds = time.perf_counter() - start
            if self.sanitizer is not None:
                self.sanitizer.final_check()
            self._account_memory()
        return self._solution

    def context_solution(self) -> PointsToSolution:
        """The pre-projection (clone-space) solution.

        Identical to :meth:`solve` at ``k_cs == 0``.  At ``k_cs > 0``
        this is the solution of ``self.context.expanded`` — the system a
        certifier must check, since the projected base-space solution
        deliberately violates the original constraints (that violation
        is the precision win).
        """
        self.solve()
        return self._context_solution

    def _run(self) -> PointsToSolution:
        raise NotImplementedError

    def _account_memory(self) -> None:
        """Subclasses fill in ``pts_memory_bytes`` / ``graph_memory_bytes``."""

    @property
    def full_name(self) -> str:
        return f"{self.name}+hcd" if self.hcd_enabled else self.name


class GraphSolver(BaseSolver):
    """Base for the explicit constraint-graph solvers (naive/PKH/LCD/HCD).

    Owns the :class:`ConstraintGraph`, the points-to family, and the
    shared pieces of the worklist algorithms: complex-constraint
    resolution, propagation along edges, cycle collapsing, and the HCD
    pair lookup of Figure 5.
    """

    def __init__(
        self, system: ConstraintSystem, worklist: str = "divided-lrf", **options
    ) -> None:
        super().__init__(system, **options)
        system = self.system  # the (possibly) offline-reduced system
        self.worklist_strategy = worklist
        self.family: PointsToFamily = make_family(self.pts_kind, system.num_vars)
        self.graph = ConstraintGraph(system, self.family)
        #: HCD pair list L, keyed by current representative.
        self._hcd_pairs: Dict[int, List[Tuple[int, int]]] = {}
        #: Pointees already collapsed through a node's pairs (difference
        #: processing, mirroring ConstraintGraph.complex_done).
        self._hcd_done: Dict[int, "SparseBitmap"] = {}
        if self.hcd_offline is not None:
            for var, pairs in self.hcd_offline.pairs.items():
                self._hcd_pairs.setdefault(var, []).extend(pairs)
            # Copy-only offline SCCs collapse before solving starts.
            for group in self.hcd_offline.direct_groups:
                self.collapse_nodes(group)

    # ------------------------------------------------------------------
    # Collapsing
    # ------------------------------------------------------------------

    def collapse_nodes(self, members: Iterable[int], push=None) -> int:
        """Collapse ``members`` into one node, keeping stats and the HCD
        pair table coherent.  Returns the representative.

        ``push`` re-queues the representative when the merge left
        cross-resolution jobs behind (see
        :attr:`ConstraintGraph.pending_complex`); callers inside the
        solving loop must supply it.
        """
        member_list = list(members)
        old_reps = {self.graph.find(m) for m in member_list}
        rep, merged = self.graph.collapse(member_list)
        if merged:
            if self.sanitizer is not None:
                self.sanitizer.after_collapse(rep, member_list, old_reps)
            self.stats.nodes_collapsed += merged
            self.stats.cycles_collapsed += 1
            for old in old_reps:
                if old != rep and old in self._hcd_pairs:
                    self._hcd_pairs.setdefault(rep, []).extend(
                        self._hcd_pairs.pop(old)
                    )
                    # The pair list changed: pointees must be re-examined
                    # against the newly acquired pairs.
                    self._hcd_done.pop(rep, None)
                if old != rep:
                    self._hcd_done.pop(old, None)
            if self.graph.pending_complex[rep]:
                if push is not None:
                    push(rep)
        return rep

    # ------------------------------------------------------------------
    # The Figure 5 check: preemptive collapse via the pair list L
    # ------------------------------------------------------------------

    def hcd_check(self, node: int, push) -> int:
        """If ``(node, a)`` is in L, collapse a's partners with pts(node).

        ``push`` is the worklist-insert callback; returns the (possibly
        new) representative of ``node``.
        """
        pairs = self._hcd_pairs.get(node)
        if not pairs:
            return node
        graph = self.graph
        done = self._hcd_done.get(node)
        if done is None:
            done = self._hcd_done[node] = self.family.make_scratch()
        fresh = self.family.fresh(graph.pts_of(node), done)
        if not fresh:
            return node
        locs = list(fresh)
        for offset, partner in list(pairs):
            targets = []
            for loc in locs:
                target = graph.offset_target(loc, offset)
                if target is not None:
                    targets.append(target)
            if not targets:
                continue
            before = self.stats.nodes_collapsed
            rep = self.collapse_nodes([partner, *targets], push)
            if self.stats.nodes_collapsed > before:
                # Something actually merged: the representative's state
                # changed, so it must be reprocessed (Figure 5 pushes a).
                self.stats.hcd_collapses += 1
                push(rep)
        node = graph.find(node)
        if self._hcd_pairs.get(node) is pairs:
            # Same pair list: these pointees are fully handled.  (If the
            # collapse merged pair lists, the done-set was dropped and the
            # pointees will be re-examined against the acquired pairs.)
            done = self._hcd_done.get(node)
            if done is None:
                done = self._hcd_done[node] = self.family.make_scratch()
            done.ior(fresh)
        return node

    # ------------------------------------------------------------------
    # Complex-constraint resolution (step 1 of the Figure 1 loop body)
    # ------------------------------------------------------------------

    def resolve_complex(self, node: int, push) -> None:
        """Add edges demanded by the complex constraints indexed at ``node``.

        For each pointee ``v`` of ``node``: loads ``dst = *(node+k)`` add
        ``v+k -> dst`` and queue ``v+k``; stores ``*(node+k) = src`` add
        ``src -> v+k`` and queue ``src`` (the new edge's source must
        propagate).
        """
        graph = self.graph
        pending = graph.pending_complex[node]
        if pending:
            graph.pending_complex[node] = []
            for loads, stores, offs, locs in pending:
                self._apply_complex(loads, stores, offs, list(locs), push)
        loads = graph.loads[node]
        stores = graph.stores[node]
        offs = graph.offs[node]
        if not loads and not stores and not offs:
            return
        done = graph.complex_done[node]
        fresh = self.family.fresh(graph.pts_of(node), done)
        if not fresh:
            return
        done.ior(fresh)
        self._apply_complex(loads, stores, offs, list(fresh), push)

    def _apply_complex(self, loads, stores, offs, locs: List[int], push) -> None:
        """Apply the complex constraints in ``loads``/``stores``/``offs``
        to the pointees ``locs``: add demanded edges, and for the
        offset-copy form feed shifted locations straight into the
        destination's points-to set, one propagation per location."""
        graph = self.graph
        find = graph.find
        succ = graph.succ
        max_offset = graph.system.max_offset
        edges_added = 0
        for dst, offset in loads:
            dst_rep = find(dst)
            for loc in locs:
                if offset:
                    if max_offset[loc] < offset:
                        continue
                    source = find(loc + offset)
                else:
                    source = find(loc)
                if source != dst_rep and succ[source].add(dst_rep):
                    edges_added += 1
                    push(source)
        for src, offset in stores:
            src_rep = find(src)
            for loc in locs:
                if offset:
                    if max_offset[loc] < offset:
                        continue
                    target = find(loc + offset)
                else:
                    target = find(loc)
                if target != src_rep and succ[src_rep].add(target):
                    edges_added += 1
                    push(src_rep)
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
        self.stats.edges_added += edges_added

    # ------------------------------------------------------------------
    # Propagation (step 2 of the Figure 1 loop body)
    # ------------------------------------------------------------------

    def propagate(self, node: int, push) -> None:
        """Propagate pts(node) to every successor; queue the changed ones."""
        graph = self.graph
        if self.sanitizer is not None:
            self.sanitizer.check_monotone(node)
            for succ in list(graph.successors(node)):
                self.sanitizer.check_monotone(succ)
        find = graph.uf.find
        pts_list = graph.pts
        stats = self.stats
        node = find(node)
        pts = pts_list[node]
        for raw in list(graph.succ[node]):
            succ = find(raw)
            if succ == node:
                continue
            stats.propagations += 1
            if pts_list[succ].ior_and_test(pts):
                push(succ)

    # ------------------------------------------------------------------
    # Solution export and accounting
    # ------------------------------------------------------------------

    def _export_solution(self) -> PointsToSolution:
        graph = self.graph
        num_vars = self.system.num_vars
        # Collapsed variables share their representative's set object, and
        # int sets are keyed by value: decode each distinct set once and
        # give every variable holding it the same frozenset, so the
        # solution, its expansion and the output renderers all see the
        # sharing.
        fused = self.family.fused_kernel
        decoded: Dict[int, FrozenSet[int]] = {}
        mapping: Dict[int, FrozenSet[int]] = {}
        for var in range(num_vars):
            pts = graph.pts_of(var)
            key = pts.bits if fused else id(pts)
            locs = decoded.get(key)
            if locs is None:
                # Most variables of a reduced system point nowhere: one
                # shared empty set spares a frozenset per such variable.
                locs = decoded[key] = frozenset(pts) or _NO_LOCATIONS
            mapping[var] = locs
        return PointsToSolution(
            mapping, num_vars, self.system.names, num_locs=num_vars
        )

    def _account_memory(self) -> None:
        self.stats.pts_memory_bytes = self.family.memory_bytes()
        self.stats.graph_memory_bytes = self.graph.graph_memory_bytes()

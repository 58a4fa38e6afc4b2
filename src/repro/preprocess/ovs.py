"""Offline Variable Substitution (Rountev & Chandra, PLDI 2000).

The paper pre-processes every constraint file with "a variant of Offline
Variable Substitution, which reduces the number of constraints by 60-77%"
before any solver runs.  OVS finds *pointer-equivalent* variables — ones
whose points-to sets are provably identical without solving — and rewrites
the constraint system so one representative stands in for each equivalence
class.

We implement the label-propagation variant with HU labeling (Hardekopf &
Lin, SAS 2007): a node's label set is the *union* of its predecessors'
label sets, which symbolically evaluates the points-to sets:

1. Build an offline flow graph: copy edges ``src -> dst``; each load
   ``dst = *(p+k)`` contributes an edge from an opaque *ref node* for
   ``(p, k)``.  Store constraints write through pointers and therefore
   never influence a variable's *own* flow — their effect is captured by
   rule 3 below.
2. Condense copy cycles (Tarjan) — members of a copy SCC trivially have
   equal points-to sets.
3. Walk the condensation in topological order assigning each node a
   *label set*: the union of its predecessors' label sets, plus an
   interned location label per base constraint ``a = &b`` (so ``p = &x``
   and ``q = &x`` match), plus a **fresh** label when the node's set can be
   mutated through channels the offline graph cannot see — ref nodes
   (unknown pointees), address-taken variables (indirect stores), and
   function-block nodes (parameter passing through function pointers).
4. Variables with identical label sets are pointer-equivalent.  An empty
   label set proves an always-empty points-to set; constraints whose flow
   source is such a variable are deleted outright.

Merging never renumbers: the reduced system keeps the original variable
universe, and ids that occur as *locations* (base sources, function
blocks) are never merged away, so offset arithmetic and points-to set
contents remain valid.  :meth:`OVSResult.expand` maps a solution of the
reduced system back onto all original variables.  The ``--opt ovs``
pipeline stage (:func:`repro.preprocess.hvn.preprocess_system`) then
renumbers the reduced system into its own compact id space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.constraints.model import Constraint, ConstraintKind, ConstraintSystem
from repro.graph.scc import tarjan_scc


@dataclass
class OVSResult:
    """Outcome of offline variable substitution."""

    original: ConstraintSystem
    reduced: ConstraintSystem
    var_to_rep: List[int]
    offline_seconds: float

    @property
    def reduction_ratio(self) -> float:
        """Fraction of constraints eliminated (paper reports 0.60-0.77)."""
        before = len(self.original)
        if before == 0:
            return 0.0
        return 1.0 - len(self.reduced) / before

    def merged_count(self) -> int:
        """Number of variables substituted away."""
        return sum(1 for var, rep in enumerate(self.var_to_rep) if rep != var)

    def expand(self, solution: "PointsToSolution") -> "PointsToSolution":
        """Map a solution of the reduced system back to all variables."""
        return solution.expand(self.var_to_rep)


def offline_variable_substitution(system: ConstraintSystem) -> OVSResult:
    """Run OVS over ``system`` and return the reduced system + mapping."""
    start = time.perf_counter()
    num_vars = system.num_vars

    protected = _protected_vars(system)
    label_sets = _compute_label_sets(system, protected)
    var_to_rep = _merge_classes(num_vars, label_sets, protected)
    reduced_constraints = _rewrite_constraints(system, var_to_rep, label_sets)

    reduced = system.with_constraints(reduced_constraints)
    elapsed = time.perf_counter() - start
    return OVSResult(system, reduced, var_to_rep, elapsed)


# ----------------------------------------------------------------------
# Pass 1: which variables may never be merged away
# ----------------------------------------------------------------------


def _protected_vars(system: ConstraintSystem) -> Set[int]:
    """Variables that can be written through location channels.

    Address-taken variables receive flow from indirect stores and
    function-block nodes from offset stores; merging them away would
    disconnect that flow from their representative.
    """
    protected: Set[int] = set(system.address_taken())
    for info in system.functions.values():
        protected.update(range(info.node, info.node + info.block_size))
    for block in system.object_blocks.values():
        protected.update(range(block.node, block.node + block.block_size))
    return protected


# ----------------------------------------------------------------------
# Pass 2: label propagation over the offline flow graph
# ----------------------------------------------------------------------


def _compute_label_sets(
    system: ConstraintSystem, protected: Set[int]
) -> List[FrozenSet[int]]:
    num_vars = system.num_vars
    ref_ids: Dict[Tuple[str, int, int], int] = {}

    def ref_node(kind: str, var: int, offset: int) -> int:
        key = (kind, var, offset)
        node = ref_ids.get(key)
        if node is None:
            node = num_vars + len(ref_ids)
            ref_ids[key] = node
        return node

    preds: Dict[int, List[int]] = {}
    succs: Dict[int, List[int]] = {}
    base_locs: Dict[int, List[int]] = {}

    def add_edge(src: int, dst: int) -> None:
        preds.setdefault(dst, []).append(src)
        succs.setdefault(src, []).append(dst)

    for constraint in system.constraints:
        kind = constraint.kind
        if kind is ConstraintKind.COPY:
            if constraint.src != constraint.dst:
                add_edge(constraint.src, constraint.dst)
        elif kind is ConstraintKind.LOAD:
            add_edge(
                ref_node("load", constraint.src, constraint.offset), constraint.dst
            )
        elif kind is ConstraintKind.OFFS:
            # A shifted copy: the destination's set is pts(src)+k, which
            # is opaque to the label calculus — model it as a ref node so
            # it never falsely matches another variable's labels.
            add_edge(
                ref_node("offs", constraint.src, constraint.offset), constraint.dst
            )
        elif kind is ConstraintKind.BASE:
            base_locs.setdefault(constraint.dst, []).append(constraint.src)
        # STORE constraints do not feed the offline flow graph.

    node_count = num_vars + len(ref_ids)

    def successors(node: int) -> Sequence[int]:
        return succs.get(node, ())

    # Tarjan emits components sinks-first; label propagation wants
    # sources-first, i.e. the reverse.
    components = tarjan_scc(range(node_count), successors)

    fresh_counter = [0]
    # Location labels share a space with fresh labels: locations are
    # non-negative ids offset by node_count, fresh labels count downward.
    def fresh_label() -> int:
        fresh_counter[0] -= 1
        return fresh_counter[0]

    intern: Dict[FrozenSet, FrozenSet] = {}

    def interned(labels: FrozenSet) -> FrozenSet:
        return intern.setdefault(labels, labels)

    label_of: List[FrozenSet] = [frozenset()] * node_count
    for component in reversed(components):
        member_set = set(component)
        labels: Set = set()
        pred_sets: Set[FrozenSet] = set()
        for member in component:
            for pred in preds.get(member, ()):
                if pred not in member_set:
                    pred_sets.add(label_of[pred])
            for loc in base_locs.get(member, ()):
                labels.add(loc)  # interned location label: the loc id itself
            if member >= num_vars or member in protected:
                labels.add(fresh_label())
        for pred_labels in pred_sets:
            labels.update(pred_labels)
        frozen = interned(frozenset(labels))
        for member in component:
            label_of[member] = frozen

    return label_of[:num_vars]


# ----------------------------------------------------------------------
# Pass 3: build equivalence classes
# ----------------------------------------------------------------------


def _merge_classes(
    num_vars: int,
    label_sets: Sequence[FrozenSet[int]],
    protected: Set[int],
) -> List[int]:
    var_to_rep = list(range(num_vars))
    class_rep: Dict[FrozenSet[int], int] = {}
    for var in range(num_vars):
        if var in protected:
            continue
        labels = label_sets[var]
        rep = class_rep.get(labels)
        if rep is None:
            class_rep[labels] = var
        else:
            var_to_rep[var] = rep
    return var_to_rep


# ----------------------------------------------------------------------
# Pass 4: rewrite the constraints
# ----------------------------------------------------------------------


def _rewrite_constraints(
    system: ConstraintSystem,
    var_to_rep: Sequence[int],
    label_sets: Sequence[FrozenSet[int]],
) -> List[Constraint]:
    reduced: List[Constraint] = []
    seen: Set[Tuple] = set()

    def emit(kind: ConstraintKind, dst: int, src: int, offset: int = 0) -> None:
        key = (kind, dst, src, offset)
        if key not in seen:
            seen.add(key)
            reduced.append(Constraint(kind, dst, src, offset))

    for constraint in system.constraints:
        kind = constraint.kind
        if kind is ConstraintKind.BASE:
            # The source is a location: never substituted.
            emit(kind, var_to_rep[constraint.dst], constraint.src)
        elif kind is ConstraintKind.COPY:
            if not label_sets[constraint.src]:
                continue  # provably-empty source: the copy can never act
            dst = var_to_rep[constraint.dst]
            src = var_to_rep[constraint.src]
            if dst != src:
                emit(kind, dst, src)
        elif kind is ConstraintKind.LOAD:
            if not label_sets[constraint.src]:
                continue  # pointer provably null: load never fires
            emit(
                kind,
                var_to_rep[constraint.dst],
                var_to_rep[constraint.src],
                constraint.offset,
            )
        elif kind is ConstraintKind.STORE:
            if not label_sets[constraint.dst]:
                continue  # pointer provably null: store never fires
            emit(
                kind,
                var_to_rep[constraint.dst],
                var_to_rep[constraint.src],
                constraint.offset,
            )
        else:  # OFFS
            if not label_sets[constraint.src]:
                continue  # source provably empty: nothing to shift
            emit(
                kind,
                var_to_rep[constraint.dst],
                var_to_rep[constraint.src],
                constraint.offset,
            )

    return reduced


# Deferred import for the type used in OVSResult.expand's annotation.
from repro.analysis.solution import PointsToSolution  # noqa: E402

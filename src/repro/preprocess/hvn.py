"""The offline optimization stages: OVS and HU (Hardekopf & Lin, SAS 2007).

The paper solves every benchmark after "a variant of Offline Variable
Substitution" (OVS; Rountev & Chandra, PLDI 2000), which "reduces the
number of constraints by 60-77%" before any solver runs.  Its companion
paper ("Exploiting Pointer and Location Equivalence to Optimize Pointer
Analysis") shrinks the online constraint graph a further 30-60% with
**HU**, which labels every node of an offline constraint graph with a
label set and symbolically evaluates the label *unions*: nodes with equal
label sets are pointer-equivalent (provably identical points-to sets) and
collapse to one online node.  Evaluating unions proves more than hashing
them would (``c ⊇ a, b`` with ``pts(a) ⊆ pts(b)`` still matches a plain
copy of ``b``), and an empty label set proves a provably-empty pointer
whose constraints are deleted outright.  Both stages share that one label
pass (:func:`_label_pass`), one rewrite and one result type: ``ovs`` is
HU's first round without location equivalence.

The offline graph distinguishes **direct** nodes (top-level variables,
whose points-to sets are fully described by their incoming copy edges)
from **indirect** ones — *ref* nodes standing for the unknown result of
a dereference ``*(p+k)``, and address-taken variables writable through
pointers.  Indirect nodes receive a *fresh* label (an opaque unknown);
``p = &x`` contributes an interned ADR label per location so ``p = &x``
and ``q = &x`` match.  Labels propagate over the Tarjan-condensed graph
in topological order.  Every label bit denotes a fixed set of locations
(an ADR bit denotes that location; a fresh bit denotes the node's
unknown inflow), and a node's points-to set in the least model is
exactly the union of its bits' denotations — so equal label sets prove
equal points-to sets.  Store constraints deliberately contribute *no*
edges: an edge ``src → *(p+k)`` would assert ``pts(src)`` flows through
the ref, which is false when ``pts(p)`` is empty, and the ref's fresh
label already accounts for whatever stores actually deliver.

HU adds two refinements that close the lattice, both realized by
**iterating reduce-and-rewrite to a fixpoint** rather than by threading
extra state through one pass:

- **Ref-node unification** (the paper's "HR" iteration): once ``p ≡ q``
  is proven and the system rewritten, ``*(p+k)`` and ``*(q+k)`` name the
  same variable and offset, so the next pass keys them to the same ref
  node and can merge their load targets too.
- **Location equivalence**: locations that provably occur in exactly
  the same points-to sets (equal ADR-use label sets, never written
  directly, not part of any function/object block) are merged so every
  downstream points-to set stores one id per class.  Merged locations
  narrow each online set *and* delete whole nodes; after the rewrite
  their ADR labels coincide, which cascades into further pointer
  merges.  The substitution map re-expands set contents at export time.

Each round is plain, independently-sound HU on the current system,
so soundness composes by induction; rounds after the first run on a
system ~10x smaller, so the fixpoint costs little more than one pass.

Label sets are Python bignums (one bit per label), like the ``int``
points-to family's sets: unions are single ``|`` expressions and
interning a label set is one dict probe, which keeps the offline passes
cheap enough that HU pays for itself even on small inputs.

Everything is exposed as a composable pipeline stage: see
:func:`preprocess_system` and :data:`OPT_STAGES` for the
``--opt none|ovs|hu`` chain the solvers and the CLI consume,
:func:`offline_variable_substitution` and :func:`hvn_reduce` for the two
stages, :func:`compact_system` for the renumbering that ends them, and
:class:`SubstitutionMap` for the contract that maps solutions of the
reduced system back onto the original variable space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import (
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    FunctionInfo,
    ObjectBlock,
)
from repro.graph.scc import tarjan_scc

#: The offline pipeline stages, weakest to strongest.  ``none`` feeds the
#: solver the raw constraints; ``ovs`` is offline variable substitution,
#: one label pass and rewrite without location equivalence
#: (:func:`offline_variable_substitution`); ``hu`` is the SAS 2007 stage,
#: iterated to a fixpoint with ref-node unification and location
#: equivalence (:func:`hvn_reduce`).
OPT_STAGES: Tuple[str, ...] = ("none", "ovs", "hu")

#: Fixpoint bound for the reduce-and-rewrite cascade.  Real constraint
#: systems converge in 3-4 rounds; the bound only guards against
#: pathological ping-ponging.
_MAX_ROUNDS = 8


# ----------------------------------------------------------------------
# The substitution-map contract
# ----------------------------------------------------------------------


@dataclass
class SubstitutionMap:
    """How to map a solution of the reduced system back to all variables.

    ``var_to_rep[v]`` names the representative whose points-to set stands
    in for ``v`` during solving (identity when ``v`` survived on its own).
    ``loc_members`` maps each merged *location* representative to the full
    tuple of original locations it stands for inside points-to sets; only
    classes with two or more members appear.  Both speak original ids.

    ``original_ids`` is set when the reduced system was renumbered into
    its own compact id space (:func:`preprocess_system` does this after
    ``ovs`` and ``hu``): ``original_ids[c]`` is the original id of
    compact id ``c``, ascending.  ``None`` means the reduced system keeps
    the original id space, as :func:`hvn_reduce` returns it.

    The contract: for the least model ``S`` of the original system and
    the least model ``R`` of the reduced system,
    ``S[v] = expand(R[compact(var_to_rep[v])])`` where ``expand`` maps
    each compact location to its original id and replaces each location
    representative with its class members.  Every consumer of an
    optimized run — ``repro verify``, the checkers, provenance — sees
    only the expanded solution, so nothing downstream knows or cares that
    a substitution happened.
    """

    var_to_rep: List[int]
    loc_members: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    original_ids: Optional[List[int]] = None

    def is_identity(self) -> bool:
        # original_ids is ascending, so it keeps every id only as the identity.
        return (
            not self.loc_members
            and (
                self.original_ids is None
                or len(self.original_ids) == len(self.var_to_rep)
            )
            and all(rep == var for var, rep in enumerate(self.var_to_rep))
        )

    def merged_var_count(self) -> int:
        """Variables whose online node was substituted away."""
        return sum(1 for var, rep in enumerate(self.var_to_rep) if rep != var)

    def merged_location_count(self) -> int:
        """Locations folded into a class representative."""
        return sum(len(members) - 1 for members in self.loc_members.values())

    def expand_solution(
        self, solution: PointsToSolution, names: Optional[Sequence[str]] = None
    ) -> PointsToSolution:
        """Expand a reduced-system solution to the original variables,
        named by ``names``."""
        return solution.expand(
            self.var_to_rep, self.loc_members or None, self.original_ids, names
        )

    @classmethod
    def identity(cls, num_vars: int) -> "SubstitutionMap":
        return cls(list(range(num_vars)))


@dataclass
class PreprocessResult:
    """Outcome of one offline pipeline stage.

    ``reduced`` is what the solvers see: after :func:`preprocess_system`
    runs ``ovs`` or ``hu`` it is renumbered into its own compact id
    space, and :meth:`expand` maps its solutions back onto ``original``.
    """

    stage: str
    original: ConstraintSystem
    reduced: ConstraintSystem
    substitution: SubstitutionMap
    offline_seconds: float
    passes: int = 1

    @property
    def reduction_ratio(self) -> float:
        """Fraction of constraints eliminated."""
        before = len(self.original)
        if before == 0:
            return 0.0
        return 1.0 - len(self.reduced) / before

    def merged_count(self) -> int:
        return self.substitution.merged_var_count()

    def locations_merged(self) -> int:
        return self.substitution.merged_location_count()

    def constraints_deleted(self) -> int:
        return len(self.original) - len(self.reduced)

    def expand(self, solution: PointsToSolution) -> PointsToSolution:
        """Map a solution of :attr:`reduced` onto :attr:`original`."""
        return self.substitution.expand_solution(solution, self.original.names)


# ----------------------------------------------------------------------
# Structural facts about one system (recomputed per round)
# ----------------------------------------------------------------------


class _Structure:
    """Round-invariant facts about the current constraint system."""

    def __init__(self, system: ConstraintSystem) -> None:
        num_vars = system.num_vars
        self.num_vars = num_vars
        #: Indirect variables: writable through channels the offline graph
        #: cannot see (indirect stores, offset stores into blocks).  They
        #: receive fresh labels and are never substituted away.
        self.protected: Set[int] = set(system.address_taken())
        #: Ids inside any function/object block: offset arithmetic
        #: addresses them relative to the block base, so neither their
        #: node nor their location identity may move.
        self.block_members: Set[int] = set()
        for info in system.functions.values():
            self.block_members.update(range(info.node, info.node + info.block_size))
        for block in system.object_blocks.values():
            self.block_members.update(range(block.node, block.node + block.block_size))
        self.protected |= self.block_members


# ----------------------------------------------------------------------
# One label-propagation pass
# ----------------------------------------------------------------------


def _label_pass(
    system: ConstraintSystem,
    structure: _Structure,
    armed_stores: Optional[Set[int]] = None,
) -> List[int]:
    """Compute one label bitset per variable of ``system``.

    Label bit space: ``[0, num_vars)`` are interned location labels (bit
    ``l`` is the ADR label of location ``l``), ``[num_vars, 2*num_vars)``
    are the fresh labels of indirect variables, and bits above that are
    ref-node fresh labels.

    ``armed_stores`` lists constraint indices of STOREs proven to fire
    (their pointer provably reaches a location the offset is valid for);
    those — and only those — contribute an edge into the target ref
    node, because only then is ``loadval(p,k) ⊇ pts(src)`` guaranteed
    and the ref's label still an exact union decomposition.
    """
    num_vars = structure.num_vars

    ref_ids: Dict[Tuple[str, int, int], int] = {}

    def ref_node(tag: str, var: int, offset: int) -> int:
        key = (tag, var, offset)
        node = ref_ids.get(key)
        if node is None:
            node = num_vars + len(ref_ids)
            ref_ids[key] = node
        return node

    preds: Dict[int, List[int]] = {}
    succs: Dict[int, List[int]] = {}

    def add_edge(src: int, dst: int) -> None:
        preds.setdefault(dst, []).append(src)
        succs.setdefault(src, []).append(dst)

    for index, constraint in enumerate(system.constraints):
        kind = constraint.kind
        if kind is ConstraintKind.COPY:
            if constraint.src != constraint.dst:
                add_edge(constraint.src, constraint.dst)
        elif kind is ConstraintKind.LOAD:
            add_edge(ref_node("ref", constraint.src, constraint.offset), constraint.dst)
        elif kind is ConstraintKind.OFFS:
            # A shifted copy: pts(dst) = pts(src)+k is opaque to the
            # label calculus, but two shifts of the same source at the
            # same offset are equivalent — model each as a ref node.
            add_edge(ref_node("off", constraint.src, constraint.offset), constraint.dst)
        elif kind is ConstraintKind.STORE:
            # Unproven stores contribute no edges (see the module
            # docstring): the target refs' fresh labels cover them.
            if armed_stores is not None and index in armed_stores:
                add_edge(
                    constraint.src,
                    ref_node("ref", constraint.dst, constraint.offset),
                )

    node_count = num_vars + len(ref_ids)
    fresh_base = 2 * num_vars

    own_bits = [0] * node_count
    for constraint in system.constraints:
        if constraint.kind is ConstraintKind.BASE:
            own_bits[constraint.dst] |= 1 << constraint.src
    for var in structure.protected:
        own_bits[var] |= 1 << (num_vars + var)
    for index in range(len(ref_ids)):
        own_bits[num_vars + index] |= 1 << (fresh_base + index)

    def successors(node: int) -> Sequence[int]:
        return succs.get(node, ())

    # Condense only nodes that have edges: everything else (orphans of
    # earlier rounds, plain BASE destinations) keeps its own-bits label,
    # which keeps later rounds' SCC cost proportional to the *live*
    # system, not the original id space.  Tarjan emits components
    # sinks-first; propagation wants sources first, i.e. the reverse.
    components = tarjan_scc(sorted(preds.keys() | succs.keys()), successors)

    # Symbolic evaluation: a node's label set is the union of its
    # predecessors' sets plus its own labels.  Members of one SCC share a
    # set (same-component preds read 0 mid-walk; harmless, their own bits
    # are OR-ed in directly).
    labels: List[int] = list(own_bits)
    for component in reversed(components):
        bits = 0
        for member in component:
            bits |= own_bits[member]
            for pred in preds.get(member, ()):
                bits |= labels[pred]
        for member in component:
            labels[member] = bits

    return labels[:num_vars]


# ----------------------------------------------------------------------
# One reduce round: labels -> merges -> rewritten system
# ----------------------------------------------------------------------


def _armed_stores(system: ConstraintSystem, labels: Sequence[int]) -> Set[int]:
    """Indices of STORE constraints proven to fire under ``labels``.

    An ADR bit travels only along edges whose delivery is unconditional,
    so a location bit in the pointer's label is a guaranteed member of
    its points-to set — and a store through it provably delivers its
    source into the ref node the loads read.  For offset stores the
    witness must be a block base the offset stays inside (block bases
    are never merged or compressed, so witnesses survive rewrites and a
    previous round's labels remain valid evidence).
    """
    armed: Set[int] = set()
    loc_mask = (1 << system.num_vars) - 1
    max_offset = system.max_offset
    for index, constraint in enumerate(system.constraints):
        if constraint.kind is not ConstraintKind.STORE:
            continue
        bits = labels[constraint.dst] & loc_mask
        if not bits:
            continue
        offset = constraint.offset
        if offset == 0:
            armed.add(index)
            continue
        while bits:  # any witness location the offset stays inside?
            witness = (bits & -bits).bit_length() - 1
            if max_offset[witness] >= offset:
                armed.add(index)
                break
            bits &= bits - 1
    return armed


def _pointer_classes(structure: _Structure, labels: Sequence[int]) -> List[int]:
    """Map each variable to its pointer-equivalence representative.

    Equal labels prove equal points-to sets.  Indirect variables keep
    their online node (stores target them by id), but they still *join*
    classes: an unprotected variable with the same label as a protected
    one can adopt it as representative.
    """
    var_to_rep = list(range(structure.num_vars))
    class_rep: Dict[int, int] = {}
    for var in range(structure.num_vars):
        rep = class_rep.setdefault(labels[var], var)
        if rep != var and var not in structure.protected:
            var_to_rep[var] = rep
    return var_to_rep


def _location_classes(
    system: ConstraintSystem,
    structure: _Structure,
    labels: Sequence[int],
    var_to_rep: List[int],
) -> List[int]:
    """Location equivalence: fold each class of locations onto one id.

    Equal ADR-use label sets prove equal set *membership* (the addresses
    enter pointer-equivalent destinations and every constraint moves
    whole sets, so the locations co-occur everywhere).  Equal
    labels-minus-own-fresh additionally prove equal *own* points-to
    sets: co-occurrence makes the indirect inflows (what the fresh bits
    denote) identical, and the remaining bits cover all direct inflow.
    Together the class folds onto one location id — in sets and as a
    node, so ``var_to_rep`` is updated in place.  Candidates are
    address-taken and outside every block, so offset arithmetic can
    neither produce nor target them and every offset filter treats a
    class uniformly.  Returns the location map.
    """
    num_vars = structure.num_vars
    adr_dests: Dict[int, Set[int]] = {}  # loc -> BASE destinations taking its address
    for constraint in system.constraints:
        if constraint.kind is ConstraintKind.BASE:
            adr_dests.setdefault(constraint.src, set()).add(constraint.dst)
    loc_rep = list(range(num_vars))
    class_by_key: Dict[Tuple[frozenset, int], int] = {}
    for loc in sorted(adr_dests.keys() - structure.block_members):
        uses = frozenset(labels[dst] for dst in adr_dests[loc])
        masked = labels[loc] & ~(1 << (num_vars + loc))
        rep = class_by_key.setdefault((uses, masked), loc)
        if rep != loc:
            loc_rep[loc] = rep
            var_to_rep[loc] = rep

    # A pointer-equivalence representative may itself have been folded
    # by location equivalence; compress chains so the rewrite lands
    # every constraint on the final representative (chains have length
    # at most 2 and no cycles: LE representatives are never re-mapped).
    for var in range(num_vars):
        rep = var_to_rep[var]
        if var_to_rep[rep] != rep:
            var_to_rep[var] = var_to_rep[rep]
    return loc_rep


def _reduce_round(
    system: ConstraintSystem, armed: Optional[Set[int]] = None
) -> Tuple[ConstraintSystem, List[int], List[int], bool, List[int]]:
    """Run one label pass and rewrite the system over the merges found.

    ``armed`` carries store-arming evidence from the previous round's
    labels (None on the first round).  Returns ``(reduced, var_to_rep,
    loc_rep, changed, labels)`` where the maps cover this round only and
    ``changed`` reports whether anything (merge *or* constraint
    deletion) happened.
    """
    structure = _Structure(system)
    labels = _label_pass(system, structure, armed)
    var_to_rep = _pointer_classes(structure, labels)
    loc_rep = _location_classes(system, structure, labels, var_to_rep)
    reduced_constraints = _rewrite(system, labels, var_to_rep, loc_rep)
    # Progress test: merges among variables the constraints no longer
    # mention are invisible (already-substituted orphans all share the
    # empty label), so convergence is "the rewrite reproduced its input".
    changed = reduced_constraints != list(system.constraints)
    reduced = system.with_constraints(reduced_constraints)
    return reduced, var_to_rep, loc_rep, changed, labels


def hvn_reduce(system: ConstraintSystem) -> PreprocessResult:
    """Run the HU pipeline stage.

    Reduce-and-rewrite rounds repeat until nothing merges: rewriting
    makes proven-equivalent pointers *the same variable*, which unifies
    their ref nodes, and makes merged locations *the same ADR label*,
    which equalizes their users — each round therefore unlocks merges
    the previous one could not see (the paper's HR/LE cascade).
    """
    start = time.perf_counter()
    num_vars = system.num_vars

    current = system
    total_var_to_rep = list(range(num_vars))
    total_loc_rep = list(range(num_vars))
    passes = 0
    armed: Optional[Set[int]] = None
    while passes < _MAX_ROUNDS:
        passes += 1
        current, var_to_rep, loc_rep, changed, labels = _reduce_round(
            current, armed
        )
        for var in range(num_vars):
            total_var_to_rep[var] = var_to_rep[total_var_to_rep[var]]
            total_loc_rep[var] = loc_rep[total_loc_rep[var]]
        # Arm the next round's stores from this round's labels (witnesses
        # survive the rewrite — block bases are never merged).  Fixpoint
        # needs *both* the constraints and the armed set stable: fresh
        # labels can prove new stores even when no constraint changed.
        next_armed = _armed_stores(current, labels)
        if not changed and next_armed == (armed or set()):
            break
        armed = next_armed

    loc_members: Dict[int, Tuple[int, ...]] = {}
    members_of: Dict[int, List[int]] = {}
    for loc in range(num_vars):
        members_of.setdefault(total_loc_rep[loc], []).append(loc)
    for rep, members in members_of.items():
        if len(members) > 1:
            loc_members[rep] = tuple(sorted(members))

    elapsed = time.perf_counter() - start
    return PreprocessResult(
        stage="hu",
        original=system,
        reduced=current,
        substitution=SubstitutionMap(total_var_to_rep, loc_members),
        offline_seconds=elapsed,
        passes=passes,
    )


def offline_variable_substitution(system: ConstraintSystem) -> PreprocessResult:
    """Run the OVS pipeline stage: HU's first round without location
    equivalence.

    One label pass, the pointer-equivalence classes and the rewrite;
    locations keep their own ids, so the result carries no
    ``loc_members``.  Like :func:`hvn_reduce` it returns the reduced
    system in the original id space.
    """
    start = time.perf_counter()
    structure = _Structure(system)
    labels = _label_pass(system, structure)
    var_to_rep = _pointer_classes(structure, labels)
    identity = list(range(system.num_vars))
    reduced = system.with_constraints(_rewrite(system, labels, var_to_rep, identity))
    return PreprocessResult(
        stage="ovs",
        original=system,
        reduced=reduced,
        substitution=SubstitutionMap(var_to_rep),
        offline_seconds=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# Constraint rewriting
# ----------------------------------------------------------------------


def _rewrite(
    system: ConstraintSystem,
    labels: Sequence[int],
    var_to_rep: Sequence[int],
    loc_rep: Sequence[int],
) -> List[Constraint]:
    """Substitute representatives and delete provably-dead constraints.

    A label set of 0 proves an always-empty points-to set: copies and
    offset-copies from such a variable can never act, loads and stores
    through such a pointer can never fire, and stores *of* such a value
    write nothing — all are deleted outright (the HU detection).
    """
    reduced: List[Constraint] = []
    seen: Set[Tuple] = set()

    def emit(kind: ConstraintKind, dst: int, src: int, offset: int, prov) -> None:
        key = (kind, dst, src, offset)
        if key not in seen:
            seen.add(key)
            reduced.append(Constraint(kind, dst, src, offset, prov))

    for constraint in system.constraints:
        kind = constraint.kind
        if kind is ConstraintKind.BASE:
            emit(
                kind,
                var_to_rep[constraint.dst],
                loc_rep[constraint.src],
                0,
                constraint.prov,
            )
        elif kind is ConstraintKind.COPY:
            if not labels[constraint.src]:
                continue
            dst = var_to_rep[constraint.dst]
            src = var_to_rep[constraint.src]
            if dst != src:
                emit(kind, dst, src, 0, constraint.prov)
        elif kind is ConstraintKind.LOAD:
            if not labels[constraint.src]:
                continue
            emit(
                kind,
                var_to_rep[constraint.dst],
                var_to_rep[constraint.src],
                constraint.offset,
                constraint.prov,
            )
        elif kind is ConstraintKind.STORE:
            if not labels[constraint.dst] or not labels[constraint.src]:
                continue
            emit(
                kind,
                var_to_rep[constraint.dst],
                var_to_rep[constraint.src],
                constraint.offset,
                constraint.prov,
            )
        else:  # OFFS
            if not labels[constraint.src]:
                continue
            emit(
                kind,
                var_to_rep[constraint.dst],
                var_to_rep[constraint.src],
                constraint.offset,
                constraint.prov,
            )
    return reduced


# ----------------------------------------------------------------------
# The pipeline dispatcher
# ----------------------------------------------------------------------


def preprocess_system(
    system: ConstraintSystem, opt: str = "hu"
) -> PreprocessResult:
    """Run one named offline stage and return its :class:`PreprocessResult`.

    ``opt`` is one of :data:`OPT_STAGES`; every stage (including
    ``"none"``) returns the same result shape, so callers compose the
    pipeline without caring which stage ran.  ``ovs`` and ``hu`` end by
    renumbering the reduced system into its own compact id space (see
    :func:`compact_system`), so every later stage is sized by what the
    reduction left, not by the input; ``none`` returns ``system`` itself.
    ``ovs`` and ``hu`` run once per system object (``system.derived``).
    """
    if opt not in OPT_STAGES:
        known = ", ".join(OPT_STAGES)
        raise ValueError(f"unknown optimization stage {opt!r}; known: {known}")
    if opt == "none":
        return PreprocessResult(
            stage="none",
            original=system,
            reduced=system,
            substitution=SubstitutionMap.identity(system.num_vars),
            offline_seconds=0.0,
            passes=0,
        )
    return system.derived(("opt", opt), lambda s: _run_stage(s, opt))


def _run_stage(system: ConstraintSystem, opt: str) -> PreprocessResult:
    """Run ``ovs`` or ``hu`` on ``system`` and compact what it leaves."""
    if opt == "ovs":
        pre = offline_variable_substitution(system)
    else:
        pre = hvn_reduce(system)
    start = time.perf_counter()
    pre.reduced, pre.substitution.original_ids = compact_system(pre.reduced)
    pre.offline_seconds += time.perf_counter() - start
    return pre


def compact_system(system: ConstraintSystem) -> Tuple[ConstraintSystem, List[int]]:
    """Renumber ``system`` onto the ids its constraints can reach.

    The compact space holds every id a constraint mentions, plus every
    whole function or object block holding one: offset arithmetic
    addresses a block from its base, so a block moves as a unit and keeps
    its ``max_offset``.  Ids keep their original order, so every
    tie-break a solver takes by id (worklist order, collapse
    representatives, Tarjan roots) falls the same way.  Returns the
    renumbered system and the original id of each compact id.
    """
    live = _mentioned_ids(system)
    functions = system.functions
    blocks = system.object_blocks
    for block in [*functions.values(), *blocks.values()]:
        span = range(block.node, block.node + block.block_size)
        if not live.isdisjoint(span):
            live.update(span)
    original_ids = sorted(live)
    new_id = {old: new for new, old in enumerate(original_ids)}
    names = system.names
    compact = ConstraintSystem(
        [names[old] for old in original_ids],
        [
            Constraint(c.kind, new_id[c.dst], new_id[c.src], c.offset, c.prov)
            for c in system.constraints
        ],
        {
            new_id[node]: FunctionInfo(new_id[node], info.name, info.param_count)
            for node, info in functions.items()
            if node in new_id
        },
        {
            new_id[node]: ObjectBlock(new_id[node], block.name, block.size)
            for node, block in blocks.items()
            if node in new_id
        },
    )
    return compact, original_ids


def _mentioned_ids(system: ConstraintSystem) -> Set[int]:
    live: Set[int] = set()
    for constraint in system.constraints:
        live.add(constraint.dst)
        live.add(constraint.src)
    return live


def live_var_count(system: ConstraintSystem) -> int:
    """Number of distinct variables the online constraint graph will
    actually touch — the node count the offline pipeline is shrinking."""
    return len(_mentioned_ids(system))

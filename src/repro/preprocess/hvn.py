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
so soundness composes by induction.  Round 1 sees every id of the
input; the rounds after it run in a compact id space holding only the
ids round 1's output reaches (plus whole blocks), typically ~10x
smaller, so the fixpoint costs little more than one pass.

The rounds work on plain rows ``(kind code, dst, src, offset, prov)``
rather than :class:`Constraint` objects: kind tests are int compares
and dedup keys are plain tuples (``ConstraintKind.__hash__`` runs as
Python code), and no round builds a :class:`ConstraintSystem`.  Each
stage validates its output once, when it builds its one system from the
final rows.

Label sets are Python bignums (one bit per label), like the ``int``
points-to family's sets: unions are single ``|`` expressions and
interning a label set is one dict probe, which keeps the offline passes
cheap enough that HU pays for itself even on small inputs.

Everything is exposed as a composable pipeline stage: see
:func:`preprocess_system` and :data:`OPT_STAGES` for the
``--opt none|ovs|hu`` chain the solvers and the CLI consume (its result
is renumbered into the stage's compact id space),
:func:`offline_variable_substitution` and :func:`hvn_reduce` for the two
stages with their reduction in the original id space, and
:class:`SubstitutionMap` for the contract that maps solutions of the
reduced system back onto the original variable space.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import (
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    FunctionInfo,
    ObjectBlock,
    Provenance,
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

#: A constraint as the rounds see it: ``(code, dst, src, offset, prov)``,
#: where ``code`` is the kind's index in :data:`_KINDS`.
_Row = Tuple[int, int, int, int, Optional[Provenance]]
_KINDS: Tuple[ConstraintKind, ...] = (
    ConstraintKind.BASE,
    ConstraintKind.COPY,
    ConstraintKind.LOAD,
    ConstraintKind.STORE,
    ConstraintKind.OFFS,
)
_BASE, _COPY, _LOAD, _STORE, _OFFS = range(len(_KINDS))


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

    def merged_var_count(self) -> int:
        """Original variables with no node of their own in the reduced
        system.

        With ``original_ids`` that is every variable outside the compact
        id space: ``len(var_to_rep) - len(original_ids)``.  A map over
        the original id space counts the variables substituted by
        another representative.
        """
        if self.original_ids is not None:
            return len(self.var_to_rep) - len(self.original_ids)
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
        """Original variables with no node of their own after the stage.

        That is ``original.num_vars`` minus the size of the stage's
        compact id space.  A reduction kept in the original id space
        (:func:`hvn_reduce`, :func:`offline_variable_substitution`)
        counts the same ids: those outside its live closure.  ``none``
        merges nothing.
        """
        if self.substitution.original_ids is None and self.stage != "none":
            live = _live_ids(_rows(self.reduced), _block_sizes(self.reduced))
            return self.original.num_vars - len(live)
        return self.substitution.merged_var_count()

    def locations_merged(self) -> int:
        return self.substitution.merged_location_count()

    def constraints_deleted(self) -> int:
        return len(self.original) - len(self.reduced)

    def expand(self, solution: PointsToSolution) -> PointsToSolution:
        """Map a solution of :attr:`reduced` onto :attr:`original`."""
        return self.substitution.expand_solution(solution, self.original.names)


# ----------------------------------------------------------------------
# Rows and id spaces
# ----------------------------------------------------------------------


def _rows(system: ConstraintSystem) -> List[_Row]:
    code = _KINDS.index
    return [(code(c.kind), c.dst, c.src, c.offset, c.prov) for c in system.constraints]


def _block_sizes(system: ConstraintSystem) -> Dict[int, int]:
    """Base id -> block size of every function and object block."""
    sizes = {node: info.block_size for node, info in system.functions.items()}
    sizes.update(
        (node, block.block_size) for node, block in system.object_blocks.items()
    )
    return sizes


def _live_ids(rows: Sequence[_Row], blocks: Dict[int, int]) -> List[int]:
    """The ids ``rows`` can reach, ascending.

    That is every id a row mentions, plus every whole block holding one:
    offset arithmetic addresses a block from its base, so a block moves
    as a unit and keeps its size.
    """
    live: Set[int] = set()
    for _, dst, src, _, _ in rows:
        live.add(dst)
        live.add(src)
    for node, size in blocks.items():
        span = range(node, node + size)
        if not live.isdisjoint(span):
            live.update(span)
    return sorted(live)


def _renumber(
    rows: Sequence[_Row], blocks: Dict[int, int], ids: Sequence[int]
) -> Tuple[List[_Row], Dict[int, int]]:
    """Move ``rows`` and ``blocks`` onto the space of ``ids`` (ascending),
    where id ``ids[i]`` becomes ``i``.

    Ids keep their order, so every tie-break a later pass or solver takes
    by id falls the same way, and rows keep theirs, so row indices carry
    over.
    """
    new_id = {old: new for new, old in enumerate(ids)}
    moved = [
        (code, new_id[dst], new_id[src], offset, prov)
        for code, dst, src, offset, prov in rows
    ]
    moved_blocks = {new_id[node]: size for node, size in blocks.items() if node in new_id}
    return moved, moved_blocks


# ----------------------------------------------------------------------
# One label-propagation pass
# ----------------------------------------------------------------------


def _label_pass(
    rows: Sequence[_Row], num_vars: int, protected: Set[int], armed: Set[int]
) -> List[int]:
    """Compute one label bitset per variable of a ``num_vars``-id space.

    Label bit space: ``[0, num_vars)`` are interned location labels (bit
    ``l`` is the ADR label of location ``l``), ``[num_vars, 2*num_vars)``
    are the fresh labels of indirect (``protected``) variables, and bits
    above that are ref-node fresh labels.

    ``armed`` lists row indices of STOREs proven to fire (their pointer
    provably reaches a location the offset is valid for); those — and
    only those — contribute an edge into the target ref node, because
    only then is ``loadval(p,k) ⊇ pts(src)`` guaranteed and the ref's
    label still an exact union decomposition.
    """
    ref_ids: Dict[Tuple[int, int, int], int] = {}
    preds: Dict[int, List[int]] = defaultdict(list)
    succs: Dict[int, List[int]] = defaultdict(list)
    own_bits = [0] * num_vars
    for index, (code, dst, src, offset, _) in enumerate(rows):
        if code == _BASE:
            own_bits[dst] |= 1 << src
            continue
        if code == _COPY:
            if src == dst:
                continue
        elif code == _STORE:
            # Unproven stores contribute no edges (see the module
            # docstring): the target refs' fresh labels cover them.
            if index not in armed:
                continue
            dst = ref_ids.setdefault((_LOAD, dst, offset), num_vars + len(ref_ids))
        else:
            # A LOAD reads the ref node *(src+k).  An OFFS is a shifted
            # copy: pts(dst) = pts(src)+k is opaque to the label calculus,
            # but two shifts of the same source at the same offset are
            # equivalent — model each as a ref node of its own kind.
            src = ref_ids.setdefault((code, src, offset), num_vars + len(ref_ids))
        preds[dst].append(src)
        succs[src].append(dst)

    for var in protected:
        own_bits[var] |= 1 << (num_vars + var)
    fresh_base = 2 * num_vars
    own_bits.extend(1 << (fresh_base + index) for index in range(len(ref_ids)))

    def successors(node: int) -> Sequence[int]:
        return succs.get(node, ())

    # Condense only nodes that have edges: everything else (plain BASE
    # destinations, ids no row mentions) keeps its own-bits label.
    # Tarjan emits components sinks-first; propagation wants sources
    # first, i.e. the reverse.
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
# One reduce round: labels -> merges -> rewritten rows
# ----------------------------------------------------------------------


def _armed_stores(
    rows: Sequence[_Row], labels: Sequence[int], blocks: Dict[int, int]
) -> Set[int]:
    """Indices of STORE rows proven to fire under ``labels``.

    An ADR bit travels only along edges whose delivery is unconditional,
    so a location bit in the pointer's label is a guaranteed member of
    its points-to set — and a store through it provably delivers its
    source into the ref node the loads read.  For offset stores the
    witness must be a block base the offset stays inside (block bases
    are never merged or compressed, so witnesses survive rewrites and a
    previous round's labels remain valid evidence).
    """
    armed: Set[int] = set()
    loc_mask = (1 << len(labels)) - 1
    for index, (code, dst, _, offset, _) in enumerate(rows):
        if code != _STORE:
            continue
        bits = labels[dst] & loc_mask
        if not bits:
            continue
        if offset == 0:
            armed.add(index)
            continue
        while bits:  # any witness block base the offset stays inside?
            witness = (bits & -bits).bit_length() - 1
            if blocks.get(witness, 0) > offset:
                armed.add(index)
                break
            bits &= bits - 1
    return armed


def _pointer_classes(labels: Sequence[int], protected: Set[int]) -> List[int]:
    """Map each variable to its pointer-equivalence representative.

    Equal labels prove equal points-to sets.  Indirect variables keep
    their online node (stores target them by id), but they still *join*
    classes: an unprotected variable with the same label as a protected
    one can adopt it as representative.
    """
    var_to_rep = list(range(len(labels)))
    class_rep: Dict[int, int] = {}
    for var, label in enumerate(labels):
        rep = class_rep.setdefault(label, var)
        if rep != var and var not in protected:
            var_to_rep[var] = rep
    return var_to_rep


def _location_classes(
    rows: Sequence[_Row],
    labels: Sequence[int],
    var_to_rep: List[int],
    block_members: Set[int],
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
    num_vars = len(labels)
    adr_dests: Dict[int, Set[int]] = {}  # loc -> BASE destinations taking its address
    for code, dst, src, _, _ in rows:
        if code == _BASE:
            adr_dests.setdefault(src, set()).add(dst)
    loc_rep = list(range(num_vars))
    class_by_key: Dict[Tuple[frozenset, int], int] = {}
    for loc in sorted(adr_dests.keys() - block_members):
        uses = frozenset(labels[dst] for dst in adr_dests[loc])
        masked = labels[loc] & ~(1 << (num_vars + loc))
        rep = class_by_key.setdefault((uses, masked), loc)
        if rep != loc:
            loc_rep[loc] = rep
            var_to_rep[loc] = rep

    # A pointer-equivalence representative may itself have been folded
    # by location equivalence; compress chains so the rewrite lands
    # every row on the final representative (chains have length at most
    # 2 and no cycles: LE representatives are never re-mapped).
    for var in range(num_vars):
        rep = var_to_rep[var]
        if var_to_rep[rep] != rep:
            var_to_rep[var] = var_to_rep[rep]
    return loc_rep


def _rewrite(
    rows: Sequence[_Row],
    labels: Sequence[int],
    var_to_rep: Sequence[int],
    loc_rep: Sequence[int],
) -> List[_Row]:
    """Substitute representatives and delete provably-dead rows.

    A label set of 0 proves an always-empty points-to set: copies and
    offset-copies from such a variable can never act, loads and stores
    through such a pointer can never fire, and stores *of* such a value
    write nothing — all are deleted outright (the HU detection).  Rows
    keep their order and provenance; a duplicate keeps the first.
    """
    reduced: List[_Row] = []
    seen: Set[Tuple[int, int, int, int]] = set()
    for code, dst, src, offset, prov in rows:
        if code == _BASE:
            key = (code, var_to_rep[dst], loc_rep[src], 0)
        elif not labels[src] or (code == _STORE and not labels[dst]):
            continue
        else:
            dst = var_to_rep[dst]
            src = var_to_rep[src]
            if code == _COPY and dst == src:
                continue
            key = (code, dst, src, offset)
        if key not in seen:
            seen.add(key)
            reduced.append((*key, prov))
    return reduced


def _round(
    rows: Sequence[_Row],
    num_vars: int,
    blocks: Dict[int, int],
    armed: Set[int],
    fold_locations: bool,
) -> Tuple[List[_Row], List[int], Sequence[int], List[int]]:
    """Run one label pass over ``rows`` and rewrite them over the merges
    found.

    ``armed`` carries store-arming evidence from the previous round's
    labels (empty on the first round); location equivalence runs only
    when ``fold_locations``.  Returns ``(rows, var_to_rep, loc_rep,
    labels)``, where the maps cover this space and this round only.
    """
    # Ids inside any function/object block: offset arithmetic addresses
    # them relative to the block base, so neither their node nor their
    # location identity may move.
    members = {var for node, size in blocks.items() for var in range(node, node + size)}
    # Indirect variables: writable through channels the offline graph
    # cannot see (indirect stores, offset stores into blocks).  They
    # receive fresh labels and are never substituted away.
    protected = members.union(src for code, _, src, _, _ in rows if code == _BASE)
    labels = _label_pass(rows, num_vars, protected, armed)
    var_to_rep = _pointer_classes(labels, protected)
    loc_rep: Sequence[int] = range(num_vars)
    if fold_locations:
        loc_rep = _location_classes(rows, labels, var_to_rep, members)
    return _rewrite(rows, labels, var_to_rep, loc_rep), var_to_rep, loc_rep, labels


def _run_rounds(
    system: ConstraintSystem, stage: str
) -> Tuple[List[_Row], List[int], List[int], Dict[int, Tuple[int, ...]], int]:
    """Run the rounds of ``stage`` (``ovs`` or ``hu``) over the rows of
    ``system``.

    Returns what they leave, before any system is built: the final rows
    over the stage's compact id space, the original id of each compact
    id (ascending), ``var_to_rep``, ``loc_members`` and the round count.

    OVS is one round without location equivalence.  HU repeats rounds
    until the rows and the armed stores are stable.  Its first round
    runs over every id of ``system``; the rows then move to the ids that
    round left reachable (:func:`_live_ids`), and the later rounds run
    there.  An id that leaves the space keeps the representative round 1
    gave it: nothing mentions it any more, so its set is empty.
    """
    num_vars = system.num_vars
    blocks = _block_sizes(system)
    rows = _rows(system)
    hu = stage == "hu"
    reduced, var_to_rep, loc_rep, labels = _round(rows, num_vars, blocks, set(), hu)
    passes = 1
    ids: Sequence[int] = range(num_vars)
    loc_members: Dict[int, Tuple[int, ...]] = {}
    if hu:
        # Progress test: merges among variables the rows no longer
        # mention are invisible, so convergence is "the rewrite
        # reproduced its input".  Fixpoint needs *both* the rows and the
        # armed set stable: fresh labels can prove new stores even when
        # no row changed.  Each round arms the next one's stores from its
        # own labels; the renumbering keeps row order, so the indices
        # carry over.
        changed = reduced != rows
        armed = _armed_stores(reduced, labels, blocks)
        ids = _live_ids(reduced, blocks)
        rows, blocks = _renumber(reduced, blocks, ids)
        space_var_rep = list(range(len(ids)))
        space_loc_rep = list(range(len(ids)))
        previous: Set[int] = set()
        while (changed or armed != previous) and passes < _MAX_ROUNDS:
            passes += 1
            reduced, round_var_rep, round_loc_rep, labels = _round(
                rows, len(ids), blocks, armed, True
            )
            space_var_rep = [round_var_rep[rep] for rep in space_var_rep]
            space_loc_rep = [round_loc_rep[rep] for rep in space_loc_rep]
            changed = reduced != rows
            previous, armed = armed, _armed_stores(reduced, labels, blocks)
            rows = reduced
        # Compose round 1's maps with the later rounds' through the
        # renumbering: a round-1 representative the later rounds moved.
        moved = {ids[c]: ids[rep] for c, rep in enumerate(space_var_rep) if rep != c}
        var_to_rep = [moved.get(rep, rep) for rep in var_to_rep]
        moved = {ids[c]: ids[rep] for c, rep in enumerate(space_loc_rep) if rep != c}
        loc_rep = [moved.get(rep, rep) for rep in loc_rep]
        # A location representative is the smallest member of its class
        # and maps to itself.
        members_of: Dict[int, List[int]] = {}
        for loc, rep in enumerate(loc_rep):
            if rep != loc:
                members_of.setdefault(rep, [rep]).append(loc)
        loc_members = {rep: tuple(members) for rep, members in members_of.items()}
    else:
        rows = reduced
    final = _live_ids(rows, blocks)
    rows, _ = _renumber(rows, blocks, final)
    return rows, [ids[c] for c in final], var_to_rep, loc_members, passes


# ----------------------------------------------------------------------
# The two stages, and the pipeline dispatcher
# ----------------------------------------------------------------------


def hvn_reduce(system: ConstraintSystem) -> PreprocessResult:
    """Run the HU pipeline stage.

    Reduce-and-rewrite rounds repeat until nothing merges: rewriting
    makes proven-equivalent pointers *the same variable*, which unifies
    their ref nodes, and makes merged locations *the same ADR label*,
    which equalizes their users — each round therefore unlocks merges
    the previous one could not see (the paper's HR/LE cascade).
    Returns the reduced system in the original id space;
    :func:`preprocess_system` returns it renumbered instead.
    """
    return _in_original_space(system, "hu")


def offline_variable_substitution(system: ConstraintSystem) -> PreprocessResult:
    """Run the OVS pipeline stage: HU's first round without location
    equivalence.

    One label pass, the pointer-equivalence classes and the rewrite;
    locations keep their own ids, so the result carries no
    ``loc_members``.  Like :func:`hvn_reduce` it returns the reduced
    system in the original id space.
    """
    return _in_original_space(system, "ovs")


def _in_original_space(system: ConstraintSystem, stage: str) -> PreprocessResult:
    """Run ``stage`` and build its final rows over the original ids."""
    start = time.perf_counter()
    rows, ids, var_to_rep, loc_members, passes = _run_rounds(system, stage)
    reduced = system.with_constraints(
        [
            Constraint(_KINDS[code], ids[dst], ids[src], offset, prov)
            for code, dst, src, offset, prov in rows
        ]
    )
    return PreprocessResult(
        stage=stage,
        original=system,
        reduced=reduced,
        substitution=SubstitutionMap(var_to_rep, loc_members),
        offline_seconds=time.perf_counter() - start,
        passes=passes,
    )


def preprocess_system(
    system: ConstraintSystem, opt: str = "hu"
) -> PreprocessResult:
    """Run one named offline stage and return its :class:`PreprocessResult`.

    ``opt`` is one of :data:`OPT_STAGES`; every stage (including
    ``"none"``) returns the same result shape, so callers compose the
    pipeline without caring which stage ran.  ``ovs`` and ``hu`` return
    the reduced system renumbered into its own compact id space (the ids
    its constraints reach, plus whole blocks, in original order), so
    every later stage is sized by what the reduction left, not by the
    input; ``none`` returns ``system`` itself.  ``ovs`` and ``hu`` run
    once per system object (``system.derived``).
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
    """Run ``ovs`` or ``hu`` on ``system`` and build its final rows as a
    system over the stage's compact id space."""
    start = time.perf_counter()
    rows, original_ids, var_to_rep, loc_members, passes = _run_rounds(system, opt)
    new_id = {old: new for new, old in enumerate(original_ids)}
    names = system.names
    reduced = ConstraintSystem(
        [names[old] for old in original_ids],
        [
            Constraint(_KINDS[code], dst, src, offset, prov)
            for code, dst, src, offset, prov in rows
        ],
        {
            new_id[node]: FunctionInfo(new_id[node], info.name, info.param_count)
            for node, info in system.functions.items()
            if node in new_id
        },
        {
            new_id[node]: ObjectBlock(new_id[node], block.name, block.size)
            for node, block in system.object_blocks.items()
            if node in new_id
        },
    )
    return PreprocessResult(
        stage=opt,
        original=system,
        reduced=reduced,
        substitution=SubstitutionMap(var_to_rep, loc_members, original_ids),
        offline_seconds=time.perf_counter() - start,
        passes=passes,
    )


def live_var_count(system: ConstraintSystem) -> int:
    """Number of distinct variables the online constraint graph will
    actually touch — the node count the offline pipeline is shrinking."""
    live: Set[int] = set()
    for constraint in system.constraints:
        live.add(constraint.dst)
        live.add(constraint.src)
    return len(live)

"""k-CFA context expansion: clone per call string, solve anywhere, project back.

The context manager makes the analysis context-sensitive *without
touching a single solver*: it rewrites the context-insensitive
constraint system into an equivalent k-CFA one (``expand_contexts``),
hands the expanded system to any of the registered algorithms, and
projects the solved clones back onto the base variable space
(``ContextExpansion.project``).  Because the expanded system has
completely standard inclusion semantics, every solver, every points-to
family, every offline optimization stage and the independent certifier
work on it unchanged — and the 17-way cross-solver agreement property
holds at every ``k`` by construction.

Cloning rules
-------------

A variable is *cloneable* when it is function-local — a member of a
function's node block (return node, parameters) or a front-end local /
temporary named ``fn::x`` / ``fn$tmp`` — and its address is never
taken.  Everything else (globals, heap and string locations, object
blocks, address-taken locals, the function variables themselves) is
*shared*: one node serves all contexts, so points-to sets always
contain base-space location ids and no clone is ever a pointee.

Each cloneable function gets one instance of its cloneable variables
per bounded call string (suffix of the most recent ``k`` call-site
ids); the empty string ε is represented by the base ids themselves.
Call-site ids are stamped on parameter/return copies by the constraint
builder (:class:`~repro.constraints.model.Provenance`), which is what
lets the expansion treat the constraints of one call as a unit:

- a **direct call** site's copies are re-targeted per caller context σ:
  the callee side binds to the callee instance at ``σ' = (σ + site)[-k:]``
  and the caller side reads/writes the caller's σ-instance;
- an **indirect call** site is *specialized* when the bootstrap
  (context-insensitive) solution shows every valid pointee of the
  function pointer is a function: the offset store/load pair is lowered
  into unconditional per-candidate copies into/out of each candidate's
  ``σ'``-instance.  Mixed or unknown targets keep the original
  store/load (binding the shared base parameters — see the ε-fallback
  below);
- every other constraint is a **body constraint**: it is instantiated
  once per context of the (unique) function owning its cloneable
  variables, or emitted verbatim when it mentions none.

The bootstrap is demand-driven: it solves only the slice of the input
that the indirect sites' function pointers depend on
(``_bootstrap_slice``), in the headline configuration (lcd+hcd over
``int`` sets, with HU).  Restricted to the slice's variables, the
slice's least model equals the whole system's, so the specialized sites
are the ones a whole-system bootstrap would find.  A pointer whose value
passes through memory (a load, an address-taken variable or a block
member) pulls in every store, and its slice grows toward the whole
system.

Irregular flows degrade soundly instead of guessing: a site whose
copies disagree about the callee or the caller, an address-taken
parameter, or an untagged constraint joining locals of two different
functions *demotes* the functions/locals involved back to shared,
context-insensitive treatment (a small fixpoint, since each demotion
can expose another).

ε-fallback edges make the unattributed world safe: for every clone
instance, the clone parameters inherit the base parameters
(``p@σ ⊇ p``) and the base return inherits the clone returns
(``f.ret ⊇ f.ret@σ``), so any binding that only reaches the shared
base block — an unannotated call, an unspecialized indirect site —
still flows through every context instance.

Soundness and monotone precision
--------------------------------

Every expanded constraint *projects* (erase the context tags) to a
constraint that is either in the original system or derivable in its
least model (the specialized indirect bindings are exactly the
resolutions the bootstrap solution already performed; the ε-fallback
edges project to trivial self-copies).  By induction on derivations,
the projected least model of the expanded system is contained in the
context-insensitive least model — so for any monotone client, raising
``k`` can only *remove* facts, never invent them.  Completeness holds
because every concrete call is attributed to exactly one site instance
(or to the ε-fallback), whose bindings it receives.

Re-expansion contract
---------------------

``project`` returns a base-space solution (``pts(v)`` = union over the
instances of ``v``), which is what checkers, provenance and solution
comparison consume — they never see a context.  The projected solution
deliberately *violates* the original constraints (that violation is the
precision win), so verification at ``k > 0`` must certify the
clone-space solution against the *expanded* system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import (
    PARAM_OFFSET,
    RETURN_OFFSET,
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    Provenance,
)
from repro.contexts.callstring import (
    EMPTY,
    CallString,
    extend_call_string,
    format_call_string,
)


#: Provenance carried by the synthesized ε-fallback inheritance edges.
_SHARE_PROV = Provenance(construct="CtxShare", synthesized=True)


@dataclass
class CtxStats:
    """Counters for one context expansion (reported as ``ctx_*``)."""

    k: int = 0
    functions_total: int = 0
    functions_cloned: int = 0
    contexts_created: int = 0
    vars_cloned: int = 0
    shared_nodes: int = 0
    direct_sites: int = 0
    indirect_sites: int = 0
    irregular_sites: int = 0
    indirect_sites_specialized: int = 0
    indirect_expansions: int = 0
    demoted_functions: int = 0
    demoted_locals: int = 0
    constraints_before: int = 0
    constraints_after: int = 0
    #: Size of the slice the bootstrap solves (0 without indirect sites).
    bootstrap_constraints: int = 0
    bootstrap_seconds: float = 0.0
    offline_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _Site:
    """One call site: the constraints sharing a provenance site id."""

    site_id: int
    rows: List[int] = field(default_factory=list)
    kind: str = "irregular"  # "direct" | "indirect" | "irregular"
    caller: Optional[int] = None  # caller function node (None = top level)
    callee: Optional[int] = None  # direct sites only
    #: row index -> "arg" | "ret" (direct sites only)
    orientation: Dict[int, str] = field(default_factory=dict)
    pointer: Optional[int] = None  # indirect sites only
    specialized: bool = False
    callees: Tuple[int, ...] = ()  # specialized indirect sites


@dataclass
class ContextExpansion:
    """The result of :func:`expand_contexts` for one ``(system, k)``."""

    original: ConstraintSystem
    expanded: ConstraintSystem
    k: int
    stats: CtxStats
    #: base variable id -> ids of its non-ε clones (sorted by context).
    clone_groups: Dict[int, Tuple[int, ...]]
    #: function node -> its call-string contexts (always includes ε).
    contexts_of: Dict[int, Tuple[CallString, ...]]

    def is_identity(self) -> bool:
        """True when expansion changed nothing (k = 0, or nothing to clone)."""
        return self.expanded is self.original

    def project(self, solution: PointsToSolution) -> PointsToSolution:
        """Collapse a clone-space solution back onto the base variables.

        ``pts(v)`` becomes the union over all instances of ``v``.
        Pointees are base-space by construction (no clone is ever a
        pointee), so the result is a well-formed solution over the
        original system — what checkers and comparisons consume.
        """
        if self.is_identity():
            return solution
        base_vars = self.original.num_vars
        if solution.num_vars != self.expanded.num_vars:
            raise ValueError(
                f"solution has {solution.num_vars} vars, expected "
                f"{self.expanded.num_vars} (the expanded system's)"
            )
        points_to: Dict[int, frozenset] = {}
        for var in range(base_vars):
            pts = solution.points_to(var)
            for clone in self.clone_groups.get(var, ()):
                clone_pts = solution.points_to(clone)
                if clone_pts:
                    pts = pts | clone_pts
            if pts:
                points_to[var] = pts
        return PointsToSolution(
            points_to,
            base_vars,
            names=self.original.names,
            num_locs=base_vars,
        )


def expand_contexts(system: ConstraintSystem, k: int) -> ContextExpansion:
    """Rewrite ``system`` into its k-CFA expansion (once per object and k).

    Indirect call sites are resolved with a context-insensitive
    bootstrap solution computed in the headline configuration, over the
    slice of ``system`` their function pointers depend on; its size is
    ``stats.bootstrap_constraints``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return system.derived(("k-cs", k), lambda s: _expand(s, k))


def _expand(system: ConstraintSystem, k: int) -> ContextExpansion:
    start = time.perf_counter()
    stats = CtxStats(k=k)
    stats.constraints_before = len(system)
    functions = system.functions
    stats.functions_total = len(functions)
    if k == 0 or not functions:
        stats.constraints_after = len(system)
        stats.shared_nodes = system.num_vars
        stats.offline_seconds = time.perf_counter() - start
        return ContextExpansion(
            original=system, expanded=system, k=k, stats=stats,
            clone_groups={}, contexts_of={},
        )

    names = system.names
    num_vars = system.num_vars
    constraints = system.constraints

    # ------------------------------------------------------------------
    # Layout: block membership and cloneable locals
    # ------------------------------------------------------------------
    # block_of[var] is the function node of every var in block_interior.
    block_of = system.block_of
    block_interior: Set[int] = {
        var
        for var, block in enumerate(block_of)
        if block in functions and block != var
    }

    address_taken = set(system.address_taken())
    fn_by_name = {info.name: node for node, info in functions.items()}

    local_owner: Dict[int, int] = {}
    for var, owner_name in enumerate(system.owners):
        if block_of[var] is not None or var in address_taken:
            continue
        owner = fn_by_name.get(owner_name) if owner_name is not None else None
        if owner is not None:
            local_owner[var] = owner

    fn_cloneable: Dict[int, bool] = {node: True for node in functions}

    def initial_owner(var: int) -> Optional[int]:
        """Function a caller-side variable belongs to (pre-demotion)."""
        if var in local_owner:
            return local_owner[var]
        if var in block_interior:
            return block_of[var]
        return None

    def current_owner(var: int) -> Optional[int]:
        """Function whose contexts ``var`` is instantiated under (or None)."""
        if var in block_interior:
            owner = block_of[var]
            return owner if fn_cloneable[owner] else None
        return local_owner.get(var)

    # ------------------------------------------------------------------
    # Site table: group and classify the call-site-tagged constraints
    # ------------------------------------------------------------------
    sites: Dict[int, _Site] = {}
    for idx, con in enumerate(constraints):
        site_id = con.prov.site if con.prov is not None else 0
        if site_id:
            sites.setdefault(site_id, _Site(site_id=site_id)).rows.append(idx)

    for site in sites.values():
        _classify_site(
            site, constraints, block_interior, block_of, initial_owner
        )
        if site.kind == "direct":
            stats.direct_sites += 1
        elif site.kind == "indirect":
            stats.indirect_sites += 1
        else:
            stats.irregular_sites += 1

    handled_rows: Set[int] = set()
    for site in sites.values():
        if site.kind != "irregular":
            handled_rows.update(site.rows)

    # ------------------------------------------------------------------
    # Demotion fixpoint: degrade irregular flows to shared treatment
    # ------------------------------------------------------------------
    def demote_function(node: int) -> bool:
        if fn_cloneable[node]:
            fn_cloneable[node] = False
            stats.demoted_functions += 1
            return True
        return False

    changed = True
    while changed:
        changed = False
        for idx, con in enumerate(constraints):
            if idx in handled_rows:
                continue
            # An address-taken parameter/return: stores through the
            # pointer reach only the base block, so the function cannot
            # be cloned soundly.
            if con.kind is ConstraintKind.BASE and con.src in block_interior:
                if demote_function(block_of[con.src]):
                    changed = True
            owners = {
                owner
                for owner in (current_owner(con.dst), current_owner(con.src))
                if owner is not None
            }
            if len(owners) <= 1:
                continue
            # Untagged flow joining two functions' cloneable variables:
            # demote locals to shared when possible, whole functions when
            # the variable is a block member (blocks clone all-or-nothing).
            for var in (con.dst, con.src):
                if var in local_owner:
                    del local_owner[var]
                    stats.demoted_locals += 1
                    changed = True
                elif var in block_interior and fn_cloneable[block_of[var]]:
                    demote_function(block_of[var])
                    changed = True

    # ------------------------------------------------------------------
    # Bootstrap solve + indirect-site specialization
    # ------------------------------------------------------------------
    indirect_sites = [s for s in sites.values() if s.kind == "indirect"]
    candidates_by_row: Dict[int, Tuple[int, ...]] = {}
    if indirect_sites:
        # Imported lazily: the registry imports solvers.base, which
        # imports this module.
        from repro.solvers.registry import solve as _solve

        boot_start = time.perf_counter()
        demanded = _bootstrap_slice(
            system, [site.pointer for site in indirect_sites]
        )
        stats.bootstrap_constraints = len(demanded)
        bootstrap = _solve(
            system.with_constraints(demanded), "lcd+hcd", pts="int", opt="hu"
        )
        stats.bootstrap_seconds = time.perf_counter() - boot_start
        max_offset = system.max_offset
        for site in indirect_sites:
            specialized = True
            callees: Set[int] = set()
            row_candidates: Dict[int, Tuple[int, ...]] = {}
            for idx in site.rows:
                con = constraints[idx]
                pointer = (
                    con.src if con.kind is ConstraintKind.LOAD else con.dst
                )
                valid = sorted(
                    loc
                    for loc in bootstrap.points_to(pointer)
                    if max_offset[loc] >= con.offset
                )
                if any(loc not in functions for loc in valid):
                    specialized = False
                    break
                row_candidates[idx] = tuple(valid)
                callees.update(valid)
            if specialized:
                site.specialized = True
                site.callees = tuple(sorted(callees))
                candidates_by_row.update(row_candidates)
                stats.indirect_sites_specialized += 1

    # ------------------------------------------------------------------
    # Context enumeration (finite: bounded suffixes over finite sites)
    # ------------------------------------------------------------------
    contexts: Dict[int, Set[CallString]] = {node: {EMPTY} for node in functions}
    binding_sites = sorted(
        (
            s
            for s in sites.values()
            if s.kind == "direct" or (s.kind == "indirect" and s.specialized)
        ),
        key=lambda s: s.site_id,
    )
    changed = True
    while changed:
        changed = False
        for site in binding_sites:
            if site.kind == "direct":
                targets = [site.callee] if fn_cloneable[site.callee] else []
            else:
                targets = [f for f in site.callees if fn_cloneable[f]]
            if not targets:
                continue
            caller_ctxs = (
                contexts[site.caller] if site.caller is not None else {EMPTY}
            )
            for sigma in list(caller_ctxs):
                extended = extend_call_string(sigma, site.site_id, k)
                for callee in targets:
                    if extended not in contexts[callee]:
                        contexts[callee].add(extended)
                        changed = True

    # ------------------------------------------------------------------
    # Clone layout: one instance of each cloneable variable per context
    # ------------------------------------------------------------------
    fn_locals: Dict[int, List[int]] = {}
    for var, owner in local_owner.items():
        fn_locals.setdefault(owner, []).append(var)

    clone_id: Dict[Tuple[int, CallString], int] = {}
    clone_groups: Dict[int, List[int]] = {}
    new_names: List[str] = list(names)
    for node in sorted(functions):
        if not fn_cloneable[node]:
            continue
        extra_ctxs = sorted(contexts[node] - {EMPTY})
        if not extra_ctxs:
            continue
        stats.functions_cloned += 1
        info = functions[node]
        cloned_vars = [node + off for off in range(1, info.block_size)]
        cloned_vars.extend(sorted(fn_locals.get(node, ())))
        for sigma in extra_ctxs:
            stats.contexts_created += 1
            tag = "|" + format_call_string(sigma)
            for var in cloned_vars:
                new_id = len(new_names)
                new_names.append(names[var] + tag)
                clone_id[(var, sigma)] = new_id
                clone_groups.setdefault(var, []).append(new_id)
    stats.vars_cloned = len(clone_id)
    stats.shared_nodes = num_vars - len(clone_groups)

    def instance(var: int, sigma: CallString) -> int:
        return clone_id.get((var, sigma), var)

    # ------------------------------------------------------------------
    # Constraint emission
    # ------------------------------------------------------------------
    out: List[Constraint] = []
    for idx, con in enumerate(constraints):
        site_id = con.prov.site if con.prov is not None else 0
        site = sites.get(site_id) if site_id else None
        if site is not None and site.kind == "direct":
            caller_ctxs = (
                sorted(contexts[site.caller])
                if site.caller is not None
                else [EMPTY]
            )
            emitted: Set[Tuple[int, int]] = set()
            for sigma in caller_ctxs:
                extended = extend_call_string(sigma, site_id, k)
                if site.orientation[idx] == "arg":
                    dst = instance(con.dst, extended)
                    src = instance(con.src, sigma)
                else:  # "ret"
                    dst = instance(con.dst, sigma)
                    src = instance(con.src, extended)
                if (dst, src) in emitted:
                    continue
                emitted.add((dst, src))
                out.append(
                    Constraint(ConstraintKind.COPY, dst, src, prov=con.prov)
                )
            continue
        if site is not None and site.kind == "indirect" and site.specialized:
            caller_ctxs = (
                sorted(contexts[site.caller])
                if site.caller is not None
                else [EMPTY]
            )
            emitted = set()
            for sigma in caller_ctxs:
                extended = extend_call_string(sigma, site_id, k)
                for callee in candidates_by_row.get(idx, ()):
                    if con.kind is ConstraintKind.STORE:
                        dst = instance(callee + con.offset, extended)
                        src = instance(con.src, sigma)
                    else:  # LOAD
                        dst = instance(con.dst, sigma)
                        src = instance(callee + con.offset, extended)
                    if (dst, src) in emitted:
                        continue
                    emitted.add((dst, src))
                    out.append(
                        Constraint(
                            ConstraintKind.COPY, dst, src, prov=con.prov
                        )
                    )
                    stats.indirect_expansions += 1
            continue
        # Body constraint (or unspecialized/irregular site row).
        owners = {
            owner
            for owner in (current_owner(con.dst), current_owner(con.src))
            if owner is not None
        }
        if not owners:
            out.append(con)
            continue
        if len(owners) > 1:  # the demotion fixpoint guarantees this
            raise AssertionError(
                f"constraint {con} spans functions {sorted(owners)}"
            )
        owner = owners.pop()
        emitted = set()
        for sigma in sorted(contexts[owner]):
            dst = instance(con.dst, sigma)
            src = instance(con.src, sigma)
            if (dst, src) in emitted:
                continue
            emitted.add((dst, src))
            out.append(Constraint(con.kind, dst, src, con.offset, prov=con.prov))

    # ε-fallback inheritance: clone parameters inherit the base parameter
    # (so unattributed bindings reach every instance) and the base return
    # inherits the clone returns (so unattributed readers see every
    # instance).  Both project to trivial self-copies.
    for node in sorted(functions):
        if not fn_cloneable[node]:
            continue
        info = functions[node]
        ret = node + RETURN_OFFSET
        params = [node + PARAM_OFFSET + i for i in range(info.param_count)]
        for sigma in sorted(contexts[node] - {EMPTY}):
            for param in params:
                out.append(
                    Constraint(
                        ConstraintKind.COPY,
                        instance(param, sigma),
                        param,
                        prov=_SHARE_PROV,
                    )
                )
            out.append(
                Constraint(
                    ConstraintKind.COPY,
                    ret,
                    instance(ret, sigma),
                    prov=_SHARE_PROV,
                )
            )

    stats.constraints_after = len(out)
    if not clone_id and out == list(constraints):
        expanded = system  # nothing to clone or specialize: pure identity
        stats.constraints_after = len(system)
    else:
        expanded = ConstraintSystem(
            new_names, out, functions, system.object_blocks
        )
    stats.offline_seconds = time.perf_counter() - start
    return ContextExpansion(
        original=system,
        expanded=expanded,
        k=k,
        stats=stats,
        clone_groups={var: tuple(ids) for var, ids in clone_groups.items()},
        contexts_of={node: tuple(sorted(ctxs)) for node, ctxs in contexts.items()},
    )


def _bootstrap_slice(
    system: ConstraintSystem, pointers: Iterable[int]
) -> List[Constraint]:
    """The constraints of ``system`` the sets of ``pointers`` depend on.

    Closes backward from ``pointers`` over the BASE, COPY, OFFS and LOAD
    rows whose ``dst`` is in the slice.  A STORE can write any address-
    taken variable or block member, and a LOAD can read any of them; so
    the first time the slice reaches a LOAD or such a variable, it takes
    in every STORE and every such variable.  Every row that can add to a
    slice variable's set is then in the slice, with the variables it
    reads, so the slice's least model restricted to those variables
    equals the whole system's.  The rows come back in input order.
    """
    constraints = system.constraints
    writable: Set[int] = {
        var for var, block in enumerate(system.block_of) if block is not None
    }
    # The kinds are bound to locals: an enum attribute lookup per row
    # costs more than the rest of this pass.
    base = ConstraintKind.BASE
    load = ConstraintKind.LOAD
    store = ConstraintKind.STORE
    defs: Dict[int, List[int]] = {}
    stores: List[int] = []
    for idx, con in enumerate(constraints):
        kind = con.kind
        if kind is store:
            stores.append(idx)
            continue
        defining = defs.get(con.dst)
        if defining is None:
            defs[con.dst] = [idx]
        else:
            defining.append(idx)
        if kind is base:
            writable.add(con.src)

    rows: Set[int] = set()
    seen: Set[int] = set()
    work: List[int] = []

    def reach(var: int) -> None:
        if var not in seen:
            seen.add(var)
            work.append(var)

    for var in pointers:
        reach(var)
    all_stores = False
    while work:
        var = work.pop()
        # Whether some value of var's set can come through memory.
        through_memory = var in writable
        for idx in defs.get(var, ()):
            rows.add(idx)
            con = constraints[idx]
            if con.kind is not base:
                reach(con.src)
                through_memory = through_memory or con.kind is load
        if through_memory and not all_stores:
            all_stores = True
            rows.update(stores)
            for idx in stores:
                reach(constraints[idx].dst)
                reach(constraints[idx].src)
            for written in writable:
                reach(written)
    return [constraints[idx] for idx in sorted(rows)]


def _classify_site(
    site: _Site,
    constraints,
    block_interior: Set[int],
    block_of: Sequence[Optional[int]],
    initial_owner,
) -> None:
    """Decide whether ``site`` is a well-formed direct or indirect call.

    Fills ``kind``, ``caller`` and the per-kind fields in place; any
    structural surprise leaves the site ``irregular`` (its rows then go
    through the generic path and the demotion fixpoint keeps them sound).
    """
    rows = [constraints[i] for i in site.rows]
    kinds = {con.kind for con in rows}

    if kinds == {ConstraintKind.COPY}:
        # Each row must read as an argument copy (dst is a parameter
        # node) or a return copy (src is a return node), and all rows
        # must agree on one callee.  Rows admitting both readings (e.g.
        # `copy f::p0 g.ret`) are disambiguated by the site's other
        # rows; a residual ambiguity stays irregular.
        interps: List[List[Tuple[str, int]]] = []
        for con in rows:
            options: List[Tuple[str, int]] = []
            if (
                con.dst in block_interior
                and con.dst - block_of[con.dst] >= PARAM_OFFSET
            ):
                options.append(("arg", block_of[con.dst]))
            if (
                con.src in block_interior
                and con.src - block_of[con.src] == RETURN_OFFSET
            ):
                options.append(("ret", block_of[con.src]))
            if not options:
                return
            interps.append(options)
        possible = set.intersection(
            *({callee for _, callee in options} for options in interps)
        )
        if len(possible) != 1:
            return
        callee = possible.pop()
        orientation: Dict[int, str] = {}
        caller_vars: List[int] = []
        for idx, con, options in zip(site.rows, rows, interps):
            matching = [o for o, c in options if c == callee]
            if len(matching) != 1:
                return
            orientation[idx] = matching[0]
            caller_vars.append(con.src if matching[0] == "arg" else con.dst)
        owners = {initial_owner(v) for v in caller_vars} - {None}
        if len(owners) > 1:
            return
        site.kind = "direct"
        site.callee = callee
        site.orientation = orientation
        site.caller = owners.pop() if owners else None
        return

    if rows and kinds <= {ConstraintKind.LOAD, ConstraintKind.STORE}:
        pointer: Optional[int] = None
        caller_vars = []
        for con in rows:
            if con.offset <= 0:
                return
            row_pointer = (
                con.src if con.kind is ConstraintKind.LOAD else con.dst
            )
            if pointer is None:
                pointer = row_pointer
            elif pointer != row_pointer:
                return
            caller_vars.append(
                con.dst if con.kind is ConstraintKind.LOAD else con.src
            )
        caller_vars.append(pointer)
        owners = {initial_owner(v) for v in caller_vars} - {None}
        if len(owners) > 1:
            return
        site.kind = "indirect"
        site.pointer = pointer
        site.caller = owners.pop() if owners else None

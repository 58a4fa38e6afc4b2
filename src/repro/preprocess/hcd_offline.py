"""The offline half of Hybrid Cycle Detection (paper Section 4.2).

Builds an *offline* version of the constraint graph with one node per
program variable plus one ``ref`` node per dereference expression
``*(v + k)``.  Edges follow Figure 3:

- ``a (sup) b``       (copy)   yields  ``b -> a``
- ``a (sup) *(b+k)``  (load)   yields  ``ref(b,k) -> a``
- ``*(a+k) (sup) b``  (store)  yields  ``b -> ref(a,k)``

Base constraints are ignored.  Tarjan's linear-time algorithm then finds
the SCCs:

- SCCs of only non-ref nodes are real copy cycles and can be **collapsed
  immediately** (reported in :attr:`HCDOfflineResult.direct_groups`).
- An SCC containing ``ref(a,k)`` means ``a``'s (offset) pointees will end
  up in a cycle with the SCC's non-ref members once they materialize.  For
  each such ref node we emit the tuple ``(a, k, b)`` — ``b`` a non-ref
  member — into the pair list ``L``; the online analysis then collapses
  each ``v + k`` for ``v in pts(a)`` with ``b``, with no graph traversal.

Precision guard: the paper's equality argument (``pts(v) = pts(b)`` for
every pointee ``v``) threads the cycle through the single ref node being
resolved; when an SCC contains *several* ref nodes the inclusion chain can
break if another ref's points-to set stays empty.  We therefore certify
each ref node independently: a pair ``(a, k, b)`` is emitted only if the
SCC restricted to its non-ref members plus ``ref(a,k)`` alone still forms a
cycle.  Single-ref SCCs — the overwhelmingly common case — are unaffected,
and the guarantee "no impact on precision" becomes unconditional.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.graph.scc import tarjan_scc


@dataclass
class HCDOfflineResult:
    """Output of the HCD offline pass.

    ``pairs`` maps a dereferenced variable ``a`` to tuples ``(k, b)``: when
    the online analysis processes ``a``, every valid ``v + k`` for
    ``v in pts(a)`` may be collapsed with ``b``.  ``direct_groups`` lists
    copy-only SCCs that can be collapsed before solving starts.
    """

    pairs: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    direct_groups: List[List[int]] = field(default_factory=list)
    offline_seconds: float = 0.0


def hcd_offline_analysis(system: ConstraintSystem) -> HCDOfflineResult:
    """Run the HCD offline pass over a constraint system, once per object."""
    return system.derived("hcd-offline", _analyze)


def _analyze(system: ConstraintSystem) -> HCDOfflineResult:
    start = time.perf_counter()
    num_vars = system.num_vars

    # Intern ref nodes: id = num_vars + index of the (var, offset) pair.
    ref_ids: Dict[Tuple[int, int], int] = {}

    def ref_node(var: int, offset: int) -> int:
        key = (var, offset)
        node = ref_ids.get(key)
        if node is None:
            node = num_vars + len(ref_ids)
            ref_ids[key] = node
        return node

    edges: Dict[int, List[int]] = {}

    def add_edge(src: int, dst: int) -> None:
        edges.setdefault(src, []).append(dst)

    for constraint in system.constraints:
        kind = constraint.kind
        if kind is ConstraintKind.COPY:
            if constraint.src != constraint.dst:
                add_edge(constraint.src, constraint.dst)
        elif kind is ConstraintKind.LOAD:
            add_edge(ref_node(constraint.src, constraint.offset), constraint.dst)
        elif kind is ConstraintKind.STORE:
            add_edge(constraint.src, ref_node(constraint.dst, constraint.offset))
        # BASE constraints are ignored (Figure 3).

    ref_key_of = {node: key for key, node in ref_ids.items()}

    def successors(node: int) -> Sequence[int]:
        return edges.get(node, ())

    # Condense only nodes that have an edge, as HU's label pass does: the
    # rest are singleton components the loop below skips anyway, so the
    # output is the same and the cost follows the edges, not num_vars.
    nodes = set(edges)
    for targets in edges.values():
        nodes.update(targets)

    result = HCDOfflineResult()
    for component in tarjan_scc(sorted(nodes), successors):
        if len(component) < 2:
            continue
        refs = [n for n in component if n >= num_vars]
        directs = [n for n in component if n < num_vars]
        if not refs:
            result.direct_groups.append(sorted(directs))
            continue
        # Mixed SCC: certify each ref node independently (see module doc).
        if len(refs) == 1:
            certified = {refs[0]: directs[0]}
        else:
            certified = _certify_refs(component, refs, directs, edges)
        for ref, partner in certified.items():
            var, offset = ref_key_of[ref]
            result.pairs.setdefault(var, []).append((offset, partner))

    result.offline_seconds = time.perf_counter() - start
    return result


def _certify_refs(
    component: List[int],
    refs: List[int],
    directs: List[int],
    edges: Dict[int, List[int]],
) -> Dict[int, int]:
    """For a multi-ref SCC, keep only refs still cyclic without the others.

    Re-runs SCC on the subgraph induced by the SCC's direct members plus a
    single ref node; the ref is certified iff it lands in a non-trivial
    component (which then necessarily contains a direct member).
    """
    direct_set = set(directs)
    certified: Dict[int, int] = {}
    for ref in refs:
        allowed = direct_set | {ref}

        def successors(node: int, _allowed: Set[int] = allowed) -> List[int]:
            return [s for s in edges.get(node, ()) if s in _allowed]

        for sub_component in tarjan_scc(sorted(allowed), successors):
            if len(sub_component) >= 2 and ref in sub_component:
                partner = next(n for n in sub_component if n in direct_set)
                certified[ref] = partner
                break
    return certified

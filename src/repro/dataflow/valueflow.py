"""The assignment-level value-flow graph of a solved system.

Every way a runtime value can move between abstract locations becomes a
directed edge:

- ``COPY``/``OFFS`` move the value from ``src`` to ``dst`` directly;
- ``LOAD dst = *(src+k)`` moves the *content* of every valid pointee
  (via :class:`~repro.analysis.mod_ref.ModRefAnalysis.read_through`)
  into ``dst``;
- ``STORE *(dst+k) = src`` moves ``src`` into every valid pointee
  (``written_through``).

``BASE`` creates a pointer value out of thin air and moves nothing, so
it contributes no edge.  The graph is sound for any solution of the
system it was built from — including the context-expanded clone-space
system of :mod:`repro.contexts`, whose ε-fallback copies are ordinary
``COPY`` constraints here.

Dereference edges are shared through *set hubs*: distinct dereferences
overwhelmingly resolve to the same few points-to sets (the duplicate-set
observation the paper exploits for its shared bitmap representation),
so each distinct pointee set gets one synthetic hub node — locations
feed the read hub once, and every load of that set is a single
``hub → dst`` edge (stores symmetrically).  This turns the worst-case
``derefs × pointees`` edge blowup into ``distinct_sets × pointees +
derefs`` without changing reachability, and therefore without changing
any client's facts.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet

from repro.analysis.mod_ref import ModRefAnalysis
from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.dataflow.engine import UnionDataflow


def build_value_flow(
    system: ConstraintSystem,
    solution: PointsToSolution,
    barrier_constructs: AbstractSet[str] = frozenset(),
) -> UnionDataflow:
    """An engine pre-loaded with the system's value-flow edges.

    ``barrier_constructs`` names provenance constructs whose constraints
    must NOT propagate facts (e.g. a sanitizer's identity copy); edges
    carry the inducing constraint's source line for witness paths.
    """
    flow = UnionDataflow()
    modref = ModRefAnalysis(system, solution)
    # Synthetic hub nodes live above the variable space; one per
    # distinct pointee set and direction.  Hub-side fan edges carry no
    # line (witness paths drop line-0 steps), the per-deref edge keeps
    # the deref's own line.
    next_hub = system.num_vars
    read_hubs: Dict[FrozenSet[int], int] = {}
    write_hubs: Dict[FrozenSet[int], int] = {}
    for constraint in system.constraints:
        prov = constraint.prov
        if prov is not None and prov.construct in barrier_constructs:
            continue
        line = prov.line if prov is not None else 0
        kind = constraint.kind
        if kind is ConstraintKind.COPY or kind is ConstraintKind.OFFS:
            flow.add_edge(constraint.src, constraint.dst, line)
        elif kind is ConstraintKind.LOAD:
            pointees: FrozenSet[int] = modref.read_through(
                constraint.src, constraint.offset
            )
            if len(pointees) <= 1:
                for loc in pointees:
                    flow.add_edge(loc, constraint.dst, line)
                continue
            hub = read_hubs.get(pointees)
            if hub is None:
                hub = read_hubs[pointees] = next_hub
                next_hub += 1
                for loc in pointees:
                    flow.add_edge(loc, hub)
            flow.add_edge(hub, constraint.dst, line)
        elif kind is ConstraintKind.STORE:
            pointees = modref.written_through(constraint.dst, constraint.offset)
            if len(pointees) <= 1:
                for loc in pointees:
                    flow.add_edge(constraint.src, loc, line)
                continue
            hub = write_hubs.get(pointees)
            if hub is None:
                hub = write_hubs[pointees] = next_hub
                next_hub += 1
                for loc in pointees:
                    flow.add_edge(hub, loc)
            flow.add_edge(constraint.src, hub, line)
    flow.stats.nodes = next_hub
    return flow

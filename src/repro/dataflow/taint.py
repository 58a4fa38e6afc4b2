"""Source-to-sink taint tracking over the value-flow graph.

Each taint source is one fact bit.  Seeding covers both the handle a
source returns *and* the abstract locations it points at (buffer
content), so ``system(getenv("PATH"))``, pointer copies, stores into
memory and loads back out are all traced by the same propagation.  At a
sink, the argument's facts and the facts of its pointees are checked.

Context sensitivity composes by running in *clone space*: hand this
module the context-expanded system, the pre-projection solution, and
the expansion's ``clone_groups`` — per-context copies of locals then
keep flows from distinct call sites apart (the measurable k=1 precision
win), while the projected base-space run remains sound at k=0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintSystem
from repro.dataflow.engine import DataflowStats
from repro.dataflow.events import TaintSink, TaintSource
from repro.dataflow.valueflow import build_value_flow
from repro.datastructs.intset import iter_bits

#: Provenance constructs acting as propagation barriers: a sanitizer's
#: identity copy must not forward taint.
SANITIZER_BARRIERS = frozenset({"Sanitize"})


@dataclass(frozen=True)
class TaintFinding:
    """One untrusted flow: which source reaches which sink, and how."""

    source: TaintSource
    sink: TaintSink
    #: Source lines of the witness path, seed to sink, deduplicated.
    path_lines: Tuple[int, ...]


def _variants(
    node: int, instances: Mapping[int, Tuple[int, ...]]
) -> Tuple[int, ...]:
    """A base node plus its per-context clones (clone space only)."""
    return (node, *instances.get(node, ()))


def find_taint_flows(
    system: ConstraintSystem,
    solution: PointsToSolution,
    sources: Sequence[TaintSource],
    sinks: Sequence[TaintSink],
    instances: Optional[Mapping[int, Tuple[int, ...]]] = None,
) -> Tuple[List[TaintFinding], DataflowStats]:
    """Trace every source-to-sink flow of ``system`` under ``solution``."""
    if not sources or not sinks:
        return [], DataflowStats(nodes=system.num_vars)
    clones: Mapping[int, Tuple[int, ...]] = instances or {}
    flow = build_value_flow(system, solution, barrier_constructs=SANITIZER_BARRIERS)

    for index, source in enumerate(sources):
        bit = 1 << index
        for node in _variants(source.node, clones):
            flow.seed(node, bit, source.line)
            for loc in solution.points_to(node):
                for loc_node in _variants(loc, clones):
                    flow.seed(loc_node, bit, source.line)
    flow.run()

    findings: List[TaintFinding] = []
    for sink in sinks:
        #: fact bit -> a node carrying it at the sink (witness anchor).
        carriers: Dict[int, int] = {}
        mask = 0
        for node in _variants(sink.node, clones):
            candidates = [node]
            for loc in solution.points_to(node):
                candidates.extend(_variants(loc, clones))
            for candidate in candidates:
                bits = flow.facts(candidate)
                fresh = bits & ~mask
                mask |= bits
                for bit_index in iter_bits(fresh):
                    carriers.setdefault(bit_index, candidate)
        for bit_index in iter_bits(mask):
            if bit_index >= len(sources):
                continue
            source = sources[bit_index]
            chain = flow.witness(carriers[bit_index], bit_index)
            lines: List[int] = []
            for _node, line in chain:
                if line > 0 and (not lines or lines[-1] != line):
                    lines.append(line)
            findings.append(
                TaintFinding(
                    source=source, sink=sink, path_lines=tuple(lines)
                )
            )
    findings.sort(
        key=lambda f: (f.sink.line, f.sink.name, f.source.line, f.source.name)
    )
    return findings, flow.stats

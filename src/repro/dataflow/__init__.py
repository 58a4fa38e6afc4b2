"""Interprocedural dataflow on top of the points-to foundation.

The paper frames points-to analysis as the *substrate* for downstream
clients; this package is the propagation machinery those clients share:

- :mod:`~repro.dataflow.engine` — generic forward worklist propagation
  with union (may) and intersection (must) meets, each node's facts one
  plain bignum so every propagation step is one word-parallel integer
  operation;
- :mod:`~repro.dataflow.valueflow` — the assignment-level value-flow
  graph derived from a solved constraint system (memory flow routed
  through :class:`~repro.analysis.mod_ref.ModRefAnalysis` summaries);
- :mod:`~repro.dataflow.interproc` — the function-level call graph with
  indirect calls resolved through the points-to solution;
- :mod:`~repro.dataflow.events` — the front-end event records
  (taint sources/sinks/sanitizers, thread spawns, lock operations);
- :mod:`~repro.dataflow.taint` — source-to-sink taint tracking with
  provenance witness paths;
- :mod:`~repro.dataflow.races` — the lockset-based static race
  detector.

The package is checked with ``mypy --strict`` in CI; keep every
definition fully annotated.
"""

from __future__ import annotations

from repro.dataflow.engine import (
    DataflowStats,
    IntersectDataflow,
    UnionDataflow,
)
from repro.dataflow.events import (
    LockOp,
    Sanitizer,
    TaintSink,
    TaintSource,
    ThreadSpawn,
)
from repro.dataflow.interproc import FunctionGraph
from repro.dataflow.races import RaceAccess, RaceFinding, find_races
from repro.dataflow.taint import TaintFinding, find_taint_flows
from repro.dataflow.valueflow import build_value_flow

__all__ = [
    "DataflowStats",
    "FunctionGraph",
    "IntersectDataflow",
    "LockOp",
    "RaceAccess",
    "RaceFinding",
    "Sanitizer",
    "TaintFinding",
    "TaintSink",
    "TaintSource",
    "ThreadSpawn",
    "UnionDataflow",
    "build_value_flow",
    "find_races",
    "find_taint_flows",
]

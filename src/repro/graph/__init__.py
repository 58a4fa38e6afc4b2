"""Graph substrate: SCC detection and the online constraint graph.

- :mod:`~repro.graph.scc` — iterative Tarjan and the Nuutila/Soisalon-
  Soininen variant the paper's implementations use for cycle collapsing.
- :mod:`~repro.graph.constraint_graph` — the mutable online constraint
  graph shared by the explicit-closure solvers (naive, PKH, LCD, HCD):
  sparse-bitmap successor sets, points-to sets behind a pluggable
  representation, union-find-backed node collapsing, and the complex
  constraint index.
"""

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.scc import nuutila_scc, tarjan_scc

__all__ = ["ConstraintGraph", "tarjan_scc", "nuutila_scc"]

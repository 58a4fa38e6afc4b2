"""Hybrid Cycle Detection as a standalone solver (paper Figure 5).

Structurally the Figure 1 baseline with one addition: when a node ``n`` is
processed, the pair list ``L`` produced by the offline analysis is
consulted, and any ``(n, a)`` tuple lets the solver preemptively collapse
``a`` with everything in ``pts(n)`` — cycle detection with **zero graph
traversal** (``nodes_searched`` stays 0).

HCD alone is incomplete: it only finds cycles inferable from the offline
graph (the paper measures 46-74% of the nodes PKH collapses), which is why
its real value is as an enhancer for the other algorithms (``ht+hcd``,
``pkh+hcd``, ``blq+hcd``, ``lcd+hcd``).
"""

from __future__ import annotations

from repro.constraints.model import ConstraintSystem
from repro.solvers.naive import NaiveSolver


class HCDSolver(NaiveSolver):
    """Figure 5: the baseline worklist solver driven by the pair list."""

    name = "hcd"

    def __init__(self, system: ConstraintSystem, **options) -> None:
        # HCD *is* the algorithm here; it cannot be switched off.
        super().__init__(system, **{**options, "hcd": True})

    @property
    def full_name(self) -> str:
        return self.name

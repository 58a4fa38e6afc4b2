"""Offline (pre-solve) analyses.

- :mod:`~repro.preprocess.hvn` — the ``--opt`` stages over one label
  pass: Offline Variable Substitution, the paper's constraint
  pre-processing step (60-77% reduction), and Hardekopf & Lin's HU with
  location equivalence; plus the compact renumbering that ends both.
- :mod:`~repro.preprocess.hcd_offline` — the offline half of Hybrid Cycle
  Detection: builds the ref-node constraint graph, runs Tarjan, and emits
  the pair list ``L`` the online solvers consume.
"""

from repro.preprocess.hcd_offline import HCDOfflineResult, hcd_offline_analysis
from repro.preprocess.hvn import offline_variable_substitution

__all__ = [
    "HCDOfflineResult",
    "hcd_offline_analysis",
    "offline_variable_substitution",
]

"""Analytic memory accounting.

The paper reports resident-set megabytes on a 2 GB machine; a Python
reproduction's RSS would measure the interpreter, not the algorithms, so
we account memory analytically in the units the paper's discussion
actually turns on:

- **bitmap representations** — live bitmap elements across points-to sets
  plus constraint-graph successor sets (Section 5.4: "the majority of
  this memory usage comes from the bit-map representation of points-to
  sets");
- **bignum intsets** — each distinct live backing int object counted
  once however many variables share it (the same counted-once
  discipline as the BDD manager);
- **BDD representations** — the shared node pool (BuDDy's
  benchmark-independent allocation; Section 5.2 notes BLQ's near-constant
  footprint).

Each solver fills :class:`~repro.solvers.base.SolverStats` with
``pts_memory_bytes`` / ``graph_memory_bytes``; this module just provides
the conversion helpers the benches print.
"""

from __future__ import annotations

BYTES_PER_MB = 1024 * 1024


def to_megabytes(n_bytes: int) -> float:
    """Bytes to MB with the paper's one-decimal style."""
    return n_bytes / BYTES_PER_MB


def scale_to_paper(n_bytes: int, scale: float) -> float:
    """Extrapolate a scaled run's footprint to paper scale (linear in the
    workload for bitmap sets; a lower bound for BDDs, which share)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return to_megabytes(int(n_bytes / scale))

"""Hash-consing for bignum points-to sets (the ``int`` family).

Section 5.4's representation study shows the bitmap family winning on
time while BDDs win on memory purely through *sharing*: in a converged
Andersen solution many variables hold identical points-to sets.  MDE
(Ghorui, Raste & Khedker, "Points-to Analysis Using MDE") observes two
further redundancies in the operation profile itself: the same set
*values* recur across variables, and the same union *operand pairs*
recur across propagations.  :class:`IntInternTable` removes all three
for sets stored as arbitrary-precision ints:

- a canonical table maps each value to one designated int object and a
  small id, so equal sets alias one object and set equality — the Lazy
  Cycle Detection trigger — usually resolves on a pointer comparison;
- bounded memo caches map operand ids to results for union and
  single-bit insertion, so a repeated propagation step is a dict hit
  instead of a bignum operation.

Ids are monotonically increasing and never reused, which keeps stale
memo entries harmless — they can only miss, never alias.
:class:`InternStats` snapshots the table's counters onto ``SolverStats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Default bound on each memo cache (union and add), in entries.
#: Eviction is FIFO: insertion order approximates age, and a popped pair
#: simply falls back to a real bignum operation on its next occurrence.
DEFAULT_MEMO_CAPACITY = 1 << 16


@dataclass
class InternStats:
    """Point-in-time snapshot of a table's counters, kept on SolverStats."""

    live_nodes: int = 0
    peak_nodes: int = 0
    nodes_created: int = 0
    intern_hits: int = 0
    union_memo_hits: int = 0
    union_memo_misses: int = 0
    add_memo_hits: int = 0
    memo_evictions: int = 0

    @property
    def union_memo_hit_rate(self) -> float:
        total = self.union_memo_hits + self.union_memo_misses
        return self.union_memo_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "live_nodes": self.live_nodes,
            "peak_nodes": self.peak_nodes,
            "nodes_created": self.nodes_created,
            "intern_hits": self.intern_hits,
            "union_memo_hits": self.union_memo_hits,
            "union_memo_misses": self.union_memo_misses,
            "add_memo_hits": self.add_memo_hits,
            "memo_evictions": self.memo_evictions,
            "union_memo_hit_rate": self.union_memo_hit_rate,
        }


#: Default bound on the int table's value->id map.  Bignums are plain
#: values with no ``__weakref__``, so liveness cannot drive reclamation;
#: a FIFO bound does instead.  An evicted value re-interned later
#: receives a fresh id, which stale memo entries keyed by the old id can
#: never observe (ids are monotone, never reused).
DEFAULT_INT_TABLE_CAPACITY = 1 << 18


class IntInternTable:
    """Canonical value/id table plus operation memos for bignum bitsets.

    Set values are arbitrary-precision ints, so canonicalization is a
    dict keyed by the value itself.  Interning serves two purposes:

    - equal sets share one int *object*, so ``same_as`` and the solvers'
      convergence checks hit CPython's pointer fast path before any
      digit comparison, and memory accounting counts each value once;
    - every canonical value carries a small monotone id, giving the
      memo caches O(1) keys for whole propagation steps — union of two
      canonical operands and single-bit insertion.

    Memo entries store ``(result_bits, result_id)`` directly (strong
    refs; ints cannot be weakly referenced) and both the table and the
    memos are FIFO-bounded, so footprint stays proportional to the
    configured capacities.  The empty value ``0`` is pinned as id 0.
    """

    #: Modelled bytes of table bookkeeping per live entry (hash slot,
    #: id, canonical-value reference).
    BYTES_PER_ENTRY = 24

    def __init__(
        self,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        table_capacity: int = DEFAULT_INT_TABLE_CAPACITY,
    ) -> None:
        if memo_capacity < 1:
            raise ValueError("memo_capacity must be at least 1")
        if table_capacity < 1:
            raise ValueError("table_capacity must be at least 1")
        self.memo_capacity = memo_capacity
        self.table_capacity = table_capacity
        #: value -> (canonical value object, id).  The tuple keeps one
        #: designated int object per value so every handle aliases it.
        self._by_value: Dict[int, Tuple[int, int]] = {}
        #: (id_a, id_b) with id_a <= id_b -> (union bits, union id).
        self._union_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: (id, loc) -> (bits-with-loc, id).
        self._add_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._next_id = 1
        # Counters (snapshotted into InternStats).
        self.nodes_created = 1  # the pinned empty value
        self.intern_hits = 0
        self.union_memo_hits = 0
        self.union_memo_misses = 0
        self.add_memo_hits = 0
        self.memo_evictions = 0
        self.peak_nodes = 1
        #: The canonical empty value, pinned for the table's lifetime.
        self.empty_id = 0
        self._by_value[0] = (0, 0)

    # ------------------------------------------------------------------
    # Canonicalization
    # ------------------------------------------------------------------

    def intern(self, bits: int) -> Tuple[int, int]:
        """Return ``(canonical_bits, id)`` for ``bits``.

        The canonical object is whichever int first carried this value;
        callers should adopt it so equal sets alias one object.
        """
        entry = self._by_value.get(bits)
        if entry is not None:
            self.intern_hits += 1
            return entry
        if len(self._by_value) >= self.table_capacity:
            self._evict_value()
        entry = (bits, self._next_id)
        self._next_id += 1
        self._by_value[bits] = entry
        self.nodes_created += 1
        live = len(self._by_value)
        if live > self.peak_nodes:
            self.peak_nodes = live
        return entry

    def _evict_value(self) -> None:
        """Drop the oldest non-empty canonical value (FIFO)."""
        for value in self._by_value:
            if value != 0:
                del self._by_value[value]
                self.memo_evictions += 1
                return

    # ------------------------------------------------------------------
    # Memoized operations
    # ------------------------------------------------------------------

    def union(self, bits_a: int, id_a: int, bits_b: int, id_b: int) -> Tuple[int, int]:
        """Canonical ``(bits, id)`` for ``bits_a | bits_b``."""
        if id_a == id_b or id_b == 0:
            return bits_a, id_a
        if id_a == 0:
            return bits_b, id_b
        key = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
        hit = self._union_memo.get(key)
        if hit is not None:
            self.union_memo_hits += 1
            return hit
        self.union_memo_misses += 1
        merged = bits_a | bits_b
        if merged == bits_a:
            result = (bits_a, id_a)
        elif merged == bits_b:
            result = (bits_b, id_b)
        else:
            result = self.intern(merged)
        self._memo_store(self._union_memo, key, result)
        return result

    def with_added(self, bits: int, node_id: int, loc: int) -> Tuple[int, int]:
        """Canonical ``(bits, id)`` for ``bits | (1 << loc)``."""
        if (bits >> loc) & 1:
            return bits, node_id
        key = (node_id, loc)
        hit = self._add_memo.get(key)
        if hit is not None:
            self.add_memo_hits += 1
            return hit
        result = self.intern(bits | (1 << loc))
        self._memo_store(self._add_memo, key, result)
        return result

    def _memo_store(
        self, memo: Dict, key: Tuple[int, int], result: Tuple[int, int]
    ) -> None:
        if len(memo) >= self.memo_capacity:
            memo.pop(next(iter(memo)))
            self.memo_evictions += 1
        memo[key] = result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._by_value)

    def table_overhead_bytes(self) -> int:
        """Bookkeeping footprint of the table itself (the canonical
        values are charged via the live handles that alias them)."""
        return len(self._by_value) * self.BYTES_PER_ENTRY

    def stats_snapshot(self) -> InternStats:
        return InternStats(
            live_nodes=self.live_count,
            peak_nodes=self.peak_nodes,
            nodes_created=self.nodes_created,
            intern_hits=self.intern_hits,
            union_memo_hits=self.union_memo_hits,
            union_memo_misses=self.union_memo_misses,
            add_memo_hits=self.add_memo_hits,
            memo_evictions=self.memo_evictions,
        )

"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

Nodes live in a shared store; structural sharing is enforced by a *unique
table* mapping ``(level, low, high)`` triples to node ids, and the standard
reduction rule (``low == high`` collapses to the child) keeps diagrams
canonical.  Canonicity is what makes the representation attractive for
points-to analysis: set equality is a pointer comparison, and memoized
``apply`` gives set union/intersection in time proportional to the product
of the operand DAG sizes rather than the set cardinalities.

Terminals are node ids ``0`` (FALSE) and ``1`` (TRUE).  Variable *levels*
are integers; smaller levels sit closer to the root, so the level assignment
is the variable order.  The manager never garbage-collects: peak node count
is exactly the metric the paper's memory study needs (the BuDDy pool size),
and the workloads here are bounded.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

FALSE = 0
TRUE = 1

_OP_AND = "and"
_OP_OR = "or"
_OP_DIFF = "diff"
_OP_XOR = "xor"


class BDDManager:
    """Shared store for a family of ROBDDs over one variable order."""

    def __init__(self, var_count: int = 0) -> None:
        # Parallel arrays beat tuples-in-a-dict for speed and memory.
        self._level: List[int] = [2**31, 2**31]  # terminals sort below all vars
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple, int] = {}
        self._var_count = var_count
        self._var_nodes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    @property
    def var_count(self) -> int:
        return self._var_count

    def add_vars(self, count: int) -> int:
        """Append ``count`` fresh variables; return the first new level."""
        first = self._var_count
        self._var_count += count
        return first

    def mk(self, level: int, low: int, high: int) -> int:
        """Hash-consed node constructor applying the reduction rule."""
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, level: int) -> int:
        """The BDD of the single variable ``level``."""
        if not 0 <= level < self._var_count:
            raise ValueError(f"variable level {level} out of range")
        node = self._var_nodes.get(level)
        if node is None:
            node = self.mk(level, FALSE, TRUE)
            self._var_nodes[level] = node
        return node

    def nvar(self, level: int) -> int:
        """The BDD of the negated variable ``level``."""
        if not 0 <= level < self._var_count:
            raise ValueError(f"variable level {level} out of range")
        return self.mk(level, TRUE, FALSE)

    @property
    def node_count(self) -> int:
        """Total nodes ever allocated (terminals included) — the pool size."""
        return len(self._level)

    def dag_size(self, node: int) -> int:
        """Number of distinct nodes reachable from ``node`` (terminals included)."""
        seen = {FALSE, TRUE}
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.append(self._low[current])
            stack.append(self._high[current])
        return len(seen)

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------

    def apply_and(self, f: int, g: int) -> int:
        return self._apply(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        return self._apply(_OP_OR, f, g)

    def apply_diff(self, f: int, g: int) -> int:
        """``f AND NOT g`` — set difference."""
        return self._apply(_OP_DIFF, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self._apply(_OP_XOR, f, g)

    def negate(self, f: int) -> int:
        return self._apply(_OP_XOR, f, TRUE)

    def _apply(self, op: str, f: int, g: int) -> int:
        # Terminal cases per operator.
        if op == _OP_AND:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE or f == g:
                return f
            if f > g:  # AND is commutative: canonicalize cache key
                f, g = g, f
        elif op == _OP_OR:
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE or f == g:
                return f
            if f > g:
                f, g = g, f
        elif op == _OP_DIFF:
            if f == FALSE or g == TRUE or f == g:
                return FALSE
            if g == FALSE:
                return f
        else:  # XOR
            if f == g:
                return FALSE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f > g:
                f, g = g, f

        key = (op, f, g)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached

        level_f = self._level[f]
        level_g = self._level[g]
        level = min(level_f, level_g)
        f_low, f_high = (self._low[f], self._high[f]) if level_f == level else (f, f)
        g_low, g_high = (self._low[g], self._high[g]) if level_g == level else (g, g)
        result = self.mk(
            level,
            self._apply(op, f_low, g_low),
            self._apply(op, f_high, g_high),
        )
        self._apply_cache[key] = result
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = ("ite", f, g, h)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level[f], self._level[g], self._level[h])
        f_low, f_high = self._cofactors(f, level)
        g_low, g_high = self._cofactors(g, level)
        h_low, h_high = self._cofactors(h, level)
        result = self.mk(
            level,
            self.ite(f_low, g_low, h_low),
            self.ite(f_high, g_high, h_high),
        )
        self._apply_cache[key] = result
        return result

    def _cofactors(self, node: int, level: int) -> Tuple[int, int]:
        if self._level[node] == level:
            return self._low[node], self._high[node]
        return node, node

    # ------------------------------------------------------------------
    # Quantification, relational product, renaming
    # ------------------------------------------------------------------

    def exist(self, f: int, levels: Sequence[int]) -> int:
        """Existentially quantify the given variable levels out of ``f``."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._exist(f, level_set)

    def _exist(self, f: int, levels: frozenset) -> int:
        if f <= TRUE:
            return f
        level = self._level[f]
        if all(level > lv for lv in levels):
            # f is below every quantified variable: nothing left to remove.
            return f
        key = ("exist", f, levels)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        low = self._exist(self._low[f], levels)
        high = self._exist(self._high[f], levels)
        if level in levels:
            result = self._apply(_OP_OR, low, high)
        else:
            result = self.mk(level, low, high)
        self._apply_cache[key] = result
        return result

    def relprod(self, f: int, g: int, levels: Sequence[int]) -> int:
        """``EXISTS levels . f AND g`` without building the conjunction.

        This is the workhorse of the BLQ solver: one relational product per
        propagation or constraint-resolution step.
        """
        level_set = frozenset(levels)
        return self._relprod(f, g, level_set)

    def _relprod(self, f: int, g: int, levels: frozenset) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE and g == TRUE:
            return TRUE
        key = ("relprod", f, g, levels)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level[f], self._level[g])
        if all(level > lv for lv in levels):
            # No quantified variables remain in either operand.
            result = self._apply(_OP_AND, f, g)
        else:
            f_low, f_high = self._cofactors(f, level)
            g_low, g_high = self._cofactors(g, level)
            low = self._relprod(f_low, g_low, levels)
            high = self._relprod(f_high, g_high, levels)
            if level in levels:
                result = self._apply(_OP_OR, low, high)
            else:
                result = self.mk(level, low, high)
        self._apply_cache[key] = result
        return result

    def replace(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables per ``mapping`` (old level -> new level).

        The mapping must be order-preserving (monotone on levels) so the
        result can be rebuilt top-down in a single pass; this holds for all
        the interleaved-domain renames the solvers perform, and is checked.
        """
        if not mapping:
            return f
        items = sorted(mapping.items())
        for (old_a, new_a), (old_b, new_b) in zip(items, items[1:]):
            if not (old_a < old_b and new_a < new_b):
                raise ValueError("replace mapping must be order-preserving")
        frozen = tuple(items)
        return self._replace(f, dict(items), frozen)

    def _replace(self, f: int, mapping: Dict[int, int], frozen: Tuple) -> int:
        if f <= TRUE:
            return f
        key = ("replace", f, frozen)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        level = self._level[f]
        new_level = mapping.get(level, level)
        low = self._replace(self._low[f], mapping, frozen)
        high = self._replace(self._high[f], mapping, frozen)
        result = self._mk_ordered(new_level, low, high)
        self._apply_cache[key] = result
        return result

    def _mk_ordered(self, level: int, low: int, high: int) -> int:
        """``mk`` that tolerates a renamed level sinking below its children.

        Order-preserving renames keep the relative order of *renamed*
        variables, but a renamed variable can move past an unrenamed one;
        when that happens the node is pushed down recursively via ITE.
        """
        if level < self._level[low] and level < self._level[high]:
            return self.mk(level, low, high)
        return self.ite(self.var(level), high, low)

    # ------------------------------------------------------------------
    # Evaluation and enumeration
    # ------------------------------------------------------------------

    def evaluate(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        node = f
        while node > TRUE:
            level = self._level[node]
            try:
                value = assignment[level]
            except KeyError:
                raise ValueError(f"assignment missing variable {level}") from None
            node = self._high[node] if value else self._low[node]
        return node == TRUE

    def support(self, f: int) -> List[int]:
        """Sorted list of variable levels ``f`` depends on."""
        seen = set()
        levels = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return sorted(levels)

    def satcount(self, f: int, var_levels: Sequence[int]) -> int:
        """Number of satisfying assignments over exactly ``var_levels``.

        ``var_levels`` must be a superset of the support of ``f``.
        """
        order = sorted(var_levels)
        position = {level: i for i, level in enumerate(order)}
        total = len(order)
        cache: Dict[int, int] = {}

        def count(node: int) -> Tuple[int, int]:
            """Return (count below this node, position of node's level)."""
            if node == FALSE:
                return 0, total
            if node == TRUE:
                return 1, total
            if node in cache:
                return cache[node], position[self._level[node]]
            level_pos = position[self._level[node]]
            low_count, low_pos = count(self._low[node])
            high_count, high_pos = count(self._high[node])
            result = low_count * (1 << (low_pos - level_pos - 1)) + high_count * (
                1 << (high_pos - level_pos - 1)
            )
            cache[node] = result
            return result, level_pos

        top_count, top_pos = count(f)
        return top_count * (1 << top_pos)

    def allsat(self, f: int, var_levels: Sequence[int]) -> Iterator[Dict[int, bool]]:
        """Enumerate satisfying assignments of ``f`` over ``var_levels``.

        Free variables (in ``var_levels`` but not in the support along a
        path) are expanded to both polarities, so each yielded dict is a
        *total* assignment — this mirrors BuDDy's ``bdd_allsat``, which the
        paper identifies as the dominant cost of BDD points-to sets.
        """
        order = sorted(var_levels)
        level_set = set(order)

        def walk(node: int, index: int, partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if node == FALSE:
                return
            if index == len(order):
                yield dict(partial)
                return
            level = order[index]
            node_level = self._level[node] if node > TRUE else 2**31
            if node_level not in level_set and node > TRUE:
                raise ValueError(f"support variable {node_level} not enumerated")
            if node_level == level:
                for value, child in ((False, self._low[node]), (True, self._high[node])):
                    partial[level] = value
                    yield from walk(child, index + 1, partial)
                del partial[level]
            else:
                # node is constant in this variable: branch both ways.
                for value in (False, True):
                    partial[level] = value
                    yield from walk(node, index + 1, partial)
                del partial[level]

        yield from walk(f, 0, {})

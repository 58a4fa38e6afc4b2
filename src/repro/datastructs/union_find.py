"""Union-find (disjoint sets) with union-by-rank and path compression.

The paper collapses strongly connected components "using a union-find data
structure with both union-by-rank and path compression heuristics"
(Section 5.1).  Every solver shares this implementation: when a cycle is
found, the member nodes are unioned and exactly one representative keeps the
merged points-to set and edge set.
"""

from __future__ import annotations

from typing import List


class UnionFind:
    """Disjoint sets over the integers ``0 .. n-1``, growable.

    >>> uf = UnionFind(4)
    >>> uf.union(0, 1)
    0
    >>> uf.find(1)
    0
    >>> uf.find(0) == uf.find(1)
    True
    """

    __slots__ = ("_parent", "_rank")

    def __init__(self, size: int = 0) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._parent: List[int] = list(range(size))
        self._rank: List[int] = [0] * size

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Add one fresh singleton element and return its id."""
        node = len(self._parent)
        self._parent.append(node)
        self._rank.append(0)
        return node

    def find(self, node: int) -> int:
        """Representative of ``node``'s set, with path compression."""
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving root."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        rank = self._rank
        if rank[root_a] < rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if rank[root_a] == rank[root_b]:
            rank[root_a] += 1
        return root_a

    def union_into(self, winner: int, loser: int) -> int:
        """Merge, forcing ``winner``'s root to survive.

        Solvers need a deterministic survivor because the representative
        keeps the merged points-to set; rank-based tie-breaking would leave
        the caller guessing which node's state to keep.
        """
        root_w = self.find(winner)
        root_l = self.find(loser)
        if root_w == root_l:
            return root_w
        self._parent[root_l] = root_w
        if self._rank[root_w] <= self._rank[root_l]:
            self._rank[root_w] = self._rank[root_l] + 1
        return root_w

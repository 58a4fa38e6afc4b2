"""Unit and property tests for the union-find structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datastructs.union_find import UnionFind


class TestBasics:
    def test_initial_singletons(self):
        uf = UnionFind(4)
        assert len(uf) == 4
        assert all(uf.find(i) == i for i in range(4))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_union_merges(self):
        uf = UnionFind(4)
        root = uf.union(0, 1)
        assert uf.find(0) == uf.find(1) == root
        assert len({uf.find(i) for i in range(4)}) == 3

    def test_union_idempotent(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        roots = [uf.find(i) for i in range(3)]
        uf.union(1, 0)
        assert [uf.find(i) for i in range(3)] == roots

    def test_union_into_prefers_winner(self):
        uf = UnionFind(5)
        # Build rank on node 4's side to tempt rank-based tie-breaking.
        uf.union(3, 4)
        winner = uf.find(0)
        assert uf.union_into(winner, uf.find(3)) == winner
        assert uf.find(4) == winner

    def test_make_set(self):
        uf = UnionFind(1)
        node = uf.make_set()
        assert node == 1
        assert len(uf) == 2 and uf.find(node) == node


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_matches_naive_partition(self, size, merges):
        uf = UnionFind(size)
        partition = {i: {i} for i in range(size)}
        handle = {i: i for i in range(size)}  # element -> partition key

        for a, b in merges:
            a %= size
            b %= size
            uf.union(a, b)
            ka, kb = handle[a], handle[b]
            if ka != kb:
                partition[ka] |= partition[kb]
                for member in partition[kb]:
                    handle[member] = ka
                del partition[kb]

        for i in range(size):
            for j in range(size):
                assert (uf.find(i) == uf.find(j)) == (handle[i] == handle[j])
        assert len({uf.find(i) for i in range(size)}) == len(partition)

    @given(
        st.integers(min_value=2, max_value=30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40),
    )
    def test_union_into_winner_always_root(self, size, merges):
        uf = UnionFind(size)
        for a, b in merges:
            a %= size
            b %= size
            winner = uf.find(a)
            root = uf.union_into(winner, b)
            assert root == winner
            assert uf.find(b) == winner

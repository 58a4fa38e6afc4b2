"""The bignum ("intset") machinery: IntBitSet, IntInternTable, int family.

Three layers under test:

- :class:`IntBitSet` must agree operation-for-operation with
  :class:`SparseBitmap` (the solver shell swaps one for the other as
  the family's scratch layout);
- :class:`IntInternTable` canonicalization: equal values alias one int
  object, ids are monotone and never reused, memo hits and table
  evictions are semantically invisible;
- :class:`IntPointsToFamily` contracts the solvers rely on: copies are
  free until mutation, and memory accounting stays consistent across
  backing switches (bitmap promotion, forced eviction).
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructs.intern_table import IntInternTable
from repro.datastructs.intset import (
    INT_HEADER_BYTES,
    IntBitSet,
    bits_from_iter,
    bits_from_sparse_bitmap,
    int_memory_bytes,
    iter_bits,
)
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.points_to.intset import IntPointsToFamily

locs = st.integers(0, 300)
loc_lists = st.lists(locs, max_size=40)


def pair(xs):
    """The same value as an IntBitSet and as a SparseBitmap."""
    return IntBitSet(xs), SparseBitmap(xs)


class TestIntBitSetAgainstSparseBitmap:
    """Differential: every shared operation, same observable behavior."""

    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=80, deadline=None)
    def test_union(self, xs, ys):
        a_int, a_map = pair(xs)
        b_int, b_map = pair(ys)
        assert a_int.ior_and_test(b_int) == a_map.ior_and_test(b_map)
        assert list(a_int) == list(a_map) == sorted(set(xs) | set(ys))
        assert len(a_int) == len(a_map)

    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=80, deadline=None)
    def test_subset_and_intersection(self, xs, ys):
        a_int, a_map = pair(xs)
        b_int, b_map = pair(ys)
        assert a_int.issubset(b_int) == a_map.issubset(b_map)
        assert a_int.iand(b_int) == a_map.iand(b_map)
        assert list(a_int) == list(a_map) == sorted(set(xs) & set(ys))

    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=80, deadline=None)
    def test_difference(self, xs, ys):
        a_int, a_map = pair(xs)
        b_int, b_map = pair(ys)
        assert list(a_int.difference_iter(b_int)) == list(
            a_map.difference_iter(b_map)
        )
        assert a_int.difference_update(b_int) == a_map.difference_update(b_map)
        assert list(a_int) == list(a_map) == sorted(set(xs) - set(ys))

    @given(xs=loc_lists)
    @settings(max_examples=60, deadline=None)
    def test_iteration_membership_extrema(self, xs):
        a_int, a_map = pair(xs)
        assert list(a_int) == list(a_map)
        for x in set(xs):
            assert x in a_int
        assert bool(a_int) == bool(a_map)
        if xs:
            assert a_int.min() == a_map.min()
            assert a_int.max() == a_map.max()
        else:
            with pytest.raises(ValueError):
                a_int.min()
            with pytest.raises(ValueError):
                a_int.max()

    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=60, deadline=None)
    def test_equality_and_same_as(self, xs, ys):
        a_int, _ = pair(xs)
        b_int, _ = pair(ys)
        assert a_int.same_as(b_int) == (set(xs) == set(ys))
        assert (a_int == set(xs)) is True
        assert (a_int == b_int) == (set(xs) == set(ys))

    @given(xs=loc_lists)
    @settings(max_examples=40, deadline=None)
    def test_add_discard_copy(self, xs):
        a = IntBitSet()
        model = set()
        for x in xs:
            assert a.add(x) == (x not in model)
            model.add(x)
        clone = a.copy()
        for x in list(model):
            assert a.discard(x) is True
            assert a.discard(x) is False
        assert not a and len(a) == 0
        assert list(clone) == sorted(model)  # copy unaffected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntBitSet([-1])
        with pytest.raises(ValueError):
            IntBitSet().add(-3)
        assert -3 not in IntBitSet([1])
        assert IntBitSet([1]).discard(-3) is False

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(IntBitSet())

    @given(xs=loc_lists)
    @settings(max_examples=40, deadline=None)
    def test_bitmap_promotion_word_parallel(self, xs):
        """bits_from_sparse_bitmap == element-wise packing (the
        bitmap -> intset backing-switch path)."""
        bitmap = SparseBitmap(xs)
        assert bits_from_sparse_bitmap(bitmap) == bits_from_iter(xs)
        assert list(iter_bits(bits_from_sparse_bitmap(bitmap))) == sorted(set(xs))


class TestIntInternTable:
    def test_equal_values_alias_one_object(self):
        table = IntInternTable()
        a, id_a = table.intern(bits_from_iter([1, 5, 9]))
        b, id_b = table.intern(1 << 1 | 1 << 5 | 1 << 9)
        assert a is b and id_a == id_b
        assert table.intern_hits == 1

    def test_ids_monotone_never_reused(self):
        table = IntInternTable(table_capacity=4)
        seen = set()
        for n in range(1, 40):
            _, node_id = table.intern(1 << n)
            assert node_id not in seen  # evictions must not recycle ids
            seen.add(node_id)

    def test_union_memo_hit_semantically_invisible(self):
        table = IntInternTable()
        a, id_a = table.intern(bits_from_iter([1, 2]))
        b, id_b = table.intern(bits_from_iter([2, 3]))
        first = table.union(a, id_a, b, id_b)
        second = table.union(b, id_b, a, id_a)  # order-normalized key
        assert first == second == (bits_from_iter([1, 2, 3]), first[1])
        assert table.union_memo_hits == 1

    def test_union_absorption_returns_operand(self):
        table = IntInternTable()
        small, small_id = table.intern(bits_from_iter([4]))
        big, big_id = table.intern(bits_from_iter([4, 7]))
        assert table.union(big, big_id, small, small_id) == (big, big_id)
        assert table.union(small, small_id, big, big_id) == (big, big_id)
        assert table.union(small, small_id, 0, table.empty_id) == (small, small_id)

    def test_with_added(self):
        table = IntInternTable()
        bits, node_id = table.intern(bits_from_iter([2]))
        added, added_id = table.with_added(bits, node_id, 6)
        assert added == bits_from_iter([2, 6]) and added_id != node_id
        assert table.with_added(added, added_id, 6) == (added, added_id)
        table.with_added(bits, node_id, 6)
        assert table.add_memo_hits == 1

    def test_eviction_keeps_table_bounded_and_correct(self):
        table = IntInternTable(table_capacity=8, memo_capacity=8)
        values = [bits_from_iter([n, n + 1]) for n in range(50)]
        for value in values:
            table.intern(value)
        assert table.live_count <= 8
        # Re-interning an evicted value is correct, just a fresh id.
        canon, node_id = table.intern(values[0])
        assert canon == values[0] and node_id > 0
        # Unions against post-eviction ids still compute exact results.
        other, other_id = table.intern(bits_from_iter([200]))
        assert table.union(canon, node_id, other, other_id)[0] == (
            values[0] | bits_from_iter([200])
        )

    def test_empty_value_pinned_through_eviction(self):
        table = IntInternTable(table_capacity=2)
        for n in range(10):
            table.intern(1 << n)
        assert table.intern(0) == (0, 0)

    def test_stats_snapshot_fields(self):
        table = IntInternTable()
        a, id_a = table.intern(bits_from_iter([1]))
        b, id_b = table.intern(bits_from_iter([2]))
        table.union(a, id_a, b, id_b)
        stats = table.stats_snapshot().as_dict()
        assert stats["live_nodes"] == table.live_count
        assert stats["union_memo_misses"] == 1

    def test_rejects_bad_capacities(self):
        with pytest.raises(ValueError):
            IntInternTable(memo_capacity=0)
        with pytest.raises(ValueError):
            IntInternTable(table_capacity=0)


class TestIntFamilyContracts:
    def test_copy_free_until_mutation(self):
        family = IntPointsToFamily()
        a = family.make_from([3, 30, 44])
        b = a.copy()
        assert b.bits is a.bits and b.node_id == a.node_id
        b.add(7)
        assert b.bits is not a.bits
        assert sorted(a) == [3, 30, 44] and sorted(b) == [3, 7, 30, 44]

    def test_equal_sets_alias_and_same_as(self):
        family = IntPointsToFamily()
        a = family.make_from([3, 30, 44])
        b = family.make_from([44, 3, 30])
        assert a.bits is b.bits
        assert a.same_as(b)
        b.add(8)
        assert not a.same_as(b)

    def test_scratch_is_int_backed(self):
        family = IntPointsToFamily()
        scratch = family.make_scratch()
        assert isinstance(scratch, IntBitSet)

    def test_intern_stats_exposed(self):
        family = IntPointsToFamily()
        family.make_from([1, 2, 3])
        stats = family.intern_stats()
        assert stats is not None and stats.live_nodes >= 2


class TestMemoryAccountingAcrossBackingSwitches:
    """Satellite regression: the books must stay consistent when a set's
    backing changes underneath it — bitmap promotion into the int family,
    or re-interning after a forced table eviction."""

    def test_shared_value_charged_once(self):
        family = IntPointsToFamily()
        first = family.make_from(range(0, 2000, 130))
        baseline = family.memory_bytes()
        clones = [first.copy() for _ in range(20)]
        assert family.memory_bytes() == baseline  # twenty handles, one bignum
        assert len(clones) == 20

    def test_dead_handles_release_bytes(self):
        family = IntPointsToFamily()
        keep = family.make_from([1])
        big = family.make_from(range(0, 4000, 7))
        with_big = family.memory_bytes()
        del big
        gc.collect()
        assert family.memory_bytes() < with_big
        assert keep.contains(1)

    def test_bitmap_promotion_accounted_like_native(self):
        """Promoting a SparseBitmap must cost exactly what building the
        same value natively costs — no stale bitmap-sized residue."""
        source = SparseBitmap(range(0, 1000, 13))
        promoted_family = IntPointsToFamily()
        promoted = promoted_family.make_from_bits(bits_from_sparse_bitmap(source))
        native_family = IntPointsToFamily()
        native = native_family.make_from(range(0, 1000, 13))
        assert sorted(promoted) == sorted(native)
        assert promoted_family.memory_bytes() == native_family.memory_bytes()

    def test_eviction_keeps_live_bytes_consistent(self):
        """Force canonical-table evictions with a tiny capacity: bytes
        must track live handles exactly — evicted-but-referenced values
        stay charged, re-interned duplicates are not double-charged."""
        family = IntPointsToFamily(memo_capacity=4)
        family.table.table_capacity = 4
        handles = [family.make_from([n, n + 64, n + 128]) for n in range(32)]
        assert family.table.live_count <= 4  # evictions definitely fired

        def expected_bytes():
            distinct = {id(h.bits): int_memory_bytes(h.bits) for h in handles}
            return sum(distinct.values()) + family.table.table_overhead_bytes()

        assert family.memory_bytes() == expected_bytes()
        # Mutations that re-intern evicted values switch the backing;
        # the accounting must follow the new backing, not the old.
        backings_before = [id(h.bits) for h in handles[:8]]
        for handle in handles[:8]:
            handle.ior_and_test(handles[-1])
        gc.collect()
        assert family.memory_bytes() == expected_bytes()
        assert [id(h.bits) for h in handles[:8]] != backings_before

    def test_empty_family_charges_only_table(self):
        family = IntPointsToFamily()
        handle = family.make()
        assert family.memory_bytes() == (
            INT_HEADER_BYTES + family.table.table_overhead_bytes()
        )
        assert len(handle) == 0

"""The bignum ("intset") machinery: IntBitSet and the int family.

- :class:`IntBitSet` must agree operation-for-operation with
  :class:`SparseBitmap` (the two are the ``int`` and ``bitmap``
  families' sets, and the solver shell uses either as scratch state);
- :class:`IntPointsToFamily` contracts the solvers rely on: copies are
  free until mutation, a union equal to its source adopts the source's
  int, and memory accounting charges each live backing int once.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructs.intset import (
    INT_HEADER_BYTES,
    IntBitSet,
    int_memory_bytes,
)
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.points_to.intset import IntPointsToFamily

locs = st.integers(0, 300)
loc_lists = st.lists(locs, max_size=40)


def pair(xs):
    """The same value as an IntBitSet and as a SparseBitmap."""
    return IntBitSet(xs), SparseBitmap(xs)


def make_holding(family, locs):
    """A set made by ``family`` holding exactly ``locs``."""
    made = family.make()
    for loc in locs:
        made.add(loc)
    return made


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
        c_int, c_map = pair(xs)
        c_int.ior(b_int)
        c_map.ior(b_map)
        assert list(c_int) == list(c_map) == list(a_int)

    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=80, deadline=None)
    def test_difference(self, xs, ys):
        a_int, a_map = pair(xs)
        b_int, b_map = pair(ys)
        assert a_int.difference_update(b_int) == a_map.difference_update(b_map)
        assert list(a_int) == list(a_map) == sorted(set(xs) - set(ys))

    @given(xs=loc_lists)
    @settings(max_examples=60, deadline=None)
    def test_iteration_membership_extrema(self, xs):
        a_int, a_map = pair(xs)
        assert list(a_int) == list(a_map)
        for x in range(-1, 302):
            assert (x in a_int) == (x in a_map)
        assert bool(a_int) == bool(a_map)
        if xs:
            # Ascending iteration puts the extrema at both ends.
            assert list(a_int)[0] == min(xs)
            assert list(a_int)[-1] == max(xs)

    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=60, deadline=None)
    def test_equality_and_same_as(self, xs, ys):
        a_int, a_map = pair(xs)
        b_int, b_map = pair(ys)
        assert a_int.same_as(b_int) == a_map.same_as(b_map) == (set(xs) == set(ys))
        assert set(a_int) == set(xs)

    @given(xs=loc_lists)
    @settings(max_examples=40, deadline=None)
    def test_add_discard_copy(self, xs):
        a_int, a_map = pair([])
        model = set()
        for x in xs:
            assert a_int.add(x) == a_map.add(x) == (x not in model)
            model.add(x)
        clone_int, clone_map = a_int.copy(), a_map.copy()
        for x in list(model):
            # Discard one element at a time through the difference.
            one_int, one_map = pair([x])
            assert a_int.difference_update(one_int) is True
            assert a_map.difference_update(one_map) is True
            assert a_int.difference_update(one_int) is False
            assert a_map.difference_update(one_map) is False
        assert not a_int and len(a_int) == len(a_map) == 0
        # Copies are unaffected.
        assert list(clone_int) == list(clone_map) == sorted(model)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntBitSet([-1])
        with pytest.raises(ValueError):
            IntBitSet().add(-3)
        assert -3 not in IntBitSet([1])


class TestIntFamilyContracts:
    def test_copy_free_until_mutation(self):
        family = IntPointsToFamily()
        a = make_holding(family, [3, 30, 44])
        b = a.copy()
        assert b.bits is a.bits
        b.add(7)
        assert b.bits is not a.bits
        assert sorted(a) == [3, 30, 44] and sorted(b) == [3, 7, 30, 44]

    def test_equal_sets_same_as(self):
        family = IntPointsToFamily()
        a = make_holding(family, [3, 30, 44])
        b = make_holding(family, [44, 3, 30])
        assert a.same_as(b)
        b.add(8)
        assert not a.same_as(b)

    def test_scratch_is_int_backed(self):
        family = IntPointsToFamily()
        scratch = family.make_scratch()
        assert isinstance(scratch, IntBitSet)

    def test_union_equal_to_source_adopts_its_int(self):
        family = IntPointsToFamily()
        source = make_holding(family, range(0, 3000, 11))
        target = make_holding(family, range(0, 3000, 22))  # a subset of source
        assert target.ior_and_test(source) is True
        assert target.bits is source.bits
        # Two live sets, one int: charged once.
        assert family.memory_bytes() == int_memory_bytes(source.bits)
        assert target.ior_and_test(source) is False


class TestMemoryAccountingAcrossBackingSwitches:
    """The books follow the live sets as their backing ints change:
    shared ints are charged once, dead ones not at all."""

    def test_shared_value_charged_once(self):
        family = IntPointsToFamily()
        first = make_holding(family, range(0, 2000, 130))
        baseline = family.memory_bytes()
        clones = [first.copy() for _ in range(20)]
        assert family.memory_bytes() == baseline  # twenty copies, one bignum
        assert len(clones) == 20

    def test_dead_handles_release_bytes(self):
        family = IntPointsToFamily()
        keep = make_holding(family, [1])
        big = make_holding(family, range(0, 4000, 7))
        with_big = family.memory_bytes()
        del big
        gc.collect()
        assert family.memory_bytes() < with_big
        assert 1 in keep

    def test_empty_charges_only_handle_header(self):
        family = IntPointsToFamily()
        made = family.make()
        assert family.memory_bytes() == INT_HEADER_BYTES
        assert len(made) == 0

"""Tests for the three points-to set representations behind one protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.points_to.bdd_set import BDDPointsToFamily
from repro.points_to.bitmap_set import BitmapPointsToFamily
from repro.points_to.interface import FAMILY_KINDS, PointsToSet, make_family

FAMILIES = list(FAMILY_KINDS)
locs = st.integers(0, 99)
loc_lists = st.lists(locs, max_size=30)


@pytest.fixture(params=FAMILIES)
def family(request):
    return make_family(request.param, 100)


class TestProtocol:
    def test_factory_names(self):
        for kind in FAMILY_KINDS:
            assert make_family(kind, 10).name == kind

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_family("rle", 10)

    def test_protocol_conformance(self, family):
        assert isinstance(family.make(), PointsToSet)

    def test_add_and_contains(self, family):
        s = family.make()
        assert s.add(3) is True
        assert s.add(3) is False
        assert 3 in s
        assert 4 not in s

    def test_len_and_iter(self, family):
        s = family.make()
        for loc in (9, 2, 40):
            s.add(loc)
        assert len(s) == 3
        assert sorted(s) == [2, 9, 40]

    def test_ior_and_test(self, family):
        a, b = family.make(), family.make()
        a.add(1)
        b.add(1)
        b.add(2)
        assert a.ior_and_test(b) is True
        assert a.ior_and_test(b) is False
        assert sorted(a) == [1, 2]

    def test_same_as(self, family):
        a, b = family.make(), family.make()
        for loc in (4, 7):
            a.add(loc)
            b.add(loc)
        assert a.same_as(b)
        b.add(8)
        assert not a.same_as(b)

    def test_empty_sets_equal(self, family):
        assert family.make().same_as(family.make())

    def test_copy_independent(self, family):
        a = family.make()
        a.add(1)
        b = a.copy()
        b.add(2)
        assert 2 not in a
        assert 1 in b

    def test_memory_accounting_positive(self, family):
        s = family.make()
        for loc in range(20):
            s.add(loc)
        assert family.memory_bytes() > 0


class TestFamilySpecific:
    def test_bdd_sets_share_one_manager(self):
        family = BDDPointsToFamily(50)
        a, b = family.make(), family.make()
        a.add(7)
        b.add(7)
        # Canonicity within a shared manager: same set, same node.
        assert a.node == b.node

    def test_bdd_same_as_is_node_equality(self):
        family = BDDPointsToFamily(50)
        a, b = family.make(), family.make()
        for loc in (3, 30, 44):
            a.add(loc)
        for loc in (44, 3, 30):
            b.add(loc)
        assert a.node == b.node  # order-insensitive canonical form

    def test_bdd_handles_tiny_domain(self):
        family = BDDPointsToFamily(0)  # clamped to 1
        s = family.make()
        s.add(0)
        assert 0 in s

    def test_bitmap_memory_tracks_live_sets_only(self):
        family = BitmapPointsToFamily()
        s = family.make()
        for loc in range(0, 2000, 130):
            s.add(loc)
        before = family.memory_bytes()
        del s
        import gc

        gc.collect()
        assert family.memory_bytes() < before

    @pytest.mark.parametrize("kind", ["bitmap", "int"])
    def test_sets_are_the_scratch_class(self, kind):
        family = make_family(kind, 100)
        assert type(family.make()) is type(family.make_scratch())

    @pytest.mark.parametrize("kind", ["bitmap", "int"])
    def test_only_made_sets_are_charged(self, kind):
        family = make_family(kind, 100)
        made = family.make()
        for loc in range(0, 3000, 7):
            made.add(loc)
        charged = family.memory_bytes()
        copy = made.copy()
        copy.add(5000)
        scratch = family.make_scratch()
        scratch.add(6000)
        assert family.memory_bytes() == charged

    def test_bdd_pool_accounting_monotone(self):
        family = BDDPointsToFamily(100)
        base = family.memory_bytes()
        s = family.make()
        for loc in range(50):
            s.add(loc)
        assert family.memory_bytes() >= base


class TestProperties:
    @pytest.mark.parametrize("kind", FAMILIES)
    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=60, deadline=None)
    def test_union_matches_set_algebra(self, kind, xs, ys):
        family = make_family(kind, 100)
        a, b = family.make(), family.make()
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        changed = a.ior_and_test(b)
        assert set(a) == set(xs) | set(ys)
        assert changed == (not set(ys) <= set(xs))
        assert len(a) == len(set(xs) | set(ys))

    @pytest.mark.parametrize("kind", FAMILIES)
    @given(xs=loc_lists, ys=loc_lists)
    @settings(max_examples=60, deadline=None)
    def test_same_as_matches_set_equality(self, kind, xs, ys):
        family = make_family(kind, 100)
        a, b = family.make(), family.make()
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        assert a.same_as(b) == (set(xs) == set(ys))

    @given(xs=loc_lists)
    @settings(max_examples=40, deadline=None)
    def test_representations_agree(self, xs):
        sets = [make_family(kind, 100).make() for kind in FAMILIES]
        reference = sets[0]
        for x in xs:
            novelties = {s.add(x) for s in sets}
            assert len(novelties) == 1
        for other in sets[1:]:
            assert sorted(reference) == sorted(other)
            assert len(reference) == len(other)

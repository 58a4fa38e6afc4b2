"""Tests for the HCD offline analysis (Section 4.2, Figure 3)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintKind, ConstraintSystem
from repro.preprocess import hcd_offline
from repro.preprocess.hcd_offline import hcd_offline_analysis
from strategies import constraint_systems


class TestPaperExample:
    def test_figure3(self):
        """The paper's running example: a=&c; d=c; b=*a; *a=b.

        The offline graph puts *a and b in a cycle, so L must contain the
        tuple (a, b).
        """
        b = ConstraintBuilder()
        va, vb, vc, vd = b.var("a"), b.var("b"), b.var("c"), b.var("d")
        b.address_of(va, vc)
        b.assign(vd, vc)
        b.load(vb, va)  # b = *a
        b.store(va, vb)  # *a = b
        result = hcd_offline_analysis(b.build())
        assert result.pairs == {va: [(0, vb)]}
        assert result.direct_groups == []


class TestDirectSCCs:
    def test_copy_cycle_collapsible_offline(self):
        b = ConstraintBuilder()
        x, y, z = b.var("x"), b.var("y"), b.var("z")
        b.assign(y, x)
        b.assign(z, y)
        b.assign(x, z)
        result = hcd_offline_analysis(b.build())
        assert result.direct_groups == [[x, y, z]]
        assert result.pairs == {}

    def test_chain_produces_nothing(self):
        b = ConstraintBuilder()
        x, y, z = b.var("x"), b.var("y"), b.var("z")
        b.assign(y, x)
        b.assign(z, y)
        result = hcd_offline_analysis(b.build())
        assert result.direct_groups == []
        assert result.pairs == {}

    def test_base_constraints_ignored(self):
        b = ConstraintBuilder()
        x, y = b.var("x"), b.var("y")
        b.address_of(x, y)
        b.address_of(y, x)
        result = hcd_offline_analysis(b.build())
        assert result.direct_groups == []
        assert result.pairs == {}

    def test_self_copy_not_a_cycle(self):
        b = ConstraintBuilder()
        x = b.var("x")
        b.assign(x, x)
        result = hcd_offline_analysis(b.build())
        assert result.direct_groups == []


class TestRefSCCs:
    def test_ref_cycle_through_two_directs(self):
        # c = *a ; d = c ; *a = d  — cycle ref(a) -> c -> d -> ref(a).
        b = ConstraintBuilder()
        va, vc, vd = b.var("a"), b.var("c"), b.var("d")
        b.load(vc, va)
        b.assign(vd, vc)
        b.store(va, vd)
        result = hcd_offline_analysis(b.build())
        assert va in result.pairs
        (offset, partner) = result.pairs[va][0]
        assert offset == 0
        assert partner in (vc, vd)

    def test_offsets_tracked_per_ref(self):
        # load/store through a+1 forming the ref cycle at offset 1.
        b = ConstraintBuilder()
        b.function("f", params=[])
        va, vc = b.var("a"), b.var("c")
        b.load(vc, va, offset=1)
        b.store(va, vc, offset=1)
        result = hcd_offline_analysis(b.build())
        assert result.pairs[va] == [(1, vc)]

    def test_multi_ref_scc_certification(self):
        """Two refs in one SCC: each is certified independently.

        b = *a; *e = b; c = *e; *a = c builds the SCC
        ref(a) -> b -> ref(e) -> c -> ref(a).  Removing either ref breaks
        the cycle, so no pair may be emitted for either (collapsing would
        be unsound if one pointer stays empty).
        """
        builder = ConstraintBuilder()
        va, vb, vc, ve = (builder.var(n) for n in "abce")
        builder.load(vb, va)  # ref(a) -> b
        builder.store(ve, vb)  # b -> ref(e)
        builder.load(vc, ve)  # ref(e) -> c
        builder.store(va, vc)  # c -> ref(a)
        result = hcd_offline_analysis(builder.build())
        assert result.pairs == {}

    def test_multi_ref_scc_with_direct_subcycle(self):
        """A multi-ref SCC where one ref still cycles without the other.

        ref(a) <-> b is a self-contained cycle; e's ref joins the SCC via
        b but needs ref(a) to get back, so only (a, b) is certified.
        """
        builder = ConstraintBuilder()
        va, vb, ve = builder.var("a"), builder.var("b"), builder.var("e")
        builder.load(vb, va)  # ref(a) -> b
        builder.store(va, vb)  # b -> ref(a)
        builder.store(ve, vb)  # b -> ref(e)
        builder.load(vb, ve)  # ref(e) -> b  (joins the same SCC)
        result = hcd_offline_analysis(builder.build())
        assert va in result.pairs
        assert result.pairs[va] == [(0, vb)]
        assert ve in result.pairs  # ref(e) <-> b is itself a 2-cycle
        assert result.pairs[ve] == [(0, vb)]

    def test_offline_time_recorded(self):
        b = ConstraintBuilder()
        x = b.var("x")
        b.load(x, x)
        result = hcd_offline_analysis(b.build())
        assert result.offline_seconds >= 0.0


class TestNodesWithEdges:
    """Tarjan runs over the nodes that have an edge, not ``range(num_vars)``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_tarjan_receives_only_nodes_with_an_edge(self, monkeypatch, seed):
        calls = []
        real = hcd_offline.tarjan_scc

        def recording(nodes, successors):
            nodes = list(nodes)
            calls.append((nodes, successors))
            return real(nodes, successors)

        monkeypatch.setattr(hcd_offline, "tarjan_scc", recording)
        system = random_system(seed, max_vars=40)
        hcd_offline_analysis(system)
        nodes, successors = calls[0]  # the main pass; later calls certify refs
        assert nodes == sorted(set(nodes))
        targets = {succ for node in nodes for succ in successors(node)}
        assert all(successors(node) or node in targets for node in nodes)
        variables, refs = set(), set()
        for c in system.constraints:
            if c.kind is ConstraintKind.COPY and c.src != c.dst:
                variables.update((c.src, c.dst))
            elif c.kind is ConstraintKind.LOAD:
                variables.add(c.dst)
                refs.add((c.src, c.offset))
            elif c.kind is ConstraintKind.STORE:
                variables.add(c.src)
                refs.add((c.dst, c.offset))
        assert [n for n in nodes if n < system.num_vars] == sorted(variables)
        assert len([n for n in nodes if n >= system.num_vars]) == len(refs)

    @given(system=constraint_systems(), padding=st.integers(1, 40))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_unused_variables_change_nothing(self, system, padding):
        padded = ConstraintSystem(
            list(system.names) + [f"pad{i}" for i in range(padding)],
            system.constraints,
            system.functions,
            system.object_blocks,
        )
        plain, wide = hcd_offline_analysis(system), hcd_offline_analysis(padded)
        assert wide.pairs == plain.pairs
        assert wide.direct_groups == plain.direct_groups

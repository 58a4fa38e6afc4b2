"""Tests for the SCC algorithms (Tarjan and Nuutila's variant)."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.scc import nuutila_scc, tarjan_scc

ALGORITHMS = [tarjan_scc, nuutila_scc]


def adjacency(edges, n):
    table = {i: [] for i in range(n)}
    for a, b in edges:
        table[a].append(b)
    return lambda node: table.get(node, ())


@pytest.mark.parametrize("scc", ALGORITHMS)
class TestKnownGraphs:
    def test_empty_graph(self, scc):
        assert scc([], lambda n: ()) == []

    def test_singletons(self, scc):
        components = scc(range(3), lambda n: ())
        assert sorted(map(tuple, map(sorted, components))) == [(0,), (1,), (2,)]

    def test_self_loop_is_singleton_component(self, scc):
        components = scc([0], lambda n: [0])
        assert components == [[0]]

    def test_two_cycle(self, scc):
        succ = adjacency([(0, 1), (1, 0)], 2)
        components = scc(range(2), succ)
        assert sorted(components[0]) == [0, 1]

    def test_chain_has_no_cycles(self, scc):
        succ = adjacency([(0, 1), (1, 2), (2, 3)], 4)
        components = scc(range(4), succ)
        assert all(len(c) == 1 for c in components)

    def test_reverse_topological_emission(self, scc):
        # 0 -> 1 -> 2: sinks must be emitted first.
        succ = adjacency([(0, 1), (1, 2)], 3)
        components = [c[0] for c in scc(range(3), succ)]
        assert components.index(2) < components.index(1) < components.index(0)

    def test_nested_cycles(self, scc):
        # Two 2-cycles bridged by one edge form two components.
        succ = adjacency([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], 4)
        components = sorted(map(tuple, map(sorted, scc(range(4), succ))))
        assert components == [(0, 1), (2, 3)]

    def test_duplicate_edges_tolerated(self, scc):
        succ = adjacency([(0, 1), (0, 1), (1, 0), (1, 0)], 2)
        components = scc(range(2), succ)
        assert sorted(components[0]) == [0, 1]

    def test_big_ring(self, scc):
        n = 500  # would overflow a recursive implementation around 1000
        succ = adjacency([(i, (i + 1) % n) for i in range(n)], n)
        components = scc(range(n), succ)
        assert len(components) == 1
        assert len(components[0]) == n


edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=60
)


class TestAgainstNetworkx:
    @given(edge_lists)
    def test_tarjan_matches_networkx(self, edges):
        self._check(tarjan_scc, edges)

    @given(edge_lists)
    def test_nuutila_matches_networkx(self, edges):
        self._check(nuutila_scc, edges)

    @given(edge_lists)
    def test_tarjan_and_nuutila_agree(self, edges):
        n = 15
        succ = adjacency(edges, n)
        a = sorted(tuple(sorted(c)) for c in tarjan_scc(range(n), succ))
        b = sorted(tuple(sorted(c)) for c in nuutila_scc(range(n), succ))
        assert a == b

    @staticmethod
    def _check(scc, edges):
        n = 15
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        expected = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(graph))
        actual = sorted(tuple(sorted(c)) for c in scc(range(n), adjacency(edges, n)))
        assert actual == expected

    @given(edge_lists)
    def test_emission_order_is_reverse_topological(self, edges):
        n = 15
        succ = adjacency(edges, n)
        components = tarjan_scc(range(n), succ)
        position = {}
        for index, component in enumerate(components):
            for node in component:
                position[node] = index
        for a, b in edges:
            if position[a] != position[b]:
                # successor components must be emitted before their preds
                assert position[b] < position[a]

"""Tests for the online constraint graph (edges, collapse, accounting)."""

import pytest

from repro.constraints.builder import ConstraintBuilder
from repro.graph.constraint_graph import ConstraintGraph
from repro.points_to.interface import make_family


def build_graph(setup):
    b = ConstraintBuilder()
    nodes = setup(b)
    system = b.build()
    graph = ConstraintGraph(system, make_family("bitmap", system.num_vars))
    return graph, nodes


class TestConstruction:
    def test_initial_state(self, simple_system):
        graph = ConstraintGraph(simple_system, make_family("bitmap", 5))
        p, q, x, y, r = range(5)
        assert sorted(graph.pts_of(p)) == [x]
        assert sorted(graph.pts_of(q)) == [y]
        assert q in graph.succ[p]  # q = p
        assert (r, 0) in graph.loads[q]
        assert (p, 0) in graph.stores[q]

    def test_self_copy_ignored(self):
        b = ConstraintBuilder()
        a = b.var("a")
        b.assign(a, a)
        system = b.build()
        graph = ConstraintGraph(system, make_family("bitmap", 1))
        assert not graph.succ[a]


class TestEdges:
    def test_add_edge_novelty(self, simple_system):
        graph = ConstraintGraph(simple_system, make_family("bitmap", 5))
        assert graph.add_edge(2, 3) is True
        assert graph.add_edge(2, 3) is False

    def test_self_edge_dropped(self, simple_system):
        graph = ConstraintGraph(simple_system, make_family("bitmap", 5))
        assert graph.add_edge(2, 2) is False

    def test_successors_normalized(self):
        def setup(b):
            a, c, d = b.var("a"), b.var("c"), b.var("d")
            b.assign(c, a)  # a -> c
            b.assign(d, a)  # a -> d
            return a, c, d

        graph, (a, c, d) = build_graph(setup)
        graph.collapse([c, d])
        succs = set(graph.successors(a))
        assert len(succs) == 1
        assert graph.find(c) in succs


class TestCollapse:
    def test_collapse_merges_state(self):
        def setup(b):
            a, c, x, y = b.var("a"), b.var("c"), b.var("x"), b.var("y")
            b.address_of(a, x)
            b.address_of(c, y)
            b.load(b.var("l"), a)
            b.store(c, b.var("s"))
            return a, c

        graph, (a, c) = build_graph(setup)
        rep, merged = graph.collapse([a, c])
        assert merged == 1
        assert sorted(graph.pts_of(a)) == sorted(graph.pts_of(c))
        assert len(graph.pts_of(rep)) == 2
        assert graph.loads[rep] and graph.stores[rep]

    def test_collapse_idempotent(self):
        def setup(b):
            return b.var("a"), b.var("c")

        graph, (a, c) = build_graph(setup)
        graph.collapse([a, c])
        rep, merged = graph.collapse([a, c])
        assert merged == 0

    def test_collapse_empty_rejected(self, simple_system):
        graph = ConstraintGraph(simple_system, make_family("bitmap", 5))
        with pytest.raises(ValueError):
            graph.collapse([])

    def test_collapsed_node_count(self):
        def setup(b):
            return [b.var(f"n{i}") for i in range(5)]

        graph, nodes = build_graph(setup)
        _, merged = graph.collapse(nodes[:3])
        assert merged == 2
        assert len(list(graph.rep_nodes())) == 3

    def test_rep_nodes_after_collapse(self):
        def setup(b):
            return [b.var(f"n{i}") for i in range(4)]

        graph, nodes = build_graph(setup)
        graph.collapse(nodes[1:3])
        reps = list(graph.rep_nodes())
        assert len(reps) == 3

    def test_collapse_emits_cross_resolution_jobs(self):
        def setup(b):
            a, c = b.var("a"), b.var("c")
            la, lc = b.var("la"), b.var("lc")
            b.load(la, a)
            b.load(lc, c)
            return a, c, lc

        graph, (a, c, lc) = build_graph(setup)
        graph.complex_done[a].add(7)  # processed for a's constraints only
        rep, _ = graph.collapse([a, c])
        # 7 stays marked done, but a job records that it still owes a pass
        # over c's exclusive load constraint.
        assert 7 in graph.complex_done[rep]
        jobs = graph.pending_complex[rep]
        assert len(jobs) == 1
        loads, stores, offs, locs = jobs[0]
        assert loads == {(lc, 0)}
        assert list(locs) == [7]
        assert not stores
        assert not offs

    def test_collapse_no_job_when_other_side_trivial(self):
        def setup(b):
            a, c = b.var("a"), b.var("c")
            b.load(b.var("la"), a)
            return a, c

        graph, (a, c) = build_graph(setup)
        graph.complex_done[a].add(7)
        rep, _ = graph.collapse([a, c])
        assert 7 in graph.complex_done[rep]
        assert graph.pending_complex[rep] == []

    def test_collapse_no_job_for_shared_pointees(self):
        def setup(b):
            a, c = b.var("a"), b.var("c")
            b.load(b.var("la"), a)
            b.load(b.var("lc"), c)
            return a, c

        graph, (a, c) = build_graph(setup)
        graph.complex_done[a].add(7)
        graph.complex_done[c].add(7)  # both sides already processed 7
        rep, _ = graph.collapse([a, c])
        assert graph.pending_complex[rep] == []


class TestOffsets:
    def test_offset_target_function_block(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["x", "y"])
        plain = b.var("plain")
        system = b.build()
        graph = ConstraintGraph(system, make_family("bitmap", system.num_vars))
        assert graph.offset_target(f.node, 0) == f.node
        assert graph.offset_target(f.node, 1) == f.return_node
        assert graph.offset_target(f.node, 2) == f.params[0]
        assert graph.offset_target(f.node, 4) is None  # beyond the block
        assert graph.offset_target(plain, 1) is None

    def test_memory_accounting(self, simple_system):
        graph = ConstraintGraph(simple_system, make_family("bitmap", 5))
        assert graph.graph_memory_bytes() > 0

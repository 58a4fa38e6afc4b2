"""The compact id space of the ``--opt ovs|hu`` reduced system.

``preprocess_system`` renumbers what ``ovs`` and ``hu`` leave onto the
ids its constraints reach (plus whole blocks), in original order.  These
tests compare every solver on the compacted system against the same
solver on the uncompacted reduction, which ``hvn_reduce`` and
``offline_variable_substitution`` still return in the original id space.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import (
    Constraint,
    ConstraintSystem,
    FunctionInfo,
    ObjectBlock,
)
from repro.points_to.interface import FAMILY_KINDS
from repro.preprocess.hvn import (
    hvn_reduce,
    offline_variable_substitution,
    preprocess_system,
)
from repro.solvers.registry import all_solvers, make_solver
from repro.workloads import BENCHMARK_ORDER, generate_workload
from strategies import constraint_systems, pts_families

#: Solvers whose section 5.3 counters do not depend on the id space.
COUNTER_EXACT = ["naive", "lcd", "hcd", "blq", "lcd+hcd", "blq+hcd"]
#: Solvers that sweep every id or representative, so compaction may only
#: lower their nodes_searched (and move pkh03's order-driven counters).
SWEEPING = ["ht", "pkh", "pkh03", "ht+hcd", "pkh+hcd", "pkh03+hcd"]

stages = st.sampled_from(["ovs", "hu"])

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


#: Each stage's reduction in the original id space, before compaction.
UNCOMPACTED = {"ovs": offline_variable_substitution, "hu": hvn_reduce}


def uncompacted(system, stage):
    """The stage's reduction in the original id space, and its expander."""
    pre = UNCOMPACTED[stage](system)
    return pre.reduced, pre.expand


def pad(system, gaps):
    """``system`` with ``gaps[u % len(gaps)]`` unmentioned variables put
    before its ``u``-th unit (a whole block, or an id outside every
    block), and the new id of each old id."""
    spans = {node: info.block_size for node, info in system.functions.items()}
    spans.update((node, b.block_size) for node, b in system.object_blocks.items())
    names, new_id = [], []
    old = unit = 0
    while old < system.num_vars:
        names += [f"pad#{len(names)}" for _ in range(gaps[unit % len(gaps)])]
        unit += 1
        span = spans.get(old, 1)
        for member in range(old, old + span):
            new_id.append(len(names))
            names.append(system.name_of(member))
        old += span
    padded = ConstraintSystem(
        names,
        [
            Constraint(c.kind, new_id[c.dst], new_id[c.src], c.offset, c.prov)
            for c in system.constraints
        ],
        {
            new_id[node]: FunctionInfo(new_id[node], info.name, info.param_count)
            for node, info in system.functions.items()
        },
        {
            new_id[node]: ObjectBlock(new_id[node], b.name, b.size)
            for node, b in system.object_blocks.items()
        },
    )
    return padded, new_id


def live_closure(system):
    """Ids a constraint mentions, plus every block holding one."""
    live = set()
    for constraint in system.constraints:
        live.update((constraint.dst, constraint.src))
    spans = [(f.node, f.block_size) for f in system.functions.values()]
    spans += [(b.node, b.block_size) for b in system.object_blocks.values()]
    for node, size in spans:
        if live & set(range(node, node + size)):
            live.update(range(node, node + size))
    return live


class TestCounterParity:
    @given(
        system=constraint_systems(),
        stage=stages,
        algorithm=st.sampled_from(COUNTER_EXACT),
        pts=pts_families,
    )
    @SETTINGS
    def test_counters_equal_uncompacted(self, system, stage, algorithm, pts):
        compact = make_solver(system, algorithm, pts=pts, opt=stage)
        solution = compact.solve()
        reduced, expand = uncompacted(system, stage)
        plain = make_solver(reduced, algorithm, pts=pts, opt="none")
        assert solution == expand(plain.solve())
        for counter in ("propagations", "nodes_searched", "nodes_collapsed"):
            assert getattr(compact.stats, counter) == getattr(plain.stats, counter), counter

    @given(
        system=constraint_systems(),
        stage=stages,
        algorithm=st.sampled_from(SWEEPING),
        pts=pts_families,
    )
    @SETTINGS
    def test_sweeping_solvers_same_solution(self, system, stage, algorithm, pts):
        compact = make_solver(system, algorithm, pts=pts, opt=stage)
        reduced, expand = uncompacted(system, stage)
        plain = make_solver(reduced, algorithm, pts=pts, opt="none")
        assert compact.solve() == expand(plain.solve())


class TestStructure:
    @given(system=constraint_systems(), stage=stages)
    @SETTINGS
    def test_compact_space_is_the_live_closure(self, system, stage):
        pre = preprocess_system(system, stage)
        reduced, _ = uncompacted(system, stage)
        original_ids = pre.substitution.original_ids
        assert original_ids == sorted(live_closure(reduced))
        assert pre.reduced.num_vars == len(original_ids)
        assert len(pre.reduced) == len(reduced)
        for compact, constraint in zip(pre.reduced.constraints, reduced.constraints):
            assert compact.kind is constraint.kind
            assert original_ids[compact.dst] == constraint.dst
            assert original_ids[compact.src] == constraint.src
            assert compact.offset == constraint.offset
        for new, old in enumerate(original_ids):
            assert pre.reduced.name_of(new) == system.name_of(old)

    @given(system=constraint_systems(), stage=stages)
    @SETTINGS
    def test_blocks_stay_contiguous(self, system, stage):
        pre = preprocess_system(system, stage)
        original_ids = pre.substitution.original_ids
        blocks = [*pre.reduced.functions.values(), *pre.reduced.object_blocks.values()]
        originals = {**system.functions, **system.object_blocks}
        for block in blocks:
            old = original_ids[block.node]
            assert originals[old].name == block.name
            assert originals[old].max_offset == block.max_offset
            for slot in range(block.block_size):
                assert original_ids[block.node + slot] == old + slot
        kept = {original_ids[block.node] for block in blocks}
        for node in originals:
            assert (node in kept) == (node in set(original_ids))

    @pytest.mark.parametrize("stage", ["ovs", "hu"])
    def test_a_mentioned_field_keeps_its_whole_block(self, stage):
        b = ConstraintBuilder()
        for i in range(3):
            b.var(f"pad{i}")
        blk = b.object_block("s", ["f0", "f1"])
        x = b.var("x")
        b.address_of(blk.fields[1], x)  # the block's base is never mentioned
        system = b.build()
        pre = preprocess_system(system, stage)
        assert pre.reduced.names == ("s", "s.f0", "s.f1", "x")
        assert list(pre.reduced.object_blocks.values()) == [ObjectBlock(0, "s", 2)]
        solution = make_solver(system, "lcd+hcd", opt=stage).solve()
        assert solution == make_solver(system, "naive").solve()

    @given(system=constraint_systems(), stage=stages)
    @SETTINGS
    def test_merge_counters_speak_original_ids(self, system, stage):
        pre = preprocess_system(system, stage)
        plain = UNCOMPACTED[stage](system)
        assert plain.substitution.original_ids is None
        assert pre.substitution.var_to_rep == plain.substitution.var_to_rep
        assert pre.substitution.loc_members == plain.substitution.loc_members
        assert pre.merged_count() == plain.merged_count()
        assert pre.locations_merged() == plain.locations_merged()
        if stage == "ovs":
            assert pre.locations_merged() == 0


class TestMergedCount:
    """``merged_count`` is the number of original variables with no node
    of their own after the stage: those outside its compact id space."""

    @given(system=constraint_systems(), stage=stages)
    @SETTINGS
    def test_drawn_systems(self, system, stage):
        pre = preprocess_system(system, stage)
        assert pre.merged_count() + pre.reduced.num_vars == system.num_vars

    @pytest.mark.parametrize("stage", ["ovs", "hu"])
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_table2_profiles(self, name, stage):
        system = generate_workload(name, scale=1 / 512, seed=0)
        pre = preprocess_system(system, stage)
        assert pre.merged_count() + pre.reduced.num_vars == system.num_vars
        assert pre.merged_count() == UNCOMPACTED[stage](system).merged_count()


class TestUnmentionedIds:
    """The stages see only the ids their constraints reach: variables no
    constraint mentions, put anywhere outside a block, change nothing but
    the ids the result maps back to."""

    @given(
        system=constraint_systems(),
        stage=stages,
        gaps=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    )
    @SETTINGS
    def test_padding_changes_nothing(self, system, stage, gaps):
        padded, new_id = pad(system, gaps)
        pre = preprocess_system(system, stage)
        padded_pre = preprocess_system(padded, stage)
        assert padded_pre.reduced == pre.reduced
        assert [c.prov for c in padded_pre.reduced] == [c.prov for c in pre.reduced]
        assert padded_pre.passes == pre.passes
        sub, padded_sub = pre.substitution, padded_pre.substitution
        assert padded_sub.original_ids == [new_id[old] for old in sub.original_ids]
        assert padded_sub.loc_members == {
            new_id[rep]: tuple(new_id[loc] for loc in members)
            for rep, members in sub.loc_members.items()
        }
        solution = make_solver(system, "lcd+hcd", opt=stage).solve()
        padded_solution = make_solver(padded, "lcd+hcd", opt=stage).solve()
        expected = {
            new_id[var]: frozenset(new_id[loc] for loc in solution.points_to(var))
            for var in range(system.num_vars)
        }
        for var in range(padded.num_vars):
            assert padded_solution.points_to(var) == expected.get(var, frozenset())


class TestEmptyReduction:
    @pytest.fixture
    def copy_only(self):
        b = ConstraintBuilder()
        a, c = b.var("a"), b.var("b")
        b.assign(a, c)
        return b.build()

    @pytest.mark.parametrize("stage", ["ovs", "hu"])
    def test_reduces_to_an_empty_space(self, copy_only, stage):
        pre = preprocess_system(copy_only, stage)
        assert len(pre.reduced) == 0
        assert pre.reduced.num_vars == 0
        assert pre.substitution.original_ids == []

    @pytest.mark.parametrize("pts", FAMILY_KINDS)
    # Plus the ``naive+hcd`` alias, which builds an ``hcd`` solver.
    @pytest.mark.parametrize("algorithm", all_solvers() + ["naive+hcd"])
    def test_every_solver_solves_to_all_empty(self, copy_only, algorithm, pts):
        for stage in ("ovs", "hu"):
            solver = make_solver(copy_only, algorithm, pts=pts, opt=stage, sanitize=True)
            solution = solver.solve()
            assert solution.num_vars == 2
            assert solution.non_empty_count() == 0
            assert solution.by_name(copy_only.names) == {"a": frozenset(), "b": frozenset()}

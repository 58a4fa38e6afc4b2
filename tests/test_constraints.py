"""Tests for the constraint model, builder and text format."""

import copy
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import (
    PARAM_OFFSET,
    RETURN_OFFSET,
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    FunctionInfo,
    Provenance,
    is_heap_name,
    is_synthetic_name,
    owner_of,
)
from repro.constraints.parser import (
    ConstraintParseError,
    dumps_constraints,
    loads_constraints,
)
from repro.frontend import generate_constraints

CORPUS_PROGRAMS = sorted(
    (pathlib.Path(__file__).resolve().parent / "corpus").glob("*/*.c")
)


class TestConstraint:
    def test_str_forms(self):
        assert str(Constraint(ConstraintKind.BASE, 0, 1)) == "v0 = &v1"
        assert str(Constraint(ConstraintKind.COPY, 0, 1)) == "v0 = v1"
        assert str(Constraint(ConstraintKind.LOAD, 0, 1)) == "v0 = *(v1)"
        assert str(Constraint(ConstraintKind.STORE, 0, 1, 2)) == "*(v0+2) = v1"

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.COPY, -1, 0)

    def test_offset_on_base_rejected(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.BASE, 0, 1, offset=1)
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.COPY, 0, 1, offset=1)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.LOAD, 0, 1, offset=-1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((ConstraintKind.COPY, -1, 0), "negative variable id in v-1 = v0"),
            ((ConstraintKind.LOAD, 0, 1, -1), "negative offset in v0 = *(v1+-1)"),
            ((ConstraintKind.BASE, 0, 1, 1), "base constraints cannot carry an offset"),
            ((ConstraintKind.COPY, 0, 1, 2), "copy constraints cannot carry an offset"),
            ((ConstraintKind.OFFS, 0, 1), "offset-copy with offset 0 should be a COPY"),
        ],
    )
    def test_value_check_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            Constraint(*args)
        assert str(info.value) == message

    def test_equality_and_hash_ignore_provenance(self):
        bare = Constraint(ConstraintKind.STORE, 1, 2, 3)
        stamped = bare.with_prov(Provenance(4, "Deref", site=5))
        assert bare == stamped and not bare != stamped
        assert hash(bare) == hash(stamped)
        assert bare != Constraint(ConstraintKind.STORE, 1, 2, 4)
        assert bare != Constraint(ConstraintKind.LOAD, 1, 2, 3)
        assert not bare == Constraint(ConstraintKind.STORE, 2, 1, 3)

    def test_never_equals_a_plain_tuple(self):
        row = Constraint(ConstraintKind.COPY, 1, 2)
        fields = tuple(row)
        assert fields == (ConstraintKind.COPY, 1, 2, 0, None)
        for plain in (fields, fields[:4]):
            assert not row == plain and row != plain
            assert not plain == row and plain != row
        assert row not in {fields, fields[:4]}

    def test_immutable(self):
        row = Constraint(ConstraintKind.COPY, 1, 2)
        with pytest.raises(AttributeError):
            row.dst = 3
        with pytest.raises(AttributeError):
            row.label = "x"

    def test_copy_and_pickle_round_trip(self):
        row = Constraint(ConstraintKind.LOAD, 1, 2, 3, Provenance(7, "Deref", True, 9))
        for clone in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
            assert type(clone) is Constraint
            assert tuple(clone) == tuple(row)


class TestFunctionInfo:
    def test_layout(self):
        info = FunctionInfo(node=10, name="f", param_count=3)
        assert info.return_node == 10 + RETURN_OFFSET
        assert info.param_nodes == (12, 13, 14)
        assert info.block_size == PARAM_OFFSET + 3
        assert info.max_offset == 4


class TestSystem:
    def test_kind_counts(self, simple_system):
        counts = simple_system.kind_counts()
        assert counts[ConstraintKind.BASE] == 2
        assert counts[ConstraintKind.COPY] == 1
        assert counts[ConstraintKind.LOAD] == 1
        assert counts[ConstraintKind.STORE] == 1
        assert simple_system.complex_count() == 2

    def test_address_taken_and_dereferenced(self, simple_system):
        names = simple_system.names
        taken = {names[v] for v in simple_system.address_taken()}
        assert taken == {"x", "y"}
        deref = {names[v] for v in simple_system.dereferenced()}
        assert deref == {"q"}

    def test_out_of_range_constraint_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(["a"], [Constraint(ConstraintKind.COPY, 0, 5)])

    def test_function_block_bounds_checked(self):
        info = FunctionInfo(node=0, name="f", param_count=5)
        with pytest.raises(ValueError):
            ConstraintSystem(["f", "f.ret"], [], {0: info})

    def test_function_key_mismatch_rejected(self):
        info = FunctionInfo(node=1, name="f", param_count=0)
        with pytest.raises(ValueError):
            ConstraintSystem(["a", "f", "f.ret"], [], {0: info})

    def test_with_constraints(self, simple_system):
        trimmed = simple_system.with_constraints(simple_system.constraints[:2])
        assert len(trimmed) == 2
        assert trimmed.names == simple_system.names

    def test_max_offset_table(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["x"])
        system = b.build()
        assert system.max_offset[f.node] == 2  # ret + 1 param
        assert system.max_offset[f.return_node] == 0


class TestBuilder:
    def test_var_interning(self):
        b = ConstraintBuilder()
        assert b.var("a") == b.var("a")
        assert b.var("a") != b.var("b")

    def test_anonymous_var(self):
        b = ConstraintBuilder()
        first = b.var()
        second = b.var()
        assert first != second

    def test_function_layout_contiguous(self):
        b = ConstraintBuilder()
        b.var("padding")
        f = b.function("callee", params=["p0", "p1"])
        assert f.return_node == f.node + RETURN_OFFSET
        assert f.params == (f.node + PARAM_OFFSET, f.node + PARAM_OFFSET + 1)

    def test_function_self_base(self):
        b = ConstraintBuilder()
        f = b.function("g", params=[])
        system = b.build()
        bases = [c for c in system.by_kind(ConstraintKind.BASE)]
        assert any(c.dst == f.node and c.src == f.node for c in bases)

    def test_duplicate_function_rejected(self):
        b = ConstraintBuilder()
        b.function("f", params=[])
        with pytest.raises(ValueError):
            b.function("f", params=[])

    def test_call_direct_wiring(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        x, r = b.var("x"), b.var("r")
        b.call_direct(f, [x], ret=r)
        system = b.build()
        copies = {(c.dst, c.src) for c in system.by_kind(ConstraintKind.COPY)}
        assert (f.params[0], x) in copies
        assert (r, f.return_node) in copies

    def test_call_indirect_offsets(self):
        b = ConstraintBuilder()
        fp, x, r = b.var("fp"), b.var("x"), b.var("r")
        b.call_indirect(fp, [x], ret=r)
        system = b.build()
        stores = list(system.by_kind(ConstraintKind.STORE))
        loads = list(system.by_kind(ConstraintKind.LOAD))
        assert stores[0].offset == PARAM_OFFSET
        assert loads[0].offset == RETURN_OFFSET


class TestParser:
    def test_parse_simple_file(self):
        system = loads_constraints(
            """
            # a tiny system
            var p
            var x
            base p x        # p = &x
            var q
            copy q p
            load q q 0
            store q p 1
            """
        )
        assert system.num_vars == 3
        kinds = [c.kind for c in system.constraints]
        assert kinds == [
            ConstraintKind.BASE,
            ConstraintKind.COPY,
            ConstraintKind.LOAD,
            ConstraintKind.STORE,
        ]
        assert system.constraints[3].offset == 1

    def test_fun_directive(self):
        system = loads_constraints("fun callee 2\nvar p\ncopy p callee.ret\n")
        info = system.functions[0]
        assert info.param_count == 2
        assert system.name_of(info.return_node) == "callee.ret"

    def test_id_references(self):
        system = loads_constraints("var a\nvar b\ncopy %1 %0\n")
        assert system.constraints[0].dst == 1

    @pytest.mark.parametrize(
        "text",
        [
            "bogus a b",
            "var",
            "copy a b",  # undeclared names
            "var a\nvar a",
            "var a\ncopy %5 %0",
            "var a\nvar b\nload a b x",
            "fun f x",
            "fun f -1",
            "var a\nvar b\ncopy a b extra",
            "var a\nvar b\nbase %zz %0",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ConstraintParseError):
            loads_constraints(text)

    def test_error_carries_line_number(self):
        try:
            loads_constraints("var a\nbogus\n")
        except ConstraintParseError as exc:
            assert exc.line_no == 2
        else:  # pragma: no cover
            pytest.fail("expected ConstraintParseError")

    def test_roundtrip_structure(self, simple_system):
        text = dumps_constraints(simple_system)
        again = loads_constraints(text)
        assert again.names == simple_system.names
        assert sorted(map(str, again.constraints)) == sorted(
            map(str, simple_system.constraints)
        )

    def test_roundtrip_with_functions(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a", "b"])
        p = b.var("p")
        b.address_of(p, f.node)
        b.call_indirect(p, [p], ret=p)
        system = b.build()
        again = loads_constraints(dumps_constraints(system))
        assert again.num_vars == system.num_vars
        assert {i.node for i in again.functions.values()} == {f.node}
        assert sorted(map(str, again.constraints)) == sorted(
            map(str, system.constraints)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_roundtrip_random_systems(self, seed):
        from conftest import random_system

        system = random_system(seed)
        again = loads_constraints(dumps_constraints(system))
        assert again.num_vars == system.num_vars
        assert sorted(map(str, again.constraints)) == sorted(
            map(str, system.constraints)
        )
        assert {i.node for i in again.functions.values()} == {
            i.node for i in system.functions.values()
        }


class TestOffsetCopyAndBlocks:
    """The field-sensitive extensions: OFFS constraints and object blocks."""

    def test_offs_str(self):
        c = Constraint(ConstraintKind.OFFS, 0, 1, 2)
        assert str(c) == "v0 = v1+2"

    def test_offs_requires_offset(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.OFFS, 0, 1, 0)

    def test_builder_offset_assign_degrades_to_copy(self):
        b = ConstraintBuilder()
        x, y = b.var("x"), b.var("y")
        b.offset_assign(x, y, 0)
        system = b.build()
        assert system.constraints[0].kind is ConstraintKind.COPY

    def test_object_block_layout(self):
        b = ConstraintBuilder()
        blk = b.object_block("s", ["f", "g"])
        system = b.build()
        assert blk.fields == (blk.node + 1, blk.node + 2)
        assert blk.field_offset(1) == 2
        assert system.max_offset[blk.node] == 2
        assert system.object_blocks[blk.node].field_nodes == blk.fields

    def test_block_name_collision_rejected(self):
        b = ConstraintBuilder()
        b.var("s")
        with pytest.raises(ValueError):
            b.object_block("s", ["f"])

    def test_block_function_overlap_rejected(self):
        from repro.constraints.model import ObjectBlock, FunctionInfo

        info = FunctionInfo(node=0, name="f", param_count=0)
        block = ObjectBlock(node=0, name="f", size=0)
        with pytest.raises(ValueError):
            ConstraintSystem(["f", "f.ret"], [], {0: info}, {0: block})

    def test_block_exceeding_vars_rejected(self):
        from repro.constraints.model import ObjectBlock

        with pytest.raises(ValueError):
            ConstraintSystem(["s"], [], None, {0: ObjectBlock(0, "s", 3)})

    def test_parser_obj_directive(self):
        system = loads_constraints("obj s 2\nvar p\nbase p s\noffs p p 1\n")
        assert 0 in system.object_blocks
        assert system.object_blocks[0].size == 2
        assert system.constraints[-1].kind is ConstraintKind.OFFS

    def test_parser_obj_roundtrip(self):
        from repro.constraints.builder import ConstraintBuilder as CB

        b = CB()
        blk = b.object_block("s", ["f"])
        p = b.var("p")
        b.address_of(p, blk.node)
        b.offset_assign(b.var("q"), p, 1)
        system = b.build()
        again = loads_constraints(dumps_constraints(system))
        assert again.object_blocks.keys() == system.object_blocks.keys()
        assert sorted(map(str, again.constraints)) == sorted(map(str, system.constraints))

    def test_offs_solving_semantics(self):
        from repro.solvers.registry import solve

        b = ConstraintBuilder()
        blk = b.object_block("s", ["f"])
        p, q = b.var("p"), b.var("q")
        b.address_of(p, blk.node)
        b.offset_assign(q, p, 1)  # q = p + 1
        solution = solve(b.build(), "naive")
        assert solution.points_to(q) == {blk.fields[0]}

    def test_offs_invalid_target_skipped(self):
        from repro.solvers.registry import solve

        b = ConstraintBuilder()
        plain = b.var("plain")
        p, q = b.var("p"), b.var("q")
        b.address_of(p, plain)  # plain has no block
        b.offset_assign(q, p, 1)
        solution = solve(b.build(), "naive")
        assert solution.points_to(q) == frozenset()


class TestNameTables:
    """The front end's naming and layout rules, owned by the model."""

    @pytest.mark.parametrize("field_mode", ["insensitive", "sensitive"])
    @pytest.mark.parametrize("path", CORPUS_PROGRAMS, ids=lambda p: p.name)
    def test_tables_match_names_and_layout(self, path, field_mode):
        system = generate_constraints(path.read_text(), field_mode=field_mode).system
        assert system.owners == tuple(owner_of(name) for name in system.names)
        expected = [None] * system.num_vars
        for info in system.functions.values():
            for var in (info.node, info.return_node, *info.param_nodes):
                expected[var] = info.node
        for block in system.object_blocks.values():
            for var in (block.node, *block.field_nodes):
                expected[var] = block.node
        assert system.block_of == tuple(expected)

    def test_tables_are_computed_once_per_system(self):
        b = ConstraintBuilder()
        b.function("f", params=["x"])
        b.object_block("s", ["a"])
        b.var("f::y")
        system = b.build()
        assert system.owners is system.owners
        assert system.block_of is system.block_of
        assert system.block_of == (0, 0, 0, 3, 3, None)
        assert system.owners[5] == "f"
        copy_ = system.with_constraints(system.constraints)
        assert copy_.block_of == system.block_of
        assert copy_.block_of is not system.block_of

    def test_name_classes(self):
        assert is_heap_name("heap@4#1") and is_heap_name("heap@4#1.next")
        for name in ("str@3#2", "<null>", "<extern:getenv>", "<field:next>"):
            assert is_synthetic_name(name) and not is_heap_name(name)
        for name in ("tmpslot", "main::x", "<global>$tmp1@2", "heap@4#1"):
            assert not is_synthetic_name(name)

    def test_call_rows(self):
        assert Provenance(construct="IndirectCall").is_call
        assert Provenance(construct="Call", site=3).is_call
        assert Provenance(construct="Assign", site=1).is_call
        assert not Provenance(construct="Call").is_call
        assert not Provenance(construct="Deref", line=4).is_call

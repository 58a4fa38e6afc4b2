"""AST to inclusion-constraint lowering.

Implements the paper's constraint generation (Table 1) for the C subset,
field-insensitively:

- every variable, parameter, heap allocation site, string literal and
  unknown external object becomes one abstract location;
- ``s.f`` / ``p->f`` / ``a[i]`` collapse onto their base object;
- nested dereferences introduce auxiliary temporaries so each constraint
  carries at most one dereference (exactly the normalization the paper
  describes);
- direct calls copy into the callee's parameter nodes; calls through
  pointers become the offset-carrying complex constraints of the
  Pearce-style scheme;
- control flow is ignored — the analysis is flow-insensitive, so the
  generator simply harvests every statement.

External functions resolve through the stub table of
:mod:`repro.frontend.stubs`; undeclared externals fall back to an interned
"unknown object" per callee so results stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.constraints.builder import ConstraintBuilder, FunctionHandle
from repro.constraints.model import ConstraintSystem, Provenance
from repro.dataflow.events import (
    LockOp,
    Sanitizer,
    TaintSink,
    TaintSource,
    ThreadSpawn,
)
from repro.frontend import cast as ast
from repro.frontend.stubs import DEFAULT_STUBS

#: An lvalue is either a variable node or a dereference of a pointer node.
#: Lvalues: ("var", node) — a direct slot; ("deref", ptr, k) — the
#: pointees of ptr at field offset k (k is 0 except in sensitive mode).
LValue = Tuple


@dataclass
class GeneratedProgram:
    """Constraint system plus the naming metadata clients need."""

    system: ConstraintSystem
    functions: Dict[str, FunctionHandle]
    variables: Dict[str, int]
    heap_nodes: List[int]
    string_nodes: List[int]
    #: The interned ``<null>`` object (None when the program never
    #: mentions NULL).  Pointers whose points-to set collapses to this
    #: single location are definite null dereferences.
    null_node: Optional[int] = None
    #: Security-relevant external calls the stub table recognized, in
    #: source order — what the dataflow clients (taint tracking, race
    #: detection) consume.  See :mod:`repro.dataflow.events`.
    taint_sources: List[TaintSource] = field(default_factory=list)
    taint_sinks: List[TaintSink] = field(default_factory=list)
    sanitizers: List[Sanitizer] = field(default_factory=list)
    thread_spawns: List[ThreadSpawn] = field(default_factory=list)
    lock_ops: List[LockOp] = field(default_factory=list)

    def node_of(self, name: str) -> int:
        """Node id of a variable by (possibly qualified) source name.

        Globals by bare name (``"g"``), locals and parameters qualified by
        function (``"main::p"``).
        """
        node = self.variables.get(name)
        if node is None:
            raise KeyError(f"unknown variable {name!r}")
        return node


class GenError(ValueError):
    """Raised for constructs the generator cannot lower."""


class ConstraintGenerator:
    """Walks a translation unit, emitting constraints into a builder."""

    def __init__(self, field_mode: str = "insensitive") -> None:
        if field_mode not in ("insensitive", "based", "sensitive"):
            raise ValueError(
                "field_mode must be 'insensitive', 'based' or 'sensitive'"
            )
        #: "insensitive" (the paper's evaluated configuration) collapses
        #: ``s.f`` onto ``s``; "based" (footnote 2: the configuration of
        #: Heintze & Tardieu's original results, unsound for C) treats
        #: every field name ``f`` as its own global variable, so ``x.f``,
        #: ``y.f`` and ``(*z).f`` all denote one variable ``f``;
        #: "sensitive" (the full Pearce et al. model) gives every struct
        #: variable an object block — one slot per flattened field — and
        #: lowers member accesses to offset constraints, including the
        #: field-address (GEP) form for ``&p->f``.
        self.field_mode = field_mode
        self._field_vars: Dict[str, int] = {}
        #: struct tag -> ordered {flattened field path: (index, CType)}.
        self._layouts: Dict[str, Dict[str, Tuple[int, ast.CType]]] = {}
        #: block base node -> struct tag.
        self._block_tags: Dict[int, str] = {}
        #: declared types (sensitive mode only): node -> CType.
        self._var_types: Dict[int, ast.CType] = {}
        #: function name -> return CType (for _type_of on calls).
        self._return_types: Dict[str, ast.CType] = {}
        #: struct tag hint for the next heap allocation (set by casts and
        #: typed declarations around malloc-family calls).
        self._alloc_tag: Optional[str] = None
        self.builder = ConstraintBuilder()
        self._globals: Dict[str, int] = {}
        self._functions: Dict[str, FunctionHandle] = {}
        self._scopes: List[Dict[str, int]] = []
        self._current_fn: Optional[FunctionHandle] = None
        self._heap_nodes: List[int] = []
        self._string_nodes: List[int] = []
        self._unknown_objects: Dict[str, int] = {}
        self._tmp_counter = 0
        self._variables: Dict[str, int] = {}
        #: Nodes declared with array type: as rvalues they decay to their
        #: own address (the array *is* the object).
        self._array_vars: set = set()
        #: The interned ``<null>`` object, created on first NULL use.
        self._null_node: Optional[int] = None
        #: Event streams the stubs append to (see repro.dataflow.events).
        self._taint_sources: List[TaintSource] = []
        self._taint_sinks: List[TaintSink] = []
        self._sanitizers: List[Sanitizer] = []
        self._thread_spawns: List[ThreadSpawn] = []
        self._lock_ops: List[LockOp] = []

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def _prov(self, line: int, construct: str, synthesized: bool = False) -> None:
        """Stamp subsequently emitted constraints with their origin."""
        self.builder.set_provenance(
            Provenance(line=line, construct=construct, synthesized=synthesized)
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def generate(self, unit: ast.TranslationUnit) -> GeneratedProgram:
        if self.field_mode == "sensitive":
            self._build_layouts(unit)

        # Default stamp so no frontend constraint is ever provenance-free;
        # refined per declaration/statement/expression below.
        self._prov(0, "TranslationUnit", synthesized=True)

        # Functions first so call sites resolve regardless of order.
        for fn in unit.functions:
            if fn.name not in self._functions:
                self._prov(fn.line, "FunctionDef", synthesized=True)
                handle = self.builder.function(
                    fn.name, [p.name or f"arg{i}" for i, p in enumerate(fn.params)]
                )
                self._functions[fn.name] = handle
                self._variables[fn.name] = handle.node
                self._return_types[fn.name] = fn.return_type
                for param, node in zip(fn.params, handle.params):
                    self._var_types[node] = param.type

        for decl in unit.globals:
            self._declare_global(decl)

        for decl in unit.globals:
            self._prov(decl.line, "Declaration")
            self._initialize(("var", self._globals[decl.name]), decl)

        for fn in unit.functions:
            if fn.body is not None:
                self._generate_function(fn)

        return GeneratedProgram(
            system=self.builder.build(),
            functions=dict(self._functions),
            variables=dict(self._variables),
            heap_nodes=list(self._heap_nodes),
            string_nodes=list(self._string_nodes),
            null_node=self._null_node,
            taint_sources=list(self._taint_sources),
            taint_sinks=list(self._taint_sinks),
            sanitizers=list(self._sanitizers),
            thread_spawns=list(self._thread_spawns),
            lock_ops=list(self._lock_ops),
        )

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _declare_global(self, decl: ast.Declaration) -> None:
        if decl.name in self._globals:
            return
        node = self._declare_typed(self._unique_name(decl.name), decl.type)
        self._globals[decl.name] = node
        self._variables[decl.name] = node
        if decl.type is not None and decl.type.is_array:
            self._array_vars.add(node)

    def _declare_typed(self, unique_name: str, ctype: Optional[ast.CType]) -> int:
        """Declare one variable, as an object block for struct types in
        field-sensitive mode."""
        tag = self._struct_tag_of_value(ctype) if self.field_mode == "sensitive" else None
        if tag is not None and self._layouts.get(tag):
            handle = self.builder.object_block(
                unique_name, list(self._layouts[tag])
            )
            self._block_tags[handle.node] = tag
            node = handle.node
        else:
            node = self.builder.var(unique_name)
        if ctype is not None:
            self._var_types[node] = ctype
        return node

    @staticmethod
    def _struct_tag_of_value(ctype: Optional[ast.CType]) -> Optional[str]:
        """Tag when ``ctype`` is a struct/union *value* (or array of)."""
        if ctype is None or ctype.pointer_depth != 0:
            return None
        base = ctype.base
        if base.startswith("struct ") or base.startswith("union "):
            return base
        return None

    def _unique_name(self, name: str) -> str:
        if self.builder.lookup(name) is None:
            return name
        counter = 2
        while self.builder.lookup(f"{name}#{counter}") is not None:
            counter += 1
        return f"{name}#{counter}"

    def _declare_local(self, name: str, line: int, ctype: Optional[ast.CType] = None) -> int:
        qualified = f"{self._current_fn.name}::{name}" if self._current_fn else name
        node = self._declare_typed(self._unique_name(qualified), ctype)
        self._scopes[-1][name] = node
        self._variables.setdefault(qualified, node)
        return node

    def _initialize(self, lvalue: LValue, decl: ast.Declaration) -> None:
        if decl.init is not None:
            value = self.rvalue(decl.init)
            self._assign(lvalue, value)
        elif decl.init_list is not None:
            # Aggregate initializer: every element lands in the one
            # field-insensitive object.
            for element in decl.init_list:
                value = self.rvalue(element)
                self._assign(lvalue, value)

    # ------------------------------------------------------------------
    # Functions and statements
    # ------------------------------------------------------------------

    def _generate_function(self, fn: ast.FunctionDef) -> None:
        handle = self._functions[fn.name]
        self._current_fn = handle
        params: Dict[str, int] = {}
        for param, node in zip(fn.params, handle.params):
            if param.name:
                params[param.name] = node
                self._variables.setdefault(f"{fn.name}::{param.name}", node)
        self._scopes = [params]
        self._statement(fn.body)
        self._scopes = []
        self._current_fn = None

    def _statement(self, stmt: Optional[ast.Stmt]) -> None:
        if stmt is None:
            return
        if not isinstance(stmt, (ast.Block, ast.DeclGroup)):
            self._prov(stmt.line, type(stmt).__name__)
        if isinstance(stmt, ast.Block):
            self._scopes.append({})
            for inner in stmt.body:
                self._statement(inner)
            self._scopes.pop()
        elif isinstance(stmt, ast.DeclGroup):
            for declaration in stmt.declarations:
                self._statement(declaration)
        elif isinstance(stmt, ast.Declaration):
            node = self._declare_local(stmt.name, stmt.line, stmt.type)
            if stmt.type is not None and stmt.type.is_array:
                self._array_vars.add(node)
            if self.field_mode == "sensitive":
                self._alloc_tag = self._pointee_tag(stmt.type)
            self._initialize(("var", node), stmt)
            self._alloc_tag = None
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self.rvalue(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.rvalue(stmt.condition)
            self._statement(stmt.then)
            self._statement(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self.rvalue(stmt.condition)
            self._statement(stmt.body)
        elif isinstance(stmt, ast.For):
            self._statement(stmt.init)
            if stmt.condition is not None:
                self.rvalue(stmt.condition)
            self._statement(stmt.body)
            if stmt.step is not None:
                self.rvalue(stmt.step)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.rvalue(stmt.value)
                if value is not None and self._current_fn is not None:
                    self.builder.assign(self._current_fn.return_node, value)
        elif isinstance(stmt, ast.Switch):
            self.rvalue(stmt.condition)
            self._statement(stmt.body)
        elif isinstance(stmt, (ast.Case, ast.Label)):
            self._statement(stmt.statement)
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Goto)):
            pass
        else:  # pragma: no cover - grammar covers all statement forms
            raise GenError(f"unhandled statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def rvalue(self, expr: ast.Expr) -> Optional[int]:
        """Value node of ``expr`` (None for pointer-free values)."""
        if isinstance(expr, ast.Identifier):
            node = self._lookup(expr.name, expr.line)
            if node is not None and node in self._array_vars:
                # Array-to-pointer decay: the value is the object's address.
                tmp = self.fresh_tmp(expr.line, "decay")
                self.builder.address_of(tmp, node)
                return tmp
            return node
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
            return None
        if isinstance(expr, ast.StringLiteral):
            return self._string_literal(expr.line)
        if isinstance(expr, ast.Unary):
            return self._unary_rvalue(expr)
        if isinstance(expr, ast.Binary):
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            if expr.op in ("+", "-"):
                # Pointer arithmetic stays within the object.
                pointers = [v for v in (left, right) if v is not None]
                if not pointers:
                    return None
                if len(pointers) == 1:
                    return pointers[0]
                return self.join_values(pointers, expr.line)
            return None
        if isinstance(expr, ast.Assign):
            return self._assignment_rvalue(expr)
        if isinstance(expr, ast.Conditional):
            self.rvalue(expr.condition)
            then = self.rvalue(expr.then)
            otherwise = self.rvalue(expr.otherwise)
            branches = [v for v in (then, otherwise) if v is not None]
            if not branches:
                return None
            if len(branches) == 1:
                return branches[0]
            return self.join_values(branches, expr.line)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._read(self.lvalue(expr), expr.line)
        if isinstance(expr, ast.Cast):
            if self.field_mode == "sensitive":
                # A struct-pointer cast types the allocation it wraps:
                # (struct S *) malloc(...) makes a block heap object.
                saved = self._alloc_tag
                hint = self._pointee_tag(expr.type)
                if hint is not None:
                    self._alloc_tag = hint
                value = self.rvalue(expr.operand)
                self._alloc_tag = saved
                return value
            return self.rvalue(expr.operand)
        if isinstance(expr, ast.SizeOf):
            return None
        if isinstance(expr, ast.Comma):
            value = None
            for part in expr.parts:
                value = self.rvalue(part)
            return value
        raise GenError(f"unhandled expression {type(expr).__name__}")

    def _unary_rvalue(self, expr: ast.Unary) -> Optional[int]:
        if expr.op == "*":
            pointer = self.rvalue(expr.operand)
            if pointer is None:
                return None
            self._prov(expr.line, "Deref")
            return self._read(("deref", pointer, 0), expr.line)
        if expr.op == "&":
            target = self.lvalue(expr.operand)
            if target is None:
                return None
            if target[0] == "var":
                tmp = self.fresh_tmp(expr.line, "addr")
                self.builder.address_of(tmp, target[1])
                return tmp
            _, node, offset = target
            if offset == 0:
                return node  # &*p == p
            # &(p->f): the field-address (GEP) form.
            tmp = self.fresh_tmp(expr.line, "fieldaddr")
            self.builder.offset_assign(tmp, node, offset)
            return tmp
        if expr.op in ("++", "--"):
            # Pointer stepping: same object, same value node.
            return self.rvalue(expr.operand)
        # -, +, !, ~ produce pointer-free values.
        self.rvalue(expr.operand)
        return None

    def _assignment_rvalue(self, expr: ast.Assign) -> Optional[int]:
        value = self.rvalue(expr.value)
        target = self.lvalue(expr.target)
        if expr.op != "=":
            # Compound assignment: for pointers only += / -= matter, and
            # pointer arithmetic stays within the object — the target
            # keeps its own pointees, so only "=" transfers new ones.
            if expr.op in ("+=", "-=") and value is not None and target is not None:
                self._assign(target, value)
            return self._read(target, expr.line) if target is not None else value
        if target is not None:
            self._assign(target, value)
        return value

    def _call(self, expr: ast.Call) -> Optional[int]:
        args = [self.rvalue(arg) for arg in expr.args]

        if isinstance(expr.callee, ast.Identifier):
            name = expr.callee.name
            handle = self._functions.get(name)
            local = self._lookup_scoped(name)
            if local is None and handle is not None:
                # Direct call to a known function.  call_direct stamps a
                # fresh call-site id on the parameter/return copies so
                # k-CFA can bind this call to its own callee context.
                self._prov(expr.line, "Call")
                result = self.fresh_tmp(expr.line, f"ret_{name}")
                self.builder.call_direct(handle, args, ret=result)
                return result
            if local is None and handle is None:
                self._prov(expr.line, "Call")
                stub = DEFAULT_STUBS.get(name)
                if stub is not None:
                    return stub(self, args, expr.line)
                return self.unknown_object(name, expr.line)
            # Falls through: identifier is a local/global function pointer.

        pointer = self.rvalue(expr.callee)
        if pointer is None:
            return None
        self._prov(expr.line, "IndirectCall")
        concrete = [a if a is not None else self._null_arg(expr.line) for a in args]
        result = self.fresh_tmp(expr.line, "iret")
        self.builder.call_indirect(pointer, concrete, ret=result)
        return result

    def _null_arg(self, line: int) -> int:
        """A pointer-free argument slot for an indirect call."""
        return self.fresh_tmp(line, "nullarg")

    # ------------------------------------------------------------------
    # Lvalues
    # ------------------------------------------------------------------

    def lvalue(self, expr: ast.Expr) -> Optional[LValue]:
        """Lvalue of ``expr``; None when it has no pointer-relevant store."""
        if isinstance(expr, ast.Identifier):
            node = self._lookup(expr.name, expr.line)
            if node is None:
                return None
            return ("var", node)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self.rvalue(expr.operand)
            if pointer is None:
                return None
            self._prov(expr.line, "Deref")
            return ("deref", pointer, 0)
        if isinstance(expr, ast.Index):
            # a[i] == *(a + i); the decayed array value is the pointer.
            pointer = self.rvalue(expr.base)
            self.rvalue(expr.index)
            if pointer is None:
                return None
            self._prov(expr.line, "Index")
            return ("deref", pointer, 0)
        if isinstance(expr, ast.Member):
            if self.field_mode == "based":
                # Field-based: evaluate the base for its effects, then
                # address the per-field-name variable.
                self.rvalue(expr.base)
                return ("var", self._field_var(expr.name))
            if self.field_mode == "sensitive":
                resolved = self._sensitive_member_lvalue(expr)
                if resolved is not None:
                    return resolved
                # Unresolvable member access: collapse onto the base
                # object, as in insensitive mode (documented fallback).
            if expr.arrow:
                pointer = self.rvalue(expr.base)
                if pointer is None:
                    return None
                self._prov(expr.line, "Member")
                return ("deref", pointer, 0)
            return self.lvalue(expr.base)  # s.f collapses onto s
        if isinstance(expr, ast.Cast):
            return self.lvalue(expr.operand)
        if isinstance(expr, ast.Comma) and expr.parts:
            for part in expr.parts[:-1]:
                self.rvalue(part)
            return self.lvalue(expr.parts[-1])
        # Anything else is not an assignable pointer store.
        self.rvalue(expr)
        return None

    def _read(self, lvalue: Optional[LValue], line: int) -> Optional[int]:
        if lvalue is None:
            return None
        if lvalue[0] == "var":
            return lvalue[1]
        _, node, offset = lvalue
        tmp = self.fresh_tmp(line, "load")
        self.builder.load(tmp, node, offset=offset)
        return tmp

    def _assign(self, target: LValue, value: Optional[int]) -> None:
        if value is None:
            return
        if target[0] == "var":
            dst = target[1]
            if (
                self.field_mode == "sensitive"
                and dst in self._block_tags
                and value in self._block_tags
                and self._block_tags[dst] == self._block_tags[value]
            ):
                # Struct copy between same-layout blocks: field-wise.
                size = 1 + len(self._layout_fields(self._block_tags[dst]))
                for slot in range(size):
                    self.builder.assign(dst + slot, value + slot)
                return
            self.builder.assign(dst, value)
        else:
            _, node, offset = target
            self.builder.store(node, value, offset=offset)

    # ------------------------------------------------------------------
    # Dataflow events (recorded by the security-relevant stubs)
    # ------------------------------------------------------------------

    def record_taint_source(self, name: str, node: int, line: int) -> None:
        self._taint_sources.append(TaintSource(name=name, node=node, line=line))

    def record_taint_sink(self, name: str, node: int, line: int) -> None:
        self._taint_sinks.append(TaintSink(name=name, node=node, line=line))

    def record_sanitizer(self, name: str, node: int, line: int) -> None:
        self._sanitizers.append(Sanitizer(name=name, node=node, line=line))

    def record_thread_spawn(
        self, fn_ptr: int, arg: Optional[int], line: int
    ) -> None:
        self._thread_spawns.append(
            ThreadSpawn(fn_ptr=fn_ptr, arg=arg, line=line)
        )

    def record_lock(self, op: str, mutex: int, line: int) -> None:
        self._lock_ops.append(LockOp(op=op, mutex=mutex, line=line))

    # ------------------------------------------------------------------
    # Object factories (also used by the stubs)
    # ------------------------------------------------------------------

    def fresh_tmp(self, line: int, tag: str = "tmp") -> int:
        self._tmp_counter += 1
        scope = self._current_fn.name if self._current_fn else "<global>"
        return self.builder.var(f"{scope}${tag}{self._tmp_counter}@{line}")

    def heap_alloc(self, line: int) -> int:
        """Fresh heap object for an allocation site; returns its pointer.

        In field-sensitive mode, a struct tag hint (from a surrounding
        cast or a typed declaration) makes the heap object a block with
        one slot per field.
        """
        self._tmp_counter += 1
        name = f"heap@{line}#{self._tmp_counter}"
        tag = self._alloc_tag if self.field_mode == "sensitive" else None
        if tag is not None and self._layouts.get(tag):
            handle = self.builder.object_block(name, list(self._layouts[tag]))
            self._block_tags[handle.node] = tag
            obj = handle.node
        else:
            obj = self.builder.var(name)
        self._heap_nodes.append(obj)
        self._prov(line, "Alloc")
        pointer = self.fresh_tmp(line, "heapptr")
        self.builder.address_of(pointer, obj)
        return pointer

    def _null_value(self, line: int) -> int:
        """A pointer to the interned ``<null>`` object.

        Modelling NULL as a distinguished location (instead of a
        pointer-free value) lets the null-deref checker distinguish "this
        pointer is definitely null here" from "no pointer ever flows
        here"; solvers see it as just another abstract location.
        """
        if self._null_node is None:
            self._null_node = self.builder.var("<null>")
        self._prov(line, "Null")
        pointer = self.fresh_tmp(line, "null")
        self.builder.address_of(pointer, self._null_node)
        return pointer

    def unknown_object(self, name: str, line: int) -> int:
        """Interned opaque object for an unsummarized external."""
        obj = self._unknown_objects.get(name)
        if obj is None:
            obj = self.builder.var(f"<extern:{name}>")
            self._unknown_objects[name] = obj
        self._prov(line, "Extern", synthesized=True)
        pointer = self.fresh_tmp(line, f"ext_{name}")
        self.builder.address_of(pointer, obj)
        return pointer

    # ------------------------------------------------------------------
    # Field-sensitive machinery
    # ------------------------------------------------------------------

    def _build_layouts(self, unit: ast.TranslationUnit) -> None:
        """Flatten struct definitions to {field path: (index, type)}.

        Embedded struct values inline their fields with dotted paths;
        union members all share slot 0 (field-insensitive within the
        union, the standard treatment).
        """
        defs: Dict[str, ast.StructDef] = {}
        for struct in unit.structs:
            key = ("union " if struct.is_union else "struct ") + struct.name
            defs[key] = struct

        def flatten(tag: str, visiting: Tuple[str, ...]) -> Dict[str, Tuple[int, ast.CType]]:
            if tag in self._layouts:
                return self._layouts[tag]
            struct = defs.get(tag)
            layout: Dict[str, Tuple[int, ast.CType]] = {}
            if struct is None or tag in visiting:
                self._layouts[tag] = layout
                return layout
            index = 0
            for fld in struct.fields:
                nested = self._struct_tag_of_value(fld.type)
                if nested is not None and not fld.type.is_array:
                    inner = flatten(nested, visiting + (tag,))
                    if inner:
                        for path, (_inner_index, ftype) in inner.items():
                            slot = 0 if struct.is_union else index
                            layout[f"{fld.name}.{path}"] = (slot, ftype)
                            if not struct.is_union:
                                index += 1
                        continue
                slot = 0 if struct.is_union else index
                layout[fld.name] = (slot, fld.type)
                if not struct.is_union:
                    index += 1
            self._layouts[tag] = layout
            return layout

        for tag in list(defs):
            flatten(tag, ())

    def _layout_fields(self, tag: str) -> Dict[str, Tuple[int, ast.CType]]:
        return self._layouts.get(tag, {})

    def _pointee_tag(self, ctype: Optional[ast.CType]) -> Optional[str]:
        """Struct tag a single-level pointer type points at."""
        if ctype is None or ctype.pointer_depth != 1:
            return None
        return self._struct_tag_of_value(ctype.pointee())

    def _type_of(self, expr: Optional[ast.Expr]) -> Optional[ast.CType]:
        """Best-effort static type of an expression (sensitive mode)."""
        if isinstance(expr, ast.Identifier):
            node = self._lookup_scoped(expr.name)
            if node is None:
                handle = self._functions.get(expr.name)
                if handle is not None:
                    return None
            return self._var_types.get(node) if node is not None else None
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                inner = self._type_of(expr.operand)
                return inner.pointee() if inner and inner.pointer_depth else None
            if expr.op == "&":
                inner = self._type_of(expr.operand)
                return inner.pointer_to() if inner else None
            if expr.op in ("++", "--"):
                return self._type_of(expr.operand)
            return None
        if isinstance(expr, ast.Cast):
            return expr.type
        if isinstance(expr, ast.Index):
            inner = self._type_of(expr.base)
            if inner is None:
                return None
            if inner.pointer_depth:
                return inner.pointee()
            if inner.is_array:
                return ast.CType(inner.base, inner.pointer_depth)
            return None
        if isinstance(expr, ast.Member):
            resolved = self._member_field_static(expr)
            if resolved is not None:
                return resolved[3]  # the field's type; no side effects
            return None
        if isinstance(expr, ast.Assign):
            return self._type_of(expr.target)
        if isinstance(expr, ast.Conditional):
            return self._type_of(expr.then) or self._type_of(expr.otherwise)
        if isinstance(expr, ast.Comma) and expr.parts:
            return self._type_of(expr.parts[-1])
        if isinstance(expr, ast.Call) and isinstance(expr.callee, ast.Identifier):
            return self._return_types.get(expr.callee.name)
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
            return self._type_of(expr.left) or self._type_of(expr.right)
        return None

    def _member_field_static(self, expr: ast.Member):
        """Type-resolve a member chain without emitting constraints.

        Returns ``(kind, anchor, offset, field_type)`` where ``kind`` is
        "var" (``anchor`` is a block base node) or "deref" (``anchor`` is
        the pointer/array *expression* to evaluate, possibly with an
        index expression piggybacked as ``(ptr_expr, index_expr)``);
        ``offset`` is the 1-based block slot.  None when untypeable.
        """
        if expr.arrow:
            # p->f : one pointer hop, single field name.
            tag = self._pointee_tag(self._type_of(expr.base))
            if tag is None:
                return None
            entry = self._layout_fields(tag).get(expr.name)
            if entry is None:
                return None
            return ("deref", (expr.base, None), 1 + entry[0], entry[1])

        # Dotted chain: ascend while the base is another dot member.
        path: List[str] = [expr.name]
        root = expr.base
        while isinstance(root, ast.Member) and not root.arrow:
            path.append(root.name)
            root = root.base
        path.reverse()

        if isinstance(root, ast.Identifier):
            node = self._lookup_scoped(root.name)
            if node is None or node not in self._block_tags:
                return None
            tag = self._block_tags[node]
            entry = self._layout_fields(tag).get(".".join(path))
            if entry is None:
                return None
            return ("var", node, 1 + entry[0], entry[1])

        # Pointer-ish roots: p->a.b / (*p).a.b / arr[i].a.b
        if isinstance(root, ast.Member) and root.arrow:
            tag = self._pointee_tag(self._type_of(root.base))
            full_path = ".".join([root.name] + path)
            pointer = (root.base, None)
        elif isinstance(root, ast.Unary) and root.op == "*":
            tag = self._pointee_tag(self._type_of(root.operand))
            full_path = ".".join(path)
            pointer = (root.operand, None)
        elif isinstance(root, ast.Index):
            base_type = self._type_of(root.base)
            tag = self._pointee_tag(base_type)
            if tag is None and base_type is not None:
                tag = self._struct_tag_of_value(base_type)  # array of structs
            full_path = ".".join(path)
            pointer = (root.base, root.index)
        else:
            return None
        if tag is None:
            return None
        entry = self._layout_fields(tag).get(full_path)
        if entry is None:
            return None
        return ("deref", pointer, 1 + entry[0], entry[1])

    def _sensitive_member_lvalue(self, expr: ast.Member) -> Optional[LValue]:
        resolved = self._member_field_static(expr)
        if resolved is None:
            return None
        kind, anchor, offset, _ftype = resolved
        if kind == "var":
            return ("var", anchor + offset)
        pointer_expr, index_expr = anchor
        pointer = self.rvalue(pointer_expr)
        if index_expr is not None:
            self.rvalue(index_expr)
        if pointer is None:
            return None
        return ("deref", pointer, offset)

    def _field_var(self, name: str) -> int:
        """The per-field-name variable of field-based mode."""
        node = self._field_vars.get(name)
        if node is None:
            node = self.builder.var(self._unique_name(f"<field:{name}>"))
            self._field_vars[name] = node
            self._variables.setdefault(f"<field:{name}>", node)
        return node

    def join_values(self, values: List[int], line: int) -> int:
        tmp = self.fresh_tmp(line, "join")
        for value in values:
            self.builder.assign(tmp, value)
        return tmp

    def _string_literal(self, line: int) -> int:
        self._tmp_counter += 1
        obj = self.builder.var(f"str@{line}#{self._tmp_counter}")
        self._string_nodes.append(obj)
        self._prov(line, "StringLiteral")
        pointer = self.fresh_tmp(line, "strptr")
        self.builder.address_of(pointer, obj)
        return pointer

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def _lookup_scoped(self, name: str) -> Optional[int]:
        for scope in reversed(self._scopes):
            node = scope.get(name)
            if node is not None:
                return node
        return self._globals.get(name)

    def _lookup(self, name: str, line: int) -> Optional[int]:
        node = self._lookup_scoped(name)
        if node is not None:
            return node
        handle = self._functions.get(name)
        if handle is not None:
            return handle.node  # function designator: points to itself
        if name == "NULL":
            return self._null_value(line)
        if name in ("stdin", "stdout", "stderr"):
            return self.unknown_object(name, line)
        # Undeclared identifier (missing header): treat as an unknown
        # global so the analysis stays total.
        node = self.builder.var(self._unique_name(name))
        self._globals[name] = node
        self._variables.setdefault(name, node)
        return node


def generate_constraints(
    source_or_unit: Union[str, ast.TranslationUnit],
    field_mode: str = "insensitive",
) -> GeneratedProgram:
    """Lower C-subset source (or an already-parsed unit) to constraints.

    ``field_mode="insensitive"`` is the paper's evaluated configuration;
    ``"based"`` reproduces footnote 2's field-based variant (each field
    name becomes one variable — faster to solve, unsound for C).
    """
    from repro.frontend.parser import parse_translation_unit

    if isinstance(source_or_unit, str):
        unit = parse_translation_unit(source_or_unit)
    else:
        unit = source_or_unit
    return ConstraintGenerator(field_mode=field_mode).generate(unit)

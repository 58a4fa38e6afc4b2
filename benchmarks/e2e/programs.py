"""Seeded C programs for the ``check-c`` and ``check-c-k1`` workloads.

:func:`generate_check_program` takes the random pointer pool of
:func:`repro.workloads.cgen.generate_c_program` (with its seeded
null-deref / dangling / leak bugs) and appends three more kinds of code:

- isolated taint bugs, after ``tests/corpus/buggy/taint_via_copy.c``:
  ``getenv`` reaches ``system`` through a per-bug forwarding helper;
- isolated race bugs, after ``tests/corpus/buggy/race_global.c``: a
  spawned thread and ``main``'s call chain both write one global slot;
- taint sources whose value is stored into the pool's global pointers,
  so the taint client propagates over the whole random value-flow graph.

Every planted bug carries a ``/* BUG: <rule> */`` marker, recovered with
:func:`repro.workloads.cgen.expected_bug_findings`.

Thread bodies touch only their own globals, never the random pool.  A
thread that reads or writes pool pointers conflicts with nearly every
pool access on ``main``'s side: two such threads in a 40-function
program produced about 86k race findings and 9 s per ``repro check``,
which would make race pairing the only layer the benchmark measures.

A program may hold several independent pools, each a
``generate_c_program`` output with its globals and functions renamed
apart and its ``main`` called from the real one.  The cost of a
``--k-cs 1`` op depends on the shape of its pool: over 40 programs of
one 20-function pool the slowest tenth took 1.9 times as long as the
fastest tenth, against 1.15 times over programs of five 3-function
pools, whose costs average out.
"""

from __future__ import annotations

import re
from typing import List

from repro.workloads.cgen import generate_c_program

#: Null-deref, dangling-stack-escape and heap-leak bugs planted by
#: ``generate_c_program`` in the first pool.
SEED_BUGS = 3
TAINT_BUGS = 3
RACE_BUGS = 3
#: Taint sources stored into the pool.  There are no pool-mixing
#: threads; see the module docstring.
POOL_SOURCES = 2
#: The top-level names of one ``generate_c_program`` pool (its seeded
#: bugs live only in the first pool, whose names stay as they are).
POOL_NAMES = re.compile(r"\b(g\d|gp\d|gpp|gn\d|gfp|fn\d+|main)\b")


def _prefix(pool: int) -> str:
    return f"p{pool}_" if pool else ""


def _taint_bug(index: int) -> List[str]:
    return [
        f"char *troute{index}(char *s) {{",
        "    return s;",
        "}",
        "",
        f"int tbug{index}() {{",
        "    char *raw;",
        "    char *cmd;",
        '    raw = getenv("CMD");',
        f"    cmd = troute{index}(raw);",
        "    system(cmd); /* BUG: taint-flow */",
        "    return 0;",
        "}",
        "",
    ]


def _race_bug(index: int) -> List[str]:
    return [
        f"char *rslot{index};",
        f"char *rval{index};",
        "",
        f"void rworker{index}(void *arg) {{",
        f"    rslot{index} = rval{index}; /* BUG: race */",
        "}",
        "",
        f"int rbug{index}() {{",
        f"    pthread_create(0, 0, &rworker{index}, 0);",
        f"    rslot{index} = rval{index};",
        "    return 0;",
        "}",
        "",
    ]


def _pool_source(index: int, pools: int) -> List[str]:
    return [
        f"int tmix{index}() {{",
        "    char *env;",
        '    env = getenv("HOME");',
        f"    {_prefix(index % pools)}gp{index % 2} = (int *) env;",
        "    return 0;",
        "}",
        "",
    ]


def generate_check_program(
    seed: int, pools: int, n_functions: int, statements_per_fn: int
) -> str:
    """Return one C-subset translation unit for ``repro check``.

    The ``pools`` random pools, each of ``n_functions`` functions, and
    :data:`SEED_BUGS` come from ``generate_c_program``; the extra
    functions are appended before ``main``, which calls each once.
    """
    base = generate_c_program(
        seed=seed,
        n_functions=n_functions,
        statements_per_fn=statements_per_fn,
        seed_bugs=SEED_BUGS,
    )
    head, main_marker, main_body = base.rpartition("int main(")
    if not main_marker or not main_body.endswith("    return 0;\n}"):
        raise ValueError("generate_c_program output no longer ends with main()")
    extra: List[str] = []
    calls: List[str] = []
    preamble = "\n".join(base.split("\n")[:2])  # comment and struct node
    for pool in range(1, pools):
        source = generate_c_program(
            seed=f"{seed}/{pool}",
            n_functions=n_functions,
            statements_per_fn=statements_per_fn,
        )
        if not source.startswith(preamble + "\n"):
            raise ValueError("generate_c_program output changed its preamble")
        extra += [POOL_NAMES.sub(_prefix(pool) + r"\1", source[len(preamble):]), ""]
        calls.append(f"    {_prefix(pool)}main(0, 0);")
    for index in range(TAINT_BUGS):
        extra += _taint_bug(index)
        calls.append(f"    tbug{index}();")
    for index in range(RACE_BUGS):
        extra += _race_bug(index)
        calls.append(f"    rbug{index}();")
    for index in range(POOL_SOURCES):
        extra += _pool_source(index, pools)
        calls.append(f"    tmix{index}();")
    body = main_body[: -len("    return 0;\n}")]
    return (
        head
        + "\n".join(extra)
        + main_marker
        + body
        + "".join(call + "\n" for call in calls)
        + "    return 0;\n}\n"
    )

"""The four workloads: their inputs and the ``repro`` op each input gets.

Every op goes through ``repro.cli.main(argv)`` with only the flags its
user would pass, so a change to a CLI default reaches the numbers.  The
inputs of one run are drawn from its ``--seed``; input ``i`` of seed
``s`` uses generator seed ``s * 1000 + i``, so two seeds never share an
input.  Each run has 100 inputs, so ``op_p90_s`` has ten beyond it, and
sizes keep one op at about 0.05 s on a 2-core x86 container, so two
passes fit in about 10 s.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from programs import generate_check_program

from repro.constraints.parser import write_constraints
from repro.workloads import expected_bug_findings, generate_workload


@dataclass(frozen=True)
class Input:
    """One generated input file and the op run on it."""

    argv: Tuple[str, ...]
    path: str
    #: Where ``check`` writes its SARIF report (empty for other ops).
    report: str = ""
    #: ``(rule, line)`` pairs of the ``/* BUG: */`` markers in a C input.
    markers: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Input":
        return cls(
            argv=tuple(data["argv"]),
            path=data["path"],
            report=data["report"],
            markers=tuple((rule, line) for rule, line in data["markers"]),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro`` subcommand: ``check``, ``solve`` or ``compare``.
    command: str
    #: Flags after the input file, exactly as a user would type them.
    flags: Tuple[str, ...]
    #: Inputs per run.
    inputs: int
    #: Generator parameters: ``pools`` of ``functions`` x ``statements``
    #: per C program, or the ``profile`` and ``scale`` denominator of a
    #: constraint file.
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def expect_exit(self) -> int:
        # Every C input has seeded bugs, so ``check`` always has findings.
        return 1 if self.command == "check" else 0

    def make_input(self, seed: int, index: int, directory: str) -> Input:
        input_seed = seed * 1000 + index
        if self.command == "check":
            source = generate_check_program(
                input_seed, self.params["pools"],
                self.params["functions"], self.params["statements"],
            )
            path = os.path.join(directory, f"in{index}.c")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            report = path + ".sarif"
            argv = ("check", path, "--format", "sarif", "-o", report, *self.flags)
            return Input(argv, path, report, tuple(expected_bug_findings(source)))
        system = generate_workload(
            self.params["profile"], 1.0 / self.params["scale"], seed=input_seed
        )
        path = os.path.join(directory, f"in{index}.cons")
        with open(path, "w", encoding="utf-8") as handle:
            write_constraints(system, handle)
        return Input((self.command, path, *self.flags), path)

    def make_inputs(self, seed: int, directory: str) -> List[Input]:
        return [self.make_input(seed, i, directory) for i in range(self.inputs)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "check-c", "check", (), 100,
            {"pools": 1, "functions": 12, "statements": 20},
        ),
        # Short functions in several small pools: at one pool of 12 x 20
        # a k=1 op takes 0.17-0.68 s depending on the program, and a
        # single pool of 20 x 6 still varies far more than five pools of
        # 3 x 4 (see programs.py).
        Workload(
            "check-c-k1", "check", ("--k-cs", "1"), 100,
            {"pools": 5, "functions": 3, "statements": 4},
        ),
        Workload(
            "solve-json", "solve", ("--json",), 100,
            {"profile": "wine", "scale": 352},
        ),
        Workload(
            "paper-compare", "compare", ("--opt", "ovs"), 100,
            {"profile": "linux", "scale": 768},
        ),
    )
}

"""Diagnostics: what a checker reports and how it is rendered.

A :class:`Diagnostic` is one finding — a rule id, a severity, a message
and a source location recovered from constraint provenance.  A
:class:`CheckReport` is the ordered collection a checker run produces;
it renders to compiler-style text here and to SARIF in
:mod:`repro.checkers.sarif`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons read naturally.

    The integer values only encode ordering (``NOTE < WARNING < ERROR``);
    the SARIF ``level`` strings come from :attr:`label`.
    """

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            options = ", ".join(s.label for s in cls)
            raise ValueError(
                f"unknown severity {text!r} (want one of {options})"
            ) from None


@dataclass(frozen=True)
class RelatedLocation:
    """A secondary site of a finding (SARIF ``relatedLocations``).

    Two-site diagnostics — a race's other access, a taint flow's source
    — anchor their counterpart here; the primary location stays on the
    :class:`Diagnostic` itself.
    """

    message: str
    #: 1-based source line; 0 when unknown.
    line: int = 0
    #: Path of the file holding the secondary site.
    file: str = "<input>"

    def render(self) -> str:
        where = f"{self.file}:{self.line}" if self.line > 0 else self.file
        return f"{where}: note: {self.message}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to the source line its provenance names."""

    rule: str
    severity: Severity
    message: str
    #: 1-based source line; 0 when the provenance chain had no location.
    line: int = 0
    #: Originating AST construct from the provenance record, if any.
    construct: str = ""
    #: Path of the checked translation unit (or ``<input>``).
    file: str = "<input>"
    #: Secondary sites (kept a tuple: diagnostics must stay hashable).
    related: Tuple[RelatedLocation, ...] = ()

    def sort_key(self) -> Tuple:
        return (self.file, self.line, self.rule, self.message)

    def render(self) -> str:
        """Compiler-style listing: ``file:line: severity: message [rule]``
        plus one indented ``note:`` line per related location."""
        where = f"{self.file}:{self.line}" if self.line > 0 else self.file
        head = f"{where}: {self.severity.label}: {self.message} [{self.rule}]"
        if not self.related:
            return head
        return "\n".join([head, *(f"  {r.render()}" for r in self.related)])


@dataclass
class CheckReport:
    """The findings of one checker run, in source order."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, findings: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def finalize(self) -> None:
        """Deduplicate and order by location (stable for goldens)."""
        self.diagnostics = sorted(set(self.diagnostics), key=Diagnostic.sort_key)

    def filtered(self, min_severity: Severity) -> "CheckReport":
        return CheckReport(
            [d for d in self.diagnostics if d.severity >= min_severity]
        )

    def counts(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for diag in self.diagnostics:
            result[diag.severity.label] = result.get(diag.severity.label, 0) + 1
        return result

    def to_text(self) -> str:
        """The full compiler-style listing plus a one-line summary."""
        lines = [diag.render() for diag in self.diagnostics]
        if not lines:
            return "no findings\n"
        summary = ", ".join(
            f"{count} {label}" for label, count in sorted(self.counts().items())
        )
        lines.append(f"{len(self.diagnostics)} finding(s): {summary}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckReport):
            return NotImplemented
        return self.diagnostics == other.diagnostics

"""Finding baselines: suppress known findings, fail only on new ones.

The adoption story for a checker on a legacy codebase: record today's
findings once (``repro check --baseline state.json`` with no file
present writes it), then every subsequent run reports — and fails CI
on — only findings *not* in the recorded set.

A finding's identity is a fingerprint over the fields that survive
re-running the analysis (rule, file, line, construct, message); the
witness-bearing ``related`` sites are deliberately excluded so a
message-identical finding does not churn when an unrelated edit shifts
a secondary site.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Set

from repro.checkers.diagnostics import CheckReport, Diagnostic
from repro.inputs import InputError, read_text

BASELINE_VERSION = 1


def fingerprint(diag: Diagnostic) -> str:
    """A stable identity for one finding across runs."""
    key = "|".join(
        (diag.rule, diag.file, str(diag.line), diag.construct, diag.message)
    )
    return hashlib.sha1(key.encode("utf-8")).hexdigest()


def write_baseline(path: str, report: CheckReport) -> int:
    """Record the report's fingerprints; returns how many were written."""
    prints = sorted({fingerprint(d) for d in report})
    document = {"version": BASELINE_VERSION, "fingerprints": prints}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return len(prints)


def read_baseline(path: str) -> Set[str]:
    """The recorded fingerprint set.  A malformed file raises
    :class:`InputError`: invalid UTF-8 or JSON at its line and column, a
    document of the wrong shape at the line where it starts."""
    text = read_text(path)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, exc.msg, line=exc.lineno, col=exc.colno) from None
    if (
        not isinstance(document, dict)
        or document.get("version") != BASELINE_VERSION
        or not isinstance(document.get("fingerprints"), list)
        or not all(isinstance(p, str) for p in document["fingerprints"])
    ):
        # The document as a whole has the wrong shape: locate its start.
        start = len(text) - len(text.lstrip())
        raise InputError(
            path,
            f'not a repro-check baseline file (want {{"version": {BASELINE_VERSION}, '
            '"fingerprints": [strings]})',
            line=text.count("\n", 0, start) + 1,
        )
    return set(document["fingerprints"])


def apply_baseline(path: str, report: CheckReport) -> "tuple[CheckReport, bool]":
    """Filter ``report`` against the baseline at ``path``.

    Returns ``(filtered report, created)``: when the file does not
    exist yet it is written from the full report and the filtered
    report is empty (nothing is "new" on the recording run).
    """
    if not os.path.exists(path):
        write_baseline(path, report)
        return CheckReport(), True
    known = read_baseline(path)
    fresh: List[Diagnostic] = [
        d for d in report if fingerprint(d) not in known
    ]
    return CheckReport(fresh), False

"""SARIF 2.1.0 emission, validation and round-trip reading.

SARIF (Static Analysis Results Interchange Format, OASIS) is the
interchange format code-review tooling ingests.  This module emits the
subset the checkers need — one ``run`` with a rule table generated from
the registry and one ``result`` per diagnostic — plus a structural
validator used by tests and CI in place of a JSON-Schema engine (no
external dependencies), and a reader that reconstructs a
:class:`~repro.checkers.diagnostics.CheckReport` exactly, so "all
diagnostics round-trip through SARIF" is a testable property.
"""

from __future__ import annotations

from typing import Any, Dict, List

import repro
from repro.checkers.diagnostics import (
    CheckReport,
    Diagnostic,
    RelatedLocation,
    Severity,
)
from repro.checkers.registry import registered_checkers

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-check"
TOOL_URI = "https://dl.acm.org/doi/10.1145/1250734.1250767"

#: The SARIF result levels the checkers use (``none`` exists in the
#: standard but has no Severity counterpart here).
_LEVELS = {s.label for s in Severity}


def _physical_location(file: str, line: int) -> Dict[str, Any]:
    """A SARIF location object; regions are 1-based so line 0 has none."""
    physical: Dict[str, Any] = {"artifactLocation": {"uri": file}}
    if line >= 1:
        physical["region"] = {"startLine": line}
    return {"physicalLocation": physical}


def to_sarif(report: CheckReport) -> Dict[str, Any]:
    """Serialize a report as one SARIF run."""
    rules = [
        {
            "id": info.name,
            "shortDescription": {"text": info.description},
            "defaultConfiguration": {"level": info.severity.label},
        }
        for info in registered_checkers()
    ]
    results: List[Dict[str, Any]] = []
    for diag in report.diagnostics:
        result: Dict[str, Any] = {
            "ruleId": diag.rule,
            "level": diag.severity.label,
            "message": {"text": diag.message},
            # The properties bag carries what physicalLocation cannot
            # (line 0 = unknown; the originating AST construct), making
            # the SARIF round-trip lossless.
            "properties": {
                "construct": diag.construct,
                "line": diag.line,
            },
        }
        result["locations"] = [_physical_location(diag.file, diag.line)]
        if diag.related:
            result["relatedLocations"] = [
                dict(
                    _physical_location(rel.file, rel.line),
                    message={"text": rel.message},
                )
                for rel in diag.related
            ]
            # Mirror in the properties bag so line-0 secondary sites
            # (not expressible as a SARIF region) round-trip exactly.
            result["properties"]["related"] = [
                {"message": rel.message, "line": rel.line, "file": rel.file}
                for rel in diag.related
            ]
        results.append(result)
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        # Read at call time: ``repro`` may still be
                        # importing when this module loads.
                        "version": repro.__version__,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


class SarifValidationError(ValueError):
    """Raised when a document violates the SARIF 2.1.0 structure."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SarifValidationError(message)


def validate_sarif(doc: Any) -> None:
    """Structural SARIF 2.1.0 validation (the subset this tool emits).

    Mirrors the constraints of the official JSON schema for the fields
    in play: exact version, runs/tool/driver shape, result levels drawn
    from the standard's enumeration, messages with text, and 1-based
    integer region lines.  Raises :class:`SarifValidationError`.
    """
    _require(isinstance(doc, dict), "document must be an object")
    _require(doc.get("version") == SARIF_VERSION, "version must be '2.1.0'")
    runs = doc.get("runs")
    _require(isinstance(runs, list) and runs, "runs must be a non-empty array")
    for run in runs:
        _require(isinstance(run, dict), "run must be an object")
        driver = run.get("tool", {}).get("driver")
        _require(isinstance(driver, dict), "run.tool.driver must be an object")
        _require(
            isinstance(driver.get("name"), str) and driver["name"],
            "tool.driver.name must be a non-empty string",
        )
        for rule in driver.get("rules", []):
            _require(
                isinstance(rule, dict) and isinstance(rule.get("id"), str),
                "every rule needs a string id",
            )
        results = run.get("results", [])
        _require(isinstance(results, list), "run.results must be an array")
        for result in results:
            _require(isinstance(result, dict), "result must be an object")
            _require(
                isinstance(result.get("ruleId"), str) and result["ruleId"],
                "result.ruleId must be a non-empty string",
            )
            level = result.get("level", "warning")
            _require(
                level in _LEVELS | {"none"},
                f"result.level {level!r} not a SARIF level",
            )
            message = result.get("message")
            _require(
                isinstance(message, dict) and isinstance(message.get("text"), str),
                "result.message.text must be a string",
            )
            for location in result.get("locations", []):
                _validate_location(location)
            for location in result.get("relatedLocations", []):
                _validate_location(location)
                rel_message = location.get("message")
                _require(
                    isinstance(rel_message, dict)
                    and isinstance(rel_message.get("text"), str),
                    "relatedLocation.message.text must be a string",
                )


def _validate_location(location: Any) -> None:
    _require(isinstance(location, dict), "location must be an object")
    physical = location.get("physicalLocation", {})
    artifact = physical.get("artifactLocation", {})
    _require(
        isinstance(artifact.get("uri"), str),
        "artifactLocation.uri must be a string",
    )
    region = physical.get("region")
    if region is not None:
        start = region.get("startLine")
        _require(
            isinstance(start, int) and not isinstance(start, bool)
            and start >= 1,
            "region.startLine must be an integer >= 1",
        )


def from_sarif(doc: Dict[str, Any]) -> CheckReport:
    """Reconstruct a report from a SARIF document (inverse of
    :func:`to_sarif`); validates first."""
    validate_sarif(doc)
    report = CheckReport()
    for run in doc["runs"]:
        for result in run.get("results", []):
            properties = result.get("properties", {})
            line = properties.get("line")
            if not isinstance(line, int):
                region = (
                    result.get("locations", [{}])[0]
                    .get("physicalLocation", {})
                    .get("region", {})
                )
                line = region.get("startLine", 0)
            uri = (
                result.get("locations", [{}])[0]
                .get("physicalLocation", {})
                .get("artifactLocation", {})
                .get("uri", "<input>")
            )
            report.diagnostics.append(
                Diagnostic(
                    rule=result["ruleId"],
                    severity=Severity.parse(result.get("level", "warning")),
                    message=result["message"]["text"],
                    line=line,
                    construct=properties.get("construct", ""),
                    file=uri,
                    related=_related_from(result, properties),
                )
            )
    return report


def _related_from(
    result: Dict[str, Any], properties: Dict[str, Any]
) -> tuple:
    """Secondary sites: the properties mirror wins (it keeps line 0);
    plain ``relatedLocations`` are the fallback for foreign documents."""
    mirror = properties.get("related")
    if isinstance(mirror, list):
        return tuple(
            RelatedLocation(
                message=entry.get("message", ""),
                line=entry.get("line", 0),
                file=entry.get("file", "<input>"),
            )
            for entry in mirror
            if isinstance(entry, dict)
        )
    related = []
    for location in result.get("relatedLocations", []):
        physical = location.get("physicalLocation", {})
        related.append(
            RelatedLocation(
                message=location.get("message", {}).get("text", ""),
                line=physical.get("region", {}).get("startLine", 0),
                file=physical.get("artifactLocation", {}).get("uri", "<input>"),
            )
        )
    return tuple(related)

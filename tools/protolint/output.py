"""Output formats.

Three renderings of the same :class:`~tools.protolint.registry.Violation`
list:

* **text** (default) -- one ``path:line:col: CODE message`` line each,
  for humans and grep;
* **sarif** -- SARIF 2.1.0, the interchange format GitHub code scanning
  ingests to render findings as inline PR annotations;
* **github** -- GitHub Actions workflow commands (``::error file=...``),
  the zero-upload way to get inline annotations from any CI step.
"""

from __future__ import annotations

import json

from tools.protolint.registry import REGISTRY, Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def render_text(violations: list[Violation]) -> str:
    return "\n".join(v.render() for v in violations)


def render_github(violations: list[Violation]) -> str:
    """GitHub Actions annotation commands, one per violation."""
    lines = []
    for v in violations:
        # Commas/newlines terminate workflow-command properties.
        message = f"{v.rule} {v.message}".replace("\n", " ")
        message = message.replace("%", "%25").replace("\r", "%0D")
        lines.append(
            f"::error file={v.path},line={v.line},col={v.col},"
            f"title=protolint {v.rule}::{message}")
    return "\n".join(lines)


def render_sarif(violations: list[Violation],
                 tool_version: str) -> str:
    """Minimal-but-valid SARIF 2.1.0 for GitHub code scanning."""
    rule_ids = sorted({v.rule for v in violations} | set(REGISTRY))
    rules = []
    for code in rule_ids:
        rule = REGISTRY.get(code)
        descriptor: dict[str, object] = {"id": code}
        if rule is not None:
            descriptor["name"] = rule.name
            doc = (type(rule).__doc__ or "").strip()
            if doc:
                descriptor["shortDescription"] = {
                    "text": doc.splitlines()[0]}
        rules.append(descriptor)
    results = [
        {
            "ruleId": v.rule,
            "level": "error",
            "message": {"text": v.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {"startLine": v.line,
                               "startColumn": v.col},
                },
            }],
        }
        for v in violations
    ]
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "protolint",
                "informationUri":
                    "docs/STATIC_ANALYSIS.md",
                "version": tool_version,
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)


__all__ = [
    "render_github",
    "render_sarif",
    "render_text",
]

"""Machine-readable verdict reports with a stable JSON schema and a text
rendering derived from it (every number shown in text lives in the JSON)."""

from __future__ import annotations

import platform
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import SchemaError

__all__ = ["Check", "Report", "validate_report"]


@dataclass
class Check:
    """One named verdict: value against threshold, or a bare pass/fail."""

    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None
    probabilistic: bool = False
    detail: str = ""

    @staticmethod
    def limit(name: str, value: float, threshold: float, probabilistic: bool = False,
              detail: str = "") -> "Check":
        return Check(name, bool(value <= threshold), float(value), float(threshold),
                     probabilistic, detail)

    @staticmethod
    def equals(name: str, got, expected, detail: str = "") -> "Check":
        ok = got == expected
        text = detail or f"got {got}, expected {expected}"
        return Check(name, bool(ok), detail=text)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": None if self.value is None else float(self.value),
            "threshold": None if self.threshold is None else float(self.threshold),
            "probabilistic": bool(self.probabilistic),
            "detail": self.detail,
        }


@dataclass
class Report:
    command: str
    checks: list[Check]
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json_dict(self) -> dict:
        return {
            "tool": "liesys",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "extra": self.extra,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }

    def render_text(self) -> str:
        doc = self.to_json_dict()
        lines = [f"liesys {doc['version']}  |  {doc['command']}"]
        if doc["seed"] is not None:
            lines.append(f"seed: {doc['seed']}")
        if doc["tolerances"]:
            tol_text = ", ".join(f"{k}={v:g}" for k, v in doc["tolerances"].items())
            lines.append(f"tolerances: {tol_text}")
        for c in doc["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            bits = [f"{mark:4s} {c['name']}"]
            if c["value"] is not None:
                bits.append(f"value={c['value']:.3g}")
            if c["threshold"] is not None:
                bits.append(f"limit={c['threshold']:.3g}")
            if c["probabilistic"]:
                bits.append("[probabilistic]")
            if c["detail"]:
                bits.append(f"({c['detail']})")
            lines.append("  " + "  ".join(bits))
        lines.append("overall: " + ("PASS" if doc["passed"] else "FAIL"))
        return "\n".join(lines)


_TOP_KEYS = {"tool", "version", "command", "seed", "tolerances", "passed", "checks",
             "extra", "versions"}
_CHECK_KEYS = {"name", "passed", "value", "threshold", "probabilistic", "detail"}


def validate_report(doc: dict) -> None:
    """Raise SchemaError unless doc matches the published report schema."""
    if not isinstance(doc, dict):
        raise SchemaError("report must be a JSON object")
    if set(doc) != _TOP_KEYS:
        raise SchemaError(f"report keys {sorted(set(doc) ^ _TOP_KEYS)} unexpected or missing")
    if doc["tool"] != "liesys":
        raise SchemaError("report.tool must be 'liesys'")
    for key in ("version", "command"):
        if not isinstance(doc[key], str):
            raise SchemaError(f"report.{key} must be a string")
    if doc["seed"] is not None and not isinstance(doc["seed"], int):
        raise SchemaError("report.seed must be an integer or null")
    if not isinstance(doc["tolerances"], dict) or not all(
        isinstance(v, (int, float)) for v in doc["tolerances"].values()
    ):
        raise SchemaError("report.tolerances must map names to numbers")
    if not isinstance(doc["passed"], bool):
        raise SchemaError("report.passed must be a boolean")
    if not isinstance(doc["checks"], list):
        raise SchemaError("report.checks must be a list")
    for c in doc["checks"]:
        if not isinstance(c, dict) or set(c) != _CHECK_KEYS:
            raise SchemaError("malformed check entry")
        if not isinstance(c["name"], str) or not isinstance(c["passed"], bool):
            raise SchemaError("check name/passed have wrong types")
        for key in ("value", "threshold"):
            if c[key] is not None and not isinstance(c[key], (int, float)):
                raise SchemaError(f"check.{key} must be a number or null")
        if not isinstance(c["probabilistic"], bool) or not isinstance(c["detail"], str):
            raise SchemaError("check probabilistic/detail have wrong types")
    if doc["passed"] != all(c["passed"] for c in doc["checks"]):
        raise SchemaError("report.passed must equal the conjunction of its checks")
    if not isinstance(doc["extra"], dict) or not isinstance(doc["versions"], dict):
        raise SchemaError("report.extra and report.versions must be objects")

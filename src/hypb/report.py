"""Uniform result record for every numerical check.

A check compares two computed quantities (or a quantity against a bound)
and reports lhs, rhs, their ratio, and a pass flag at a stated tolerance.
The JSON form is stable: keys are exactly

    check_id, parameters, lhs, rhs, ratio, tolerance, pass, grid, method, runtime_ms

plus `notes` (diagnostics such as an x-truncation ratio or the reason a
value is only reported) on the records whose notes are non-empty, so
downstream tooling can diff reports across runs.  `runtime_ms` is the only
field excluded from determinism comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["CheckReport", "reports_to_json", "strip_runtime"]


@dataclass
class CheckReport:
    check_id: str
    parameters: dict
    lhs: float
    rhs: float
    ratio: float
    tolerance: float
    passed: bool
    grid: dict
    method: str
    runtime_ms: float = 0.0
    # free-form diagnostics; serialized only when non-empty
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "grid": self.grid,
            "method": self.method,
            "runtime_ms": self.runtime_ms,
        }
        if self.notes:
            out["notes"] = self.notes
        return out

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.check_id}: lhs={self.lhs:.6e} rhs={self.rhs:.6e} "
            f"ratio={self.ratio:.6e} tol={self.tolerance:g} ({self.method})"
        )


def reports_to_json(reports: list) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def strip_runtime(payload):
    """Drop runtime_ms recursively; used by the determinism comparison."""
    if isinstance(payload, list):
        return [strip_runtime(p) for p in payload]
    if isinstance(payload, dict):
        return {k: strip_runtime(v) for k, v in payload.items() if k != "runtime_ms"}
    return payload

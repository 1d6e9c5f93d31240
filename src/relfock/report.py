"""Report construction and serialization.

Machine reports are canonical JSON (schema "relfock.report/1"): sorted keys,
two-space indent, UTF-8, trailing newline, floats in shortest round-trip
form, complex numbers as [re, im] pairs. Identical inputs therefore produce
byte-identical reports, and parsing a report reproduces the numeric values
exactly.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .tolerances import Tolerances

REPORT_SCHEMA = "relfock.report/1"


def jsonable(value: Any) -> Any:
    """Convert numpy scalars/arrays and complex numbers to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return [c.real, c.imag]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def complex_vector(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=np.complex128)]


def complex_matrix(values: np.ndarray) -> list:
    return [complex_vector(row) for row in np.asarray(values, dtype=np.complex128)]


@dataclass
class TaskResult:
    name: str
    command: str
    status: str  # "ok" | "error"
    result: dict | None = None
    error: dict | None = None


@dataclass
class Report:
    """Structured run output: one entry per task plus run-level metadata."""

    library_version: str
    scenario_digest: str
    tolerances: Tolerances
    tasks: list[TaskResult] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(t.status != "ok" for t in self.tasks)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "library_version": self.library_version,
            "scenario_digest": self.scenario_digest,
            "status": "failed" if self.failed else "ok",
            "tolerances": asdict(self.tolerances),
            "tasks": [
                {
                    "name": t.name,
                    "command": t.command,
                    "status": t.status,
                    **({"result": jsonable(t.result)} if t.result is not None else {}),
                    **({"error": jsonable(t.error)} if t.error is not None else {}),
                }
                for t in self.tasks
            ],
        }

    def to_machine_bytes(self) -> bytes:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)
        return (text + "\n").encode("utf-8")

    def to_text(self) -> str:
        lines = [
            f"relfock report (library {self.library_version})",
            f"scenario: {self.scenario_digest}",
            f"status: {'failed' if self.failed else 'ok'}",
            "",
        ]
        for t in self.tasks:
            lines.append(f"task {t.name} [{t.command}]: {t.status}")
            if t.error is not None:
                lines.append(f"  error: {t.error.get('type')}: {t.error.get('message')}")
            if t.result is not None:
                lines.extend(_render_value(t.result, indent=2))
            lines.append("")
        return "\n".join(lines)


def _render_value(value: Any, indent: int) -> list[str]:
    pad = " " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_short(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_value(v, indent + 2))
            else:
                lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        for v in list(value):
            if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_short(v):
                lines.append(f"{pad}-")
                lines.extend(_render_value(v, indent + 2))
            else:
                lines.append(f"{pad}- {_fmt_scalar(v)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(value)}")
    return lines


def _is_short(value: Any) -> bool:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    return isinstance(value, (list, tuple)) and len(value) <= 8 \
        and all(isinstance(v, (int, float, str, bool)) or v is None for v in value)


def _fmt_scalar(value: Any) -> str:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    return repr(value) if isinstance(value, str) else str(value)

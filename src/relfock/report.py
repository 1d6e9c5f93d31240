"""Report construction and serialization.

Machine reports are canonical JSON (schema "relfock.report/1"): sorted keys,
two-space indent, UTF-8, trailing newline, floats in shortest round-trip
form, complex numbers as [re, im] pairs. Identical inputs therefore produce
byte-identical reports, and parsing a report reproduces the numeric values
exactly.

The bytes are those of ``json.dumps(..., sort_keys=True, indent=2,
ensure_ascii=False)``, but ``canonical_json`` writes them in one walk
straight from the task payloads, which hold numpy arrays: each entry of a
numeric array is formatted once with ``repr`` and the entries are joined
axis by axis, with no intermediate lists of Python numbers.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring
from typing import Any

import numpy as np

from .tolerances import Tolerances

REPORT_SCHEMA = "relfock.report/1"

# JSON spellings of the floats whose repr is not a JSON number.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_json(value: Any) -> str:
    """value as canonical JSON text: dicts (keys as str, sorted), lists and
    tuples, str, None, bool, int, float, complex as [re, im], numpy scalars,
    and numpy arrays as nested lists, complex entries as [re, im] rows."""
    out: list[str] = []
    _write(value, 0, out)
    return "".join(out)


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _write(value: Any, level: int, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        _write_dict(value, level, out)
    elif isinstance(value, (list, tuple)):
        _write_list(value, level, out)
    elif isinstance(value, np.ndarray):
        _write_array(value, level, out)
    elif isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        _write_list((c.real, c.imag), level, out)
    elif isinstance(value, np.floating):
        out.append(_float_text(float(value)))
    elif isinstance(value, np.integer):
        out.append(int.__repr__(int(value)))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_dict(value: dict, level: int, out: list[str]) -> None:
    if not value:
        out.append("{}")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "{" + inner
    for key, item in sorted({str(k): v for k, v in value.items()}.items()):
        out.append(sep)
        out.append(encode_basestring(key))
        out.append(": ")
        _write(item, level + 1, out)
        sep = "," + inner
    out.append("\n" + "  " * level + "}")


def _write_list(value, level: int, out: list[str]) -> None:
    if not value:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    for item in value:
        out.append(sep)
        _write(item, level + 1, out)
        sep = "," + inner
    out.append("\n" + "  " * level + "]")


def _write_array(arr: np.ndarray, level: int, out: list[str]) -> None:
    kind = arr.dtype.kind
    if arr.ndim == 0 or arr.size == 0 or kind not in "iufc" \
            or arr.dtype.itemsize > (16 if kind == "c" else 8):
        # Empty, 0-d (not a list: iterating it raises TypeError), boolean,
        # string, object and extended-precision arrays: as their nested lists.
        _write_list(list(arr.tolist()), level, out)
        return
    if kind == "c":
        arr = np.stack((arr.real, arr.imag), axis=-1)
    texts = list(map(int.__repr__ if kind in "iu" else float.__repr__, arr.ravel().tolist()))
    if kind in "fc" and not np.isfinite(arr).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    # pads[d]: the line break and indent of the entries of axis d - 1, and of
    # the closing bracket of axis d.
    k = arr.ndim
    pads = ["\n" + "  " * (level + d) for d in range(k + 1)]
    # seps[e]: what follows an entry at which the e innermost axes end.
    seps = []
    for e in range(k + 1):
        close = "".join(pads[d] + "]" for d in range(k - 1, k - 1 - e, -1))
        reopen = "".join("[" + pads[d + 1] for d in range(k - e, k))
        seps.append(close if e == k else close + "," + pads[k - e] + reopen)
    ends = np.zeros(arr.size, dtype=np.intp)
    period = 1
    for length in arr.shape[::-1]:
        period *= length
        ends[period - 1::period] += 1
    pieces: list[str] = [""] * (2 * arr.size)
    pieces[0::2] = texts
    pieces[1::2] = np.array(seps, dtype=object)[ends].tolist()
    out.append("".join("[" + pads[d + 1] for d in range(k)))
    out.append("".join(pieces))


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
                    **({"result": t.result} if t.result is not None else {}),
                    **({"error": t.error} if t.error is not None else {}),
                }
                for t in self.tasks
            ],
        }

    def to_machine_bytes(self) -> bytes:
        return (canonical_json(self.to_dict()) + "\n").encode("utf-8")

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


def _as_lists(value: Any) -> Any:
    """An array as nested lists of Python numbers, complex entries as [re, im]
    rows; anything else unchanged."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            value = np.stack((value.real, value.imag), axis=-1)
        return value.tolist()
    return value


def _render_value(value: Any, indent: int) -> list[str]:
    pad = " " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k in value:
            v = _as_lists(value[k])
            if isinstance(v, (dict, list, tuple)) and not _is_short(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_value(v, indent + 2))
            else:
                lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    elif isinstance(value, (list, tuple)):
        for v in map(_as_lists, value):
            if isinstance(v, (dict, list, tuple)) and not _is_short(v):
                lines.append(f"{pad}-")
                lines.extend(_render_value(v, indent + 2))
            else:
                lines.append(f"{pad}- {_fmt_scalar(v)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(value)}")
    return lines


def _is_short(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and len(value) <= 8 \
        and all(isinstance(v, (int, float, str, bool)) or v is None for v in value)


def _fmt_scalar(value: Any) -> str:
    if isinstance(value, np.generic):  # a numpy scalar as its Python value
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    return repr(value) if isinstance(value, str) else str(value)

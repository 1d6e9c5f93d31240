"""The canonical report writer against the json module.

The reference is the serialization path the writer replaced: payloads turned
into plain lists and numbers by a recursive walk, then ``json.dumps`` with
sorted keys and a two-space indent. The writer must give the same text, or
raise the same TypeError, on every kind of value a payload can hold."""
from __future__ import annotations

import json

import numpy as np
import pytest

from relfock import Tolerances, load_scenario, run_scenario
from relfock.report import Report, TaskResult, canonical_json
from relfock.runner import COMMANDS


def reference_jsonable(value):
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
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


def reference_text(value) -> str:
    return json.dumps(reference_jsonable(value), sort_keys=True, indent=2, ensure_ascii=False)


def contexts(value):
    """value on its own and nested at several indent levels."""
    return [value, [value], {"k": value, "a": [1, {"z": value}]}, [[{"deep": [value, 0]}]]]


def assert_same(value) -> None:
    for wrapped in contexts(value):
        try:
            expected = reference_text(wrapped)
        except TypeError as exc:
            with pytest.raises(TypeError) as err:
                canonical_json(wrapped)
            assert str(err.value) == str(exc)
            continue
        assert canonical_json(wrapped) == expected


SCALARS = [
    0.0, -0.0, 1.5, -2.5e-300, 1e300, 0.1 + 0.2, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1.0 / 3.0,
    0, -1, 7, 2 ** 63, -(2 ** 63) - 1, 10 ** 30, -(10 ** 45),
    True, False, None,
    np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.float32(0.1), np.float16(-1.5),
    np.int64(-3), np.uint64(2 ** 64 - 1), np.int8(-128), np.uint8(255),
    1 + 2j, complex(-0.0, 0.0), complex(float("nan"), float("-inf")),
    np.complex128(0.25 - 1e-310j), np.complex64(1.5 + 0.1j),
    "", "x", "café", "日本", "\U0001f600", "tab\tnew\nline", "\x00\x1f\x7f",
    'quote " and \\ backslash', "  ",
]


@pytest.mark.parametrize("value", SCALARS, ids=[repr(v) for v in SCALARS])
def test_scalars(value):
    assert_same(value)


DTYPES = [np.float64, np.float32, np.float16, np.int64, np.int8, np.uint64, np.uint8,
          np.complex128, np.complex64]
SHAPES = [(0,), (0, 3), (3, 0), (2, 0, 2), (), (1,), (5,), (2, 3), (3, 1), (2, 3, 2),
          (1, 1, 1)]


def sample_array(dtype, shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    kind = np.dtype(dtype).kind
    if kind in "iu":
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, size=shape, dtype=dtype, endpoint=True)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    if kind == "c":
        values = values + 1j * rng.standard_normal(shape)
    with np.errstate(over="ignore"):  # float16 entries beyond its range become inf
        arr = np.asarray(values).astype(dtype)
    flat = arr.reshape(-1)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
    for i in range(0, flat.size, 3):
        special = specials[(i // 3) % len(specials)]
        flat[i] = complex(special, -special) if kind == "c" else special
    return arr


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_numeric_arrays(dtype, shape):
    arr = sample_array(dtype, shape, seed=len(shape) * 17 + int(np.prod(shape)))
    assert_same(arr)
    if arr.ndim >= 2:
        assert_same(arr.T)
        assert_same(arr[::-1, ::2])


@pytest.mark.parametrize("arr", [
    np.array([True, False]), np.array([[True], [False]]), np.array(["ab", "c"]),
    np.array("ab"), np.array([1, "x", None, 2.5], dtype=object),
    np.array([[1 + 1j, 0.5]], dtype=object), np.array([0.1, -0.0], dtype=np.longdouble),
    np.array([1 + 0.5j], dtype=np.clongdouble), np.array([], dtype=bool),
    np.array(["x"], dtype=object)[:0], np.array([{1: np.nan}], dtype=object),
], ids=repr)
def test_other_arrays(arr):
    assert_same(arr)


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}], {"a": {}}, {"a": []}, [[], [[]]], ((1, 2), [3.5, ()]),
    {"b": 1, "a": 2, "é": 3, "A": 4, "": 5, "\x00": 6, "\U0001f600": 7},
    {1: "int key", 2.5: "float key", None: "none key", True: "bool key"},
    {"k": np.arange(6).reshape(2, 3), "l": [np.zeros((2, 2), complex), np.ones(1)]},
    [np.float64(1.0), np.int32(2), np.complex128(3j), np.zeros((0, 2))],
], ids=repr)
def test_containers(value):
    assert_same(value)


# Values holding a bare object() get fixed ids: their repr carries a memory
# address, which would give the test a different name on every run.
@pytest.mark.parametrize("value", [
    pytest.param(object(), id="object"), {1, 2}, b"bytes", np.bool_(True),
    np.datetime64("2020-01-01"), pytest.param([1, object()], id="list-with-object"),
    {"a": {"b": frozenset()}},
    pytest.param(np.array([object()], dtype=object), id="object-dtype-array"),
    np.array(1.5), np.array(3), np.array(2j),
], ids=repr)
def test_unsupported_values_raise_type_error(value):
    assert_same(value)


def eight_mode_scenario() -> dict:
    """Four charged fermions and four neutral bosons (one three-level) in a
    random state, with a task of every command."""
    modes = [{"label": f"f{i}", "statistics": "fermion", "max_occupation": 1,
              "charges": {"electric": (-1) ** i, "lepton": (-1) ** i}} for i in range(4)]
    modes += [{"label": f"b{i}", "statistics": "boson", "max_occupation": 2 if i == 0 else 1}
              for i in range(4)]
    terms = [{"coefficient": 0.7, "factors": [["create", "f0"], ["annihilate", "f2"]]},
             {"coefficient": 0.7, "factors": [["create", "f2"], ["annihilate", "f0"]]},
             {"coefficient": -0.4, "factors": [["create", "b0"], ["annihilate", "b1"]]},
             {"coefficient": -0.4, "factors": [["create", "b1"], ["annihilate", "b0"]]},
             {"coefficient": 0.3, "factors": [["number", "f1"]]}]
    part = {"kind": "mode_partition", "reference": "R"}
    return {
        "schema": "relfock.scenario/1",
        "spaces": [{"id": "R", "modes": modes}],
        "states": [{"name": "psi", "space": "R", "kind": "random", "seed": 3}],
        "embeddings": [
            {"name": "ab", **part, "subsystem_modes": ["f0", "b0"],
             "complementer_modes": ["f1", "f2", "b1", "b2"], "frozen": {"f3": 0, "b3": 0}},
            {"name": "p0", **part, "subsystem_modes": ["f0", "f1"]},
            {"name": "p1", **part, "subsystem_modes": ["b0", "b1"]},
            {"name": "p2", **part, "subsystem_modes": ["f2", "f3", "b2", "b3"]},
        ],
        "hamiltonians": [{"name": "h", "space": "R", "terms": terms}],
        "tasks": [
            {"command": "reduce", "name": "rho", "state": "psi", "embedding": "ab"},
            {"command": "spectrum", "name": "spec", "state": "psi", "embedding": "ab",
             "factor": "B"},
            {"command": "schmidt", "name": "schmidt", "state": "psi", "embedding": "ab"},
            {"command": "joint", "name": "joint", "state": "psi",
             "embeddings": ["p0", "p1", "p2"]},
            {"command": "evolve", "name": "later", "state": "psi", "hamiltonian": "h",
             "t": 0.4},
            {"command": "trace-trajectory", "name": "curve", "state": "psi",
             "hamiltonian": "h", "embedding": "ab",
             "times": {"start": 0.0, "stop": 1.0, "num": 5}, "charge_kinds": ["electric"]},
            {"command": "check-ssr", "name": "ssr", "state": "psi", "embedding": "ab",
             "kind": "electric"},
            {"command": "sample", "name": "draws", "state": "psi", "embedding": "ab",
             "count": 30, "seed": 9},
            {"command": "sample", "name": "unseeded", "state": "psi", "embedding": "ab"},
        ],
    }


def test_reports_are_written_without_the_json_encoder(tmp_path, monkeypatch):
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(eight_mode_scenario()))
    report = run_scenario(load_scenario(path))
    assert sorted({t.command for t in report.tasks}) == sorted(COMMANDS)
    assert [t.status for t in report.tasks] == ["ok"] * 8 + ["error"]
    expected = (reference_text(report.to_dict()) + "\n").encode("utf-8")

    def refuse(self, o, _one_shot=False):
        raise AssertionError("the json encoder was called")
    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)
    assert report.to_machine_bytes() == expected
    assert run_scenario(load_scenario(path)).to_machine_bytes() == expected


def _text_report(result: dict) -> str:
    task = TaskResult(name="t", command="evolve", result=result)
    return Report("0", "sha256:0", Tolerances(), [task]).to_text()


def test_text_prints_numpy_scalars_as_python_values():
    numpy_values = {"f": np.float64(0.5), "f32": np.float32(0.1), "i": np.int64(-3),
                    "u": np.uint8(255), "b": np.bool_(True), "c": np.complex128(1 - 2j),
                    "pair": [np.float64(0.25), np.float64(-0.0)],
                    "nested": {"x": np.float64(1e-17)}}
    python_values = {"f": 0.5, "f32": 0.10000000149011612, "i": -3, "u": 255, "b": True,
                     "c": 1 - 2j, "pair": [0.25, -0.0], "nested": {"x": 1e-17}}
    text = _text_report(numpy_values)
    assert text == _text_report(python_values)
    assert "np." not in text
    assert "  f: 0.5" in text.splitlines() and "  pair: [0.25, -0.0]" in text.splitlines()

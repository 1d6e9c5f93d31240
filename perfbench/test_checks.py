"""Tests of the benchmark itself: the checkers must fail wrong answers, the
generators must be deterministic, and tracing must not change results.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relfock import hilbert, runner, scenario  # noqa: E402
from relfock.tolerances import Tolerances  # noqa: E402

SMALL = {
    "relations": lambda seed: workloads.relations(seed, n_modes=8),
    "dynamics": lambda seed: workloads.dynamics(seed, n_conversion=6, n_hopping=6),
    "dense": lambda seed: workloads.dense(seed, n_reference=5, n_hamiltonian=4),
}


def run_case(case, tmp_path) -> bytes:
    path = tmp_path / f"{case.name}.json"
    path.write_bytes(case.data)
    tol = Tolerances()
    return runner.run_scenario(scenario.load_scenario(path, tol), tol).to_machine_bytes()


def edit(data: bytes, task_name: str, change) -> bytes:
    report = json.loads(data)
    task = next(t for t in report["tasks"] if t["name"] == task_name)
    change(task)
    return json.dumps(report).encode()


def flip_largest(values: list) -> None:
    """Negate the largest-modulus [re, im] amplitude in a nested list."""
    flat = np.asarray(values, dtype=float).reshape(-1, 2)
    k = int(np.argmax(np.hypot(flat[:, 0], flat[:, 1])))
    pairs = [values]
    while not isinstance(pairs[0][0], float):
        pairs = [p for row in pairs for p in row]
    pairs[k][0], pairs[k][1] = -pairs[k][0], -pairs[k][1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_reports_pass(name, tmp_path):
    for case in SMALL[name](5):
        tally = checks.check_report(case, run_case(case, tmp_path))
        assert tally.failed == 0, tally.failures
        assert tally.attempted > len(case.doc["tasks"])


def test_bundled_reports_match_goldens(tmp_path):
    for case in workloads.bundled():
        tally = checks.check_report(case, run_case(case, tmp_path))
        assert tally.failed == 0, tally.failures


@pytest.mark.parametrize("name, task, field", [
    ("relations", "reduce_a", "matrix"),
    ("relations", "schmidt_frozen", "a_vectors"),
    ("dynamics", "conversion_t", "amplitudes"),
    ("dynamics", "hopping_t", "amplitudes"),
    ("dense", "reduce_v", "matrix"),
    ("dense", "kicked_t", "amplitudes"),
])
def test_flipped_amplitude_is_caught(name, task, field, tmp_path):
    case = SMALL[name](5)[0]
    data = run_case(case, tmp_path)
    corrupted = edit(data, task, lambda t: flip_largest(t["result"][field]))
    tally = checks.check_report(case, corrupted)
    assert tally.failed >= 1 and tally.failed / tally.attempted > 0


def test_flipped_amplitude_in_bundled_report_is_caught(tmp_path):
    case = workloads.bundled()[0]
    data = run_case(case, tmp_path)
    corrupted = edit(data, "rho_electron", lambda t: flip_largest(t["result"]["matrix"]))
    corrupted = json.dumps(json.loads(corrupted), sort_keys=True, indent=2).encode() + b"\n"
    assert checks.check_report(case, corrupted).failed == 1


def test_ssr_on_neutral_subsystem_passes(tmp_path):
    """A superselection subsystem of neutral modes only has no off-block
    entries; the oracle must agree with the library's 0.0 there."""
    case = SMALL["relations"](5)[0]
    doc = case.doc
    neutral = [m["label"] for m in doc["spaces"][0]["modes"] if "charges" not in m]
    part = next(e for e in doc["embeddings"] if e["name"] == "part_ssr")
    part["subsystem_modes"] = neutral[:len(part["subsystem_modes"])]
    neutral_case = workloads.Case(case.name, workloads.scenario_bytes(doc))
    data = run_case(neutral_case, tmp_path)
    ssr = next(t for t in json.loads(data)["tasks"] if t["name"] == "ssr_neutral")
    assert ssr["result"]["off_block_max"] == 0.0
    tally = checks.check_report(neutral_case, data)
    assert tally.failed == 0, tally.failures


def test_failed_task_is_counted(tmp_path):
    case = SMALL["relations"](5)[0]
    doc = case.doc
    sample = next(t for t in doc["tasks"] if t["command"] == "sample")
    del sample["seed"]  # the runner has no run-level seed, so the task fails
    broken = workloads.Case(case.name, workloads.scenario_bytes(doc))
    tally = checks.check_report(broken, run_case(broken, tmp_path))
    assert tally.failed == 1
    assert any("sample_a: status" in f for f in tally.failures)


def test_generators_are_deterministic():
    for name, generate in SMALL.items():
        first, again, other = generate(11), generate(11), generate(12)
        assert [c.data for c in first] == [c.data for c in again], name
        assert [c.data for c in first] != [c.data for c in other], name


def test_tracing_records_layers_and_restores_functions(tmp_path):
    case = SMALL["relations"](5)[0]
    plain = run_case(case, tmp_path)
    original = hilbert.validate_embedding
    tracer = spans.Tracer()
    with tracer:
        assert hilbert.validate_embedding is not original
        traced = run_case(case, tmp_path)
    assert hilbert.validate_embedding is original
    assert np.linalg.eigh.__module__.startswith("numpy")
    assert traced == plain
    layers = spans.rep_layers(tracer.spans)
    for layer in ("hilbert.validate", "relational.reduce", "composition.compose",
                  "superselection.check", "linalg.eigh", "scenario.self"):
        assert layers[layer]["calls"] >= 1, layer
    metrics = spans.layer_metrics([(tracer.spans, 1.0, len(traced))])
    assert metrics["relational.reduce_unique_ratio"] < 1.0
    assert metrics["hilbert.validate_calls"] == 1

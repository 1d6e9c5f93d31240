"""Scenario loading, task execution, report formats, CLI contract."""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import pkgutil
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import relfock
import relfock.scenario
from relfock import (
    ScenarioError,
    Tolerances,
    basis_state,
    bell_state,
    load_scenario,
    run_scenario,
)
from relfock.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def scenario_path(name: str) -> Path:
    return Path(str(resources.files("relfock") / "scenarios" / f"{name}.json"))


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "relfock", *args],
        capture_output=True,
    )


def write_scenario(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def edited(name: str, edit) -> bytes:
    """A bundled scenario with one in-place edit applied to its document."""
    doc = json.loads(scenario_path(name).read_bytes())
    edit(doc)
    return json.dumps(doc).encode()


MINIMAL = {
    "schema": "relfock.scenario/1",
    "spaces": [{"id": "S", "modes": [{"label": "a", "max_occupation": 1}]}],
    "states": [{"name": "ground", "space": "S", "kind": "basis", "occupations": [0]}],
}


def _non_isometric(doc):
    doc["spaces"] += [{"id": "A", "modes": [{"label": "x", "max_occupation": 0}]},
                      {"id": "B", "modes": [{"label": "y", "max_occupation": 1}]}]
    doc["embeddings"] = [{
        "name": "bad", "kind": "isometry", "reference": "S", "subsystem": "A",
        "complementer": "B", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }]


def _minimal(edit):
    doc = json.loads(json.dumps(MINIMAL))
    edit(doc)
    return json.dumps(doc).encode()


def _second_space(doc, complementer_id):
    doc["spaces"].append({"id": "V", "modes": [{"label": "v", "max_occupation": 1}]})
    doc["embeddings"][0].update(complementer_id=complementer_id)


# Factor ids a payload could not tell apart from another space's: (edit of
# annihilation.json, the exact load error).
ID_CLASHES = {
    "factor-ids-equal": (
        lambda doc: doc["embeddings"][0].update(subsystem_id="X", complementer_id="X"),
        "embeddings[0] ('electron_sector'): subsystem_id and complementer_id are both 'X'"),
    "subsystem-id-is-the-reference": (
        lambda doc: doc["embeddings"][0].update(subsystem_id="U"),
        "embeddings[0] ('electron_sector'): subsystem_id 'U' is a declared space id"),
    "complementer-id-is-another-space": (
        lambda doc: _second_space(doc, "V"),
        "embeddings[0] ('electron_sector'): complementer_id 'V' is a declared space id"),
}


# (edited scenario bytes, the exact load error): each location level once, from
# a mode or a term inside an entry out to a task and a whole section.
LOAD_MESSAGES = {
    "mode-without-label": (
        lambda: edited("bell", lambda doc: doc["spaces"][0]["modes"][0].pop("label")),
        "spaces[0] ('EP').modes[0]: missing required field 'label'"),
    "unknown-statistics": (
        lambda: edited("bell", lambda doc: doc["spaces"][0]["modes"][1]
                       .update(statistics="anyon")),
        "spaces[0] ('EP').modes[1]: unknown statistics 'anyon'"),
    "unknown-operator-kind": (
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                       ["factors"][0].__setitem__(0, "destroy")),
        "hamiltonians[0] ('pair_conversion').terms[0]: unknown operator kind 'destroy'"),
    "factor-on-unknown-mode": (
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                       ["factors"][0].__setitem__(1, "tau")),
        "hamiltonians[0] ('pair_conversion'): space 'U' has no mode 'tau'"),
    "unknown-space": (
        lambda: edited("bell", lambda doc: doc["states"][0].update(space="NOPE")),
        "states[0] ('bell'): unknown space 'NOPE'"),
    "non-isometric-matrix": (
        lambda: _minimal(_non_isometric),
        "embeddings[0] ('bad'): matrix is not an isometry: max|V^dagger V - 1| = 0.75"),
    "unknown-task-state": (
        lambda: edited("bell", lambda doc: doc["tasks"][0].update(state="psi")),
        "task 'rho_electron': unknown state reference 'psi'"),
    **{f"{key}-{name}": (
        lambda key=key, value=value: edited(
            "annihilation", lambda doc: doc["embeddings"][0].update({key: value})),
        f"embeddings[0] ('electron_sector'): {key} must be a string, got {value!r}")
       for key in ("subsystem_id", "complementer_id")
       for name, value in (("int", 3), ("bool", True), ("list", ["x"]), ("object", {"a": 1}))},
    "embeddings-not-list": (
        lambda: edited("bell", lambda doc: doc.update(embeddings={"electron": 1})),
        "embeddings: expected a list"),
    "bell-pair-not-two-lists": (
        lambda: _minimal(lambda doc: doc["states"][0].update(kind="bell", pair=[[0]])),
        "states[0] ('ground').pair: expected two occupation lists"),
    "duplicate-state-name": (
        lambda: _minimal(lambda doc: doc["states"].append(dict(doc["states"][0]))),
        "states: duplicate name 'ground'"),
    "duplicate-task-name": (
        lambda: _minimal(lambda doc: doc.update(tasks=[
            {"command": "evolve", "name": "twice"}, {"command": "reduce", "name": "twice"}])),
        "tasks[1]: duplicate task name 'twice'"),
    "unknown-state-kind": (
        lambda: _minimal(lambda doc: doc["states"][0].update(kind="squeezed")),
        "states[0] ('ground'): unknown state kind 'squeezed'"),
    **{case: (lambda edit=edit: edited("annihilation", edit), message)
       for case, (edit, message) in ID_CLASHES.items()},
}


class TestLoadScenario:
    @pytest.mark.parametrize("case", list(LOAD_MESSAGES), ids=str)
    def test_load_error_names_its_location_once(self, tmp_path, case):
        data, message = LOAD_MESSAGES[case]
        path = tmp_path / "scenario.json"
        path.write_bytes(data())
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == message

    def test_minimal_scenario_loads_with_zero_tasks(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert scenario.tasks == ()
        assert "S" in scenario.spaces and "ground" in scenario.states

    def test_dangling_space_reference_names_the_state(self, tmp_path):
        doc = dict(MINIMAL)
        doc["states"] = [{"name": "lost", "space": "NOPE", "kind": "basis", "index": 0}]
        with pytest.raises(ScenarioError, match="lost"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_dangling_task_reference(self, tmp_path):
        doc = dict(MINIMAL)
        doc["tasks"] = [{"command": "reduce", "state": "ground", "embedding": "missing"}]
        with pytest.raises(ScenarioError, match="missing"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_joint_embeddings_must_be_a_list(self, tmp_path):
        doc = json.loads(scenario_path("bell").read_bytes())
        doc["tasks"] = [{"command": "joint", "state": "bell", "embeddings": "AB"}]
        with pytest.raises(ScenarioError, match="embeddings must be a list of names"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "relfock.scenario/1",\n  "spaces": [}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_unnormalized_state_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["states"] = [{"name": "bad", "space": "S", "kind": "amplitudes",
                          "amplitudes": [[0.5, 0.0], [0.0, 0.0]]}]
        with pytest.raises(ScenarioError, match="not normalized"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_non_isometric_embedding_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(_minimal(_non_isometric))
        with pytest.raises(ScenarioError, match="isometry"):
            load_scenario(path)

    def test_unknown_schema_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["schema"] = "relfock.scenario/999"
        with pytest.raises(ScenarioError, match="schema"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: top level must be an object"

    def test_state_kinds_build_the_library_states(self, tmp_path):
        doc = dict(MINIMAL)
        doc["spaces"] = [{"id": "R", "modes": [{"label": "a", "max_occupation": 2},
                                               {"label": "b", "max_occupation": 2}]}]
        doc["states"] = [{"name": "ghz", "space": "R", "kind": "ghz"},
                         {"name": "bell", "space": "R", "kind": "bell",
                          "pair": [[0, 1], [2, 0]]},
                         {"name": "basis", "space": "R", "kind": "basis", "index": 5}]
        scenario = load_scenario(write_scenario(tmp_path, doc))
        space = scenario.spaces["R"]
        expected = {"ghz": bell_state(space), "bell": bell_state(space, ((0, 1), (2, 0))),
                    "basis": basis_state(space, 5)}
        for name, state in expected.items():
            loaded = scenario.states[name]
            assert loaded.space_id == state.space_id
            assert loaded.amplitudes.tobytes() == state.amplitudes.tobytes()

    def test_bundled_scenarios_load(self):
        for name in ("bell", "product", "annihilation"):
            scenario = load_scenario(scenario_path(name))
            assert scenario.tasks


def _per_element(values, where, matrix):
    """The entry-by-entry parse: parse_complex on every number or pair."""
    if matrix:
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"{where}: expected a nonempty list of rows")
        return np.stack([_per_element(row, f"{where}[{i}]", False)
                         for i, row in enumerate(values)])
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list of complex numbers")
    return np.array([relfock.scenario.parse_complex(v, f"{where}[{i}]")
                     for i, v in enumerate(values)])


def _parsed(parse, *args):
    try:
        out = parse(*args)
    except (ScenarioError, ValueError) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


VECTORS = [
    [1, 2.5, -0.0, 1e300], [[1, 2], [-0.0, 0.0], [0.0, -0.0]], [True, False, 2],
    [[True, 1.5]], [1, [2, 3]], [[2, 3], 1], ["1", 2], ["1"], [None], [1, None], [[1, "2"]],
    [[1, 2, 3]], [[1]], [[]], [], [{}], [[None, 1]], [2**63], [2**63, -1], [2**64 + 1],
    [2**53 + 1, 0.5], [-2**63 - 1], [[2**53 + 1, -3]], [10**400], [[10**400, 0]],
    [float("nan"), float("inf")], "12", None, 5,
]
MATRICES = [
    [[1, 2], [3, 4]], [[[1, 2]], [[3, -0.0]]], [[[1, 2], [3, 4]]], [[1, 2], [3]],
    [[1, [2, 3]], [4, 5]], [[True]], [["1"]], [[None]], [1, 2], [[]], [[[1, 2, 3]]], [],
    [[[1, 2], 3]], [[1.5, 2**63]], [[[True, False]], [[0, 1]]], "m", [[1, 2], "ab"],
]


class TestComplexParse:
    """The whole-array parse of amplitudes and matrices gives what parse_complex
    gives entry by entry, bit for bit, and the same located error."""

    @pytest.mark.parametrize("values", VECTORS, ids=range(len(VECTORS)))
    def test_vector_matches_per_element_parse(self, values):
        assert _parsed(relfock.scenario._complex_vector, values, "v") \
            == _parsed(_per_element, values, "v", False)

    @pytest.mark.parametrize("values", MATRICES, ids=range(len(MATRICES)))
    def test_matrix_matches_per_element_parse(self, values):
        assert _parsed(relfock.scenario._complex_matrix, values, "m") \
            == _parsed(_per_element, values, "m", True)

    def test_located_error_inside_a_matrix(self):
        rows = [[[0.5, 0.0]] * 6 for _ in range(4)]
        rows[3][5] = [0.5, "0"]
        with pytest.raises(ScenarioError, match=r"m\[3\]\[5\]: expected a number"):
            relfock.scenario._complex_matrix(rows, "m")

    def test_numeric_nests_take_the_whole_array_parse(self, monkeypatch):
        def refuse(value, where):
            raise AssertionError(f"{where} parsed entry by entry")
        monkeypatch.setattr(relfock.scenario, "parse_complex", refuse)
        assert relfock.scenario._complex_vector([[1, 2], [3, -0.0]], "v").shape == (2,)
        assert relfock.scenario._complex_matrix([[[1, 2]] * 3] * 2, "m").shape == (2, 3)
        assert relfock.scenario._complex_matrix([[1, True]], "m").shape == (1, 2)


class TestRunScenario:
    def test_bell_spectrum_in_report(self):
        scenario = load_scenario(scenario_path("bell"))
        report = run_scenario(scenario)
        assert not report.failed
        by_name = {t.name: t for t in report.tasks}
        eigs = by_name["spectrum_electron"].result["eigenvalues"]
        np.testing.assert_allclose(eigs, [0.5, 0.5], atol=1e-10)

    def test_task_error_recorded_not_raised(self, tmp_path):
        doc = dict(MINIMAL)
        doc["spaces"] = [{"id": "S", "modes": [
            {"label": "a", "max_occupation": 1}, {"label": "b", "max_occupation": 1}]}]
        doc["states"] = [{"name": "ground", "space": "S", "kind": "basis",
                          "occupations": [0, 0]}]
        doc["embeddings"] = [{"name": "left", "kind": "mode_partition",
                              "reference": "S", "subsystem_modes": ["a"]}]
        doc["tasks"] = [
            {"command": "sample", "name": "no_seed", "state": "ground",
             "embedding": "left"},
            {"command": "reduce", "name": "fine", "state": "ground",
             "embedding": "left"},
        ]
        report = run_scenario(load_scenario(write_scenario(tmp_path, doc)))
        assert report.failed
        statuses = {t.name: t.status for t in report.tasks}
        assert statuses == {"no_seed": "error", "fine": "ok"}
        assert "seed" in report.tasks[0].error["message"]

    def test_run_seed_feeds_sample_tasks(self, tmp_path):
        doc = dict(MINIMAL)
        doc["spaces"] = [{"id": "S", "modes": [
            {"label": "a", "max_occupation": 1}, {"label": "b", "max_occupation": 1}]}]
        doc["states"] = [{"name": "ground", "space": "S", "kind": "bell"}]
        doc["embeddings"] = [{"name": "left", "kind": "mode_partition",
                              "reference": "S", "subsystem_modes": ["a"]}]
        doc["tasks"] = [{"command": "sample", "name": "s", "state": "ground",
                         "embedding": "left", "count": 5}]
        scenario = load_scenario(write_scenario(tmp_path, doc))
        r1 = run_scenario(scenario, seed=11)
        r2 = run_scenario(scenario, seed=11)
        assert r1.to_machine_bytes() == r2.to_machine_bytes()
        assert r1.tasks[0].result["seed"] == 11


class TestCliContract:
    def test_machine_reports_match_goldens(self, tmp_path):
        for name in ("bell", "product", "annihilation"):
            out = tmp_path / f"{name}.json"
            proc = run_cli(str(scenario_path(name)), "--format", "machine",
                           "--output", str(out))
            assert proc.returncode == 0, proc.stderr.decode()
            golden = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
            assert out.read_bytes() == golden, f"{name} report deviates from golden"

    def test_text_reports_match_goldens(self):
        for name in ("bell", "product", "annihilation"):
            proc = run_cli(str(scenario_path(name)))
            assert proc.returncode == 0, proc.stderr.decode()
            golden = (GOLDEN_DIR / f"{name}.report.txt").read_bytes()
            assert proc.stdout == golden, f"{name} text report deviates from golden"

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            proc = run_cli(str(scenario_path("bell")), "--format", "machine",
                           "--output", str(out))
            assert proc.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_round_trips_numerically(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(str(scenario_path("annihilation")), "--format", "machine",
                "--output", str(out))
        doc = json.loads(out.read_bytes())
        re_emitted = (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
                      + "\n").encode()
        assert re_emitted == out.read_bytes()

    def test_exit_code_2_on_load_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli(str(bad))
        assert proc.returncode == 2
        assert b"error" in proc.stderr

    @pytest.mark.parametrize("scenario_bytes", [
        lambda: scenario_path("bell").read_bytes().replace(b'"bell"', b'"b\xe9ll"'),
        lambda: edited("bell", lambda doc: doc["spaces"][0].update(modes=[1])),
        lambda: edited("annihilation", lambda doc: doc["embeddings"][0].update(frozen=["e+"])),
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                       .update(factors=[["create"]])),
        lambda: edited("bell", lambda doc: doc["states"][0].update(name=["bell"])),
        lambda: edited("annihilation", lambda doc: doc["spaces"][0]["modes"][0]
                       .update(charges=[1])),
        lambda: edited("annihilation", lambda doc: doc["embeddings"][0]
                       .update(subsystem_modes=5)),
        lambda: edited("annihilation", lambda doc: doc["embeddings"][0]
                       .update(complementer_modes=3)),
        lambda: edited("annihilation", lambda doc: doc["embeddings"][0]
                       .update(frozen={"photon": None})),
        lambda: edited("annihilation", lambda doc: doc["states"][0].update(occupations=5)),
        lambda: edited("annihilation", lambda doc: doc["states"].__setitem__(
            0, {"name": "pair", "space": "U", "kind": "basis", "index": None})),
        lambda: edited("annihilation", lambda doc: doc["states"][0].update(
            kind="random", seed=None)),
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0].update(terms=[1])),
        lambda: edited("annihilation", lambda doc: doc["spaces"][0]["modes"][0]
                       .update(label=["e-"])),
        lambda: edited("product", lambda doc: doc["spaces"][0]["modes"][1].update(label=5)),
        lambda: edited("annihilation", lambda doc: doc["spaces"][0]["modes"][0]["charges"]
                       .update(electric=10**30)),
        lambda: edited("annihilation", lambda doc: doc["spaces"][0]["modes"][0]["charges"]
                       .update(electric=-2**63 - 1)),
        lambda: edited("annihilation", lambda doc: [m["charges"].update(electric=2**62)
                                                    for m in doc["spaces"][0]["modes"][:2]]),
        lambda: edited("annihilation", lambda doc: doc["spaces"][0]["modes"][0]["charges"]
                       .update(lepton=True)),
        lambda: edited("annihilation", lambda doc: doc["spaces"][0]["modes"][2]
                       .update(max_occupation=True)),
        lambda: edited("annihilation", lambda doc: doc["states"].__setitem__(
            0, {"name": "pair", "space": "U", "amplitudes": [10**400] + [0] * 7})),
        lambda: edited("product", lambda doc: doc["tasks"][3].update(state=None)),
        lambda: edited("bell", lambda doc: doc["tasks"][0].update(name="\ud800x")),
        lambda: edited("bell", lambda doc: doc["tasks"][0].update(command="\ud800x")),
        lambda: edited("bell", lambda doc: (doc["spaces"][0]["modes"][0].update(label="\ud800"),
                                            doc["embeddings"][0].update(
                                                subsystem_modes=["\ud800"]))),
        lambda: edited("bell", lambda doc: (doc["states"][0].update(name="\ud800"),
                                            [t.update(state="\ud800") for t in doc["tasks"]])),
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                       .update(coefficient=float("nan"))),
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                       .update(coefficient=float("inf"))),
        lambda: edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                       .update(coefficient=True)),
    ], ids=["non-utf8", "mode-not-object", "frozen-list", "factor-without-label",
            "name-as-list", "charges-list", "subsystem-modes-int", "complementer-modes-int",
            "frozen-null", "occupations-int", "index-null", "seed-null",
            "term-not-object", "label-list", "label-int", "charge-beyond-int64",
            "charge-below-int64", "total-charge-beyond-int64", "charge-bool",
            "max-occupation-bool", "amplitude-beyond-float", "task-reference-null",
            "surrogate-task-name", "surrogate-command", "surrogate-mode-label",
            "surrogate-state-name", "coefficient-nan", "coefficient-infinity",
            "coefficient-bool"])
    def test_malformed_scenario_exits_2_without_traceback(self, tmp_path, scenario_bytes):
        path = tmp_path / "scenario.json"
        path.write_bytes(scenario_bytes())
        proc = run_cli(str(path))
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr and b"error" in proc.stderr

    @pytest.mark.parametrize("case", list(ID_CLASHES), ids=str)
    def test_clashing_factor_id_exits_2(self, tmp_path, case):
        edit, message = ID_CLASHES[case]
        path = tmp_path / "scenario.json"
        path.write_bytes(edited("annihilation", edit))
        proc = run_cli(str(path))
        assert proc.returncode == 2 and b"Traceback" not in proc.stderr
        assert message.encode() in proc.stderr

    def test_distinct_factor_ids_name_the_reduced_space(self, tmp_path):
        # ids that are neither equal nor a space's id still load, beside a second space
        path = tmp_path / "scenario.json"
        path.write_bytes(edited("annihilation", lambda doc: (
            _second_space(doc, "positron"), doc["embeddings"][0].update(subsystem_id="e"))))
        report = run_scenario(load_scenario(path))
        assert report.tasks[0].result["space"] == "e"

    def test_overflowing_evolution_fails_the_trajectory_task(self, tmp_path):
        # Phases w t overflow at this coupling, so later states are NaN.
        path = tmp_path / "scenario.json"
        path.write_bytes(edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                                .update(coefficient=1e308)))
        proc = run_cli(str(path), "--format", "machine")
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
        assert b"RuntimeWarning" not in proc.stderr
        task = {t["name"]: t for t in json.loads(proc.stdout)["tasks"]}["deficit_curve"]
        assert task["status"] == "error"
        assert task["error"]["message"] == "evolution lost unitarity: max norm drift nan"

    def test_overflowing_evolution_fails_the_evolve_task(self, tmp_path):
        def edit(doc):
            doc["hamiltonians"][0]["terms"][0].update(coefficient=1e308)
            next(t for t in doc["tasks"] if t["name"] == "halfway").update(t=10.0)
        path = tmp_path / "scenario.json"
        path.write_bytes(edited("annihilation", edit))
        proc = run_cli(str(path), "--format", "machine")
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
        assert b"RuntimeWarning" not in proc.stderr
        task = {t["name"]: t for t in json.loads(proc.stdout)["tasks"]}["halfway"]
        assert task["status"] == "error"
        assert task["error"]["message"] == "evolution lost unitarity: max norm drift nan"

    def test_dimension_budget_rejects_before_enumeration(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(edited("annihilation", lambda doc: doc["spaces"][0]["modes"][2]
                                .update(max_occupation=1000000)))
        proc = run_cli(str(path))
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr and b"4000004" in proc.stderr

        def refuse(*args, **kwargs):
            raise AssertionError("build_fock_space called")
        monkeypatch.setattr(relfock.scenario, "build_fock_space", refuse)
        assert main([str(path), "--validate-only"]) == 2
        assert "dimension 4000004" in capsys.readouterr().err

    def test_exit_code_1_on_task_failure(self, tmp_path):
        doc = {
            "schema": "relfock.scenario/1",
            "spaces": [{"id": "S", "modes": [
                {"label": "a", "max_occupation": 1}, {"label": "b", "max_occupation": 1}]}],
            "states": [{"name": "g", "space": "S", "kind": "bell"}],
            "embeddings": [{"name": "left", "kind": "mode_partition",
                            "reference": "S", "subsystem_modes": ["a"]}],
            "tasks": [{"command": "sample", "state": "g", "embedding": "left"}],
        }
        path = write_scenario(tmp_path, doc)
        proc = run_cli(str(path), "--format", "machine")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["status"] == "failed"

    def test_validate_only(self):
        proc = run_cli(str(scenario_path("bell")), "--validate-only")
        assert proc.returncode == 0
        assert b"ok" in proc.stdout

    def test_tolerance_flags_are_applied(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli(str(scenario_path("bell")), "--format", "machine",
                       "--tol-ssr", "1e-6", "--output", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_bytes())
        assert doc["tolerances"]["ssr"] == 1e-6

    @pytest.mark.parametrize("flag", ["--tol-norm", "--tol-herm", "--tol-ssr"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_tolerance_flags_must_be_finite_and_positive(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            main([str(scenario_path("bell")), flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number greater than 0, got {value!r}" in err

    @pytest.mark.parametrize("value", ["-1", "-7"])
    def test_seed_flag_must_be_nonnegative(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main([str(scenario_path("bell")), "--seed", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: expected a nonnegative integer, got {value!r}" in err

    def test_rejected_seed_exits_2_without_traceback(self):
        proc = run_cli(str(scenario_path("bell")), "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == b"" and b"Traceback" not in proc.stderr
        assert b"--seed" in proc.stderr

    def test_rejected_tolerance_exits_2_without_traceback(self):
        proc = run_cli(str(scenario_path("bell")), "--tol-ssr", "nan")
        assert proc.returncode == 2
        assert proc.stdout == b"" and b"Traceback" not in proc.stderr
        assert b"--tol-ssr" in proc.stderr

    def test_text_format_mentions_tasks(self):
        proc = run_cli(str(scenario_path("product")))
        assert proc.returncode == 0
        text = proc.stdout.decode()
        assert "schmidt_product" in text and "status: ok" in text

    def test_annihilation_report_deficit_onset(self, tmp_path):
        out = tmp_path / "ann.json"
        proc = run_cli(str(scenario_path("annihilation")), "--format", "machine",
                       "--output", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_bytes())
        by_name = {t["name"]: t for t in doc["tasks"]}
        deficits = by_name["deficit_curve"]["result"]["deficits"]
        assert abs(deficits[0]) < 1e-12
        onset = deficits[:7]  # rises until the conversion peaks
        assert all(b > a for a, b in zip(onset, onset[1:]))


def _task_edit(name: str, task: str, **params):
    """A bundled scenario with one task's parameters updated (a None value
    deletes the parameter, a dict value updates the nested object)."""
    def edit(doc):
        entry = next(t for t in doc["tasks"] if t["name"] == task)
        for key, value in params.items():
            if value is None:
                del entry[key]
            elif isinstance(value, dict):
                merged = {**entry[key], **value}
                entry[key] = {k: v for k, v in merged.items() if v is not None}
            else:
                entry[key] = value
    return name, task, edited(name, edit)


# (scenario, task, edited bytes, the start of the task's error message) for a
# mistyped, out-of-range or missing task parameter.
BAD_PARAMETERS = {
    "count-float": (*_task_edit("bell", "sample_electron", count=2.7),
                    "count must be an integer, got 2.7"),
    "count-bool": (*_task_edit("bell", "sample_electron", count=True),
                   "count must be an integer, got True"),
    "count-beyond-intp": (*_task_edit("bell", "sample_electron", count=10**30),
                          f"count must be at most {np.iinfo(np.intp).max}, got {10**30}"),
    "seed-float": (*_task_edit("bell", "sample_electron", seed=1.5),
                   "seed must be an integer, got 1.5"),
    "seed-string": (*_task_edit("bell", "sample_electron", seed="7"),
                    "seed must be an integer, got '7'"),
    "seed-negative": (*_task_edit("bell", "sample_electron", seed=-1),
                      "seed must be a nonnegative integer, got -1"),
    "t-bool": (*_task_edit("annihilation", "halfway", t=True),
               "t must be a number, got True"),
    "t-string": (*_task_edit("annihilation", "halfway", t="0.5"),
                 "t must be a number, got '0.5'"),
    "t-beyond-float": (*_task_edit("annihilation", "halfway", t=10**400),
                       "t must be within the float range"),
    "times-entries": (*_task_edit("annihilation", "deficit_curve", times=[0, True, "1"]),
                      "times[1] must be a number, got True"),
    "times-num-float": (*_task_edit("annihilation", "deficit_curve", times={"num": 2.9}),
                        "times.num must be an integer, got 2.9"),
    "times-start-string": (*_task_edit("annihilation", "deficit_curve",
                                       times={"start": "0"}),
                           "times.start must be a number, got '0'"),
    "times-without-num": (*_task_edit("annihilation", "deficit_curve", times={"num": None}),
                          "times needs start, stop and num; times.num is missing"),
    "times-num-negative": (*_task_edit("annihilation", "deficit_curve", times={"num": -2}),
                           "times.num must be a nonnegative integer, got -2"),
    "t-infinite": (*_task_edit("annihilation", "halfway", t=float("inf")),
                   "t must be a finite number, got inf"),
    "t-nan": (*_task_edit("annihilation", "halfway", t=float("nan")),
              "t must be a finite number, got nan"),
    "times-entry-nan": (*_task_edit("annihilation", "deficit_curve", times=[0, float("nan")]),
                        "times[1] must be a finite number, got nan"),
    "times-stop-infinite": (*_task_edit("annihilation", "deficit_curve",
                                        times={"stop": float("-inf")}),
                            "times.stop must be a finite number, got -inf"),
    "charge-kinds-string": (*_task_edit("annihilation", "deficit_curve",
                                        charge_kinds="electric"),
                            "charge_kinds must be a list of charge kind names, got 'electric'"),
    "charge-kinds-int": (*_task_edit("annihilation", "deficit_curve", charge_kinds=[1]),
                         "charge_kinds must be a list of charge kind names, got [1]"),
    "state-missing": (*_task_edit("bell", "rho_electron", state=None),
                      "missing task parameter 'state'"),
    "embedding-missing": (*_task_edit("bell", "sample_electron", embedding=None),
                          "missing task parameter 'embedding'"),
    "embeddings-missing": (*_task_edit("bell", "joint_pair", embeddings=None),
                           "missing task parameter 'embeddings'"),
    "kind-missing": (*_task_edit("bell", "ssr_electric", kind=None),
                     "missing task parameter 'kind'"),
    "hamiltonian-missing": (*_task_edit("annihilation", "halfway", hamiltonian=None),
                            "missing task parameter 'hamiltonian'"),
    "t-missing": (*_task_edit("annihilation", "halfway", t=None),
                  "missing task parameter 't'"),
    "times-missing": (*_task_edit("annihilation", "deficit_curve", times=None),
                      "missing task parameter 'times'"),
}


class TestTaskParameters:
    @pytest.mark.parametrize("case", list(BAD_PARAMETERS), ids=str)
    def test_mistyped_parameter_fails_its_task(self, tmp_path, case):
        name, task, data, message = BAD_PARAMETERS[case]
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        report = run_scenario(load_scenario(path))
        statuses = {t.name: t.status for t in report.tasks}
        assert [n for n, status in statuses.items() if status != "ok"] == [task]
        error = next(t.error for t in report.tasks if t.name == task)
        assert error["message"].startswith(message), error

    def test_mistyped_parameter_exits_1_without_traceback(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(BAD_PARAMETERS["count-float"][2])
        proc = run_cli(str(path), "--format", "machine")
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
        task = {t["name"]: t for t in json.loads(proc.stdout)["tasks"]}["sample_electron"]
        assert task["error"] == {"type": "TypeError",
                                 "message": "count must be an integer, got 2.7"}

    @pytest.mark.parametrize("case", ["times-num-negative", "t-infinite", "times-entry-nan"])
    def test_out_of_range_parameter_exits_1_naming_it(self, tmp_path, case):
        # NaN and Infinity are JSON the reader accepts; they must not reach
        # the evolution as a "lost unitarity" failure.
        name, task, data, message = BAD_PARAMETERS[case]
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        proc = run_cli(str(path), "--format", "machine")
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
        task_report = {t["name"]: t for t in json.loads(proc.stdout)["tasks"]}[task]
        assert task_report["error"] == {"type": "ValueError", "message": message}

    def test_integer_times_and_t_are_numbers(self, tmp_path):
        _, _, data = _task_edit("annihilation", "deficit_curve", times={"start": 0, "stop": 3})
        doc = json.loads(data)
        next(t for t in doc["tasks"] if t["name"] == "halfway")["t"] = 1
        report = run_scenario(load_scenario(write_scenario(tmp_path, doc)))
        assert not report.failed
        by_name = {t.name: t.result for t in report.tasks}
        assert by_name["halfway"]["t"] == 1.0
        reference = run_scenario(load_scenario(scenario_path("annihilation")))
        expected = {t.name: t.result for t in reference.tasks}["deficit_curve"]
        assert np.array_equal(by_name["deficit_curve"]["times"], expected["times"])


class TestToleranceOverrides:
    def test_strict_norm_tolerance_rejects_state(self, tmp_path):
        doc = dict(MINIMAL)
        doc["states"] = [{"name": "s", "space": "S", "kind": "amplitudes",
                          "amplitudes": [[0.7071067811865476, 0.0],
                                         [0.7071067811865476, 0.0]]}]
        path = write_scenario(tmp_path, doc)
        load_scenario(path, Tolerances())  # fine at default tolerance
        with pytest.raises(ScenarioError, match="not normalized"):
            load_scenario(path, Tolerances().with_overrides(norm=1e-17))

    def test_every_public_tol_parameter_defaults_to_tolerances(self):
        import inspect

        import relfock

        exported = [getattr(relfock, name) for name in relfock.__all__]
        callables = [obj for obj in exported if inspect.isfunction(obj)]
        callables += [method for cls in exported if inspect.isclass(cls)
                      for name, method in inspect.getmembers(cls, inspect.isfunction)
                      if not name.startswith("_")]
        defaults = {fn.__qualname__: inspect.signature(fn).parameters["tol"].default
                    for fn in callables if "tol" in inspect.signature(fn).parameters}
        assert len(defaults) >= 16, sorted(defaults)
        wrong = {name: default for name, default in defaults.items()
                 if not (isinstance(default, Tolerances) and default == Tolerances())}
        assert wrong == {}


def test_readme_quick_start_prints_sin_squared_deficits():
    # The "Library quick start" block of README.md, run as written: its first
    # printed line is the subsystem's trace deficit at t = 0, 0.5, 1, 1.5.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), np.printoptions(floatmode="unique"):
        exec(block, {})
    printed = out.getvalue()
    deficits = np.array(printed[printed.index("[") + 1:printed.index("]")].split(), dtype=float)
    np.testing.assert_allclose(deficits, np.sin([0.0, 0.5, 1.0, 1.5]) ** 2, rtol=0, atol=1e-12)


def test_readme_class_members_resolve():
    # Every `Class.member` the README names, for a class relfock defines, is
    # an attribute of that class or one of its dataclass fields.
    classes = {}
    for info in pkgutil.iter_modules(relfock.__path__):
        module = importlib.import_module(f"relfock.{info.name}")
        classes.update((name, value) for name, value in vars(module).items()
                       if inspect.isclass(value) and value.__module__ == module.__name__)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = {(cls, member) for cls, member in re.findall(r"`([A-Z]\w*)\.(\w+)", readme)
             if cls in classes}
    assert {("SectorEigensystem", "propagate"), ("HamiltonianSpec", "eigensystem"),
            ("Trajectory", "states"), ("Embedding", "isometry")} <= named

    def resolves(cls, member):
        return hasattr(cls, member) or (dataclasses.is_dataclass(cls) and member in
                                        {f.name for f in dataclasses.fields(cls)})
    stale = [f"{cls}.{member}" for cls, member in sorted(named)
             if not resolves(classes[cls], member)]
    assert stale == []


def test_public_names_resolve():
    import types

    import relfock

    missing = [name for name in relfock.__all__ if not hasattr(relfock, name)]
    assert missing == []
    assert len(set(relfock.__all__)) == len(relfock.__all__)
    public = {name for name, value in vars(relfock).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(relfock.__all__)) == []

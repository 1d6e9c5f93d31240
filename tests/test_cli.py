"""Scenario loading, task execution, report formats, CLI contract."""
from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import relfock.scenario
from relfock import ScenarioError, Tolerances, load_scenario, run_scenario
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


class TestLoadScenario:
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
        doc = dict(MINIMAL)
        doc["spaces"] = doc["spaces"] + [
            {"id": "A", "modes": [{"label": "x", "max_occupation": 0}]},
            {"id": "B", "modes": [{"label": "y", "max_occupation": 1}]},
        ]
        doc["embeddings"] = [{
            "name": "bad", "kind": "isometry", "reference": "S",
            "subsystem": "A", "complementer": "B",
            "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }]
        with pytest.raises(ScenarioError, match="isometry"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_schema_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["schema"] = "relfock.scenario/999"
        with pytest.raises(ScenarioError, match="schema"):
            load_scenario(write_scenario(tmp_path, doc))

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

    def test_overflowing_evolution_fails_the_trajectory_task(self, tmp_path):
        # Phases w t overflow at this coupling, so later states are NaN.
        path = tmp_path / "scenario.json"
        path.write_bytes(edited("annihilation", lambda doc: doc["hamiltonians"][0]["terms"][0]
                                .update(coefficient=1e308)))
        proc = run_cli(str(path), "--format", "machine")
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
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


def test_public_names_resolve():
    import relfock

    missing = [name for name in relfock.__all__ if not hasattr(relfock, name)]
    assert missing == []

"""Task execution for scenario files.

Commands and their parameters (all object references are names declared in
the scenario). Parameters marked ? are optional; a task without one of its
required parameters fails with "missing task parameter 'state'":

  reduce            state, embedding, factor? ("A"|"B", default "A")
  spectrum          state, embedding, factor?
  schmidt           state, embedding
  joint             state, embeddings (list of mode-partition embeddings)
  evolve            state, hamiltonian, t (a finite number)
  trace-trajectory  state, hamiltonian, embedding,
                    times (list of finite numbers, or {"start","stop","num"}
                    with a nonnegative integer num), charge_kinds? (list of
                    kind names)
  check-ssr         state, embedding, kind
  sample            state, embedding, factor?, count? (integer, default 100),
                    seed? (nonnegative integer; falls back to the run-level
                    seed, and one of the two is required)

Tasks run in order; a failing task is recorded in the report and execution
continues. Library invariant violations become structured task errors, never
a crash of the run.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .composition import _party_pullbacks, compose_embeddings, joint_distribution, \
    schmidt_decompose
from .dynamics import evolve_trajectory, trace_deficit_trajectory
from .relational import _reduce, possible_internal_states, relational_state, \
    sample_internal_states
from .report import Report, TaskResult
from .scenario import Scenario
from .superselection import check_superselection
from .tolerances import Tolerances


def _required(params: Mapping[str, Any], key: str) -> Any:
    """A task parameter without a default; the task fails if it is missing."""
    if key not in params:
        raise ValueError(f"missing task parameter {key!r}")
    return params[key]


def _number(value: Any, name: str) -> float:
    """A task parameter that must be a finite JSON number, as a float (the
    JSON reader also accepts NaN and Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be within the float range, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def _integer(value: Any, name: str) -> int:
    """A task parameter that must be a JSON integer (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _times_from(params: Mapping[str, Any]) -> np.ndarray:
    times = _required(params, "times")
    if isinstance(times, Mapping):
        for key in ("start", "stop", "num"):
            if key not in times:
                raise ValueError(f"times needs start, stop and num; times.{key} is missing")
        num = _integer(times["num"], "times.num")
        if num < 0:
            raise ValueError(f"times.num must be a nonnegative integer, got {num}")
        return np.linspace(_number(times["start"], "times.start"),
                           _number(times["stop"], "times.stop"), num)
    if isinstance(times, list):
        return np.asarray([_number(t, f"times[{i}]") for i, t in enumerate(times)])
    raise ValueError("times must be a list of numbers or {start, stop, num}")


def _charge_kinds(params: Mapping[str, Any]) -> tuple[str, ...]:
    kinds = params.get("charge_kinds", [])
    if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
        raise TypeError(f"charge_kinds must be a list of charge kind names, got {kinds!r}")
    return tuple(kinds)


def _stack(vectors) -> np.ndarray:
    """The amplitudes of state vectors as the rows of one array."""
    return np.array([v.amplitudes for v in vectors])


def _spectrum_payload(dec) -> dict:
    return {
        "space": dec.space_id,
        "eigenvalues": dec.eigenvalues,
        "annihilation_probability": dec.annihilation_probability,
        "degeneracy_groups": dec.degeneracy_groups,
        "dropped": dec.dropped_count,
        "eigenvectors": _stack(dec.eigenvectors),
    }


def _task_relational_state(scenario: Scenario, params, tol: Tolerances):
    """The relational state named by a task's state, embedding and factor."""
    return relational_state(scenario.states[_required(params, "state")],
                            scenario.embeddings[_required(params, "embedding")],
                            params.get("factor", "A"), tol)


def _run_reduce(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    rho = _task_relational_state(scenario, params, tol)
    return {
        "space": rho.space_id,
        "matrix": rho.matrix,
        "trace": rho.trace,
        "trace_deficit": rho.trace_deficit,
    }


def _run_spectrum(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    rho = _task_relational_state(scenario, params, tol)
    return _spectrum_payload(possible_internal_states(rho, tol))


def _run_schmidt(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    dec = schmidt_decompose(scenario.states[_required(params, "state")],
                            scenario.embeddings[_required(params, "embedding")], tol)
    return {
        "coefficients": dec.coefficients,
        "residual_norm_sq": dec.residual_norm_sq,
        "degeneracy_groups": dec.degeneracy_groups,
        "a_vectors": _stack(dec.a_vectors),
        "b_vectors": _stack(dec.b_vectors),
        "residual": dec.residual.amplitudes,
    }


def _run_joint(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    names = _required(params, "embeddings")
    if not isinstance(names, list) or not names:
        raise ValueError("joint needs a nonempty list of embedding names")
    parts = [scenario.embeddings[n] for n in names]
    psi = scenario.states[_required(params, "state")]
    composed = compose_embeddings(parts, tol=tol)
    party_phis = _party_pullbacks(psi, composed, [p.subsystem for p in parts])
    spectra = [possible_internal_states(_reduce(psi, phi, p.subsystem_id, tol), tol)
               for p, phi in zip(parts, party_phis)]
    dist = joint_distribution(psi, composed, spectra, tol)
    return {
        "subsystems": dist.subsystem_ids,
        "index_ranges": dist.index_ranges,
        "probabilities": dist.clamped_probabilities(),
        "total": dist.total,
        "max_imag": dist.max_imag,
        "spectra": [_spectrum_payload(s) for s in spectra],
    }


def _run_evolve(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    t = _number(_required(params, "t"), "t")
    traj = evolve_trajectory(scenario.states[_required(params, "state")],
                             scenario.hamiltonians[_required(params, "hamiltonian")],
                             [t], tol=tol)
    psi_t = traj.states[0]
    return {
        "t": t,
        "space": psi_t.space_id,
        "amplitudes": psi_t.amplitudes,
        "norm_sq": float(traj.norms[0]),
        "energy": float(traj.energies[0]),
    }


def _run_trace_trajectory(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    traj = trace_deficit_trajectory(
        scenario.states[_required(params, "state")],
        scenario.hamiltonians[_required(params, "hamiltonian")],
        scenario.embeddings[_required(params, "embedding")],
        _times_from(params),
        charge_kinds=_charge_kinds(params),
        tol=tol,
    )
    traces = traj.relational_traces["subsystem"]
    return {
        "times": traj.times,
        "traces": traces,
        "deficits": 1.0 - traces,
        "norms": traj.norms,
        "energies": traj.energies,
        "charge_expectations": traj.charge_expectations,
    }


def _run_check_ssr(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    return dataclasses.asdict(check_superselection(
        scenario.states[_required(params, "state")],
        scenario.embeddings[_required(params, "embedding")],
        _required(params, "kind"), tol))


def _run_sample(scenario: Scenario, params, tol: Tolerances, seed) -> dict:
    task_seed = params.get("seed", seed)
    if task_seed is None:
        raise ValueError("sample needs a seed (task parameter or --seed)")
    task_seed = _integer(task_seed, "seed")
    if task_seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {task_seed}")
    count = _integer(params.get("count", 100), "count")
    rho = _task_relational_state(scenario, params, tol)
    dec = possible_internal_states(rho, tol)
    outcomes = sample_internal_states(dec, count, task_seed)
    annihilated_index = dec.outcome_count
    tally = np.bincount(outcomes, minlength=annihilated_index + 1).tolist()
    counts = {str(j): tally[j] for j in range(annihilated_index)}
    counts["annihilated"] = tally[annihilated_index]
    return {
        "seed": task_seed,
        "count": count,
        "generator": "PCG64",
        "eigenvalues": dec.eigenvalues,
        "annihilation_probability": dec.annihilation_probability,
        "annihilated_index": annihilated_index,
        "outcomes": outcomes,
        "counts": counts,
    }


_HANDLERS: dict[str, Callable] = {
    "reduce": _run_reduce,
    "spectrum": _run_spectrum,
    "schmidt": _run_schmidt,
    "joint": _run_joint,
    "evolve": _run_evolve,
    "trace-trajectory": _run_trace_trajectory,
    "check-ssr": _run_check_ssr,
    "sample": _run_sample,
}

COMMANDS = tuple(sorted(_HANDLERS))


def run_scenario(scenario: Scenario, tol: Tolerances = Tolerances(),
                 seed: int | None = None) -> Report:
    """Execute every task in order and collect a report."""
    report = Report(library_version=__version__, scenario_digest=scenario.digest,
                    tolerances=tol)
    for task in scenario.tasks:
        handler = _HANDLERS.get(task.command)
        if handler is None:
            report.tasks.append(TaskResult(
                name=task.name, command=task.command, status="error",
                error={"type": "UnknownCommand",
                       "message": f"unknown command {task.command!r};"
                                  f" expected one of {', '.join(COMMANDS)}"},
            ))
            continue
        try:
            result = handler(scenario, task.params, tol, seed)
        except Exception as exc:  # noqa: BLE001 - task errors must not kill the run
            report.tasks.append(TaskResult(
                name=task.name, command=task.command, status="error",
                error={"type": type(exc).__name__, "message": str(exc)},
            ))
            continue
        report.tasks.append(TaskResult(
            name=task.name, command=task.command, status="ok", result=result))
    return report

"""Scenario files: the declarative input format of the command line front end.

A scenario is a JSON document with schema tag "relfock.scenario/1":

    {
      "schema": "relfock.scenario/1",
      "spaces": [
        {"id": "R",
         "modes": [{"label": "e-", "statistics": "fermion", "max_occupation": 1,
                    "charges": {"electric": -1, "lepton": 1}}, ...]}
      ],
      "states": [
        {"name": "psi", "space": "R", "kind": "basis", "occupations": [1, 0]},
        {"name": "phi", "space": "R", "kind": "bell"},              // also: "ghz"
        {"name": "rnd", "space": "R", "kind": "random", "seed": 7},
        {"name": "amp", "space": "R", "kind": "amplitudes",
         "amplitudes": [[re, im], ...]}                             // unit norm
      ],
      "embeddings": [
        {"name": "AB", "kind": "mode_partition", "reference": "R",
         "subsystem_modes": ["e-"], "frozen": {"photon": 0}},       // frozen optional
        {"name": "V", "kind": "isometry", "reference": "R",
         "subsystem": "A", "complementer": "B", "matrix": [[[re, im], ...], ...]}
      ],
      "hamiltonians": [
        {"name": "H", "space": "R",
         "terms": [{"coefficient": 0.5,
                    "factors": [["create", "photon"], ["annihilate", "e-"],
                                ["annihilate", "e+"]]}]}
      ],
      "tasks": [ {"command": "reduce", "name": "rho", ...params...}, ... ]
    }

Complex numbers are [re, im] pairs (bare reals are accepted on input). All
name references are resolved at load time; dangling references, non-isometric
explicit embeddings, non-Hermitian Hamiltonians, term coefficients that are
not finite real numbers (NaN, Infinity, true), non-normalized states,
spaces of more than MAX_DIMENSION basis states and strings that cannot be
written as UTF-8 (a lone surrogate from an escape such as "\\ud800") are load
errors. Task commands and their parameters are documented in runner.py.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .dynamics import HamiltonianSpec, HamiltonianTerm, build_hamiltonian
from .errors import EmbeddingValidationError, ScenarioError
from .hilbert import (
    Embedding,
    FockSpace,
    ModeSpec,
    StateVector,
    basis_state,
    bell_state,
    build_fock_space,
    embedding_from_isometry,
    mode_partition_embedding,
    random_state_vector,
    state_from_amplitudes,
)
from .tolerances import Tolerances, resolve

SCENARIO_SCHEMA = "relfock.scenario/1"
# Largest space a scenario may declare. At this dimension a Hamiltonian whose
# one conserved block spans the space goes to eigh as a real D x D matrix
# (2 GiB) and yields complex D x D eigenvectors (4 GiB); an explicit isometry
# onto a product of the same dimension is a 4 GiB complex matrix. Mode
# partitions are index maps of 8 bytes per column; other Hamiltonians are
# their nonzero entries.
MAX_DIMENSION = 2 ** 14


@dataclass(frozen=True)
class Task:
    name: str
    command: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario: named objects plus an ordered task list."""

    spaces: Mapping[str, FockSpace]
    states: Mapping[str, StateVector]
    embeddings: Mapping[str, Embedding]
    hamiltonians: Mapping[str, HamiltonianSpec]
    tasks: tuple[Task, ...]
    digest: str


def parse_complex(value: Any, where: str) -> complex:
    try:
        if isinstance(value, (int, float)):
            return complex(value)
        if isinstance(value, list) and len(value) == 2 \
                and all(isinstance(x, (int, float)) for x in value):
            return complex(value[0], value[1])
    except OverflowError as exc:  # an integer beyond the float range
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _parse_numeric(values: list, ndim: int) -> np.ndarray | None:
    """values as a complex array of ndim dimensions, when it is a nonempty
    rectangular nest of numbers (bare reals, or [re, im] pairs along one more
    axis), which is exactly what parse_complex accepts entry by entry; None for
    anything else, including strings numpy would convert."""
    try:
        arr = np.array(values)
    except (ValueError, OverflowError):  # ragged nests, integers too large for a float
        return None
    if arr.size == 0 or arr.dtype.kind not in "biuf":
        return None
    if arr.ndim == ndim:
        return arr.astype(np.complex128)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        # [re, im] pairs are the memory layout of complex128: no arithmetic
        # on the parts, so signed zeros survive as complex(re, im) keeps them.
        return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]
    return None


def _complex_vector(values: Any, where: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list of complex numbers")
    fast = _parse_numeric(values, 1)
    if fast is not None:
        return fast
    return np.array([parse_complex(v, f"{where}[{i}]") for i, v in enumerate(values)])


def _complex_matrix(values: Any, where: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"{where}: expected a nonempty list of rows")
    fast = _parse_numeric(values, 2)
    if fast is not None:
        return fast
    return np.stack([_complex_vector(row, f"{where}[{i}]") for i, row in enumerate(values)])


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def _integers(values: Any, where: str) -> list[int]:
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list of integers, got {values!r}")
    return [_integer(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _labels(values: Any, where: str) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ScenarioError(f"{where}: expected a list of mode labels, got {values!r}")
    return values


def _lookup(pool: Mapping[str, Any], name: Any, what: str, where: str) -> Any:
    if not isinstance(name, str) or name not in pool:
        raise ScenarioError(f"{where}: unknown {what} {name!r}")
    return pool[name]


def _named_entries(doc: Mapping[str, Any], section: str, name_key: str = "name") -> list:
    entries = doc.get(section, [])
    if not isinstance(entries, list):
        raise ScenarioError(f"{section}: expected a list")
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{section}[{i}]: expected an object")
        name = _require(entry, name_key, f"{section}[{i}]")
        if not isinstance(name, str):
            raise ScenarioError(f"{section}[{i}]: {name_key} must be a string, got {name!r}")
        if name in seen:
            raise ScenarioError(f"{section}: duplicate name {name!r}")
        seen.add(name)
    return entries


def _build_space(entry: Mapping[str, Any], where: str) -> FockSpace:
    modes = []
    raw_modes = _require(entry, "modes", where)
    if not isinstance(raw_modes, list) or not raw_modes:
        raise ScenarioError(f"{where}: modes must be a nonempty list")
    for i, m in enumerate(raw_modes):
        mwhere = f"{where}.modes[{i}]"
        if not isinstance(m, Mapping):
            raise ScenarioError(f"{mwhere}: expected an object")
        charges = m.get("charges") or {}
        if not isinstance(charges, Mapping):
            raise ScenarioError(f"{mwhere}.charges: expected an object mapping charge kinds"
                                f" to integers, got {charges!r}")
        try:
            modes.append(ModeSpec(
                label=_require(m, "label", mwhere),
                statistics=m.get("statistics", "boson"),
                max_occupation=m.get("max_occupation", 1),
                charges=tuple(sorted(charges.items())),
            ))
        except ValueError as exc:
            raise ScenarioError(f"{mwhere}: {exc}") from exc
    dimension = math.prod(m.local_dimension for m in modes)
    if dimension > MAX_DIMENSION:
        raise ScenarioError(f"{where}: dimension {dimension} exceeds the limit of"
                            f" {MAX_DIMENSION} basis states")
    try:
        return build_fock_space(modes, space_id=entry["id"])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_state(entry: Mapping[str, Any], spaces: Mapping[str, FockSpace],
                 tol: Tolerances, where: str) -> StateVector:
    space = _lookup(spaces, _require(entry, "space", where), "space", where)
    kind = entry.get("kind", "amplitudes")
    try:
        if kind == "basis":
            if "occupations" in entry:
                occupations = _integers(entry["occupations"], f"{where}.occupations")
                return basis_state(space, occupations)
            index = _integer(_require(entry, "index", where), f"{where}.index")
            return basis_state(space, index)
        if kind == "bell":
            pair = entry.get("pair")
            if pair is not None:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ScenarioError(f"{where}.pair: expected two occupation lists")
                pair = tuple(_integers(occ, f"{where}.pair[{i}]") for i, occ in enumerate(pair))
            return bell_state(space, pair)
        if kind == "ghz":
            return bell_state(space)
        if kind == "random":
            seed = _integer(_require(entry, "seed", where), f"{where}.seed")
            return random_state_vector(space, seed)
        if kind == "amplitudes":
            amps = _complex_vector(_require(entry, "amplitudes", where), f"{where}.amplitudes")
            state = state_from_amplitudes(space, amps)
            if not state.is_normalized(tol):
                raise ScenarioError(
                    f"{where}: state is not normalized (|psi|^2 = {state.norm_sq!r})"
                )
            return state
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown state kind {kind!r}")


def _build_embedding(entry: Mapping[str, Any], spaces: Mapping[str, FockSpace],
                     tol: Tolerances, where: str) -> Embedding:
    reference = _lookup(spaces, _require(entry, "reference", where), "space", where)
    kind = entry.get("kind", "mode_partition")
    try:
        if kind == "mode_partition":
            frozen = entry.get("frozen") or {}
            if not isinstance(frozen, Mapping):
                raise ScenarioError(f"{where}: frozen must map mode labels to occupations")
            sub = _labels(_require(entry, "subsystem_modes", where), f"{where}.subsystem_modes")
            comp = entry.get("complementer_modes")
            if comp is not None:
                comp = _labels(comp, f"{where}.complementer_modes")
            return mode_partition_embedding(
                reference,
                subsystem_labels=sub,
                complementer_labels=comp,
                frozen={str(k): _integer(v, f"{where}.frozen[{k!r}]")
                        for k, v in frozen.items()},
                subsystem_id=entry.get("subsystem_id"),
                complementer_id=entry.get("complementer_id"),
            )
        if kind == "isometry":
            space_a = _lookup(spaces, _require(entry, "subsystem", where), "space", where)
            space_b = _lookup(spaces, _require(entry, "complementer", where), "space", where)
            matrix = _complex_matrix(_require(entry, "matrix", where), f"{where}.matrix")
            return embedding_from_isometry(space_a, space_b, reference, matrix, tol=tol)
    except ScenarioError:
        raise
    except (ValueError, EmbeddingValidationError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown embedding kind {kind!r}")


def _build_hamiltonian(entry: Mapping[str, Any], spaces: Mapping[str, FockSpace],
                       tol: Tolerances, where: str) -> HamiltonianSpec:
    space = _lookup(spaces, _require(entry, "space", where), "space", where)
    terms = []
    raw_terms = entry.get("terms", [])
    if not isinstance(raw_terms, list):
        raise ScenarioError(f"{where}.terms: expected a list of term objects")
    for i, term in enumerate(raw_terms):
        twhere = f"{where}.terms[{i}]"
        if not isinstance(term, Mapping):
            raise ScenarioError(f"{twhere}: expected an object, got {term!r}")
        coeff = _require(term, "coefficient", twhere)
        factors = term.get("factors", [])
        if not isinstance(factors, list) \
                or not all(isinstance(f, list) and len(f) == 2 for f in factors):
            raise ScenarioError(f"{twhere}: factors must be a list of [kind, mode label] pairs")
        try:
            terms.append(HamiltonianTerm(coeff, tuple((str(k), str(l)) for k, l in factors)))
        except ValueError as exc:
            raise ScenarioError(f"{twhere}: {exc}") from exc
    try:
        return build_hamiltonian(space, terms, tol)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


# A \uD800-\uDFFF escape: the only way a UTF-8 document can hold a string
# that is not valid Unicode text (a lone surrogate).
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _check_strings(node: Any, where: str) -> None:
    """Raise a located ScenarioError for the first key or string value below
    node that cannot be encoded as UTF-8."""
    if isinstance(node, str):
        try:
            node.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ScenarioError(f"{where}: string {node!r} is not valid Unicode text"
                                f" ({exc.reason})") from None
    elif isinstance(node, dict):
        for key, value in node.items():
            _check_strings(key, f"a key of {where or 'the top level'}")
            _check_strings(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_strings(value, f"{where}[{i}]")


def load_scenario(path: str | Path, tol: Tolerances | None = None) -> Scenario:
    """Parse and fully validate a scenario file."""
    tol = resolve(tol)
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, Mapping):
        raise ScenarioError(f"{path}: top level must be an object")
    if _SURROGATE_ESCAPE.search(raw):
        _check_strings(doc, "")
    schema = doc.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(
            f"{path}: unsupported schema {schema!r}; expected {SCENARIO_SCHEMA!r}"
        )

    spaces: dict[str, FockSpace] = {}
    for i, entry in enumerate(_named_entries(doc, "spaces", name_key="id")):
        spaces[entry["id"]] = _build_space(entry, f"spaces[{i}] ({entry['id']!r})")

    states: dict[str, StateVector] = {}
    for i, entry in enumerate(_named_entries(doc, "states")):
        states[entry["name"]] = _build_state(
            entry, spaces, tol, f"states[{i}] ({entry['name']!r})")

    embeddings: dict[str, Embedding] = {}
    for i, entry in enumerate(_named_entries(doc, "embeddings")):
        embeddings[entry["name"]] = _build_embedding(
            entry, spaces, tol, f"embeddings[{i}] ({entry['name']!r})")

    hamiltonians: dict[str, HamiltonianSpec] = {}
    for i, entry in enumerate(_named_entries(doc, "hamiltonians")):
        hamiltonians[entry["name"]] = _build_hamiltonian(
            entry, spaces, tol, f"hamiltonians[{i}] ({entry['name']!r})")

    tasks: list[Task] = []
    raw_tasks = doc.get("tasks", [])
    if not isinstance(raw_tasks, list):
        raise ScenarioError("tasks: expected a list")
    names = set()
    for i, entry in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{where}: expected an object")
        command = _require(entry, "command", where)
        name = entry.get("name", f"{command}-{i}")
        if not isinstance(command, str) or not isinstance(name, str):
            raise ScenarioError(f"{where}: command and name must be strings")
        if name in names:
            raise ScenarioError(f"{where}: duplicate task name {name!r}")
        names.add(name)
        params = {k: v for k, v in entry.items() if k not in ("command", "name")}
        tasks.append(Task(name=name, command=command, params=params))

    _check_task_references(tasks, states, embeddings, hamiltonians)

    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    return Scenario(spaces=spaces, states=states, embeddings=embeddings,
                    hamiltonians=hamiltonians, tasks=tuple(tasks), digest=digest)


_TASK_REFS = {
    "state": "states",
    "embedding": "embeddings",
    "hamiltonian": "hamiltonians",
}


def _check_task_references(tasks: Sequence[Task], states, embeddings, hamiltonians) -> None:
    pools = {"states": states, "embeddings": embeddings, "hamiltonians": hamiltonians}
    for task in tasks:
        for key, pool_name in _TASK_REFS.items():
            if key not in task.params:
                continue
            value = task.params[key]
            if not isinstance(value, str) or value not in pools[pool_name]:
                raise ScenarioError(
                    f"task {task.name!r}: unknown {key} reference {value!r}"
                )
        names = task.params.get("embeddings", [])
        if not isinstance(names, list):
            raise ScenarioError(f"task {task.name!r}: embeddings must be a list of names")
        for value in names:
            if not isinstance(value, str) or value not in embeddings:
                raise ScenarioError(
                    f"task {task.name!r}: unknown embedding reference {value!r}"
                )

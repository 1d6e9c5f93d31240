"""Seeded scenario generators for the benchmark workloads.

Every generated workload is a list of ``Case`` objects: the scenario file
the program reads, plus its parsed document. The checkers derive every
oracle from that document alone, so the program and the oracle see the same
input and nothing else. The same seed gives byte-identical files.

Sizes are fixed per workload (only values depend on the seed), so run-to-run
differences in the timings come from the machine, not from the inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_DIR = ROOT / "src" / "relfock" / "scenarios"
GOLDEN_DIR = ROOT / "tests" / "golden"
BUNDLED_NAMES = ("bell", "product", "annihilation")


@dataclass(frozen=True)
class Case:
    """One scenario file of a workload."""

    name: str
    data: bytes
    golden: bytes | None = None  # expected report bytes, where one exists

    @property
    def doc(self) -> dict:
        return json.loads(self.data)


def scenario_bytes(doc: dict) -> bytes:
    """Canonical file contents: sorted keys, shortest round-trip floats."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=np.complex128)]


def _mode(label: str, statistics: str = "boson", **charges: int) -> dict:
    mode = {"label": label, "statistics": statistics, "max_occupation": 1}
    if charges:
        mode["charges"] = charges
    return mode


def _unit_vector(rng: np.random.Generator, dim: int, support=None) -> np.ndarray:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if support is not None:
        amps = np.where(support, amps, 0.0)
    return amps / np.linalg.norm(amps)


def _occupations(n_modes: int) -> np.ndarray:
    """Occupation bits of every basis state of n two-level modes, first mode
    most significant (the library's enumeration order)."""
    idx = np.arange(2 ** n_modes)
    return (idx[:, None] >> np.arange(n_modes - 1, -1, -1)[None, :]) & 1


def bundled() -> list[Case]:
    """The shipped scenarios with their golden reports (seed-independent)."""
    return [Case(name, (SHIPPED_DIR / f"{name}.json").read_bytes(),
                 (GOLDEN_DIR / f"{name}.report.json").read_bytes())
            for name in BUNDLED_NAMES]


def relations(seed: int, n_modes: int = 12) -> list[Case]:
    """Mode-partition relations on one reference of two-level modes.

    Even positions are fermions with electric charge -1/+1 alternating, odd
    positions are neutral bosons. Three partitions of k modes each form the
    joint; the first freezes one more mode at occupation 0, so its traces
    fall below one. A fourth partition is used for the superselection check
    on a state supported in the zero-charge sector.
    """
    rng = np.random.default_rng(seed)
    modes = []
    charges = np.zeros(n_modes, dtype=np.int64)
    for i in range(n_modes):
        if i % 2 == 0:
            charges[i] = -1 if i % 4 == 0 else 1
            modes.append(_mode(f"f{i}", "fermion", electric=int(charges[i])))
        else:
            modes.append(_mode(f"b{i}"))
    labels = [m["label"] for m in modes]
    perm = [labels[i] for i in rng.permutation(n_modes)]
    k = (n_modes - 2) // 3
    frozen_label = perm[3 * k]
    parts = {
        "part_frozen": {"subsystem_modes": perm[0:k], "frozen": {frozen_label: 0}},
        "part_a": {"subsystem_modes": perm[k:2 * k]},
        "part_b": {"subsystem_modes": perm[2 * k:3 * k]},
        "part_ssr": {"subsystem_modes": perm[n_modes - k - 1:]},
    }
    dim = 2 ** n_modes
    total_charge = _occupations(n_modes) @ charges
    psi = _unit_vector(rng, dim)
    neutral = _unit_vector(rng, dim, support=total_charge == 0)
    doc = {
        "schema": "relfock.scenario/1",
        "spaces": [{"id": "R", "modes": modes}],
        "states": [
            {"name": "psi", "space": "R", "kind": "amplitudes", "amplitudes": _pairs(psi)},
            {"name": "neutral", "space": "R", "kind": "amplitudes",
             "amplitudes": _pairs(neutral)},
        ],
        "embeddings": [{"name": name, "kind": "mode_partition", "reference": "R", **spec}
                       for name, spec in parts.items()],
        "hamiltonians": [],
        "tasks": [
            {"command": "reduce", "name": "reduce_a", "state": "psi",
             "embedding": "part_a", "factor": "A"},
            {"command": "reduce", "name": "reduce_frozen", "state": "psi",
             "embedding": "part_frozen", "factor": "A"},
            {"command": "spectrum", "name": "spectrum_frozen", "state": "psi",
             "embedding": "part_frozen", "factor": "A"},
            {"command": "schmidt", "name": "schmidt_frozen", "state": "psi",
             "embedding": "part_frozen"},
            {"command": "joint", "name": "joint3", "state": "psi",
             "embeddings": ["part_frozen", "part_a", "part_b"]},
            {"command": "check-ssr", "name": "ssr_neutral", "state": "neutral",
             "embedding": "part_ssr", "kind": "electric"},
            {"command": "sample", "name": "sample_a", "state": "psi",
             "embedding": "part_a", "factor": "A", "count": 1000,
             "seed": int(rng.integers(2 ** 31))},
        ],
    }
    return [Case("relations", scenario_bytes(doc))]


def dynamics(seed: int, n_conversion: int = 10, n_hopping: int = 10) -> list[Case]:
    """Two Hamiltonians with many conserved sectors.

    ``conversion``: g c+_photon c_e- c_e+ (+ h.c.) with g = 1 on e-, e+, a
    photon and spectator modes in a seeded basis configuration, started from
    the pair state; the relational trace of the e-/e+ partition (photon
    frozen empty) is cos^2(t).
    ``hopping``: a fermion chain with seeded hopping amplitudes, half filled,
    last site empty at t = 0 and frozen empty in the monitored embedding, so
    the deficit is that site's occupation.
    """
    rng = np.random.default_rng(seed)
    spectators = [_mode(f"x{i}", "fermion" if i % 2 else "boson")
                  for i in range(n_conversion - 3)]
    conv_modes = [_mode("e-", "fermion", electric=-1, lepton=1),
                  _mode("e+", "fermion", electric=1, lepton=-1),
                  _mode("photon")] + spectators
    spec_labels = [m["label"] for m in spectators]
    half = len(spec_labels) // 2
    pair = [1, 1, 0] + [int(b) for b in rng.integers(0, 2, len(spectators))]

    sites = [f"s{i}" for i in range(n_hopping)]
    filled = rng.choice(n_hopping - 1, size=n_hopping // 2, replace=False)
    chain_occ = [1 if i in filled else 0 for i in range(n_hopping)]
    hops = rng.uniform(0.5, 1.5, n_hopping - 1)
    hop_terms = [{"coefficient": float(hops[i]),
                  "factors": [["create", sites[i + 1]], ["annihilate", sites[i]]]}
                 for i in range(n_hopping - 1)]

    doc = {
        "schema": "relfock.scenario/1",
        "spaces": [
            {"id": "C", "modes": conv_modes},
            {"id": "L", "modes": [_mode(s, "fermion", electric=-1) for s in sites]},
        ],
        "states": [
            {"name": "pair", "space": "C", "kind": "basis", "occupations": pair},
            {"name": "chain", "space": "L", "kind": "basis", "occupations": chain_occ},
        ],
        "embeddings": [
            {"name": "pair_sector", "kind": "mode_partition", "reference": "C",
             "subsystem_modes": ["e-"] + spec_labels[:half],
             "complementer_modes": ["e+"] + spec_labels[half:],
             "frozen": {"photon": 0}},
            {"name": "open_chain", "kind": "mode_partition", "reference": "L",
             "subsystem_modes": sites[:n_hopping // 2],
             "frozen": {sites[-1]: 0}},
        ],
        "hamiltonians": [
            {"name": "conversion", "space": "C",
             "terms": [{"coefficient": 1.0, "factors": [
                 ["create", "photon"], ["annihilate", "e-"], ["annihilate", "e+"]]}]},
            {"name": "hopping", "space": "L", "terms": hop_terms},
        ],
        "tasks": [
            {"command": "trace-trajectory", "name": "conversion_curve", "state": "pair",
             "hamiltonian": "conversion", "embedding": "pair_sector",
             "times": {"start": 0.0, "stop": 3.0, "num": 50},
             "charge_kinds": ["electric", "lepton"]},
            {"command": "evolve", "name": "conversion_t", "state": "pair",
             "hamiltonian": "conversion", "t": float(rng.uniform(0.2, 1.4))},
            {"command": "trace-trajectory", "name": "hopping_curve", "state": "chain",
             "hamiltonian": "hopping", "embedding": "open_chain",
             "times": {"start": 0.0, "stop": 4.0, "num": 20},
             "charge_kinds": ["electric"]},
            {"command": "evolve", "name": "hopping_t", "state": "chain",
             "hamiltonian": "hopping", "t": float(rng.uniform(0.5, 3.0))},
        ],
    }
    return [Case("dynamics", scenario_bytes(doc))]


def dense(seed: int, n_reference: int = 9, n_hamiltonian: int = 10) -> list[Case]:
    """The same layers on inputs without structure to exploit.

    An explicit random isometry (QR of a complex Gaussian matrix) embeds
    A (x) B, together half the reference dimension, into the reference; and a
    Hamiltonian of single-mode creation terms (+ h.c.) plus number terms
    connects every basis state of its space into one block.
    """
    rng = np.random.default_rng(seed)
    n_a = (n_reference - 1) // 2
    n_b = n_reference - 1 - n_a
    dim_r, dim_img = 2 ** n_reference, 2 ** (n_reference - 1)
    gauss = rng.standard_normal((dim_r, dim_img)) + 1j * rng.standard_normal((dim_r, dim_img))
    isometry, _ = np.linalg.qr(gauss)
    psi = _unit_vector(rng, dim_r)

    q_labels = [f"q{i}" for i in range(n_hamiltonian)]
    kicks = rng.uniform(0.2, 1.0, n_hamiltonian)
    freqs = rng.uniform(0.5, 2.0, n_hamiltonian)
    terms = [{"coefficient": float(kicks[i]), "factors": [["create", q]]}
             for i, q in enumerate(q_labels)]
    terms += [{"coefficient": float(freqs[i]), "factors": [["number", q]]}
              for i, q in enumerate(q_labels)]
    phi = _unit_vector(rng, 2 ** n_hamiltonian)

    doc = {
        "schema": "relfock.scenario/1",
        "spaces": [
            {"id": "R", "modes": [_mode(f"r{i}") for i in range(n_reference)]},
            {"id": "A", "modes": [_mode(f"a{i}") for i in range(n_a)]},
            {"id": "B", "modes": [_mode(f"c{i}") for i in range(n_b)]},
            {"id": "Q", "modes": [_mode(q) for q in q_labels]},
        ],
        "states": [
            {"name": "psi", "space": "R", "kind": "amplitudes", "amplitudes": _pairs(psi)},
            {"name": "phi", "space": "Q", "kind": "amplitudes", "amplitudes": _pairs(phi)},
        ],
        "embeddings": [
            {"name": "V", "kind": "isometry", "reference": "R", "subsystem": "A",
             "complementer": "B", "matrix": [_pairs(row) for row in isometry]},
            {"name": "q_split", "kind": "mode_partition", "reference": "Q",
             "subsystem_modes": q_labels[:n_hamiltonian // 2],
             "frozen": {q_labels[-1]: 0}},
        ],
        "hamiltonians": [{"name": "kicked", "space": "Q", "terms": terms}],
        "tasks": [
            {"command": "reduce", "name": "reduce_v", "state": "psi",
             "embedding": "V", "factor": "A"},
            {"command": "spectrum", "name": "spectrum_v", "state": "psi",
             "embedding": "V", "factor": "A"},
            {"command": "schmidt", "name": "schmidt_v", "state": "psi", "embedding": "V"},
            {"command": "sample", "name": "sample_v", "state": "psi", "embedding": "V",
             "factor": "A", "count": 1000, "seed": int(rng.integers(2 ** 31))},
            {"command": "trace-trajectory", "name": "kicked_curve", "state": "phi",
             "hamiltonian": "kicked", "embedding": "q_split",
             "times": {"start": 0.0, "stop": 2.0, "num": 20}},
            {"command": "evolve", "name": "kicked_t", "state": "phi",
             "hamiltonian": "kicked", "t": float(rng.uniform(0.5, 2.0))},
        ],
    }
    return [Case("dense", scenario_bytes(doc))]


GENERATORS = {
    "bundled": lambda seed: bundled(),
    "relations": relations,
    "dynamics": dynamics,
    "dense": dense,
}

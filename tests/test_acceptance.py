"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``ACCEPTANCE <n> [<name>]: PASS|FAIL`` line (visible
with ``pytest -s`` or in captured output on failure).
"""
from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from relfock import (
    CHARGE_KINDS,
    DensityOperator,
    ModeSpec,
    StateVector,
    basis_state,
    build_fock_space,
    check_superselection,
    conversion_hamiltonian,
    embedding_from_isometry,
    evolve,
    evolve_trajectory,
    joint_distribution,
    mode_partition_embedding,
    possible_internal_states,
    random_isometry_embedding,
    random_state_vector,
    regroup_embedding,
    relational_state,
    sample_internal_states,
    schmidt_decompose,
    sector_decomposition,
    tensor_product,
    trace_deficit_trajectory,
    build_hamiltonian,
)

from conftest import qudit_space, spectral_norm

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIO_DIR = Path(__file__).parents[1] / "src" / "relfock" / "scenarios"


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{name}]: FAIL")
                raise
            print(f"ACCEPTANCE {number} [{name}]: PASS")
            return out
        return wrapper
    return decorate


def random_embedded_pair(rng, min_extra=0, max_ref=64):
    """Random (unit state, random-isometry embedding) with dim(R) <= max_ref
    and at least min_extra dimensions outside the image."""
    dim_a = int(rng.integers(2, 9))
    dim_b = int(rng.integers(1, min(8, (max_ref - min_extra) // dim_a) + 1))
    dim_img = dim_a * dim_b
    dim_r = int(rng.integers(dim_img + min_extra, max_ref + 1))
    seed_e, seed_s = int(rng.integers(2**32)), int(rng.integers(2**32))
    a = qudit_space(dim_a, "a", f"accA{seed_e}")
    b = qudit_space(dim_b, "b", f"accB{seed_e}")
    r = qudit_space(dim_r, "r", f"accR{seed_e}")
    e = random_isometry_embedding(a, b, r, seed=seed_e)
    psi = random_state_vector(r, seed=seed_s)
    return psi, e


def random_multiparty(rng, dims, max_ref=64):
    factors = [qudit_space(d, f"m{i}", f"accF{i}-{int(rng.integers(2**31))}")
               for i, d in enumerate(dims)]
    sub = reduce(tensor_product, factors)
    dim_sub = sub.dimension
    dim_b = int(rng.integers(1, max(2, max_ref // dim_sub) + 1))
    dim_b = max(1, min(dim_b, max_ref // dim_sub))
    dim_r = int(rng.integers(dim_sub * dim_b, max_ref + 1))
    comp = qudit_space(dim_b, "env", f"accE{int(rng.integers(2**31))}")
    ref = qudit_space(dim_r, "ref", f"accRr{int(rng.integers(2**31))}")
    joint = random_isometry_embedding(sub, comp, ref, seed=int(rng.integers(2**32)))
    psi = random_state_vector(ref, seed=int(rng.integers(2**32)))
    spectra = [
        possible_internal_states(relational_state(
            psi, regroup_embedding(joint, factors, [i]), "A"))
        for i in range(len(factors))
    ]
    return psi, joint, factors, spectra


@criterion(1, "reduced-state invariants over 500 random pairs")
def test_criterion_1_reduced_state_invariants():
    rng = np.random.Generator(np.random.PCG64(101))
    start = time.monotonic()
    for _ in range(500):
        psi, e = random_embedded_pair(rng)
        rho = relational_state(psi, e, "A")
        herm_dev = float(np.abs(rho.matrix - rho.matrix.conj().T).max())
        assert herm_dev < 1e-10
        assert float(np.linalg.eigvalsh(rho.matrix)[0]) > -1e-10
        assert 0.0 <= rho.trace <= 1.0 + 1e-10
        comp = e.isometry.conj().T @ psi.amplitudes
        assert abs(rho.trace - float(np.vdot(comp, comp).real)) < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion must finish in 10 s, took {elapsed:.1f} s"


@criterion(2, "trace deficit equals full-space projector computation")
def test_criterion_2_deficit_projector_oracle():
    rng = np.random.Generator(np.random.PCG64(202))
    checked = 0
    for _ in range(100):
        psi, e = random_embedded_pair(rng, min_extra=2)
        proj = e.isometry @ e.isometry.conj().T
        inside = float(np.vdot(psi.amplitudes, proj @ psi.amplitudes).real)
        rho = relational_state(psi, e, "A")
        assert abs(rho.trace_deficit - (1.0 - inside)) < 1e-10
        if rho.trace_deficit > 1e-6:
            checked += 1
    assert checked >= 100  # every state has weight outside the image


@criterion(3, "marginalization chain down to single-party eigenvalues")
def test_criterion_3_marginalization_chain():
    rng = np.random.Generator(np.random.PCG64(303))
    for _ in range(6):
        dims3 = tuple(int(d) for d in rng.integers(2, 4, size=3))
        psi, joint, factors, spectra = random_multiparty(rng, dims3)
        dist3 = joint_distribution(psi, joint, spectra)
        for drop in range(3):
            keep = [i for i in range(3) if i != drop]
            dist2 = joint_distribution(
                psi, regroup_embedding(joint, factors, keep),
                [spectra[i] for i in keep])
            assert np.abs(dist3.probabilities.sum(axis=drop)
                          - dist2.probabilities).max() < 1e-9
    for _ in range(6):
        dims2 = tuple(int(d) for d in rng.integers(2, 5, size=2))
        psi, joint, factors, spectra = random_multiparty(rng, dims2)
        dist2 = joint_distribution(psi, joint, spectra)
        for axis, spectrum in enumerate(spectra):
            marg = dist2.probabilities.sum(axis=1 - axis)
            assert np.abs(marg - np.array(spectrum.eigenvalues)).max() < 1e-9


@criterion(4, "joint tensor matches dense full-space oracle")
def test_criterion_4_joint_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(404))
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        psi, joint, factors, spectra = random_multiparty(rng, dims, max_ref=48)
        dist = joint_distribution(psi, joint, spectra)
        eye_b = np.eye(joint.complementer.dimension)
        for jj in np.ndindex(*dist.index_ranges):
            middle = reduce(np.kron, [spectra[i].projector(j) for i, j in enumerate(jj)])
            mat = joint.isometry @ np.kron(middle, eye_b) @ joint.isometry.conj().T
            oracle = float(np.vdot(psi.amplitudes, mat @ psi.amplitudes).real)
            assert abs(dist.probabilities[jj] - oracle) < 1e-9


@criterion(5, "Schmidt reconstruction, residual orthogonality, spectra match")
def test_criterion_5_schmidt_suite():
    rng = np.random.Generator(np.random.PCG64(505))
    for _ in range(60):
        psi, e = random_embedded_pair(rng)
        dec = schmidt_decompose(psi, e)
        rebuilt = np.array(dec.residual.amplitudes)
        for c, a, b in zip(dec.coefficients, dec.a_vectors, dec.b_vectors):
            rebuilt = rebuilt + c * (e.isometry @ np.kron(a.amplitudes, b.amplitudes))
        assert np.abs(rebuilt - psi.amplitudes).max() < 1e-10
        for a in dec.a_vectors:
            for b in dec.b_vectors:
                product = e.isometry @ np.kron(a.amplitudes, b.amplitudes)
                assert abs(np.vdot(dec.residual.amplitudes, product)) < 1e-10
        assert abs(sum(c * c for c in dec.coefficients)
                   + dec.residual_norm_sq - 1.0) < 1e-10
        c_sq = sorted((c * c for c in dec.coefficients), reverse=True)
        for factor in ("A", "B"):
            spectrum = possible_internal_states(relational_state(psi, e, factor))
            eigs = sorted(spectrum.eigenvalues, reverse=True)
            width = max(len(c_sq), len(eigs))
            lhs = np.array(c_sq + [0.0] * (width - len(c_sq)))
            rhs = np.array(eigs + [0.0] * (width - len(eigs)))
            assert np.abs(lhs - rhs).max() < 1e-10


def _charged_space(space_id):
    return build_fock_space([
        ModeSpec("u", "boson", 2, {"electric": 2, "baryon": 1}),
        ModeSpec("d", "boson", 1, {"electric": -1, "baryon": 1}),
        ModeSpec("l", "fermion", 1, {"electric": -1, "lepton": 1}),
        ModeSpec("n", "boson", 1),
    ], space_id)


@criterion(6, "superselection theorem over 200 cases plus counterexample")
def test_criterion_6_superselection():
    sp = _charged_space("acc6")
    rng = np.random.Generator(np.random.PCG64(606))
    labels = list(sp.mode_labels)
    passed = 0
    while passed < 200:
        kind = CHARGE_KINDS[passed % 3]
        dec = sector_decomposition(sp, kind)
        fat = [q for q, idx in dec.sectors if len(idx) >= 2]
        q = fat[rng.integers(0, len(fat))]
        idx = list(dec.indices(q))
        amps = np.zeros(sp.dimension, dtype=complex)
        amps[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        amps /= np.linalg.norm(amps)
        psi = StateVector(sp.space_id, amps)
        k = int(rng.integers(1, len(labels)))
        e = mode_partition_embedding(sp, list(rng.permutation(labels)[:k]))
        if passed % 2:
            rot = np.zeros((sp.dimension, sp.dimension), dtype=complex)
            for _, sector_idx in dec.sectors:
                sector_idx = list(sector_idx)
                g = rng.standard_normal((len(sector_idx),) * 2) \
                    + 1j * rng.standard_normal((len(sector_idx),) * 2)
                rot[np.ix_(sector_idx, sector_idx)] = np.linalg.qr(g)[0]
            e = embedding_from_isometry(e.subsystem, e.complementer, sp,
                                        rot @ e.isometry)
        report = check_superselection(psi, e, kind)
        assert report.applicable
        assert report.off_block_max < 1e-12
        passed += 1

    # engineered counterexample: a cross-sector reference superposition
    cx = build_fock_space([
        ModeSpec("a", "boson", 1, {"electric": -1}),
        ModeSpec("b", "boson", 1),
    ], "acc6cx")
    amps = np.zeros(4, dtype=complex)
    for occ in ((0, 0), (1, 1), (0, 1)):
        amps[cx.index_of(occ)] = 1 / np.sqrt(3)
    report = check_superselection(StateVector(cx.space_id, amps),
                                  mode_partition_embedding(cx, ["a"]), "electric")
    assert not report.passed
    assert report.off_block_max > 0.1


@criterion(7, "dynamics: conservation, Rabi oracle, deficit curve oracle")
def test_criterion_7_dynamics_suite():
    # norm and energy drift over t in [0, 100/|H|]
    space = build_fock_space([
        ModeSpec("e-", "fermion", 1, {"electric": -1, "lepton": 1}),
        ModeSpec("e+", "fermion", 1, {"electric": 1, "lepton": -1}),
        ModeSpec("photon", "boson", 1),
    ], "acc7")
    h = conversion_hamiltonian(space, 0.7, ["photon"], ["e-", "e+"])
    h_norm = spectral_norm(h)
    psi0 = basis_state(space, (1, 1, 0))
    times = np.linspace(0.0, 100.0 / h_norm, 101)
    traj = evolve_trajectory(psi0, h, times)
    assert np.abs(traj.norms - 1.0).max() < 1e-9
    assert np.abs(traj.energies - traj.energies[0]).max() < 1e-9 * h_norm

    # two-level Rabi trajectory against the closed-form 2x2 exponential
    q = build_fock_space([ModeSpec("q", "boson", 1)], "acc7q")
    g = 1.3
    rabi = build_hamiltonian(q, [(g, (("create", "q"),))])
    excited = basis_state(q, (1,))
    for t in np.linspace(0.0, 2 * np.pi / g, 29):
        out = evolve(excited, rabi, t)
        closed_form = np.array([-1j * np.sin(g * t), np.cos(g * t)])
        assert np.abs(out.amplitudes - closed_form).max() < 1e-9

    # trilinear annihilation: deficit curve against the projector oracle
    e = mode_partition_embedding(space, ["e-"], frozen={"photon": 0})
    times = np.linspace(0.0, 4.0, 33)
    traj = trace_deficit_trajectory(psi0, h, e, times)
    deficits = traj.deficits("subsystem")
    assert abs(deficits[0]) < 1e-9
    proj = e.isometry @ e.isometry.conj().T
    for i in range(len(times)):
        amps = traj.states[i].amplitudes
        oracle = 1.0 - float(np.vdot(amps, proj @ amps).real)
        assert abs(deficits[i] - oracle) < 1e-9


@criterion(8, "sampling statistics and determinism")
def test_criterion_8_sampling():
    fixtures = [
        (np.diag([0.5, 0.5]), 81001),
        (np.diag([0.3, 0.25, 0.25, 0.2]), 81002),
        (np.diag([0.4, 0.3]), 81003),  # annihilation probability 0.3
    ]
    n = 100_000
    for matrix, seed in fixtures:
        dec = possible_internal_states(DensityOperator.from_matrix("acc8", matrix))
        probs = list(dec.eigenvalues)
        if dec.annihilation_probability > 0:
            probs.append(dec.annihilation_probability)
        outcomes = sample_internal_states(dec, n, seed=seed)
        again = sample_internal_states(dec, n, seed=seed)
        assert outcomes.tobytes() == again.tobytes()
        observed = np.array([np.sum(outcomes == k) for k in range(len(probs))])
        assert observed.sum() == n
        expected = np.array(probs) * n
        chi_sq = float(((observed - expected) ** 2 / expected).sum())
        threshold = float(stats.chi2.isf(0.001, df=len(probs) - 1))
        assert chi_sq < threshold, (chi_sq, threshold)
    annihilating = possible_internal_states(
        DensityOperator.from_matrix("acc8", np.diag([0.4, 0.3])))
    assert annihilating.annihilation_probability == pytest.approx(0.3, abs=1e-12)


@criterion(9, "end-to-end CLI golden reports, byte-identical reruns")
def test_criterion_9_cli_goldens(tmp_path):
    start = time.monotonic()
    for name in ("bell", "product", "annihilation"):
        scenario = SCENARIO_DIR / f"{name}.json"
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "relfock", str(scenario),
                 "--format", "machine", "--output", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name}: reruns differ"
        golden = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
        assert outputs[0] == golden, f"{name}: report deviates from golden"
        parsed = json.loads(outputs[0])
        assert parsed["status"] == "ok"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"CLI suite took {elapsed:.1f} s"

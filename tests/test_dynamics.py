"""Hamiltonian assembly and exact unitary evolution."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from relfock import (
    Embedding,
    HamiltonianSpec,
    ModeSpec,
    StateVector,
    basis_state,
    build_fock_space,
    build_hamiltonian,
    charge_values,
    conversion_hamiltonian,
    evolve,
    evolve_trajectory,
    load_scenario,
    mode_partition_embedding,
    random_state_vector,
    relational_state,
    run_scenario,
    trace_deficit_trajectory,
)
from relfock import dynamics
from relfock.dynamics import _ENERGY_CHUNK, SectorEigensystem, _hermiticity_deviation
from relfock.runner import COMMANDS

from conftest import block_eigenpairs, dense_matrix, mode_matrix, qudit_space, spectral_norm


def pair_annihilation_model(g: float = 1.0):
    """Two charged two-level modes whose pair converts into a neutral third
    mode, so the pair subsystem can leave the embedded product space."""
    space = build_fock_space([
        ModeSpec("e-", "fermion", 1, {"electric": -1, "lepton": 1}),
        ModeSpec("e+", "fermion", 1, {"electric": 1, "lepton": -1}),
        ModeSpec("photon", "boson", 1),
    ], "U")
    h = conversion_hamiltonian(space, g, ["photon"], ["e-", "e+"])
    psi0 = basis_state(space, (1, 1, 0))
    embedding = mode_partition_embedding(space, ["e-"], frozen={"photon": 0})
    return space, h, psi0, embedding


class TestBuildHamiltonian:
    def test_free_term_is_diagonal(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        h = build_hamiltonian(sp, [(2.0, (("number", "a"),))])
        np.testing.assert_allclose(dense_matrix(h), np.diag([0.0, 2.0, 4.0]))

    def test_zero_terms_zero_operator(self):
        sp = qudit_space(3, "a")
        h = build_hamiltonian(sp, [])
        assert np.all(dense_matrix(h) == 0)

    def test_non_self_adjoint_term_gets_adjoint(self):
        sp = build_fock_space([ModeSpec("a", "boson", 1), ModeSpec("b", "boson", 1)])
        h = build_hamiltonian(sp, [(0.7, (("create", "a"), ("annihilate", "b")))])
        dev = np.abs(dense_matrix(h) - dense_matrix(h).conj().T).max()
        assert dev == 0.0
        assert np.abs(dense_matrix(h)).max() > 0

    def test_trilinear_conserves_mode_sum(self):
        # Oracle: numerical commutator with n_a + n_b.
        sp = build_fock_space([
            ModeSpec("a", "boson", 1), ModeSpec("b", "boson", 1), ModeSpec("c", "boson", 1),
        ])
        h = build_hamiltonian(sp, [(0.9, (("create", "a"), ("annihilate", "b"),
                                          ("annihilate", "c")))])
        assert np.abs(dense_matrix(h) - dense_matrix(h).conj().T).max() < 1e-12
        conserved = mode_matrix(sp, "a", "number") + mode_matrix(sp, "b", "number")
        comm = dense_matrix(h) @ conserved - conserved @ dense_matrix(h)
        assert np.abs(comm).max() < 1e-12

    def test_complex_coefficient_rejected(self):
        sp = qudit_space(2, "a")
        with pytest.raises(ValueError, match="real"):
            build_hamiltonian(sp, [(1j, (("number", "a"),))])

    @pytest.mark.parametrize("coefficient", [
        np.complex64(1 + 1j), np.complex128(1), float("nan"), float("inf"),
        -np.float32("inf"), 10**400, True, np.True_, "1.0"])
    def test_coefficient_must_be_finite_real_and_not_boolean(self, coefficient):
        sp = qudit_space(2, "a")
        with pytest.raises(ValueError, match="finite real"):
            build_hamiltonian(sp, [(coefficient, (("number", "a"),))])

    def test_overflowing_entries_are_rejected(self):
        # A finite coefficient times a ladder weight above one overflows to inf.
        sp = build_fock_space([ModeSpec("a", "boson", 3), ModeSpec("b", "boson", 3)])
        with pytest.raises(ValueError, match="not Hermitian: max dev nan"), \
                np.errstate(over="ignore", invalid="ignore"):
            build_hamiltonian(sp, [(1.7e308, (("create", "a"), ("annihilate", "b")))])

    def test_unknown_label_rejected(self):
        sp = qudit_space(2, "a")
        with pytest.raises(ValueError, match="no mode"):
            build_hamiltonian(sp, [(1.0, (("number", "zz"),))])


class TestEvolve:
    def test_zero_hamiltonian_identity(self):
        sp = qudit_space(4, "a")
        h = build_hamiltonian(sp, [])
        psi = random_state_vector(sp, 5)
        out = evolve(psi, h, 3.7)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_stationary_state_accumulates_phase_only(self):
        sp = build_fock_space([ModeSpec("a", "boson", 1), ModeSpec("b", "boson", 1)], "S")
        omega = 1.3
        h = build_hamiltonian(sp, [(omega, (("number", "a"),))])
        psi = basis_state(sp, (1, 0))
        t = 0.9
        out = evolve(psi, h, t)
        np.testing.assert_allclose(
            out.amplitudes, np.exp(-1j * omega * t) * psi.amplitudes, atol=1e-12)
        # relational states do not see the phase
        e = mode_partition_embedding(sp, ["a"])
        rho0 = relational_state(psi, e, "A")
        rho_t = relational_state(out, e, "A")
        np.testing.assert_allclose(rho_t.matrix, rho0.matrix, atol=1e-12)

    def test_rabi_oscillation_against_closed_form(self):
        # Oracle: H = g(sigma+ + sigma-) on a two-level mode, starting excited:
        # psi(t) = cos(g t)|1> - i sin(g t)|0>, population cos^2, return at pi/g.
        sp = build_fock_space([ModeSpec("q", "boson", 1)], "Q")
        g = 0.8
        h = build_hamiltonian(sp, [(g, (("create", "q"),))])
        psi0 = basis_state(sp, (1,))
        for t in np.linspace(0.0, 2 * np.pi / g, 17):
            out = evolve(psi0, h, t)
            expected = np.array([-1j * np.sin(g * t), np.cos(g * t)])
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-9)
        full_return = evolve(psi0, h, np.pi / g)
        assert abs(np.vdot(full_return.amplitudes, psi0.amplitudes)) == pytest.approx(1.0, abs=1e-9)

    def test_composition_property(self):
        sp = qudit_space(5, "a")
        h = build_hamiltonian(sp, [(0.4, (("create", "a"),)), (1.1, (("number", "a"),))])
        psi = random_state_vector(sp, 8)
        t1, t2 = 0.73, 1.21
        once = evolve(psi, h, t1 + t2)
        twice = evolve(evolve(psi, h, t1), h, t2)
        np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-9)

    def test_overflowing_phases_fail_the_unitarity_check(self):
        # At this coupling the phases w t overflow and the states are NaN: the
        # drift check reports it, with no floating-point warning on the way.
        _, h, psi0, _ = pair_annihilation_model(1e308)
        with pytest.raises(ValueError, match="evolution lost unitarity: max norm drift nan"):
            evolve(psi0, h, 10.0)

    def test_space_mismatch(self):
        h = build_hamiltonian(qudit_space(3, "a", "S1"), [])
        with pytest.raises(Exception, match="does not live"):
            evolve(random_state_vector(qudit_space(3, "z", "S2"), 1), h, 1.0)


class TestTrajectories:
    def test_norm_energy_charge_conservation(self):
        space, h, psi0, _ = pair_annihilation_model(g=0.6)
        h_norm = spectral_norm(h)
        times = np.linspace(0.0, 100.0 / h_norm, 101)
        traj = evolve_trajectory(psi0, h, times, charge_kinds=("electric", "lepton"))
        assert np.abs(traj.norms - 1.0).max() < 1e-9
        assert np.abs(traj.energies - traj.energies[0]).max() < 1e-9 * h_norm
        for kind in ("electric", "lepton"):
            q = np.diag(charge_values(space, kind).astype(np.complex128))
            expect = traj.charge_expectations[kind]
            scale = max(1.0, np.abs(q).max())
            # the Hamiltonian commutes with both charges
            comm = dense_matrix(h) @ q - q @ dense_matrix(h)
            assert np.abs(comm).max() < 1e-12
            assert np.abs(expect - expect[0]).max() < 1e-9 * scale

    def test_no_coupling_keeps_deficit_zero(self):
        space, _, psi0, embedding = pair_annihilation_model()
        h_free = build_hamiltonian(space, [(w, (("number", label),)) for label, w in
                                           (("e-", 1.0), ("e+", 0.5), ("photon", 2.0))])
        traj = trace_deficit_trajectory(psi0, h_free, embedding,
                                        np.linspace(0.0, 5.0, 21))
        np.testing.assert_allclose(traj.deficits("subsystem"), 0.0, atol=1e-12)

    def test_deficit_curve_matches_projector_oracle(self):
        # Oracle: deficit(t) = 1 - <psi(t)| V V^dagger |psi(t)> with the dense
        # projector, plus the closed form sin^2(g t) for this model.
        g = 0.9
        space, h, psi0, embedding = pair_annihilation_model(g=g)
        times = np.linspace(0.0, np.pi / g, 25)
        traj = trace_deficit_trajectory(psi0, h, embedding, times)
        deficits = traj.deficits("subsystem")
        assert deficits[0] == pytest.approx(0.0, abs=1e-12)
        proj = embedding.isometry @ embedding.isometry.conj().T
        for i, t in enumerate(times):
            psi_t = traj.states[i]
            inside = float(np.vdot(psi_t.amplitudes, proj @ psi_t.amplitudes).real)
            assert deficits[i] == pytest.approx(1.0 - inside, abs=1e-9)
            assert deficits[i] == pytest.approx(np.sin(g * t) ** 2, abs=1e-9)

    def test_deficit_starts_positive_onset(self):
        space, h, psi0, embedding = pair_annihilation_model(g=1.0)
        traj = trace_deficit_trajectory(psi0, h, embedding, [0.0, 0.3, 0.6, 0.9])
        deficits = traj.deficits("subsystem")
        assert deficits[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(deficits) > 0)

    def test_embedding_reference_must_match(self):
        space, h, psi0, _ = pair_annihilation_model()
        other = qudit_space(8, "w", "W")
        bad = mode_partition_embedding(other, ["w"])
        with pytest.raises(Exception, match="reference"):
            trace_deficit_trajectory(psi0, h, bad, [0.0, 1.0])


# Reference: mode operators as Kronecker chains of local matrices and terms as
# dense products of them in factor order, with the same hermitization rule.
def _kron_ladder(space, label, kind):
    target = space.mode_index(label)
    factors = []
    for i, mode in enumerate(space.modes):
        d = mode.local_dimension
        if i == target:
            local = np.zeros((d, d), dtype=np.complex128)
            for n in range(1, d):
                local[n - 1, n] = np.sqrt(n)
            factors.append(local.conj().T if kind == "create" else local)
        elif i < target and space.modes[target].statistics == "fermion" \
                and mode.statistics == "fermion":
            factors.append(np.diag([(-1.0 + 0j) ** n for n in range(d)]))
        else:
            factors.append(np.eye(d, dtype=np.complex128))
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _kron_number(space, label):
    return np.diag(space.basis_occupations[:, space.mode_index(label)].astype(np.complex128))


def _kron_hamiltonian(space, terms, herm=1e-10):
    total = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
    for coefficient, factors in terms:
        mat = np.eye(space.dimension, dtype=np.complex128)
        for kind, label in factors:
            op = _kron_number(space, label) if kind == "number" \
                else _kron_ladder(space, label, kind)
            mat = mat @ op
        mat = coefficient * mat
        if float(np.abs(mat - mat.conj().T).max()) < herm:
            total += mat
        else:
            total += mat + mat.conj().T
    return total


def _random_terms(seed):
    """A space of 1-4 fermion or boson (cutoff 0-3) modes and 1-3 terms of
    1-4 factors each; labels may repeat within a term."""
    rng = np.random.Generator(np.random.PCG64(seed))
    modes = [ModeSpec(f"m{i}", "fermion", 1) if rng.random() < 0.5
             else ModeSpec(f"m{i}", "boson", int(rng.integers(0, 4)))
             for i in range(int(rng.integers(1, 5)))]
    space = build_fock_space(modes, f"S{seed}")
    terms = [(float(rng.normal()),
              tuple((str(rng.choice(["create", "annihilate", "number"])),
                     str(rng.choice(space.mode_labels)))
                    for _ in range(int(rng.integers(1, 5)))))
             for _ in range(int(rng.integers(1, 4)))]
    return space, terms


class TestKroneckerOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_hamiltonian_bitwise_equal(self, seed):
        space, terms = _random_terms(seed)
        assert np.array_equal(dense_matrix(build_hamiltonian(space, terms)),
                              _kron_hamiltonian(space, terms))

    @pytest.mark.parametrize("seed", range(20))
    def test_empty_factor_term_is_coefficient_times_identity(self, seed):
        space, terms = _random_terms(seed)
        coefficient = float(np.random.Generator(np.random.PCG64(seed)).normal())
        alone = [(coefficient, ())]
        assert np.array_equal(dense_matrix(build_hamiltonian(space, alone)),
                              coefficient * np.eye(space.dimension))
        assert np.array_equal(dense_matrix(build_hamiltonian(space, alone)),
                              _kron_hamiltonian(space, alone))
        mixed = terms[:1] + alone + terms[1:]
        assert np.array_equal(dense_matrix(build_hamiltonian(space, mixed)),
                              _kron_hamiltonian(space, mixed))

    @pytest.mark.parametrize("seed", range(60))
    def test_mode_operators_equal(self, seed):
        # Only the sign of zero entries may differ, which array_equal ignores.
        space, _ = _random_terms(seed)
        for label in space.mode_labels:
            for kind in ("create", "annihilate"):
                assert np.array_equal(mode_matrix(space, label, kind),
                                      _kron_ladder(space, label, kind))
            assert np.array_equal(mode_matrix(space, label, "number"),
                                  _kron_number(space, label))


def _block_sets(h):
    return [frozenset(row.tolist()) for g in h.eigensystem._groups for row in g.idx]


class TestSectorEigensystem:
    @pytest.mark.parametrize("seed", range(60))
    def test_blocks_are_connected_components(self, seed):
        space, terms = _random_terms(seed)
        h = build_hamiltonian(space, terms)
        count, labels = connected_components(dense_matrix(h) != 0, directed=False)
        expected = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(count)}
        blocks = _block_sets(h)
        assert len(blocks) == count and set(blocks) == expected

    @pytest.mark.parametrize("seed", range(60))
    def test_evolution_matches_dense_eigh(self, seed):
        space, terms = _random_terms(seed)
        h = build_hamiltonian(space, terms)
        psi = random_state_vector(space, seed)
        w, u = np.linalg.eigh(dense_matrix(h))
        times = [0.0, 0.37, 1.9]
        traj = evolve_trajectory(psi, h, times)
        for t, state in zip(times, traj.states):
            expected = u @ (np.exp(-1j * w * t) * (u.conj().T @ psi.amplitudes))
            np.testing.assert_allclose(evolve(psi, h, t).amplitudes, expected,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(60))
    def test_real_eigensystem_matches_complex_dense_eigh(self, seed, monkeypatch, eigh_calls):
        # Mixed bosons and fermions with Jordan-Wigner signs; eight of these
        # seeds give one block spanning the space. Propagation on the same
        # seeds is checked by test_evolution_matches_dense_eigh.
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)  # every block to eigh
        space, terms = _random_terms(seed)
        h = build_hamiltonian(space, terms)
        evolve(random_state_vector(space, seed), h, 0.5)  # a state on every block
        groups = h.eigensystem._groups
        assert all(g.done.all() for g in groups)
        assert all(a.dtype == np.float64 for a in eigh_calls)
        monkeypatch.undo()
        w = np.linalg.eigh(dense_matrix(h))[0]
        blocks_w = np.sort(np.concatenate([g.w.ravel() for g in groups]))
        norm = np.abs(w).max(initial=0.0)
        assert np.abs(blocks_w - w).max() <= 1e-12 * norm
        assert all(g.u.dtype == np.complex128 for g in groups)

    @pytest.mark.parametrize("seed", range(10))
    def test_complex_scattered_blocks_match_dense_eigh(self, seed, monkeypatch, eigh_calls):
        # Complex Hermitian blocks on random, interleaved index sets.
        rng = np.random.default_rng(seed)
        space = build_fock_space([ModeSpec(f"m{i}", "boson", 1) for i in range(5)])
        labels = rng.integers(0, 6, space.dimension)
        mat = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        mat = (mat + mat.conj().T) * (labels[:, None] == labels)
        rows, cols = np.nonzero(mat)
        h = HamiltonianSpec(space, (), rows, cols, mat[rows, cols])
        assert set(_block_sets(h)) == {frozenset(np.flatnonzero(labels == k).tolist())
                                       for k in np.unique(labels)}
        assert eigh_calls == []  # finding the blocks diagonalizes none
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)  # every block to eigh
        psi = random_state_vector(space, seed)
        out = evolve(psi, h, 0.8)
        assert eigh_calls and all(a.dtype == np.complex128 for a in eigh_calls)
        monkeypatch.undo()
        w, u = np.linalg.eigh(dense_matrix(h))
        expected = u @ (np.exp(-0.8j * w) * (u.conj().T @ psi.amplitudes))
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)

    def test_block_counts(self):
        conversion_modes = [
            ModeSpec("e-", "fermion", 1), ModeSpec("e+", "fermion", 1),
            ModeSpec("photon", "boson", 1),
        ] + [ModeSpec(f"x{i}", "fermion" if i % 2 else "boson", 1) for i in range(7)]
        conversion = conversion_hamiltonian(build_fock_space(conversion_modes), 1.0,
                                            ["photon"], ["e-", "e+"])
        sizes = [len(b) for b in _block_sets(conversion)]
        assert len(sizes) == 896 and max(sizes) == 2

        chain = build_fock_space([ModeSpec(f"s{i}", "fermion", 1) for i in range(10)])
        hopping = build_hamiltonian(chain, [
            (0.5 + 0.1 * i, (("create", f"s{i + 1}"), ("annihilate", f"s{i}")))
            for i in range(9)])
        sizes = [len(b) for b in _block_sets(hopping)]
        assert len(sizes) == 11 and max(sizes) == 252

        bundled = resources.files("relfock") / "scenarios" / "annihilation.json"
        h = load_scenario(str(bundled)).hamiltonians["pair_conversion"]
        assert len(_block_sets(h)) == 7

    def test_one_block_is_diagonalized_whole(self, monkeypatch, eigh_calls):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)  # every block to eigh
        space = build_fock_space([ModeSpec(f"q{i}", "boson", 1) for i in range(4)])
        h = build_hamiltonian(space, [(0.3 + i, (("create", f"q{i}"),)) for i in range(4)])
        psi0 = basis_state(space, (0, 0, 0, 0))
        evolve(psi0, h, 0.5)
        evolve_trajectory(psi0, h, [0.0, 0.5, 1.0])
        assert "matrix" not in vars(h)  # evolution builds no dense complex H
        assert len(eigh_calls) == 1
        assert eigh_calls[0].dtype == np.float64 and eigh_calls[0].shape == (1, 16, 16)
        assert eigh_calls[0][0].tobytes() == np.ascontiguousarray(dense_matrix(h).real).tobytes()
        g, = h.eigensystem._groups
        assert np.array_equal(g.idx, np.arange(space.dimension)[None])
        assert g.w.shape == (1, 16) and g.u.shape == (1, 16, 16) and g.u.dtype == np.complex128

    def test_eigensystem_is_cached_read_only_and_shared(self, eigh_calls):
        space, h, psi0, embedding = pair_annihilation_model()
        evolve(psi0, h, 0.4)
        eigensystem = h.eigensystem
        trace_deficit_trajectory(psi0, h, embedding, [0.0, 0.5, 1.0])
        evolve(psi0, h, 0.9)
        assert len(eigh_calls) == 1  # the one size-2 block, diagonalized once
        assert h.eigensystem is eigensystem
        for g in eigensystem._groups:
            assert not g.idx.flags.writeable
            with pytest.raises(ValueError):
                g.idx[...] = 0


# Reference: the per-time propagator and monitor loop that the one-call
# trajectory replaced, with u^dagger a recomputed at every time. Each monitor
# is computed one time at a time with the reductions the trajectory applies
# to all times at once, over the same support: the entries of the blocks
# where psi0 has a nonzero amplitude, and H's triplets inside them.
def _step_propagate(pairs, amplitudes, t):
    """exp(-i H t) amplitudes from the ``block_eigenpairs`` of H."""
    out = np.empty_like(amplitudes)
    for idx, w, u in pairs:
        phase = np.exp(-1j * w * t)
        if w.shape[1] == 1:
            out[idx] = phase * amplitudes[idx]
            continue
        coeffs = np.matmul(amplitudes[idx].conj()[:, None, :], u).conj()
        coeffs *= phase[:, None, :]
        out[idx] = np.matmul(coeffs, u.swapaxes(1, 2))[:, 0, :]
    return out


def _support(h, amplitudes):
    blocks = [row for g in h.eigensystem._groups for row in g.idx]
    return np.sort(np.concatenate([b for b in blocks if amplitudes[b].any()]))


def _step_trajectory(psi0, h, times, embeddings, charge_kinds):
    times = np.asarray(times, dtype=np.float64)
    support = _support(h, psi0.amplitudes)
    inside = np.zeros(h.space.dimension, dtype=bool)
    inside[support] = True
    keep = inside[h.rows] & inside[h.cols]
    rows, cols, vals = h.rows[keep], h.cols[keep], h.vals[keep]
    charge_diags = {kind: charge_values(h.space, kind)[support] for kind in charge_kinds}
    carried = {key: np.bincount(emb.rows[emb.rows >= 0], minlength=h.space.dimension)[support]
               for key, emb in embeddings.items()}
    pairs = block_eigenpairs(h)
    states, norms, energies = [], np.empty(len(times)), np.empty(len(times))
    charges = {kind: np.empty(len(times)) for kind in charge_diags}
    traces = {key: np.empty(len(times)) for key in embeddings}
    for i, t in enumerate(times):
        amps = _step_propagate(pairs, psi0.amplitudes, float(t))
        states.append(amps)
        a = amps[support]
        weights = np.square(a.real) + np.square(a.imag)
        norms[i] = weights.sum()
        energies[i] = (amps[cols] * vals * amps[rows].conj()).real.sum()
        for kind, q in charge_diags.items():
            charges[kind][i] = (weights * q).sum()
        for key, count in carried.items():
            traces[key][i] = (weights * count).sum()
    return states, norms, energies, charges, traces


def _propagation_case(case):
    """(H, psi0, embeddings, charge kinds): random terms for integer cases,
    else the one spanning block, complex triplets or the conversion model."""
    if case == "spanning":
        space = build_fock_space([ModeSpec(f"q{i}", "boson", 1) for i in range(4)])
        h = build_hamiltonian(space, [(0.3 + i, (("create", f"q{i}"),)) for i in range(4)])
        psi0 = random_state_vector(space, 5)
    elif case == "complex":
        rng = np.random.default_rng(3)
        space = build_fock_space([ModeSpec(f"m{i}", "boson", 1) for i in range(5)])
        labels = rng.integers(0, 6, space.dimension)
        mat = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        mat = (mat + mat.conj().T) * (labels[:, None] == labels)
        rows, cols = np.nonzero(mat)
        h = HamiltonianSpec(space, (), rows, cols, mat[rows, cols])
        psi0 = random_state_vector(space, 3)
    elif case == "conversion":
        space, h, psi0, embedding = pair_annihilation_model(g=0.7)
        return h, psi0, {"subsystem": embedding}, ("electric", "lepton")
    else:
        space, terms = _random_terms(case)
        h = build_hamiltonian(space, terms)
        psi0 = random_state_vector(space, case)
    embedding = mode_partition_embedding(space, [space.mode_labels[0]])
    return h, psi0, {"first": embedding}, ("electric",)


def _assert_monitors_match_dense(traj, h, embeddings, kinds):
    """Every monitor of traj against the dense quantities of each state:
    <a|a>, <a|H|a> with the dense H, <a|q|a> and |V^dagger a|^2."""
    dense = dense_matrix(h)
    for i, state in enumerate(traj.states):
        a = state.amplitudes
        assert abs(traj.norms[i] - np.vdot(a, a).real) < 1e-12
        assert abs(traj.energies[i] - np.vdot(a, dense @ a).real) < 1e-12
        for kind in kinds:
            q = charge_values(h.space, kind)
            assert abs(traj.charge_expectations[kind][i] - np.vdot(a, q * a).real) < 1e-12
        for key, e in embeddings.items():
            phi = e.isometry.conj().T @ a
            assert abs(traj.relational_traces[key][i] - np.vdot(phi, phi).real) < 1e-12


PROPAGATION_CASES = [*range(12), "spanning", "complex", "conversion"]
TIME_GRIDS = {0: [], 1: [0.37], 7: [0.0, 0.37, -1.25, 1.9, 3.0, 0.37, 40.0]}


class TestOnePropagator:
    def test_cases_cover_block_shapes(self):
        sizes, one_block, complex_vals = set(), False, False
        for case in PROPAGATION_CASES:
            h = _propagation_case(case)[0]
            groups = h.eigensystem._groups
            sizes.add(frozenset(g.idx.shape[1] for g in groups))
            one_block |= len(groups) == 1 and groups[0].idx.size > 1
            complex_vals |= bool(h.vals.imag.any())
        assert any(1 in s and len(s) >= 3 for s in sizes)  # several sizes, size 1 included
        assert one_block and complex_vals

    @pytest.mark.parametrize("count", sorted(TIME_GRIDS))
    @pytest.mark.parametrize("case", PROPAGATION_CASES)
    def test_trajectory_equals_per_step_reference_bit_for_bit(self, case, count):
        h, psi0, embeddings, kinds = _propagation_case(case)
        times = TIME_GRIDS[count]
        traj = evolve_trajectory(psi0, h, times, embeddings=embeddings, charge_kinds=kinds)
        states, norms, energies, charges, traces = _step_trajectory(
            psi0, h, times, embeddings, kinds)
        assert len(traj.states) == count
        for t, state, expected in zip(times, traj.states, states):
            assert state.amplitudes.tobytes() == expected.tobytes()
            assert evolve(psi0, h, t).amplitudes.tobytes() == expected.tobytes()
        assert traj.norms.tobytes() == norms.tobytes()
        assert traj.energies.tobytes() == energies.tobytes()
        for kind in kinds:
            assert traj.charge_expectations[kind].tobytes() == charges[kind].tobytes()
        for key in embeddings:
            assert traj.relational_traces[key].tobytes() == traces[key].tobytes()

    @pytest.mark.parametrize("count", sorted(TIME_GRIDS))
    @pytest.mark.parametrize("case", PROPAGATION_CASES)
    def test_monitors_match_dense_references(self, case, count):
        h, psi0, embeddings, kinds = _propagation_case(case)
        (key, e), = embeddings.items()
        # the same map given as an explicit matrix takes the conj(a) @ V path
        embeddings["explicit"] = Embedding(e.subsystem, e.complementer, e.reference,
                                           isometry=e.isometry)
        times = TIME_GRIDS[count]
        traj = evolve_trajectory(psi0, h, times, embeddings=embeddings, charge_kinds=kinds)
        _assert_monitors_match_dense(traj, h, embeddings, kinds)
        assert len(traj.norms) == len(traj.energies) == count

    def test_one_propagate_call_per_evolution(self, monkeypatch):
        h, psi0, embeddings, kinds = _propagation_case("conversion")
        calls, propagate = [], SectorEigensystem.propagate

        def counting(self, amplitudes, times):
            calls.append(len(times))
            return propagate(self, amplitudes, times)
        monkeypatch.setattr(SectorEigensystem, "propagate", counting)
        evolve_trajectory(psi0, h, TIME_GRIDS[7], embeddings=embeddings, charge_kinds=kinds)
        assert calls == [7]
        evolve(psi0, h, 0.5)
        assert calls == [7, 1]
        run_scenario(load_scenario(str(resources.files("relfock") / "scenarios"
                                       / "annihilation.json")))
        assert calls == [7, 1, 13, 1]  # deficit_curve, then halfway

    def test_states_share_one_read_only_buffer(self):
        h, psi0, embeddings, _ = _propagation_case("conversion")
        traj = evolve_trajectory(psi0, h, TIME_GRIDS[7], embeddings=embeddings)
        buffer = traj.states[0].amplitudes.base
        assert buffer is not None and buffer.shape == (7, h.space.dimension)
        assert not buffer.flags.writeable
        for i, state in enumerate(traj.states):
            assert state.amplitudes.base is buffer
            assert np.shares_memory(state.amplitudes, buffer[i])
            assert np.array_equal(state.amplitudes, buffer[i])
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0

    def test_long_time_grid_scratch_stays_order_t_d(self, monkeypatch):
        # Every pair of 8 sites hops: 14 entries of H per row, so a (T, nnz)
        # scratch would be 28 times the (T, D) states.
        space = build_fock_space([ModeSpec(f"s{i}", "fermion", 1, {"electric": -1})
                                  for i in range(8)])
        h = build_hamiltonian(space, [
            (0.3 + 0.1 * i + 0.01 * j, (("create", f"s{j}"), ("annihilate", f"s{i}")))
            for i in range(8) for j in range(i + 1, 8)])
        assert len(h.vals) == 14 * space.dimension
        psi0 = random_state_vector(space, 4)
        embeddings = {"left": mode_partition_embedding(space, ["s0", "s1"])}
        times = np.linspace(0.0, 5.0, 1000)
        # diagonalize every block outside the measurement
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)
        evolve(psi0, h, 0.0)
        tracemalloc.start()
        try:
            traj = evolve_trajectory(psi0, h, times, embeddings=embeddings,
                                     charge_kinds=("electric",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states_bytes = 16 * len(times) * space.dimension
        assert peak < 6 * states_bytes + 2 * 16 * _ENERGY_CHUNK
        dense, everywhere = dense_matrix(h), np.arange(space.dimension)
        for i in (0, 499, 999):
            a = traj.states[i].amplitudes
            assert abs(traj.energies[i] - np.vdot(a, dense @ a).real) < 1e-12
            # the chunked sum of a row is that row's sum alone
            assert traj.energies[i] == h.energies(a[None], everywhere)[0]

    def test_evolve_checks_keep_their_messages(self):
        h, psi0, _, _ = _propagation_case("conversion")
        half = StateVector(psi0.space_id, psi0.amplitudes * 0.5)
        with pytest.raises(ValueError, match=r"^initial state must be unit norm; "
                                             r"\|psi\|\^2 = 0\.25$"):
            evolve(half, h, 0.5)
        overflowing = conversion_hamiltonian(h.space, 1e308, ["photon"], ["e-", "e+"])
        # The phases w t overflow (a numpy warning, silenced here as in the CLI).
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"^evolution lost unitarity: max norm drift nan$"):
            evolve(psi0, overflowing, 10.0)

    def test_evolve_task_reports_python_floats(self):
        report = run_scenario(load_scenario(str(resources.files("relfock") / "scenarios"
                                                / "annihilation.json")))
        result = {t.name: t.result for t in report.tasks}["halfway"]
        assert type(result["norm_sq"]) is float and type(result["energy"]) is float


def _chain(sites=8, hops=None):
    """A fermion hopping chain, hop i from site i to i + 1 (0.5 + 0.1 i by
    default); its blocks are the particle-number sectors."""
    space = build_fock_space([ModeSpec(f"s{i}", "fermion", 1) for i in range(sites)])
    hops = [0.5 + 0.1 * i for i in range(sites - 1)] if hops is None else hops
    return build_hamiltonian(space, [
        (float(hop), (("create", f"s{i + 1}"), ("annihilate", f"s{i}")))
        for i, hop in enumerate(hops)])


def _sparse_states(h, kind, rng):
    """A unit state on few blocks of h (a basis state, a random state on one
    block, or a random state on a random subset of the blocks) and the mask
    of the entries outside the blocks it occupies."""
    blocks = [row for g in h.eigensystem._groups for row in g.idx]
    n = h.space.dimension
    if kind == "basis":
        support = rng.integers(n, size=1)
    elif kind == "sector":
        support = blocks[int(rng.integers(len(blocks)))]
    else:
        support = np.concatenate([b for b in blocks if rng.random() < 0.3] or blocks[:1])
    amps = np.zeros(n, dtype=np.complex128)
    amps[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    outside = np.ones(n, dtype=bool)
    for b in blocks:
        if amps[b].any():
            outside[b] = False
    return amps / np.linalg.norm(amps), outside


LAZY_CASES = [*range(12), "complex", "conversion"]


class TestLazyBlocks:
    def test_only_occupied_blocks_are_diagonalized_once(self, monkeypatch, eigh_calls):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)  # every block to eigh
        h = _chain()
        half = basis_state(h.space, (1, 0, 1, 0, 1, 0, 1, 0))
        evolve_trajectory(half, h, [0.0, 0.5, 1.0])
        # the 70-state half-filled sector alone, of 9 sectors
        assert [a.shape for a in eigh_calls] == [(1, 70, 70)]
        sector = np.flatnonzero(h.space.basis_occupations.sum(axis=1) == 4)
        assert np.array_equal(eigh_calls[0][0], dense_matrix(h).real[np.ix_(sector, sector)])
        three = basis_state(h.space, (1, 1, 1, 0, 0, 0, 0, 0))
        evolve(three, h, 0.7)
        # one of the two 56-state sectors
        assert [a.shape for a in eigh_calls] == [(1, 70, 70), (1, 56, 56)]
        evolve(half, h, 0.3)
        evolve_trajectory(three, h, [0.2, 0.4])
        assert len(eigh_calls) == 2
        assert len(h.eigensystem._groups) == 5  # sizes 1, 8, 28, 56 and 70
        evolve(random_state_vector(h.space, 1), h, 0.1)
        # the rest: the other 56-state sector and every other size but 1
        assert [a.shape for a in eigh_calls[2:]] == [(2, 8, 8), (2, 28, 28), (1, 56, 56)]
        evolve(basis_state(h.space, (1, 1, 1, 1, 1, 0, 0, 0)), h, 0.1)
        assert len(eigh_calls) == 5

    def test_concurrent_first_need_diagonalizes_a_block_once(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)  # every block to eigh
        h = _chain()
        h.eigensystem  # found here: both threads share it
        half = basis_state(h.space, (1, 0, 1, 0, 1, 0, 1, 0))
        shapes, entered, second, eigh = [], threading.Event(), threading.Event(), np.linalg.eigh

        def slow(a, *args, **kwargs):
            shapes.append(a.shape)
            if len(shapes) == 1:  # hold the first call until the second thread runs
                entered.set()
                second.wait(timeout=10)
                time.sleep(0.2)
            return eigh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", slow)
        states = [None, None]

        def run(i):
            if i:
                second.set()
            states[i] = evolve(half, h, 0.7).amplitudes
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        threads[0].start()
        assert entered.wait(timeout=10)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert shapes == [(1, 70, 70)]
        assert states[0].tobytes() == states[1].tobytes()

    @pytest.mark.parametrize("case", LAZY_CASES)
    def test_lazy_blocks_equal_blocks_of_a_fresh_spec(self, case):
        h = _propagation_case(case)[0]
        fresh = _propagation_case(case)[0]
        rng = np.random.default_rng(7)
        for kind in ("basis", "sector"):
            amps, _ = _sparse_states(fresh, kind, rng)
            evolve(StateVector(h.space_id, amps), h, 0.6)
        groups = h.eigensystem._groups
        assert any(g.done.any() for g in groups)
        for g, (idx, w, u) in zip(groups, block_eigenpairs(fresh), strict=True):
            assert g.idx.tobytes() == idx.tobytes()
            if g.done.any():
                assert g.w[g.done].tobytes() == w[g.done].tobytes()
                assert g.u[g.done].tobytes() == u[g.done].tobytes()

    @pytest.mark.parametrize("kind", ["basis", "sector", "subset"])
    @pytest.mark.parametrize("case", LAZY_CASES)
    def test_sparse_support_propagation(self, case, kind):
        reference = _propagation_case(case)[0]
        w, u = np.linalg.eigh(dense_matrix(reference))
        pairs = block_eigenpairs(reference)
        rng = np.random.default_rng(11)
        times = TIME_GRIDS[7]
        for _ in range(3):
            h = _propagation_case(case)[0]
            amps, outside = _sparse_states(reference, kind, rng)
            traj = evolve_trajectory(StateVector(h.space_id, amps), h, times)
            for t, state in zip(times, traj.states):
                psi_t = state.amplitudes
                full = _step_propagate(pairs, amps, t)
                assert np.array_equal(psi_t, full)
                dense = u @ (np.exp(-1j * w * t) * (u.conj().T @ amps))
                np.testing.assert_allclose(psi_t, dense, rtol=0, atol=1e-12)
                assert np.all(psi_t[outside] == 0)
                assert not np.signbit(psi_t[outside].real).any()
                assert not np.signbit(psi_t[outside].imag).any()


    def test_zero_point_trajectories_diagonalize_nothing(self, eigh_calls, tmp_path):
        h = _chain()
        half = basis_state(h.space, (1, 0, 1, 0, 1, 0, 1, 0))
        embedding = mode_partition_embedding(h.space, ["s0", "s1"])
        traj = evolve_trajectory(half, h, [], embeddings={"left": embedding},
                                 charge_kinds=("electric",))
        assert eigh_calls == []
        assert traj.states == []
        for arr in (traj.times, traj.norms, traj.energies,
                    traj.charge_expectations["electric"], traj.relational_traces["left"]):
            assert arr.dtype == np.float64 and arr.shape == (0,)

        labels = h.space.mode_labels
        doc = {
            "schema": "relfock.scenario/1",
            "spaces": [{"id": "L", "modes": [
                {"label": label, "statistics": "fermion", "max_occupation": 1,
                 "charges": {"electric": -1}} for label in labels]}],
            "states": [{"name": "half", "space": "L", "kind": "basis",
                        "occupations": [1, 0, 1, 0, 1, 0, 1, 0]}],
            "embeddings": [{"name": "left", "reference": "L", "subsystem_modes": ["s0", "s1"]}],
            "hamiltonians": [{"name": "h", "space": "L", "terms": [
                {"coefficient": 0.5 + 0.1 * i,
                 "factors": [["create", labels[i + 1]], ["annihilate", labels[i]]]}
                for i in range(len(labels) - 1)]}],
            "tasks": [{"command": "trace-trajectory", "name": "none", "state": "half",
                       "hamiltonian": "h", "embedding": "left", "charge_kinds": ["electric"],
                       "times": {"start": 0.0, "stop": 1.0, "num": 0}}],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        report = run_scenario(load_scenario(str(path)))
        assert eigh_calls == []
        (task,) = report.tasks
        assert task.status == "ok"
        result = task.result
        for name in ("times", "traces", "deficits", "norms", "energies"):
            assert result[name].dtype == np.float64 and result[name].shape == (0,)
        (charges,) = result["charge_expectations"].values()
        assert charges.dtype == np.float64 and charges.shape == (0,)

    def test_unoccupied_block_leaves_trajectory_bit_identical(self):
        h = _chain()
        rng = np.random.default_rng(5)
        # a large dense block on the 3-particle sector the state never enters
        sector = np.flatnonzero(h.space.basis_occupations.sum(axis=1) == 3)
        big = rng.normal(scale=1e6, size=(len(sector), len(sector)))
        big = big + big.T
        rows, cols = np.repeat(sector, len(sector)), np.tile(sector, len(sector))
        heavy = HamiltonianSpec(h.space, (), np.concatenate([h.rows, rows]),
                                np.concatenate([h.cols, cols]),
                                np.concatenate([h.vals, big.ravel()]))
        assert len(heavy.vals) > len(h.vals)
        half = basis_state(h.space, (1, 0, 1, 0, 1, 0, 1, 0))
        sector4 = np.flatnonzero(h.space.basis_occupations.sum(axis=1) == 4)
        amps = np.zeros(h.space.dimension, dtype=np.complex128)
        amps[sector4] = rng.normal(size=len(sector4)) + 1j * rng.normal(size=len(sector4))
        spread = StateVector(h.space_id, amps / np.linalg.norm(amps))
        embeddings = {"left": mode_partition_embedding(h.space, ["s0", "s1"])}
        for psi0 in (half, spread):
            plain, loaded = (evolve_trajectory(psi0, spec, TIME_GRIDS[7], embeddings=embeddings,
                                               charge_kinds=("electric",))
                             for spec in (h, heavy))
            assert [s.amplitudes.tobytes() for s in plain.states] \
                == [s.amplitudes.tobytes() for s in loaded.states]
            for name in ("norms", "energies"):
                assert getattr(plain, name).tobytes() == getattr(loaded, name).tobytes()
            assert plain.charge_expectations["electric"].tobytes() \
                == loaded.charge_expectations["electric"].tobytes()
            assert plain.relational_traces["left"].tobytes() \
                == loaded.relational_traces["left"].tobytes()

    def test_support_entries_that_stay_zero_match_dense(self):
        # One particle on three sites with equal hops: (|100> - |001>)/sqrt(2)
        # is dark, so its middle entry stays 0 while the block is occupied.
        space = build_fock_space([ModeSpec(f"s{i}", "fermion", 1, {"electric": -1})
                                  for i in range(3)])
        h = build_hamiltonian(space, [(0.8, (("create", f"s{i + 1}"), ("annihilate", f"s{i}")))
                                      for i in range(2)])
        amps = np.zeros(space.dimension, dtype=np.complex128)
        amps[space.index_of((1, 0, 0))], amps[space.index_of((0, 0, 1))] = 1, -1
        dark = StateVector(space.space_id, amps / np.sqrt(2))
        embeddings = {"left": mode_partition_embedding(space, ["s0"])}
        traj = evolve_trajectory(dark, h, TIME_GRIDS[7], embeddings=embeddings,
                                 charge_kinds=("electric",))
        amps = np.array([state.amplitudes for state in traj.states])
        assert np.abs(amps[:, space.index_of((0, 1, 0))]).max() < 1e-15
        assert np.all(amps[:, space.index_of((0, 0, 0))] == 0)
        _assert_monitors_match_dense(traj, h, embeddings, ("electric",))


def _random_triplets(seed, n=12):
    """Complex triplets on an n x n grid, some positions repeated: Hermitian
    for even seeds, with one transpose partner dropped when seed % 4 == 2,
    and unrelated entries for odd seeds."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3 * n))
    rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
    vals = rng.normal(size=k) + 1j * rng.normal(size=k)
    if seed % 2 == 0:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, vals.conj()])
        if seed % 4 == 2:
            off = np.flatnonzero(rows != cols)
            if len(off):
                keep = np.arange(len(rows)) != off[0]
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, cols, vals


class TestTriplets:
    @pytest.mark.parametrize("seed", range(40))
    def test_summed_like_ordered_dense_accumulation(self, seed):
        space = qudit_space(12, "a")
        rows, cols, vals = _random_triplets(seed)
        h = HamiltonianSpec(space, (), rows, cols, vals)
        dense = np.zeros((12, 12), dtype=np.complex128)
        for r, c, v in zip(rows, cols, vals):
            dense[r, c] += v
        assert np.array_equal(dense_matrix(h), dense)
        keys = h.rows * 12 + h.cols
        assert np.all(np.diff(keys) > 0) and np.all(h.vals != 0)
        assert len(keys) == np.count_nonzero(dense)
        for arr in (h.rows, h.cols, h.vals):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("rows, cols, vals", [
        ([0], [12], [1.0]), ([-1], [0], [1.0]), ([0, 1], [0], [1.0, 1.0]), ([[0]], [[0]], [[1.0]]),
    ], ids=["column-beyond", "negative-row", "length-mismatch", "two-dimensional"])
    def test_triplets_outside_the_operator_are_rejected(self, rows, cols, vals):
        # rows * D + cols would otherwise alias another entry
        with pytest.raises(ValueError, match="indexing the 12 x 12 operator"):
            HamiltonianSpec(qudit_space(12, "a"), (), rows, cols, vals)

    @pytest.mark.parametrize("seed", range(40))
    def test_hermiticity_deviation_matches_dense(self, seed):
        h = HamiltonianSpec(qudit_space(12, "a"), (), *_random_triplets(seed))
        dense = float(np.abs(dense_matrix(h) - dense_matrix(h).conj().T).max())
        assert _hermiticity_deviation(h) == dense
        # repeated positions sum in different orders on the two sides
        assert dense < 1e-14 if seed % 4 == 0 else dense > 1e-6

    def test_non_hermitian_sum_is_rejected(self):
        # Each term is within tolerance of self-adjoint, so neither gets its
        # adjoint added, but their sum is not: H[2, 1] = 2 * 0.6e-10 * sqrt(2).
        sp = qudit_space(3, "a")
        with pytest.raises(ValueError, match="not Hermitian: max dev 1.69706e-10"):
            build_hamiltonian(sp, [(0.6e-10, (("create", "a"),))] * 2)

    def test_cancelled_terms_leave_no_pattern(self):
        sp = build_fock_space([ModeSpec(f"m{i}", "boson", 1) for i in range(3)])
        hop = (("create", "m0"), ("annihilate", "m1"))
        h = build_hamiltonian(sp, [(0.5, hop), (0.3, (("number", "m2"),)), (-0.5, hop),
                                   (0.2, (("create", "m2"), ("annihilate", "m1")))])
        assert len(h.vals) == np.count_nonzero(dense_matrix(h))
        count, labels = connected_components(dense_matrix(h) != 0, directed=False)
        expected = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(count)}
        blocks = _block_sets(h)
        assert len(blocks) == count and set(blocks) == expected
        assert max(len(b) for b in blocks) == 2  # the m0 <-> m1 hop cancelled

    def test_large_conversion_builds_no_dense_matrix(self, tmp_path):
        modes = [{"label": "e-", "statistics": "fermion", "max_occupation": 1},
                 {"label": "e+", "statistics": "fermion", "max_occupation": 1},
                 {"label": "photon", "statistics": "boson", "max_occupation": 1}] + \
            [{"label": f"x{i}", "statistics": "boson", "max_occupation": 1} for i in range(9)]
        doc = {
            "schema": "relfock.scenario/1",
            "spaces": [{"id": "U", "modes": modes}],
            "states": [{"name": "psi", "space": "U", "kind": "random", "seed": 3}],
            "embeddings": [{"name": "electron", "reference": "U", "subsystem_modes": ["e-"],
                            "frozen": {"photon": 0}}],
            "hamiltonians": [{"name": "h", "space": "U", "terms": [
                {"coefficient": 0.7,
                 "factors": [["create", "photon"], ["annihilate", "e-"], ["annihilate", "e+"]]},
                {"coefficient": 0.4, "factors": [["number", "x0"]]}]}],
            "tasks": [
                {"command": "evolve", "name": "later", "state": "psi", "hamiltonian": "h",
                 "t": 0.6},
                {"command": "trace-trajectory", "name": "curve", "state": "psi",
                 "hamiltonian": "h", "embedding": "electron", "times": [0.0, 0.5, 1.5]}],
        }
        path = tmp_path / "conversion.json"
        path.write_text(json.dumps(doc))
        dd_bytes = 16 * 4096 ** 2

        tracemalloc.start()
        try:
            scenario = load_scenario(str(path))
            h, psi = scenario.hamiltonians["h"], scenario.states["psi"]
            assert h.space.dimension == 4096
            later = evolve(psi, h, 0.6)
            traj = evolve_trajectory(psi, h, [0.0, 0.5, 1.5])
            report = run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(h)
        assert peak < dd_bytes / 4
        assert [t.status for t in report.tasks] == ["ok", "ok"]

        scale = 1e-12 * spectral_norm(h)
        dense, everywhere = dense_matrix(h), np.arange(h.space.dimension)
        assert abs(h.energies(later.amplitudes[None], everywhere)[0]
                   - np.vdot(later.amplitudes, dense @ later.amplitudes).real) < scale
        for state, energy in zip(traj.states, traj.energies):
            assert abs(energy - np.vdot(state.amplitudes, dense @ state.amplitudes).real) < scale
        evolved, curve = (t.result for t in report.tasks)
        assert abs(evolved["energy"] - h.energies(later.amplitudes[None], everywhere)[0]) < scale
        np.testing.assert_allclose(curve["energies"], traj.energies, rtol=0, atol=scale)


def _one_block(seed, s, complex_vals):
    """A random Hermitian H on an s-state space whose nonzero pattern is one
    block: a hopping chain through every state plus 3 s random entries, real
    or complex."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((s, s), dtype=np.complex128)
    chain = np.arange(s - 1)
    mat[chain, chain + 1] = rng.uniform(0.5, 1.5, s - 1)
    at = rng.integers(s, size=(2, 3 * s))
    mat[at[0], at[1]] += rng.normal(size=3 * s) + 1j * complex_vals * rng.normal(size=3 * s)
    mat += mat.conj().T
    rows, cols = np.nonzero(mat)
    return HamiltonianSpec(qudit_space(s, "a", f"one-block-{seed}"), (),
                           rows, cols, mat[rows, cols])


def _time_for_terms(h, psi, target, terms):
    """A time at which the Chebyshev path on h takes exactly target terms, by
    bisection on the term count, which grows with the time; terms is the
    list the patched ``_chebyshev_states`` appends each return value to."""
    lo, hi, t = 0.0, math.inf, 1.0
    while True:
        evolve(psi, h, t)
        if terms[-1] == target:
            return t
        lo, hi = (t, hi) if terms[-1] < target else (lo, t)
        t = 2 * t if hi == math.inf else (lo + hi) / 2


def _kicked(modes, scale=1.0):
    """One block spanning 2^modes states: a creation term (+ h.c.) and a
    number term on every two-level mode, as in the benchmark's dense case."""
    space = build_fock_space([ModeSpec(f"q{i}", "boson", 1) for i in range(modes)])
    return build_hamiltonian(space, [(scale * (0.3 + 0.05 * i), (("create", f"q{i}"),))
                                     for i in range(modes)]
                             + [(scale * (0.6 + 0.1 * i), (("number", f"q{i}"),))
                                for i in range(modes)])


@pytest.fixture
def chebyshev_calls(monkeypatch):
    """The block size of every matrix-free (Chebyshev) propagation the test
    makes, in call order."""
    seen, chebyshev = [], dynamics._chebyshev_states

    def counting(cols, vals, a, *args):
        seen.append(len(a))
        return chebyshev(cols, vals, a, *args)
    monkeypatch.setattr(dynamics, "_chebyshev_states", counting)
    return seen


def _conversion_model():
    """The benchmark's 10-mode conversion model and its pair state."""
    modes = [ModeSpec("e-", "fermion", 1), ModeSpec("e+", "fermion", 1),
             ModeSpec("photon", "boson", 1)] + \
        [ModeSpec(f"x{i}", "fermion" if i % 2 else "boson", 1) for i in range(7)]
    conversion = conversion_hamiltonian(build_fock_space(modes), 1.0, ["photon"], ["e-", "e+"])
    return conversion, basis_state(conversion.space, (1, 1, 0, 1, 0, 0, 1, 1, 0, 1))


def _reports_at_one_and_two_blas_threads(path):
    """The machine report of ``python -m relfock`` on a scenario file, from
    child processes at one and at two BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "relfock", str(path), "--format",
                               "machine"], capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    return outputs


def _slab_group(mats):
    """A ``_Blocks`` holding the given s x s Hermitian matrices as its k
    blocks, with the entries of each row adjacent and in column order and the
    blocks' rows interleaved, as the block search leaves them; a block need
    not be connected."""
    mats = np.asarray(mats)
    k, s = len(mats), mats.shape[1]
    block, row, col = np.nonzero(mats)
    order = np.lexsort((col, row * k + block))  # by basis state r k + b, then column
    entries = tuple(x[order] for x in (block, row, col, mats[block, row, col]))
    idx = np.arange(k * s).reshape(s, k).T
    return dynamics._Blocks(idx, entries, np.zeros(k, dtype=bool),
                            dynamics._block_stats(k, s, *entries))


def _uneven_blocks(seed, shifted):
    """Two complex Hermitian 40-state blocks: a random pattern whose rows hold
    from none (row 0) to about a dozen off-diagonal entries, and a ring with
    two in every row. Zero diagonals make each Gershgorin interval symmetric,
    c = 0 exactly; shifted puts a diagonal in [0.5, 2] on both."""
    rng, s = np.random.default_rng(seed), 40
    upper = np.triu(rng.random((s, s)) < np.linspace(0.0, 0.6, s)[:, None], 1)
    upper[0] = upper[:, 0] = False
    ring = np.roll(np.eye(s, dtype=bool), 1, axis=1)
    mats = []
    for pattern in (upper, ring):
        mat = np.where(pattern, rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)), 0)
        mats.append(mat + mat.conj().T + np.diag(rng.uniform(0.5, 2.0, s) * shifted))
    return mats


def _assert_close_payloads(left, right, where):
    """Two parsed report payloads with the same structure and strings, and
    numbers within 1e-12."""
    if isinstance(left, dict):
        assert sorted(left) == sorted(right), where
        for key in left:
            _assert_close_payloads(left[key], right[key], f"{where}.{key}")
    elif isinstance(left, list):
        assert len(left) == len(right), where
        for i, (a, b) in enumerate(zip(left, right)):
            _assert_close_payloads(a, b, f"{where}[{i}]")
    elif isinstance(left, float):
        assert isinstance(right, float) and abs(left - right) <= 1e-12, where
    else:
        assert left == right, where


CHEBYSHEV_GRIDS = {"uneven": [0.0, 0.05, 0.37, 0.4, 1.9, 3.0],
                   "descending": [3.0, 1.0, 1.0, -0.5, -2.0]}


class TestTaylorPath:
    """The matrix-free path for large blocks, now a Chebyshev recurrence; the
    class and its test ids keep the name of the Taylor series it replaced."""

    @pytest.mark.parametrize("grid", sorted(CHEBYSHEV_GRIDS))
    @pytest.mark.parametrize("complex_vals", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_block_matches_expm(self, monkeypatch, eigh_calls, chebyshev_calls,
                                    seed, complex_vals, grid):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)  # every block to Chebyshev
        s = 16 + 16 * seed
        h = _one_block(seed, s, complex_vals)
        assert bool(h.vals.imag.any()) == complex_vals
        psi = random_state_vector(h.space, seed)
        times = CHEBYSHEV_GRIDS[grid]
        traj = evolve_trajectory(psi, h, times)
        assert chebyshev_calls == [s] and eigh_calls == []
        dense = dense_matrix(h)
        for t, state in zip(times, traj.states):
            np.testing.assert_allclose(state.amplitudes, expm(-1j * t * dense) @ psi.amplitudes,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.amplitudes,
                                       expm_multiply(-1j * t * csr_matrix(dense), psi.amplitudes),
                                       rtol=0, atol=1e-12)
        assert np.abs(traj.norms - 1.0).max() < 1e-13

    def test_partial_support_mixes_paths_and_keeps_nothing(self, monkeypatch, eigh_calls,
                                                           chebyshev_calls):
        h = _chain()
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)
        occupations = h.space.basis_occupations.sum(axis=1)
        # an all-zero grid: the half-filled sector goes through eigh
        evolve(basis_state(h.space, (1, 0, 1, 0, 1, 0, 1, 0)), h, 0.0)
        assert [a.shape for a in eigh_calls] == [(1, 70, 70)]
        rng = np.random.default_rng(2)
        support = np.isin(occupations, [3, 4])
        amps = np.zeros(h.space.dimension, dtype=np.complex128)
        amps[support] = rng.normal(size=support.sum()) + 1j * rng.normal(size=support.sum())
        psi = StateVector(h.space_id, amps / np.linalg.norm(amps))
        times = CHEBYSHEV_GRIDS["uneven"]
        traj = evolve_trajectory(psi, h, times)
        # the 70-state sector keeps its eigenpairs; the occupied 56-state
        # sector goes to Chebyshev
        assert len(eigh_calls) == 1 and chebyshev_calls == [56]
        dense = dense_matrix(h)
        for t, state in zip(times, traj.states):
            a = state.amplitudes
            np.testing.assert_allclose(a, expm(-1j * t * dense) @ psi.amplitudes,
                                       rtol=0, atol=1e-12)
            assert np.all(a[~support] == 0)
            assert not np.signbit(a[~support].real).any()
            assert not np.signbit(a[~support].imag).any()
        # Chebyshev kept nothing: both 56-state sectors are still to diagonalize
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)
        evolve(random_state_vector(h.space, 2), h, 0.1)
        assert (2, 56, 56) in [a.shape for a in eigh_calls[1:]]

    def test_rule_keeps_bundled_and_conversion_blocks_on_eigh(self, eigh_calls, chebyshev_calls):
        for name in ("annihilation", "bell", "product"):
            path = resources.files("relfock") / "scenarios" / f"{name}.json"
            scenario = load_scenario(str(path))
            report = run_scenario(scenario)
            assert all(t.status == "ok" for t in report.tasks)
            # blocks of 1 and 2 states: the rule is one integer comparison
            for h in scenario.hamiltonians.values():
                assert all(g.stats is None for g in h.eigensystem._groups)
        # the stacked block solves (the spectrum tasks' eigh calls are 2-d)
        assert chebyshev_calls == [] and [a.shape for a in eigh_calls if a.ndim == 3] == [(1, 2, 2)]
        eigh_calls.clear()
        conversion, pair = _conversion_model()
        evolve_trajectory(pair, conversion, np.linspace(0.0, 3.0, 50))
        evolve(pair, conversion, 0.2)
        assert all(g.stats is None for g in conversion.eigensystem._groups)
        assert chebyshev_calls == [] and [a.shape for a in eigh_calls] == [(1, 2, 2)]

    def test_rule_sends_the_dynamics_chain_block_to_chebyshev(self, eigh_calls, chebyshev_calls):
        # the benchmark's dynamics case: the conversion model and a
        # half-filled 10-site chain, a trajectory then an evolve on each
        conversion, pair = _conversion_model()
        evolve_trajectory(pair, conversion, np.linspace(0.0, 3.0, 50))
        evolve(pair, conversion, 0.2)
        chain = _chain(10)
        half = basis_state(chain.space, (1, 0, 1, 1, 0, 0, 1, 0, 1, 0))
        evolve_trajectory(half, chain, np.linspace(0.0, 4.0, 20))
        evolve(half, chain, 0.5)
        assert chebyshev_calls == [252, 252] and [a.shape for a in eigh_calls] == [(1, 2, 2)]

    @pytest.mark.parametrize("hop", [0.5, 1.5])
    def test_rule_sends_chains_of_the_benchmark_range_to_chebyshev(self, hop):
        # every hop at either end of the benchmark's range, on its 20-point
        # grid and at either end of its evolve times
        g, = [g for g in _chain(10, [hop] * 9).eigensystem._groups if g.idx.shape[1] == 252]
        for times in (np.linspace(0.0, 4.0, 20), [0.5], [3.0]):
            chosen = dynamics._chebyshev_blocks(g, np.ones(1, dtype=bool), np.asarray(times))
            assert [b for b, _ in chosen] == [0]

    def test_rule_prices_the_per_time_products_of_eigh(self):
        # s^3 alone would keep this long grid on eigh; s^3 + T s^2 does not
        h, times = _kicked(10), np.linspace(0.0, 2.0, 2000)
        g = h.eigensystem._groups[-1]
        (nnz,), _, (radius,) = g.stats
        n = dynamics._order(radius * 2.0, 55)
        assert 1024 ** 3 <= dynamics._CHEBYSHEV_COST * (nnz + 2000 * 1024) * n
        assert [b for b, _ in dynamics._chebyshev_blocks(g, np.ones(1, dtype=bool), times)] == [0]

    def test_rule_prices_the_slab_of_a_star_block(self, eigh_calls, chebyshev_calls):
        # explicit triplets: row 0 touches every column, so the block has
        # 3 s - 2 entries but its slab is s x s
        s, t, rng = 256, 1.0, np.random.default_rng(9)
        leaves, hub = np.arange(1, s), np.zeros(s - 1, dtype=np.int64)
        spokes = rng.uniform(0.02, 0.06, s - 1)
        h = HamiltonianSpec(qudit_space(s, "a", "star"), (),
                            np.concatenate([hub, leaves, np.arange(s)]),
                            np.concatenate([leaves, hub, np.arange(s)]),
                            np.concatenate([spokes, spokes, rng.uniform(-1.0, 1.0, s)]))
        g, = h.eigensystem._groups
        (size,), _, (radius,) = g.stats
        n = dynamics._order(radius * t, 55)
        assert len(h.vals) == 3 * s - 2 and size == s * s
        # priced by its entries the block would go to Chebyshev; by its slab, to eigh
        assert s ** 3 + s ** 2 > dynamics._CHEBYSHEV_COST * (len(h.vals) + s) * n
        assert s ** 3 + s ** 2 <= dynamics._CHEBYSHEV_COST * (size + s) * n
        assert dynamics._chebyshev_blocks(g, np.ones(1, dtype=bool), np.array([t])) == []
        psi = random_state_vector(h.space, 9)
        state = evolve(psi, h, t)
        assert chebyshev_calls == [] and [a.shape for a in eigh_calls] == [(1, s, s)]
        np.testing.assert_allclose(state.amplitudes,
                                   expm(-1j * t * dense_matrix(h)) @ psi.amplitudes,
                                   rtol=0, atol=1e-12)

    def test_chain_matches_slater_determinants(self, eigh_calls, chebyshev_calls):
        # an independent reference: N free fermions evolve as the Slater
        # determinants of the single-particle propagator exp(-i t h1)
        hops = np.random.default_rng(11).uniform(0.5, 1.5, 9)
        h = _chain(10, hops)
        start = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0])
        psi = basis_state(h.space, tuple(start))
        times = np.linspace(0.0, 4.0, 20)
        traj = evolve_trajectory(psi, h, times)
        assert chebyshev_calls == [252] and eigh_calls == []
        h1 = np.diag(hops, 1) + np.diag(hops, -1)
        occupations = h.space.basis_occupations
        sector = np.flatnonzero(occupations.sum(axis=1) == 5)
        sites = np.nonzero(occupations[sector])[1].reshape(-1, 5)  # ascending per state
        for t, state in zip(times, traj.states):
            u1 = expm(-1j * t * h1)
            ref = np.zeros(h.space.dimension, dtype=np.complex128)
            ref[sector] = np.linalg.det(u1[sites[:, :, None], np.flatnonzero(start)])
            np.testing.assert_allclose(state.amplitudes, ref, rtol=0, atol=1e-12)
        assert traj.states[0].amplitudes.tobytes() == psi.amplitudes.tobytes()
        assert np.abs(traj.norms - 1.0).max() < 1e-13

    def test_diagonalized_block_is_not_repropagated_by_taylor(self, monkeypatch, eigh_calls,
                                                                chebyshev_calls):
        h = _kicked(8)
        psi = random_state_vector(h.space, 4)
        # one short time: 256^3 against 100 x (2303 entries + 256) x 14 terms
        first = evolve(psi, h, 0.1)
        assert chebyshev_calls == [256] and eigh_calls == []
        cost = dynamics._CHEBYSHEV_COST
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", math.inf)
        evolve(psi, h, 0.1)
        assert [a.shape for a in eigh_calls] == [(1, 256, 256)]
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", cost)
        again = evolve(psi, h, 0.1)
        evolve_trajectory(psi, h, [0.1, 0.2])
        assert chebyshev_calls == [256] and len(eigh_calls) == 1
        np.testing.assert_allclose(again.amplitudes, first.amplitudes, rtol=0, atol=1e-12)

    def test_non_finite_cost_selects_eigh(self, eigh_calls, chebyshev_calls):
        h = _kicked(8, scale=1e300)
        psi = random_state_vector(h.space, 4)
        # |H|_1 t overflows: eigh, whose phases overflow, and the drift check
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"^evolution lost unitarity: max norm drift nan$"):
            evolve(psi, h, 1e10)
        assert chebyshev_calls == [] and len(eigh_calls) == 1
        # a finite but huge r max|t| (about 8e10) prices Chebyshev out too
        assert evolve(psi, _kicked(8, scale=1e300), 1e-290).is_normalized()
        assert chebyshev_calls == [] and len(eigh_calls) == 2

    def test_large_block_propagates_in_o_nnz_memory(self, eigh_calls, chebyshev_calls):
        space = build_fock_space([ModeSpec(f"f{i}", "fermion", 1) for i in range(11)])
        terms = [(0.2 + 0.03 * i, (("create", f"f{i}"),)) for i in range(11)]
        terms += [(0.5 + 0.1 * i, (("number", f"f{i}"),)) for i in range(11)]
        terms += [(0.7, (("create", f"f{i + 1}"), ("annihilate", f"f{i}"))) for i in range(10)]
        h = build_hamiltonian(space, terms)
        assert 30_000 < len(h.vals) < 40_000
        psi = random_state_vector(space, 11)
        times = np.linspace(0.0, 2.0, 20)
        tracemalloc.start()
        try:
            amps, _ = h.eigensystem.propagate(psi.amplitudes, times)
            propagated = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            traj = evolve_trajectory(psi, h, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chebyshev_calls == [2048, 2048] and eigh_calls == []
        assert np.array_equal([state.amplitudes for state in traj.states], amps)
        # The propagation, with the block search, is O(nnz + T D); the
        # trajectory adds its monitors, the energy sum's fixed chunk among them.
        ss_bytes = 8 * 2048 ** 2  # one s x s float64 array, 32 MiB
        assert propagated < ss_bytes / 4 and peak < ss_bytes
        assert np.abs(traj.norms - 1.0).max() < 1e-13
        sparse = csr_matrix((h.vals, (h.rows, h.cols)), shape=(2048, 2048))
        np.testing.assert_allclose(traj.states[-1].amplitudes,
                                   expm_multiply(-1j * times[-1] * sparse, psi.amplitudes),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("complex_vals", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gershgorin_interval_holds_each_block_spectrum(self, monkeypatch, seed, complex_vals):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)  # statistics for every size
        for h in (_one_block(seed, 16 + 16 * seed, complex_vals), _chain()):
            dense = dense_matrix(h)
            for g in h.eigensystem._groups:
                size, centre, radius = g.stats
                for i, idx in enumerate(g.idx):
                    sub = dense[np.ix_(idx, idx)]
                    # the slab: a diagonal slot and the most off-diagonal entries of a row
                    off = np.count_nonzero(sub - np.diag(np.diag(sub)), axis=1)
                    assert size[i] == len(idx) * (1 + off.max())
                    w = np.linalg.eigvalsh(sub)
                    slack = 1e-12 * max(radius[i], 1.0)  # rounding of the sums only
                    assert centre[i] - radius[i] - slack <= w.min()
                    assert w.max() <= centre[i] + radius[i] + slack
        # a uniform hypercube, a regular bipartite block, attains both ends
        space = build_fock_space([ModeSpec(f"q{i}", "boson", 1) for i in range(6)])
        cube = build_hamiltonian(space, [(0.7, (("create", f"q{i}"),)) for i in range(6)])
        (_, (centre,), (radius,)), = [g.stats for g in cube.eigensystem._groups]
        w = np.linalg.eigvalsh(dense_matrix(cube))
        np.testing.assert_allclose([w.min(), w.max()], [centre - radius, centre + radius],
                                   rtol=0, atol=1e-12)

    def test_bessel_values_and_term_count_match_scipy(self, monkeypatch, chebyshev_calls):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)
        terms, chebyshev = [], dynamics._chebyshev_states
        monkeypatch.setattr(dynamics, "_chebyshev_states",
                            lambda *args: terms.append(chebyshev(*args)) or terms[-1])
        h = _one_block(0, 16, False)
        psi, radius = random_state_vector(h.space, 0), h.eigensystem._groups[-1].stats[2][0]
        # an all-zero grid takes the eigenpairs (of a twin: they are kept)
        evolve_trajectory(psi, _one_block(0, 16, False), [0.0, 0.0])
        assert chebyshev_calls == []
        xs = np.array([0.0, 1e-300, 1e-8, 0.1, 1.0, 37.3, 100.0, 1000.0])
        joint = dynamics._bessel_j(xs, dynamics._order(xs.max(), 55))  # one recurrence, as for a grid
        assert np.array_equal(joint[:, 0], np.arange(len(joint)) == 0)  # J_k(0) = delta_k0
        signs = (-1.0) ** np.arange(len(joint))[:, None]
        assert np.array_equal(dynamics._bessel_j(-xs, len(joint) - 1), signs * joint)
        for i, x in enumerate(xs[1:], 1):
            at = radius * (x / radius)  # the block's r max|t|
            evolve(psi, h, x / radius)
            n = terms[-1]
            own = dynamics._bessel_j(np.array([at]), dynamics._order(at, 55))[:n + 1, 0]
            for values, arg in ((own, at), (joint[:n + 1, i], x)):
                ref = jv(np.arange(n + 1), arg)
                if x <= 37.3:
                    big = np.abs(ref) > 1e-290
                    assert (np.abs(values - ref)[big] <= 1e-13 * np.abs(ref[big])).all()
                else:
                    # scipy's jv is itself off by up to 4e-13 (x = 100) and
                    # 1.2e-10 (x = 1000) relative to 40-digit values near the
                    # zeros of J_k, so these are held to its absolute accuracy
                    assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()
            # the dropped terms are below rounding, by scipy's values
            assert np.abs(jv(np.arange(n + 1, n + 400), at)).sum() < 2.0 ** -52
        assert chebyshev_calls == [16] * 7

    def test_evolve_matches_trajectory_without_stepping(self, monkeypatch, eigh_calls,
                                                        chebyshev_calls):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)
        terms, chebyshev = [], dynamics._chebyshev_states
        monkeypatch.setattr(dynamics, "_chebyshev_states",
                            lambda *args: terms.append(chebyshev(*args)) or terms[-1])
        h = _kicked(10)
        psi = random_state_vector(h.space, 6)
        times = np.linspace(0.0, 2.0, 20)
        traj = evolve_trajectory(psi, h, times)
        for i in (7, 19):
            np.testing.assert_allclose(evolve(psi, h, times[i]).amplitudes,
                                       traj.states[i].amplitudes, rtol=0, atol=1e-14)
        # r max|t| alone sets the term count: the 20 times cost what the last
        # one does, and an earlier time fewer, whatever came before
        assert terms[0] == terms[2] > terms[1]
        evolve(psi, h, -times[7])
        evolve_trajectory(psi, h, [times[7], 0.0, -times[3]])
        assert terms[3:] == [terms[1]] * 2
        assert chebyshev_calls == [1024] * 5 and eigh_calls == []

    @pytest.mark.parametrize("target, shift", [(20, 0.7), (63, 0.7), (64, 0.7), (64, 0.0)],
                             ids=["below", "multiple", "one-past", "centred"])
    def test_batched_terms_match_expm(self, monkeypatch, eigh_calls, chebyshev_calls,
                                      target, shift):
        # at s = 256 the newest m = min(N + 1, 32) terms are added together:
        # N + 1 = 21 is one batch of 21, 64 two full batches, 65 two and a
        # last batch of one; 20 times are two chunks of times, 16 and 4
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)
        terms, chebyshev = [], dynamics._chebyshev_states
        monkeypatch.setattr(dynamics, "_chebyshev_states",
                            lambda *args: terms.append(chebyshev(*args)) or terms[-1])
        block = _one_block(1, 256, True)
        everywhere = np.arange(256)
        h = HamiltonianSpec(block.space, (), np.concatenate([block.rows, everywhere]),
                            np.concatenate([block.cols, everywhere]),
                            np.concatenate([block.vals, np.full(256, shift)]))
        _, (centre,), _ = h.eigensystem._groups[-1].stats
        assert h.vals.imag.any() and (centre != 0) == (shift != 0)
        psi = random_state_vector(h.space, 1)
        times = np.linspace(0.0, _time_for_terms(h, psi, target, terms), 20)
        traj = evolve_trajectory(psi, h, times)
        assert terms[-1] == target and eigh_calls == [] and set(chebyshev_calls) == {256}
        dense = dense_matrix(h)
        for i in (0, 7, 15, 16, 19):
            np.testing.assert_allclose(traj.states[i].amplitudes,
                                       expm(-1j * times[i] * dense) @ psi.amplitudes,
                                       rtol=0, atol=1e-12)
        if not centre:  # the t = 0 row is 1 v_0 plus exact zeros
            assert traj.states[0].amplitudes.tobytes() == psi.amplitudes.tobytes()

    @pytest.mark.parametrize("n_times", [1, 20])
    @pytest.mark.parametrize("shifted", [False, True], ids=["centred", "shifted"])
    def test_slab_kernel_matches_expm(self, shifted, n_times):
        mats = _uneven_blocks(3 + n_times, shifted)
        g = _slab_group(mats)
        size, centre, radius = g.stats
        assert ((centre != 0) == shifted).all()
        times = np.linspace(0.0, 2.0, n_times) if n_times > 1 else np.array([1.3])
        a = random_state_vector(qudit_space(40, "a"), n_times).amplitudes
        for mat, (cols, vals), c, r, w in zip(mats, dynamics._ell_slab(g), centre, radius, size):
            off = mat - np.diag(np.diag(mat))
            counts = np.count_nonzero(off, axis=1)
            assert cols.shape == vals.shape == (1 + counts.max(), 40) and w == vals.size
            # slot 0: H_ii - c; then each row's entries in column order; then
            # padding, the row's own column with value 0; all times -2i/r
            assert np.array_equal(cols[0], np.arange(40))
            np.testing.assert_allclose(vals[0], (np.diag(mat) - c) * (-2j / r), rtol=1e-15)
            for i, j in enumerate(map(np.flatnonzero, off)):
                assert np.array_equal(cols[1:1 + len(j), i], j)
                np.testing.assert_allclose(vals[1:1 + len(j), i], off[i, j] * (-2j / r),
                                           rtol=1e-15)
                assert (cols[1 + len(j):, i] == i).all() and (vals[1 + len(j):, i] == 0).all()
            out = np.zeros((len(times), 40), dtype=np.complex128)
            n = dynamics._order(r * times.max(), 55)
            assert dynamics._chebyshev_states(cols, vals, a, times, c, r, n, out) <= n
            for t, state in zip(times, out):
                np.testing.assert_allclose(state, expm(-1j * t * mat) @ a, rtol=0, atol=1e-12)
            if times[0] == 0:  # the t = 0 row is 1 v_0 plus exact zeros, times e^0
                assert out[0].tobytes() == a.tobytes()
        # the padding is live: the first block's rows hold from none to many
        counts = np.count_nonzero(mats[0] - np.diag(np.diag(mats[0])), axis=1)
        assert counts[0] == 0 and counts.max() >= 8 and len(set(counts)) > 5

    def test_long_grid_matches_expm_in_o_ts_memory(self, monkeypatch, eigh_calls, chebyshev_calls):
        monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0.0)
        n_times, s = 2000, 1024
        times = np.linspace(0.0, 2.0, n_times)
        twin, h = _kicked(10), _kicked(10)
        psi = random_state_vector(h.space, 7)
        tracemalloc.start()
        try:
            twin.eigensystem  # the block search alone
            search = tracemalloc.get_traced_memory()[1]
            del twin
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            amps, _ = h.eigensystem.propagate(psi.amplitudes, times)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        (_, bound), = dynamics._chebyshev_blocks(h.eigensystem._groups[-1],
                                                 np.ones(1, dtype=bool), times)
        # the (T, s) output, the Bessel values J_k(r t) for k up to the rule's
        # bound on the term count, and a few s-vectors beyond the block
        # search: no s x s array, no stack of the recurrence vectors
        assert peak < (n_times + 8) * s * 16 + (bound + 1) * n_times * 8 + search
        traj = evolve_trajectory(psi, h, times)
        assert chebyshev_calls == [s, s] and eigh_calls == []
        assert np.array_equal([state.amplitudes for state in traj.states], amps)
        assert np.abs(traj.norms - 1.0).max() < 1e-13
        sparse = csr_matrix((h.vals, (h.rows, h.cols)), shape=(s, s))
        for i in (1, 401, 999, 1600, 1999):
            np.testing.assert_allclose(amps[i], expm_multiply(-1j * times[i] * sparse,
                                                              psi.amplitudes),
                                       rtol=0, atol=1e-12)

    def test_matrix_free_reports_do_not_depend_on_blas_threads(self, tmp_path, eigh_calls,
                                                               chebyshev_calls):
        labels = [f"q{i}" for i in range(10)]
        phi = random_state_vector(_kicked(10).space, 8).amplitudes
        doc = {
            "schema": "relfock.scenario/1",
            "spaces": [{"id": "Q", "modes": [{"label": q, "max_occupation": 1} for q in labels]}],
            "states": [{"name": "phi", "space": "Q", "kind": "amplitudes",
                        "amplitudes": [[a.real, a.imag] for a in phi.tolist()]}],
            "embeddings": [{"name": "half", "kind": "mode_partition", "reference": "Q",
                            "subsystem_modes": labels[:5], "frozen": {labels[-1]: 0}}],
            "hamiltonians": [{"name": "kicked", "space": "Q", "terms": [
                {"coefficient": 0.3 + 0.05 * i, "factors": [["create", q]]}
                for i, q in enumerate(labels)] + [
                {"coefficient": 0.6 + 0.1 * i, "factors": [["number", q]]}
                for i, q in enumerate(labels)]}],
            "tasks": [
                {"command": "trace-trajectory", "name": "curve", "state": "phi",
                 "hamiltonian": "kicked", "embedding": "half",
                 "times": {"start": 0.0, "stop": 2.0, "num": 20}},
                {"command": "evolve", "name": "later", "state": "phi",
                 "hamiltonian": "kicked", "t": 1.3},
            ],
        }
        path = tmp_path / "kicked.json"
        path.write_text(json.dumps(doc))
        report = run_scenario(load_scenario(str(path)))
        # the rule sends the 1024-state block to Chebyshev for both tasks
        assert all(t.status == "ok" for t in report.tasks)
        assert chebyshev_calls == [1024, 1024] and eigh_calls == []
        outputs = _reports_at_one_and_two_blas_threads(path)
        assert outputs[0] == outputs[1] == report.to_machine_bytes()

    def test_dynamics_reports_do_not_depend_on_blas_threads(self, tmp_path, eigh_calls,
                                                            chebyshev_calls):
        # the benchmark's dynamics shapes: a 10-mode conversion model and a
        # half-filled 10-site chain, a 20-point trajectory and an evolve on each
        hops = np.random.default_rng(71).uniform(0.5, 1.5, 9)
        conv = ["e-", "e+", "photon"] + [f"x{i}" for i in range(7)]
        sites = [f"s{i}" for i in range(10)]
        doc = {
            "schema": "relfock.scenario/1",
            "spaces": [
                {"id": "C", "modes": [{"label": m, "max_occupation": 1,
                                       "statistics": "fermion" if m[0] == "e" else "boson"}
                                      for m in conv]},
                {"id": "L", "modes": [{"label": m, "max_occupation": 1, "statistics": "fermion"}
                                      for m in sites]},
            ],
            "states": [
                {"name": "pair", "space": "C", "kind": "basis",
                 "occupations": [1, 1, 0, 1, 0, 0, 1, 1, 0, 1]},
                {"name": "chain", "space": "L", "kind": "basis",
                 "occupations": [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]},
            ],
            "embeddings": [
                {"name": "pair_sector", "kind": "mode_partition", "reference": "C",
                 "subsystem_modes": ["e-"], "frozen": {"photon": 0}},
                {"name": "open_chain", "kind": "mode_partition", "reference": "L",
                 "subsystem_modes": sites[:5], "frozen": {sites[-1]: 0}},
            ],
            "hamiltonians": [
                {"name": "conversion", "space": "C", "terms": [{"coefficient": 1.0, "factors": [
                    ["create", "photon"], ["annihilate", "e-"], ["annihilate", "e+"]]}]},
                {"name": "hopping", "space": "L", "terms": [
                    {"coefficient": float(hop), "factors": [["create", sites[i + 1]],
                                                            ["annihilate", sites[i]]]}
                    for i, hop in enumerate(hops)]},
            ],
            "tasks": [
                {"command": "trace-trajectory", "name": "conversion_curve", "state": "pair",
                 "hamiltonian": "conversion", "embedding": "pair_sector",
                 "times": {"start": 0.0, "stop": 3.0, "num": 20}},
                {"command": "evolve", "name": "conversion_t", "state": "pair",
                 "hamiltonian": "conversion", "t": 0.7},
                {"command": "trace-trajectory", "name": "hopping_curve", "state": "chain",
                 "hamiltonian": "hopping", "embedding": "open_chain",
                 "times": {"start": 0.0, "stop": 4.0, "num": 20}},
                {"command": "evolve", "name": "hopping_t", "state": "chain",
                 "hamiltonian": "hopping", "t": 2.1},
            ],
        }
        path = tmp_path / "dynamics.json"
        path.write_text(json.dumps(doc))
        report = run_scenario(load_scenario(str(path)))
        assert all(t.status == "ok" for t in report.tasks)
        assert chebyshev_calls == [252, 252] and [a.shape for a in eigh_calls] == [(1, 2, 2)]
        outputs = _reports_at_one_and_two_blas_threads(path)
        assert outputs[0] == outputs[1] == report.to_machine_bytes()

    def test_every_command_at_one_and_two_blas_threads(self, tmp_path, eigh_calls,
                                                       chebyshev_calls):
        # the kicked 1024-state block on the Chebyshev path, and every command;
        # the 256-state subsystem's spectrum is a BLAS eigh
        labels = [f"q{i}" for i in range(10)]

        def partition(name, modes, frozen=None):
            return {"name": name, "kind": "mode_partition", "reference": "Q",
                    "subsystem_modes": modes, "frozen": frozen or {}}
        doc = {
            "schema": "relfock.scenario/1",
            "spaces": [{"id": "Q", "modes": [
                {"label": q, "max_occupation": 1, "statistics": "fermion",
                 "charges": {"electric": (-1) ** i}} for i, q in enumerate(labels)]}],
            "states": [{"name": "phi", "space": "Q", "kind": "random", "seed": 8}],
            "embeddings": [partition("half", labels[:5], {labels[-1]: 0}),
                           partition("big", labels[:8]), partition("left", labels[:3]),
                           partition("middle", labels[3:6])],
            "hamiltonians": [{"name": "kicked", "space": "Q", "terms": [
                {"coefficient": 0.3 + 0.05 * i, "factors": [["create", q]]}
                for i, q in enumerate(labels)] + [
                {"coefficient": 0.6 + 0.1 * i, "factors": [["number", q]]}
                for i, q in enumerate(labels)]}],
            "tasks": [
                {"command": "reduce", "name": "rho", "state": "phi", "embedding": "half"},
                {"command": "spectrum", "name": "levels", "state": "phi", "embedding": "big"},
                {"command": "schmidt", "name": "split", "state": "phi", "embedding": "big"},
                {"command": "joint", "name": "both", "state": "phi",
                 "embeddings": ["left", "middle"]},
                {"command": "check-ssr", "name": "ssr", "state": "phi", "embedding": "half",
                 "kind": "electric"},
                {"command": "sample", "name": "draws", "state": "phi", "embedding": "half",
                 "count": 50, "seed": 3},
                {"command": "trace-trajectory", "name": "curve", "state": "phi",
                 "hamiltonian": "kicked", "embedding": "half",
                 "times": {"start": 0.0, "stop": 2.0, "num": 20}},
                {"command": "evolve", "name": "later", "state": "phi",
                 "hamiltonian": "kicked", "t": 1.3},
            ],
        }
        assert sorted(t["command"] for t in doc["tasks"]) == sorted(COMMANDS)
        path = tmp_path / "every.json"
        path.write_text(json.dumps(doc))
        report = run_scenario(load_scenario(str(path)))
        assert all(t.status == "ok" for t in report.tasks)
        assert chebyshev_calls == [1024, 1024]
        one, two = ({t["name"]: t for t in json.loads(out)["tasks"]}
                    for out in _reports_at_one_and_two_blas_threads(path))
        for name, task in one.items():
            if task["command"] in ("evolve", "trace-trajectory"):
                assert json.dumps(task) == json.dumps(two[name])
            else:
                _assert_close_payloads(task, two[name], name)

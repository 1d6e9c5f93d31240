"""Hamiltonian assembly and exact unitary evolution."""
from __future__ import annotations

import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from relfock import (
    HamiltonianSpec,
    ModeSpec,
    basis_state,
    build_fock_space,
    build_hamiltonian,
    charge_values,
    conversion_hamiltonian,
    evolve,
    evolve_trajectory,
    free_hamiltonian,
    hopping_hamiltonian,
    load_scenario,
    mode_partition_embedding,
    random_state_vector,
    relational_state,
    run_scenario,
    trace_deficit_trajectory,
)
from relfock.dynamics import _hermiticity_deviation

from conftest import mode_matrix, qudit_space


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
        h = free_hamiltonian(sp, {"a": 2.0})
        np.testing.assert_allclose(h.matrix, np.diag([0.0, 2.0, 4.0]))

    def test_zero_terms_zero_operator(self):
        sp = qudit_space(3, "a")
        h = build_hamiltonian(sp, [])
        assert np.all(h.matrix == 0)

    def test_non_self_adjoint_term_gets_adjoint(self):
        sp = build_fock_space([ModeSpec("a", "boson", 1), ModeSpec("b", "boson", 1)])
        h = hopping_hamiltonian(sp, 0.7, "a", "b")
        dev = np.abs(h.matrix - h.matrix.conj().T).max()
        assert dev == 0.0
        assert np.abs(h.matrix).max() > 0

    def test_trilinear_conserves_mode_sum(self):
        # Oracle: numerical commutator with n_a + n_b.
        sp = build_fock_space([
            ModeSpec("a", "boson", 1), ModeSpec("b", "boson", 1), ModeSpec("c", "boson", 1),
        ])
        h = build_hamiltonian(sp, [(0.9, (("create", "a"), ("annihilate", "b"),
                                          ("annihilate", "c")))])
        assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-12
        conserved = mode_matrix(sp, "a", "number") + mode_matrix(sp, "b", "number")
        comm = h.matrix @ conserved - conserved @ h.matrix
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
        h = free_hamiltonian(sp, {"a": omega})
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

    def test_space_mismatch(self):
        h = build_hamiltonian(qudit_space(3, "a", "S1"), [])
        with pytest.raises(Exception, match="does not live"):
            evolve(random_state_vector(qudit_space(3, "z", "S2"), 1), h, 1.0)


class TestTrajectories:
    def test_norm_energy_charge_conservation(self):
        space, h, psi0, _ = pair_annihilation_model(g=0.6)
        h_norm = h.spectral_norm()
        times = np.linspace(0.0, 100.0 / h_norm, 101)
        traj = evolve_trajectory(psi0, h, times, charge_kinds=("electric", "lepton"))
        assert np.abs(traj.norms - 1.0).max() < 1e-9
        assert np.abs(traj.energies - traj.energies[0]).max() < 1e-9 * h_norm
        for kind in ("electric", "lepton"):
            q = np.diag(charge_values(space, kind).astype(np.complex128))
            expect = traj.charge_expectations[kind]
            scale = max(1.0, np.abs(q).max())
            # the Hamiltonian commutes with both charges
            comm = h.matrix @ q - q @ h.matrix
            assert np.abs(comm).max() < 1e-12
            assert np.abs(expect - expect[0]).max() < 1e-9 * scale

    def test_no_coupling_keeps_deficit_zero(self):
        space, _, psi0, embedding = pair_annihilation_model()
        h_free = free_hamiltonian(space, {"e-": 1.0, "e+": 0.5, "photon": 2.0})
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
        assert np.array_equal(build_hamiltonian(space, terms).matrix,
                              _kron_hamiltonian(space, terms))

    @pytest.mark.parametrize("seed", range(20))
    def test_empty_factor_term_is_coefficient_times_identity(self, seed):
        space, terms = _random_terms(seed)
        coefficient = float(np.random.Generator(np.random.PCG64(seed)).normal())
        alone = [(coefficient, ())]
        assert np.array_equal(build_hamiltonian(space, alone).matrix,
                              coefficient * np.eye(space.dimension))
        assert np.array_equal(build_hamiltonian(space, alone).matrix,
                              _kron_hamiltonian(space, alone))
        mixed = terms[:1] + alone + terms[1:]
        assert np.array_equal(build_hamiltonian(space, mixed).matrix,
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
    return [frozenset(row.tolist()) for idx, _, _ in h.eigensystem.blocks for row in idx]


def _counting_eigh(monkeypatch):
    """Record the matrix argument of every np.linalg.eigh call."""
    seen, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        seen.append(a)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    return seen


class TestSectorEigensystem:
    @pytest.mark.parametrize("seed", range(60))
    def test_blocks_are_connected_components(self, seed):
        space, terms = _random_terms(seed)
        h = build_hamiltonian(space, terms)
        count, labels = connected_components(h.matrix != 0, directed=False)
        expected = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(count)}
        blocks = _block_sets(h)
        assert len(blocks) == count and set(blocks) == expected

    @pytest.mark.parametrize("seed", range(60))
    def test_evolution_matches_dense_eigh(self, seed):
        space, terms = _random_terms(seed)
        h = build_hamiltonian(space, terms)
        psi = random_state_vector(space, seed)
        w, u = np.linalg.eigh(h.matrix)
        times = [0.0, 0.37, 1.9]
        traj = evolve_trajectory(psi, h, times)
        for t, state in zip(times, traj.states):
            expected = u @ (np.exp(-1j * w * t) * (u.conj().T @ psi.amplitudes))
            np.testing.assert_allclose(evolve(psi, h, t).amplitudes, expected,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(60))
    def test_real_eigensystem_matches_complex_dense_eigh(self, seed, monkeypatch):
        # Mixed bosons and fermions with Jordan-Wigner signs; eight of these
        # seeds give one block spanning the space. Propagation on the same
        # seeds is checked by test_evolution_matches_dense_eigh.
        space, terms = _random_terms(seed)
        h = build_hamiltonian(space, terms)
        seen = _counting_eigh(monkeypatch)
        eigensystem = h.eigensystem
        assert all(a.dtype == np.float64 for a in seen)
        monkeypatch.undo()
        w = np.linalg.eigh(h.matrix)[0]
        blocks_w = np.sort(np.concatenate([bw.ravel() for _, bw, _ in eigensystem.blocks]))
        norm = np.abs(w).max(initial=0.0)
        assert np.abs(blocks_w - w).max() <= 1e-12 * norm
        assert all(bu.dtype == np.complex128 for _, _, bu in eigensystem.blocks)

    @pytest.mark.parametrize("seed", range(10))
    def test_complex_scattered_blocks_match_dense_eigh(self, seed, monkeypatch):
        # Complex Hermitian blocks on random, interleaved index sets.
        rng = np.random.default_rng(seed)
        space = build_fock_space([ModeSpec(f"m{i}", "boson", 1) for i in range(5)])
        labels = rng.integers(0, 6, space.dimension)
        mat = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        mat = (mat + mat.conj().T) * (labels[:, None] == labels)
        rows, cols = np.nonzero(mat)
        h = HamiltonianSpec(space, (), rows, cols, mat[rows, cols])
        seen = _counting_eigh(monkeypatch)
        assert set(_block_sets(h)) == {frozenset(np.flatnonzero(labels == k).tolist())
                                       for k in np.unique(labels)}
        assert seen and all(a.dtype == np.complex128 for a in seen)
        monkeypatch.undo()
        psi = random_state_vector(space, seed)
        w, u = np.linalg.eigh(h.matrix)
        expected = u @ (np.exp(-0.8j * w) * (u.conj().T @ psi.amplitudes))
        np.testing.assert_allclose(evolve(psi, h, 0.8).amplitudes, expected, rtol=0, atol=1e-12)

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

    def test_one_block_is_diagonalized_whole(self, monkeypatch):
        space = build_fock_space([ModeSpec(f"q{i}", "boson", 1) for i in range(4)])
        h = build_hamiltonian(space, [(0.3 + i, (("create", f"q{i}"),)) for i in range(4)])
        seen = _counting_eigh(monkeypatch)
        (idx, w, u), = h.eigensystem.blocks
        psi0 = basis_state(space, (0, 0, 0, 0))
        evolve(psi0, h, 0.5)
        evolve_trajectory(psi0, h, [0.0, 0.5, 1.0])
        assert "matrix" not in vars(h)  # evolution builds no dense complex H
        assert len(seen) == 1 and seen[0].dtype == np.float64 and seen[0].shape == (1, 16, 16)
        assert seen[0][0].tobytes() == np.ascontiguousarray(h.matrix.real).tobytes()
        assert np.array_equal(idx, np.arange(space.dimension)[None])
        assert w.shape == (1, 16) and u.shape == (1, 16, 16) and u.dtype == np.complex128

    def test_eigensystem_is_cached_read_only_and_shared(self, monkeypatch):
        space, h, psi0, embedding = pair_annihilation_model()
        seen = _counting_eigh(monkeypatch)
        evolve(psi0, h, 0.4)
        eigensystem = h.eigensystem
        trace_deficit_trajectory(psi0, h, embedding, [0.0, 0.5, 1.0])
        evolve(psi0, h, 0.9)
        assert len(seen) == 1  # the one size-2 block, diagonalized once
        assert h.eigensystem is eigensystem
        for arrays in eigensystem.blocks:
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0


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
        assert np.array_equal(h.matrix, dense)
        keys = h.rows * 12 + h.cols
        assert np.all(np.diff(keys) > 0) and np.all(h.vals != 0)
        assert len(keys) == np.count_nonzero(dense)
        for arr in (h.rows, h.cols, h.vals, h.matrix):
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
        dense = float(np.abs(h.matrix - h.matrix.conj().T).max())
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
        assert len(h.vals) == np.count_nonzero(h.matrix)
        count, labels = connected_components(h.matrix != 0, directed=False)
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

        scale = 1e-12 * h.spectral_norm()
        dense = h.matrix
        assert abs(h.energy(later.amplitudes)
                   - np.vdot(later.amplitudes, dense @ later.amplitudes).real) < scale
        for state, energy in zip(traj.states, traj.energies):
            assert abs(energy - np.vdot(state.amplitudes, dense @ state.amplitudes).real) < scale
        evolved, curve = (t.result for t in report.tasks)
        assert abs(evolved["energy"] - h.energy(later.amplitudes)) < scale
        np.testing.assert_allclose(curve["energies"], traj.energies, rtol=0, atol=scale)

"""Relational (reduced) states, spectra and sampling."""
from __future__ import annotations

import numpy as np
import pytest

from relfock import (
    DensityOperator,
    ModeSpec,
    SpaceMismatchError,
    SpectralDecomposition,
    StateVector,
    bell_state,
    build_fock_space,
    mode_partition_embedding,
    possible_internal_states,
    random_state_vector,
    relational_state,
    sample_internal_states,
    tensor_product,
)
from relfock.hilbert import pull_back
from relfock.relational import _deterministic_group_basis

from conftest import identity_map, qudit_space, random_pair, raises_exactly


def elementwise_partial_trace(phi: np.ndarray, dim_a: int, dim_b: int,
                              factor: str) -> np.ndarray:
    """Independent oracle: reduce |phi><phi| by explicit index loops."""
    full = np.outer(phi, phi.conj())
    if factor == "A":
        rho = np.zeros((dim_a, dim_a), dtype=complex)
        for j in range(dim_a):
            for k in range(dim_a):
                for l in range(dim_b):
                    rho[j, k] += full[j * dim_b + l, k * dim_b + l]
    else:
        rho = np.zeros((dim_b, dim_b), dtype=complex)
        for j in range(dim_b):
            for k in range(dim_b):
                for l in range(dim_a):
                    rho[j, k] += full[l * dim_b + j, l * dim_b + k]
    return rho


def deficient_bell_pair(seed: int = 0):
    """A 3-mode space where the (q0, q1) pair embeds with mode x frozen, and a
    state sqrt(0.7) * bell-image + sqrt(0.3) * outside-the-image."""
    sp = build_fock_space(
        [ModeSpec("q0"), ModeSpec("q1"), ModeSpec("x")], "R3")
    e = mode_partition_embedding(sp, ["q0"], frozen={"x": 0})
    amps = np.zeros(sp.dimension, dtype=complex)
    amps[sp.index_of((0, 0, 0))] = np.sqrt(0.7) / np.sqrt(2)
    amps[sp.index_of((1, 1, 0))] = np.sqrt(0.7) / np.sqrt(2)
    amps[sp.index_of((0, 0, 1))] = np.sqrt(0.3)
    return sp, e, StateVector(sp.space_id, amps)


class TestRelationalState:
    def test_bell_state_maximally_mixed(self):
        sp = build_fock_space([ModeSpec("q0"), ModeSpec("q1")], "R")
        e = mode_partition_embedding(sp, ["q0"])
        rho = relational_state(bell_state(sp), e, "A")
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert rho.trace_deficit == pytest.approx(0.0, abs=1e-12)

    def test_product_state_gives_projector(self):
        a, b = qudit_space(3, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
        psi_a = random_state_vector(a, 11)
        psi_b = random_state_vector(b, 12)
        psi = tensor_product(psi_a, psi_b)
        psi = StateVector(e.reference_id, psi.amplitudes)
        rho = relational_state(psi, e, "A")
        expected = np.outer(psi_a.amplitudes, psi_a.amplitudes.conj())
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_deficient_state_against_projector_oracle(self):
        # Oracle: project onto the image with the dense V V^dagger, then
        # reduce element-wise; the result must be 0.35 * identity, trace 0.7.
        sp, e, psi = deficient_bell_pair()
        proj = e.isometry @ e.isometry.conj().T
        inside = proj @ psi.amplitudes
        phi = e.isometry.conj().T @ inside
        oracle = elementwise_partial_trace(
            phi, e.subsystem.dimension, e.complementer.dimension, "A")
        rho = relational_state(psi, e, "A")
        np.testing.assert_allclose(rho.matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(rho.matrix, 0.35 * np.eye(2), atol=1e-10)
        assert rho.trace == pytest.approx(0.7, abs=1e-10)
        assert rho.trace_deficit == pytest.approx(0.3, abs=1e-10)

    def test_both_factors_against_elementwise_oracle(self):
        for seed in range(5):
            psi, e = random_pair(seed * 13 + 5)
            phi = e.isometry.conj().T @ psi.amplitudes
            for factor in ("A", "B"):
                rho = relational_state(psi, e, factor)
                oracle = elementwise_partial_trace(
                    phi, e.subsystem.dimension, e.complementer.dimension, factor)
                np.testing.assert_allclose(rho.matrix, oracle, atol=1e-12)

    def test_requires_unit_norm(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
        bad = StateVector(e.reference_id, np.array([0.5, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="unit norm"):
            relational_state(bad, e)

    def test_space_mismatch(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
        with pytest.raises(SpaceMismatchError):
            relational_state(random_state_vector(a, 3), e)

    @pytest.mark.parametrize("seed", range(12))
    def test_output_invariants_random(self, seed):
        psi, e = random_pair(seed * 31 + 2)
        for factor in ("A", "B"):
            rho = relational_state(psi, e, factor)
            assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-10
            assert -1e-10 <= rho.trace <= 1 + 1e-10
        comp = e.isometry.conj().T @ psi.amplitudes
        rho_a = relational_state(psi, e, "A")
        assert rho_a.trace == pytest.approx(float(np.vdot(comp, comp).real), abs=1e-10)

    def test_identity_embedding_trace_is_one(self):
        a, b = qudit_space(4, "a"), qudit_space(4, "b")
        e = identity_map(a, b)
        psi = random_state_vector(e.reference, 77)
        assert relational_state(psi, e).trace == pytest.approx(1.0, abs=1e-12)


class TestPossibleInternalStates:
    def test_maximally_mixed_qubit(self):
        rho = DensityOperator.from_matrix("q", np.eye(2) / 2)
        dec = possible_internal_states(rho)
        assert dec.eigenvalues == (0.5, 0.5)
        assert dec.degeneracy_groups == ((0, 1),)
        assert any(len(g) > 1 for g in dec.degeneracy_groups)
        assert dec.annihilation_probability == 0.0

    def test_rank_one_projector(self):
        psi = random_state_vector(qudit_space(4, "a"), 21)
        rho = DensityOperator.from_matrix("s", np.outer(psi.amplitudes, psi.amplitudes.conj()))
        dec = possible_internal_states(rho)
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        overlap = abs(np.vdot(dec.eigenvectors[0].amplitudes, psi.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_deficient_spectrum(self):
        sp, e, psi = deficient_bell_pair()
        dec = possible_internal_states(relational_state(psi, e, "A"))
        # independent eigensolve of the oracle matrix
        oracle_eigs = np.linalg.eigvalsh(0.35 * np.eye(2))[::-1]
        np.testing.assert_allclose(dec.eigenvalues, oracle_eigs, atol=1e-10)
        assert dec.annihilation_probability == pytest.approx(0.3, abs=1e-10)

    def test_reconstruction_identity(self):
        for seed in range(6):
            psi, e = random_pair(seed * 5 + 4)
            rho = relational_state(psi, e, "A")
            dec = possible_internal_states(rho)
            rebuilt = sum(
                lam * dec.projector(j) for j, lam in enumerate(dec.eigenvalues)
            )
            assert np.abs(rho.matrix - rebuilt).max() < 1e-10

    def test_eigenvectors_orthonormal(self):
        psi, e = random_pair(321)
        dec = possible_internal_states(relational_state(psi, e, "A"))
        mat = dec.eigenvector_matrix()
        gram = mat.conj().T @ mat
        assert np.abs(gram - np.eye(dec.outcome_count)).max() < 1e-10

    def test_invariant_violation_rejected(self):
        not_psd = DensityOperator.from_matrix("x", np.diag([0.9, -0.1]))
        with pytest.raises(ValueError, match="PSD"):
            possible_internal_states(not_psd)
        not_herm = DensityOperator.from_matrix("x", np.array([[0.5, 0.4], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="Hermitian"):
            possible_internal_states(not_herm)

    @pytest.mark.parametrize("matrix, message", [
        ([[0.5, 0.4], [0.0, 0.5]], "density operator not Hermitian: max dev 0.4"),
        ([[0.9, 0.0], [0.0, -0.1]], "density operator not PSD: min eigenvalue -0.1"),
        ([[0.7, 0.0], [0.0, 0.6]], "density operator trace 1.3 exceeds one"),
    ], ids=["not-hermitian", "not-psd", "trace-above-one"])
    def test_each_invariant_rejected_with_its_message(self, matrix, message):
        rho = DensityOperator.from_matrix("x", np.array(matrix))
        with pytest.raises(ValueError) as info:
            possible_internal_states(rho)
        assert str(info.value) == message

    @pytest.mark.parametrize("matrix", [[[np.nan, 0.0], [0.0, 0.5]],
                                        [[0.5, np.nan], [np.nan, 0.5]],
                                        [[0.5, 0.0], [0.0, complex(0.0, np.nan)]]])
    def test_nan_entry_rejected_as_not_hermitian(self, matrix):
        rho = DensityOperator.from_matrix("x", np.array(matrix))
        with pytest.raises(ValueError) as info:
            possible_internal_states(rho)
        assert str(info.value) == "density operator not Hermitian: max dev nan"

    def test_nan_trace_rejected(self):
        rho = DensityOperator("x", np.eye(2) / 2, trace=float("nan"), trace_deficit=float("nan"))
        with pytest.raises(ValueError) as info:
            possible_internal_states(rho)
        assert str(info.value) == "density operator trace nan exceeds one"

    def test_one_eigensolve_per_spectrum(self, monkeypatch, eigh_calls):
        psi, e = random_pair(321)
        rho = relational_state(psi, e, "A")
        expected = possible_internal_states(rho)
        eigh_calls.clear()

        def refuse(*args, **kwargs):
            raise AssertionError("possible_internal_states called eigvalsh")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        dec = possible_internal_states(rho)
        assert [a.shape for a in eigh_calls] == [rho.matrix.shape]
        assert dec.eigenvalues == expected.eigenvalues
        with pytest.raises(ValueError, match="PSD"):
            possible_internal_states(DensityOperator.from_matrix("x", np.diag([0.9, -0.1])))

    def test_degenerate_basis_is_deterministic(self):
        rho = DensityOperator.from_matrix("q", np.eye(2) / 2)
        d1 = possible_internal_states(rho)
        d2 = possible_internal_states(rho)
        for v1, v2 in zip(d1.eigenvectors, d2.eigenvectors):
            np.testing.assert_array_equal(v1.amplitudes, v2.amplitudes)
        # the convention picks index-ordered basis vectors for a scaled identity
        np.testing.assert_allclose(d1.eigenvectors[0].amplitudes, [1, 0], atol=1e-14)
        np.testing.assert_allclose(d1.eigenvectors[1].amplitudes, [0, 1], atol=1e-14)

    def test_large_degenerate_group_basis_ignores_rotation(self):
        # k = 64 orthonormal columns of a 96-dimensional space, rotated by two
        # random unitaries: the same eigenspace, so the same basis.
        rng = np.random.Generator(np.random.PCG64(64))
        dim, k = 96, 64

        def unitary(n):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            return q

        space = unitary(dim)[:, :k]
        first, second = (_deterministic_group_basis(space @ unitary(k)) for _ in range(2))
        assert first.shape == (dim, k)
        assert np.abs(first.conj().T @ first - np.eye(k)).max() < 1e-12
        np.testing.assert_allclose(first, second, rtol=0.0, atol=1e-12)
        # still a basis of the eigenspace
        np.testing.assert_allclose(first @ first.conj().T, space @ space.conj().T,
                                   rtol=0.0, atol=1e-12)


class TestSampling:
    def test_certain_state(self):
        rho = DensityOperator.from_matrix("q", np.diag([1.0, 0.0]))
        dec = possible_internal_states(rho)
        for seed in (0, 1, 99, 2**40):
            assert sample_internal_states(dec, 1, seed).tolist() == [0]

    def test_certain_annihilation(self):
        rho = DensityOperator.from_matrix("q", np.zeros((2, 2)))
        dec = possible_internal_states(rho)
        assert dec.eigenvalues == ()
        assert dec.annihilation_probability == 1.0
        for seed in (0, 7, 123456):
            assert sample_internal_states(dec, 1, seed).tolist() == [dec.outcome_count]

    def test_count_beyond_array_index_range_names_count(self):
        dec = possible_internal_states(DensityOperator.from_matrix("q", np.eye(2) / 2))
        limit = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match=f"^count must be at most {limit}, got {10**30}$"):
            sample_internal_states(dec, 10**30, seed=1)
        with pytest.raises(ValueError, match=f"^count must be at most {limit}, got {limit + 1}$"):
            sample_internal_states(dec, limit + 1, seed=1)

    def test_seed_reproducibility(self):
        rho = DensityOperator.from_matrix("q", np.diag([0.5, 0.2]))
        dec = possible_internal_states(rho)
        a = sample_internal_states(dec, 10_000, seed=99)
        b = sample_internal_states(dec, 10_000, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_balanced_spectrum_within_binomial_band(self):
        rho = DensityOperator.from_matrix("q", np.eye(2) / 2)
        dec = possible_internal_states(rho)
        n = 100_000
        outcomes = sample_internal_states(dec, n, seed=2024)
        freq = np.sum(outcomes == 0) / n
        sigma = np.sqrt(0.25 / n)
        assert abs(freq - 0.5) < 3 * sigma

    def test_annihilation_frequency(self):
        rho = DensityOperator.from_matrix("q", np.diag([0.5, 0.2]))
        dec = possible_internal_states(rho)
        assert dec.annihilation_probability == pytest.approx(0.3)
        n = 100_000
        outcomes = sample_internal_states(dec, n, seed=7)
        freq = np.sum(outcomes == 2) / n
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(freq - 0.3) < 3 * sigma


def isolated_independence_deviation(psi: StateVector, e) -> float:
    """For a factorized state, the largest deviation of the subsystem's
    relational state from the projector onto the factor found independently
    by SVD of the pulled-back state; asserts the state is factorized first."""
    rho = relational_state(psi, e, "A")
    assert np.linalg.eigvalsh(rho.matrix)[-2] < 1e-12   # rank one
    assert rho.trace_deficit < 1e-10
    u, _, _ = np.linalg.svd(pull_back(psi, e))
    return float(np.abs(rho.matrix - np.outer(u[:, 0], u[:, 0].conj())).max())


class TestIsolatedIndependence:
    def test_product_state_passes(self):
        a, b = qudit_space(3, "a"), qudit_space(4, "b")
        e = identity_map(a, b)
        psi = tensor_product(random_state_vector(a, 5), random_state_vector(b, 6))
        psi = StateVector(e.reference_id, psi.amplitudes)
        assert isolated_independence_deviation(psi, e) < 1e-10

    def test_perturbed_product_state_within_tolerance(self):
        a, b = qudit_space(3, "a"), qudit_space(4, "b")
        e = identity_map(a, b)
        psi = tensor_product(random_state_vector(a, 15), random_state_vector(b, 16))
        rng = np.random.Generator(np.random.PCG64(17))
        noise = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        amps = psi.amplitudes + 1e-12 * noise
        amps = amps / np.linalg.norm(amps)
        assert isolated_independence_deviation(StateVector(e.reference_id, amps), e) < 1e-10


def _no_outcomes():
    """A decomposition with every eigenvalue dropped and no weight missing."""
    return SpectralDecomposition("A", (), (), (), 0.0, 2)


class TestInputChecks:
    def test_density_matrix_must_be_square(self):
        with raises_exactly(ValueError, "density matrix must be square"):
            DensityOperator("A", np.zeros((2, 3)), 0.0, 1.0)

    def test_sample_count_must_be_nonnegative(self):
        _, e, psi = deficient_bell_pair()
        rho = relational_state(psi, e)
        with raises_exactly(ValueError, "count must be nonnegative"):
            sample_internal_states(possible_internal_states(rho), -1, 0)

    def test_no_outcomes_cannot_be_sampled(self):
        with raises_exactly(ValueError, "decomposition has no outcomes to sample"):
            sample_internal_states(_no_outcomes(), 3, 0)

    def test_empty_decomposition_has_an_empty_eigenvector_matrix(self):
        mat = _no_outcomes().eigenvector_matrix()
        assert mat.shape == (0, 0) and mat.dtype == np.complex128

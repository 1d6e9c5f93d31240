"""Schmidt decomposition with residual, composed embeddings, joint
distributions."""
from __future__ import annotations

import tracemalloc
from functools import reduce

import numpy as np
import pytest

import relfock.composition
import relfock.hilbert
import relfock.runner
from relfock import (
    Embedding,
    EmbeddingValidationError,
    ModeSpec,
    SpaceMismatchError,
    SpectralDecomposition,
    StateVector,
    basis_state,
    bell_state,
    build_fock_space,
    charge_values,
    compose_embeddings,
    joint_distribution,
    mode_partition_embedding,
    possible_internal_states,
    random_isometry_embedding,
    random_state_vector,
    regroup_embedding,
    relational_state,
    run_scenario,
    schmidt_decompose,
    tensor_product,
    validate_embedding,
)
from relfock.composition import _compose
from relfock.report import canonical_json
from relfock.scenario import Scenario, Task

from conftest import identity_map, qudit_space, random_pair, raises_exactly
from test_relational import deficient_bell_pair


def padded_sorted_desc(values, length):
    out = sorted((float(v) for v in values), reverse=True)
    return np.array(out + [0.0] * (length - len(out)))


def reconstruct(dec, e):
    total = np.array(dec.residual.amplitudes)
    for c, a, b in zip(dec.coefficients, dec.a_vectors, dec.b_vectors):
        total = total + c * (e.isometry @ np.kron(a.amplitudes, b.amplitudes))
    return total


class TestSchmidt:
    def test_bell_state(self):
        sp = build_fock_space([ModeSpec("q0"), ModeSpec("q1")], "R")
        e = mode_partition_embedding(sp, ["q0"])
        dec = schmidt_decompose(bell_state(sp), e)
        np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert dec.residual_norm_sq == pytest.approx(0.0, abs=1e-12)

    def test_product_state_single_coefficient(self):
        a, b = qudit_space(3, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
        psi = tensor_product(random_state_vector(a, 1), random_state_vector(b, 2))
        dec = schmidt_decompose(StateVector(e.reference_id, psi.amplitudes), e)
        assert len(dec.coefficients) == 1
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert dec.residual_norm_sq == pytest.approx(0.0, abs=1e-12)

    def test_deficient_bell_against_relational_spectra(self):
        sp, e, psi = deficient_bell_pair()
        dec = schmidt_decompose(psi, e)
        np.testing.assert_allclose(
            sorted(dec.coefficients), sorted([np.sqrt(0.35)] * 2), atol=1e-10)
        assert dec.residual_norm_sq == pytest.approx(0.3, abs=1e-10)
        # residual equals the direct projector computation
        proj = e.isometry @ e.isometry.conj().T
        expected_residual = psi.amplitudes - proj @ psi.amplitudes
        np.testing.assert_allclose(dec.residual.amplitudes, expected_residual, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_and_orthogonality(self, seed):
        psi, e = random_pair(seed * 17 + 9)
        dec = schmidt_decompose(psi, e)
        err = np.abs(reconstruct(dec, e) - psi.amplitudes).max()
        assert err < 1e-10
        # residual orthogonal to ALL product pairs, not only the diagonal
        for a in dec.a_vectors:
            for b in dec.b_vectors:
                product = e.isometry @ np.kron(a.amplitudes, b.amplitudes)
                assert abs(np.vdot(dec.residual.amplitudes, product)) < 1e-10
        total = sum(c * c for c in dec.coefficients) + dec.residual_norm_sq
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_coefficients_match_both_relational_spectra(self, seed):
        psi, e = random_pair(seed * 19 + 1)
        dec = schmidt_decompose(psi, e)
        c_sq = padded_sorted_desc([c * c for c in dec.coefficients],
                                  max(e.subsystem.dimension, e.complementer.dimension))
        for factor, dim in (("A", e.subsystem.dimension), ("B", e.complementer.dimension)):
            spectrum = possible_internal_states(relational_state(psi, e, factor))
            eigs = padded_sorted_desc(spectrum.eigenvalues, len(c_sq))
            np.testing.assert_allclose(c_sq, eigs, atol=1e-10)

    def test_vectors_orthonormal_and_coefficients_nonneg(self):
        psi, e = random_pair(404)
        dec = schmidt_decompose(psi, e)
        assert all(c >= 0 for c in dec.coefficients)
        amat = np.stack([v.amplitudes for v in dec.a_vectors], axis=1)
        bmat = np.stack([v.amplitudes for v in dec.b_vectors], axis=1)
        rank = len(dec.coefficients)
        np.testing.assert_allclose(amat.conj().T @ amat, np.eye(rank), atol=1e-10)
        np.testing.assert_allclose(bmat.conj().T @ bmat, np.eye(rank), atol=1e-10)


def three_qubit_space():
    return build_fock_space([ModeSpec("q0"), ModeSpec("q1"), ModeSpec("q2")], "R3q")


class TestComposeEmbeddings:
    def test_two_single_qubit_factors(self):
        sp = three_qubit_space()
        parts = [mode_partition_embedding(sp, ["q0"]),
                 mode_partition_embedding(sp, ["q1"])]
        joint = compose_embeddings(parts)
        assert joint.subsystem.dimension == 4
        assert joint.complementer.dimension == 2
        assert joint.isometry.shape == (8, 8)
        assert validate_embedding(joint).passed

    def test_swapped_factors_transpose_distribution(self):
        sp = three_qubit_space()
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 0.6
        amps[0b110] = 0.8
        psi = StateVector(sp.space_id, amps)
        e0 = mode_partition_embedding(sp, ["q0"])
        e1 = mode_partition_embedding(sp, ["q1"])

        def dist(parts):
            joint = compose_embeddings(parts)
            factors = [p.subsystem for p in parts]
            spectra = [
                possible_internal_states(relational_state(
                    psi, regroup_embedding(joint, factors, [i]), "A"))
                for i in range(len(parts))
            ]
            return joint_distribution(psi, joint, spectra)

        d01 = dist([e0, e1])
        d10 = dist([e1, e0])
        np.testing.assert_allclose(d01.probabilities, d10.probabilities.T, atol=1e-12)

    def test_overlapping_factors_fail_validation(self):
        sp = three_qubit_space()
        parts = [mode_partition_embedding(sp, ["q0"]),
                 mode_partition_embedding(sp, ["q0"])]
        with pytest.raises(EmbeddingValidationError) as err:
            compose_embeddings(parts)
        assert err.value.report.max_deviation > 0.5
        # the defective map itself can be materialized and inspected
        broken = _compose(parts)
        assert not validate_embedding(broken).passed

    def test_frozen_conflict_rejected(self):
        sp = three_qubit_space()
        parts = [mode_partition_embedding(sp, ["q0"], frozen={"q2": 0}),
                 mode_partition_embedding(sp, ["q1"], frozen={"q2": 1})]
        with pytest.raises(ValueError, match="frozen"):
            compose_embeddings(parts)

    def test_mode_frozen_by_one_part_and_claimed_by_another_rejected(self):
        sp = three_qubit_space()
        parts = [mode_partition_embedding(sp, ["q0"], frozen={"q2": 0}),
                 mode_partition_embedding(sp, ["q2"])]
        # The 0/1 map passes the Gram check although part 1 pins q2 at 0 and
        # part 2 reads it; the unchecked map keeps both.
        broken = _compose(parts)
        assert validate_embedding(broken).passed
        assert "q2" in broken.partition.subsystem_labels and ("q2", 0) in broken.partition.frozen
        with pytest.raises(ValueError,
                           match="mode 'q2' is claimed by one part and frozen by another"):
            compose_embeddings(parts)
        # Frozen at 1, the map fails the Gram check first, with its report.
        parts[0] = mode_partition_embedding(sp, ["q0"], frozen={"q2": 1})
        with pytest.raises(EmbeddingValidationError) as err:
            compose_embeddings(parts)
        assert err.value.report == validate_embedding(_compose(parts))

    def test_explicit_isometry_parts_rejected(self):
        a, b, r = qudit_space(2, "a"), qudit_space(2, "b"), qudit_space(5, "r")
        e = random_isometry_embedding(a, b, r, seed=3)
        with pytest.raises(ValueError, match="mode-partition"):
            compose_embeddings([e])


def random_multiparty(seed: int, dims: tuple[int, ...], dim_b: int, dim_r: int):
    """Random joint embedding of several abstract factors plus a state."""
    factors = [qudit_space(d, f"m{i}", f"F{i}x{seed}") for i, d in enumerate(dims)]
    sub = reduce(tensor_product, factors)
    comp = qudit_space(dim_b, "env", f"E{seed}")
    ref = qudit_space(dim_r, "ref", f"Rr{seed}")
    joint = random_isometry_embedding(sub, comp, ref, seed=seed)
    psi = random_state_vector(ref, seed=seed + 1)
    return psi, joint, factors


def spectra_for(psi, joint, factors):
    return [
        possible_internal_states(relational_state(
            psi, regroup_embedding(joint, factors, [i]), "A"))
        for i in range(len(factors))
    ]


class TestJointDistribution:
    def test_bell_state_perfect_correlation(self):
        sp = build_fock_space([ModeSpec("q0"), ModeSpec("q1")], "R")
        psi = bell_state(sp)
        parts = [mode_partition_embedding(sp, ["q0"]),
                 mode_partition_embedding(sp, ["q1"])]
        joint = compose_embeddings(parts)
        factors = [p.subsystem for p in parts]
        dist = joint_distribution(psi, joint, spectra_for(psi, joint, factors))
        probs = dist.probabilities
        assert probs.shape == (2, 2)
        assert probs[0, 0] + probs[1, 1] == pytest.approx(1.0, abs=1e-10)
        assert abs(probs[0, 1]) < 1e-10 and abs(probs[1, 0]) < 1e-10
        assert probs[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_product_state_single_certain_entry(self):
        sp = build_fock_space([ModeSpec("q0"), ModeSpec("q1")], "R")
        psi = basis_state(sp, (1, 0))
        parts = [mode_partition_embedding(sp, ["q0"]),
                 mode_partition_embedding(sp, ["q1"])]
        joint = compose_embeddings(parts)
        factors = [p.subsystem for p in parts]
        dist = joint_distribution(psi, joint, spectra_for(psi, joint, factors))
        assert dist.probabilities.shape == (1, 1)
        assert dist.probabilities[0, 0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_party_dense_oracle(self, seed):
        # Oracle: P = <psi| V (pi_1 x pi_2 x pi_3 x 1_B) V^dagger |psi> with
        # every projector built dense on the reference space.
        psi, joint, factors = random_multiparty(seed * 23 + 7, (2, 2, 2), 1, 10)
        spectra = spectra_for(psi, joint, factors)
        dist = joint_distribution(psi, joint, spectra)
        dim_b = joint.complementer.dimension
        for jj in np.ndindex(*dist.index_ranges):
            pis = [spectra[i].projector(j) for i, j in enumerate(jj)]
            middle = reduce(np.kron, pis)
            middle = np.kron(middle, np.eye(dim_b))
            mat = joint.isometry @ middle @ joint.isometry.conj().T
            expected = float(np.vdot(psi.amplitudes, mat @ psi.amplitudes).real)
            assert dist.probabilities[jj] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_marginalization_chain(self, seed):
        psi, joint, factors = random_multiparty(seed * 41 + 3, (2, 3, 2), 2, 36)
        spectra = spectra_for(psi, joint, factors)
        dist3 = joint_distribution(psi, joint, spectra)
        for drop in range(3):
            keep = [i for i in range(3) if i != drop]
            sub_joint = regroup_embedding(joint, factors, keep)
            sub_spectra = [spectra[i] for i in keep]
            dist2 = joint_distribution(psi, sub_joint, sub_spectra)
            np.testing.assert_allclose(
                dist3.probabilities.sum(axis=drop), dist2.probabilities, atol=1e-9)
            # and down to one party: entries equal the eigenvalues
            for axis, i in enumerate(keep):
                marg1 = dist2.probabilities.sum(axis=1 - axis)
                np.testing.assert_allclose(marg1, spectra[i].eigenvalues, atol=1e-9)

    def test_entries_nonnegative_and_total_bounded(self):
        psi, joint, factors = random_multiparty(99, (2, 2), 2, 24)
        dist = joint_distribution(psi, joint, spectra_for(psi, joint, factors))
        assert dist.probabilities.min() > -1e-10
        assert dist.total <= 1 + 1e-10
        assert dist.max_imag < 1e-10

    def test_inconsistent_spectra_rejected(self):
        psi, joint, factors = random_multiparty(7, (2, 2), 1, 8)
        other_psi = random_state_vector(joint.reference, seed=1000)
        wrong = spectra_for(other_psi, joint, factors)
        with pytest.raises(ValueError, match="inconsistent"):
            joint_distribution(psi, joint, wrong)


def random_joint_case(seed: int):
    """2-3 disjoint mode-partition parties, listed in random order, of a
    reference of 4-6 charged fermions and bosons with some modes frozen, and
    a random state (even seeds) or a random electric-charge eigenstate with
    weight in the joint image (odd seeds)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    modes = [ModeSpec(f"f{i}", "fermion", 1, {"electric": int(rng.choice([-1, 1]))})
             if rng.random() < 0.5 else ModeSpec(f"b{i}", "boson", int(rng.integers(1, 3)))
             for i in range(int(rng.integers(4, 7)))]
    ref = build_fock_space(modes, f"R{seed}")
    labels = [str(l) for l in rng.permutation(ref.mode_labels)]
    n_parties = int(rng.integers(2, 4))
    n_frozen = int(rng.integers(0, len(labels) - n_parties + 1))
    pool = {l: int(rng.integers(0, ref.modes[ref.mode_index(l)].max_occupation + 1))
            for l in labels[:n_frozen]}
    free = labels[n_frozen:]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, len(free) + 1), n_parties,
                                             replace=False))
    subs = [free[lo:hi] for lo, hi in zip([0] + cuts, cuts)]
    parts = [mode_partition_embedding(ref, sub, frozen={l: n for l, n in pool.items()
                                                         if rng.random() < 0.7})
             for sub in subs]
    parts = [parts[i] for i in rng.permutation(n_parties)]
    if seed % 2 == 0:
        return random_state_vector(ref, seed), parts
    occ = ref.basis_occupations
    inside = np.all(occ[:, [ref.mode_index(l) for l in pool]] == list(pool.values()), axis=1)
    charges = charge_values(ref, "electric")
    sector = charges == charges[rng.choice(np.flatnonzero(inside))]
    amps = np.where(sector, rng.standard_normal(ref.dimension)
                    + 1j * rng.standard_normal(ref.dimension), 0.0)
    return StateVector(ref.space_id, amps / np.linalg.norm(amps)), parts


def pairs(values: np.ndarray) -> list:
    """Complex entries as explicit [re, im] lists."""
    return [[float(v.real), float(v.imag)] for v in values]


def regrouped_joint_payload(psi, parts) -> dict:
    """The joint task's result built through one regrouped embedding per party."""
    joint = compose_embeddings(parts)
    spectra = spectra_for(psi, joint, [p.subsystem for p in parts])
    dist = joint_distribution(psi, joint, spectra)
    return {
        "subsystems": list(dist.subsystem_ids),
        "index_ranges": list(dist.index_ranges),
        "probabilities": dist.clamped_probabilities().tolist(),
        "total": dist.total,
        "max_imag": dist.max_imag,
        "spectra": [{
            "space": s.space_id,
            "eigenvalues": list(s.eigenvalues),
            "annihilation_probability": s.annihilation_probability,
            "degeneracy_groups": [list(g) for g in s.degeneracy_groups],
            "dropped": s.dropped_count,
            "eigenvectors": [pairs(v.amplitudes) for v in s.eigenvectors],
        } for s in spectra],
    }


class TestJointTask:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_regrouped_reference_without_regrouping(self, seed, monkeypatch):
        psi, parts = random_joint_case(seed)
        expected = canonical_json(regrouped_joint_payload(psi, parts))

        def refuse(*args, **kwargs):
            raise AssertionError("the joint task built a regrouped embedding")
        monkeypatch.setattr(relfock.composition, "regroup_embedding", refuse)
        monkeypatch.setattr(relfock.runner, "regroup_embedding", refuse, raising=False)
        names = [f"part{i}" for i in range(len(parts))]
        scenario = Scenario(spaces={}, states={"psi": psi}, embeddings=dict(zip(names, parts)),
                            hamiltonians={}, digest="",
                            tasks=(Task("joint", "joint", {"state": "psi", "embeddings": names}),))
        task = run_scenario(scenario).tasks[0]
        assert task.status == "ok", task.error
        assert canonical_json(task.result) == expected

    @pytest.mark.parametrize("overlap", [False, True], ids=["disjoint", "overlapping"])
    @pytest.mark.parametrize("seed", range(4))
    def test_validates_its_composed_map_once_from_the_index_map(self, seed, overlap,
                                                                monkeypatch):
        psi, parts = random_joint_case(seed)
        if overlap:
            parts.append(parts[0])
        composed = _compose(parts)
        validated, validate = [], relfock.hilbert.validate_embedding

        def recording(e, *args, **kwargs):
            validated.append(e)
            return validate(e, *args, **kwargs)

        def refuse(self):
            raise AssertionError("the joint task read a dense isometry")
        monkeypatch.setattr(relfock.hilbert, "validate_embedding", recording)
        monkeypatch.setattr(relfock.composition, "validate_embedding", recording)
        monkeypatch.setattr(Embedding, "isometry", property(refuse))
        names = [f"part{i}" for i in range(len(parts))]
        scenario = Scenario(spaces={}, states={"psi": psi}, embeddings=dict(zip(names, parts)),
                            hamiltonians={}, digest="",
                            tasks=(Task("joint", "joint", {"state": "psi", "embeddings": names}),))
        task = run_scenario(scenario).tasks[0]
        if overlap:
            assert task.status == "error"
            assert task.error["type"] == "EmbeddingValidationError"
        else:
            assert task.status == "ok", task.error
        assert len(validated) == 1
        (e,) = validated
        assert (e.subsystem, e.complementer, e.reference, e.partition) == \
            (composed.subsystem, composed.complementer, composed.reference, composed.partition)
        assert np.array_equal(e.rows, composed.rows)


def kron_joint_reference(psi, joint, spectra) -> np.ndarray:
    """The Kronecker-basis formula: the diagonal of K^dagger rho_A K, with
    rho_A the joint factor's reduced state and K the Kronecker product of
    every party's eigenvector matrix."""
    rho = relational_state(psi, joint, "A")
    basis = reduce(np.kron, [s.eigenvector_matrix() for s in spectra])
    raw = np.einsum("dm,dm->m", basis.conj(), rho.matrix @ basis)
    return raw.real.reshape(tuple(s.outcome_count for s in spectra))


JOINT_SEEDS = range(48)


class TestJointContraction:
    @pytest.mark.parametrize("seed", JOINT_SEEDS)
    def test_matches_kronecker_reference(self, seed):
        psi, parts = random_joint_case(seed)
        joint = compose_embeddings(parts)
        spectra = spectra_for(psi, joint, [p.subsystem for p in parts])
        dist = joint_distribution(psi, joint, spectra)
        expected = kron_joint_reference(psi, joint, spectra)
        assert dist.index_ranges == expected.shape
        np.testing.assert_allclose(dist.probabilities, expected, rtol=0, atol=1e-15)
        assert dist.max_imag == 0.0
        assert dist.total == pytest.approx(float(expected.sum()), abs=1e-14)

    def test_reference_draws_cover_frozen_modes_cutoffs_and_charge_eigenstates(self):
        frozen = cutoff_two = charge_eigenstates = 0
        for seed in JOINT_SEEDS:
            psi, parts = random_joint_case(seed)
            frozen += any(p.partition.frozen for p in parts)
            cutoff_two += any(m.max_occupation == 2 for m in parts[0].reference.modes)
            charges = charge_values(parts[0].reference, "electric")
            support = np.abs(psi.amplitudes) > 0
            charge_eigenstates += len(np.unique(charges[support])) == 1
        assert frozen >= 10 and cutoff_two >= 10 and charge_eigenstates >= 10

    @staticmethod
    def relations_shape_case():
        """12 two-level modes, three 3-mode parties, the first with one more
        mode frozen at occupation 0: dim(A) = 512, dim(B) = 4."""
        modes = [ModeSpec(f"m{i}", "fermion" if i % 2 else "boson", 1) for i in range(12)]
        ref = build_fock_space(modes, "R12")
        labels = list(ref.mode_labels)
        parts = [mode_partition_embedding(ref, labels[0:3], frozen={labels[9]: 0}),
                 mode_partition_embedding(ref, labels[3:6]),
                 mode_partition_embedding(ref, labels[6:9])]
        psi = random_state_vector(ref, seed=12)
        joint = compose_embeddings(parts)
        spectra = spectra_for(psi, joint, [p.subsystem for p in parts])
        return psi, joint, spectra

    def test_relations_shape_builds_no_kronecker_product(self, monkeypatch):
        psi, joint, spectra = self.relations_shape_case()
        assert joint.subsystem.dimension == 512 and joint.complementer.dimension == 4

        def refuse(*args, **kwargs):
            raise AssertionError("joint_distribution built a Kronecker product")
        monkeypatch.setattr(np, "kron", refuse)
        dist = joint_distribution(psi, joint, spectra)
        assert dist.index_ranges == tuple(s.outcome_count for s in spectra)

    def test_relations_shape_allocates_less_than_one_joint_matrix(self):
        psi, joint, spectra = self.relations_shape_case()
        dim_a = joint.subsystem.dimension
        tracemalloc.start()
        try:
            joint_distribution(psi, joint, spectra)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim_a * dim_a * np.dtype(np.complex128).itemsize


def _three_qubit_joint():
    """Three one-qubit parts of one reference composed, their factor
    spaces, a random state and its spectra on each factor."""
    sp = three_qubit_space()
    parts = [mode_partition_embedding(sp, [label]) for label in sp.mode_labels]
    joint = compose_embeddings(parts)
    factors = [p.subsystem for p in parts]
    psi = random_state_vector(sp, 4)
    return joint, factors, psi, spectra_for(psi, joint, factors)


class TestInputChecks:
    def test_schmidt_needs_a_unit_state(self):
        e = mode_partition_embedding(three_qubit_space(), ["q0"])
        half = StateVector(e.reference_id, basis_state(e.reference, 0).amplitudes * 0.5)
        with raises_exactly(ValueError, "state must be unit norm; |psi|^2 = 0.25"):
            schmidt_decompose(half, e)

    def test_joint_distribution_needs_a_unit_state(self):
        joint, _, _, spectra = _three_qubit_joint()
        half = StateVector(joint.reference_id, basis_state(joint.reference, 5).amplitudes * 0.5)
        with raises_exactly(ValueError, "reference state must be unit norm; |psi|^2 = 0.25"):
            joint_distribution(half, joint, spectra)

    def test_compose_needs_parts_on_one_reference(self):
        with raises_exactly(ValueError, "need at least one embedding to compose"):
            compose_embeddings([])
        other = build_fock_space([ModeSpec("q0"), ModeSpec("q1"), ModeSpec("q2")], "other")
        parts = [mode_partition_embedding(three_qubit_space(), ["q0"]),
                 mode_partition_embedding(other, ["q1"])]
        with raises_exactly(SpaceMismatchError,
                            "all parts must embed into the same reference space"):
            compose_embeddings(parts)

    def test_regroup_needs_matching_factors_and_distinct_keep(self):
        joint, factors, _, _ = _three_qubit_joint()
        with raises_exactly(SpaceMismatchError,
                            "factor dimensions [2, 2] do not multiply to dim(A) = 8"):
            regroup_embedding(joint, factors[:2], [0])
        for keep in ([0, 0], [3]):
            with raises_exactly(ValueError, f"keep indices {keep} must be distinct "
                                            "positions into 3 factors"):
                regroup_embedding(joint, factors, keep)

    def test_joint_distribution_needs_spectra_of_the_factors(self):
        joint, _, psi, spectra = _three_qubit_joint()
        with raises_exactly(ValueError, "need at least one spectrum"):
            joint_distribution(psi, joint, [])
        empty = SpectralDecomposition("A", (), (), (), 2)
        with raises_exactly(ValueError,
                            "every subsystem needs at least one possible internal state"):
            joint_distribution(psi, joint, spectra[:2] + [empty])
        with raises_exactly(SpaceMismatchError,
                            "spectra live on dimensions [2, 2], inconsistent with dim(A) = 8"):
            joint_distribution(psi, joint, spectra[:2])

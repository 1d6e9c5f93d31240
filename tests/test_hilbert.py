"""Spaces, ladder operators, charges, tensor products, embeddings."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import relfock.composition
import relfock.hilbert
from relfock import (
    EmbeddingValidationError,
    ModeSpec,
    SpaceMismatchError,
    StateVector,
    Tolerances,
    basis_state,
    bell_state,
    build_fock_space,
    charge_operator,
    charge_values,
    compose_embeddings,
    embedding_from_isometry,
    identity_embedding,
    identity_operator,
    ladder_operator,
    mode_partition_embedding,
    number_operator,
    project_onto_image,
    random_isometry_embedding,
    random_state_vector,
    tensor_product,
    validate_embedding,
)
from relfock.hilbert import Embedding

from conftest import qudit_space, random_pair


class TestBuildFockSpace:
    def test_single_boson_mode(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        assert sp.dimension == 3
        assert [sp.occupation_of(i) for i in range(3)] == [(0,), (1,), (2,)]

    def test_two_fermion_modes(self):
        sp = build_fock_space([ModeSpec("f1", "fermion"), ModeSpec("f2", "fermion")])
        assert sp.dimension == 4
        assert [sp.occupation_of(i) for i in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_mixed_statistics_product_dimension(self):
        sp = build_fock_space([ModeSpec("b", "boson", 1), ModeSpec("f", "fermion")])
        assert sp.dimension == 4

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_fock_space([ModeSpec("a"), ModeSpec("a")])

    def test_fermion_overfilled_rejected_not_clamped(self):
        with pytest.raises(ValueError, match="fermion"):
            ModeSpec("f", "fermion", max_occupation=2)

    def test_empty_mode_list_rejected(self):
        with pytest.raises(ValueError):
            build_fock_space([])

    def test_index_occupation_round_trip(self):
        sp = build_fock_space([
            ModeSpec("a", "boson", 2), ModeSpec("f", "fermion"), ModeSpec("b", "boson", 3),
        ])
        for i in range(sp.dimension):
            assert sp.index_of(sp.occupation_of(i)) == i
        # and the enumeration is a bijection
        seen = {sp.occupation_of(i) for i in range(sp.dimension)}
        assert len(seen) == sp.dimension


class TestLadderOperators:
    def test_boson_annihilate_top_state(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        a = ladder_operator(sp, "a", "annihilate")
        out = a.apply(basis_state(sp, (2,)))
        expected = np.sqrt(2) * basis_state(sp, (1,)).amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_boson_create_truncates_at_top(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        adag = ladder_operator(sp, "a", "create")
        out = adag.apply(basis_state(sp, (2,)))
        assert np.all(out.amplitudes == 0)

    def test_fermion_sign_matches_brute_force(self):
        # Oracle: build both operators on 2 fermion modes directly from the
        # occupation rule c2^dag |n1, n2> = (-1)^n1 sqrt(1) |n1, n2+1>.
        sp = build_fock_space([ModeSpec("f1", "fermion"), ModeSpec("f2", "fermion")])
        expected = np.zeros((4, 4), dtype=complex)
        for idx in range(4):
            n1, n2 = sp.occupation_of(idx)
            if n2 == 0:
                expected[sp.index_of((n1, 1)), idx] = (-1.0) ** n1
        built = ladder_operator(sp, "f2", "create")
        np.testing.assert_allclose(built.matrix, expected, atol=1e-15)
        # the documented example: creating mode 2 on |1,0> picks up the sign
        out = built.apply(basis_state(sp, (1, 0)))
        np.testing.assert_allclose(out.amplitudes, -basis_state(sp, (1, 1)).amplitudes)

    def test_fermion_anticommutation(self):
        sp = build_fock_space([ModeSpec("f1", "fermion"), ModeSpec("f2", "fermion")])
        c1 = ladder_operator(sp, "f1", "annihilate").matrix
        c2 = ladder_operator(sp, "f2", "annihilate").matrix
        anti = c1 @ c2 + c2 @ c1
        np.testing.assert_allclose(anti, 0, atol=1e-15)
        anti_dag = c1 @ c2.conj().T + c2.conj().T @ c1
        np.testing.assert_allclose(anti_dag, 0, atol=1e-15)

    def test_unknown_mode_label(self):
        sp = build_fock_space([ModeSpec("a", "boson", 1)])
        with pytest.raises(ValueError, match="no mode"):
            ladder_operator(sp, "zz", "annihilate")

    def test_commutator_identity_below_cutoff(self):
        # [a, a^dag] = 1 on every basis state below the cutoff, and
        # 1 - (max+1) = -max on the top state: truncation breaks it only there.
        sp = build_fock_space([ModeSpec("a", "boson", 3)])
        a = ladder_operator(sp, "a", "annihilate").matrix
        comm = a @ a.conj().T - a.conj().T @ a
        diag = np.real(np.diag(comm))
        np.testing.assert_allclose(diag[:-1], 1.0, atol=1e-14)
        assert diag[-1] == pytest.approx(-3.0)


class TestChargeOperators:
    def test_additive_eigenvalue(self):
        sp = build_fock_space([ModeSpec("e-", "boson", 2, {"electric": -1})])
        q = charge_operator(sp, "electric")
        state = basis_state(sp, (2,))
        np.testing.assert_allclose(q.apply(state).amplitudes, -2 * state.amplitudes)

    def test_all_zero_charges_give_zero_operator(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        assert np.all(charge_operator(sp, "electric").matrix == 0)

    def test_pair_state_is_neutral(self):
        sp = build_fock_space([
            ModeSpec("e-", "fermion", 1, {"electric": -1}),
            ModeSpec("e+", "fermion", 1, {"electric": 1}),
        ])
        q = charge_operator(sp, "electric")
        state = basis_state(sp, (1, 1))
        np.testing.assert_allclose(q.apply(state).amplitudes, 0 * state.amplitudes)

    def test_unknown_kind_rejected(self):
        sp = build_fock_space([ModeSpec("a")])
        with pytest.raises(ValueError, match="charge kind"):
            charge_operator(sp, "color")

    def test_commutes_with_number_operators(self):
        sp = build_fock_space([
            ModeSpec("a", "boson", 2, {"electric": 1}),
            ModeSpec("b", "boson", 1, {"electric": -1, "baryon": 1}),
        ])
        q = charge_operator(sp, "electric").matrix
        for label in ("a", "b"):
            n = number_operator(sp, label).matrix
            assert np.abs(q @ n - n @ q).max() == 0.0

    def test_charge_values_recount(self):
        # Oracle: recount per basis state from mode charges by hand.
        sp = build_fock_space([
            ModeSpec("u", "boson", 2, {"electric": 2, "baryon": 1}),
            ModeSpec("d", "boson", 1, {"electric": -1}),
            ModeSpec("l", "fermion", 1, {"lepton": 1, "electric": -1}),
        ])
        for kind in ("electric", "baryon", "lepton"):
            vals = charge_values(sp, kind)
            for i in range(sp.dimension):
                occ = sp.occupation_of(i)
                manual = sum(n * m.charge(kind) for n, m in zip(occ, sp.modes))
                assert vals[i] == manual


class TestTensorProduct:
    def test_basis_state_index_arithmetic(self):
        a = qudit_space(2, "a")
        b = qudit_space(3, "b")
        psi = tensor_product(basis_state(a, (0,)), basis_state(b, (1,)))
        expected = np.zeros(6)
        expected[0 * 3 + 1] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected)

    def test_identity_tensor_identity(self):
        a = qudit_space(2, "a")
        b = qudit_space(3, "b")
        prod = tensor_product(identity_operator(a), identity_operator(b))
        np.testing.assert_allclose(prod.matrix, np.eye(6))

    def test_operator_product_factorizes(self):
        a = qudit_space(2, "a")
        b = qudit_space(2, "b")
        x = ladder_operator(a, "a", "create")
        y = ladder_operator(b, "b", "annihilate")
        psi_a = random_state_vector(a, 3)
        psi_b = random_state_vector(b, 4)
        lhs = tensor_product(x, y).apply(tensor_product(psi_a, psi_b))
        rhs = tensor_product(x.apply(psi_a), y.apply(psi_b))
        np.testing.assert_allclose(lhs.amplitudes, rhs.amplitudes, atol=1e-14)

    def test_kind_mismatch(self):
        a = qudit_space(2, "a")
        with pytest.raises(TypeError, match="kinds must match"):
            tensor_product(a, basis_state(a, (0,)))


class TestEmbeddings:
    def test_identity_embedding_validates_exactly(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        report = validate_embedding(identity_embedding(a, b))
        assert report.passed and report.max_deviation == 0.0

    def test_scaled_column_fails_with_expected_deviation(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_embedding(a, b)
        bad = np.array(e.isometry)
        bad[:, 0] *= 0.5
        broken = Embedding(a, b, e.reference, bad)
        report = validate_embedding(broken)
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.75)

    def test_random_isometry_passes(self):
        a, b, r = qudit_space(3, "a"), qudit_space(2, "b"), qudit_space(11, "r")
        e = random_isometry_embedding(a, b, r, seed=5)
        report = validate_embedding(e)
        assert report.passed

    def test_shape_mismatch_is_hard_error(self):
        a, b, r = qudit_space(2, "a"), qudit_space(2, "b"), qudit_space(5, "r")
        with pytest.raises(SpaceMismatchError):
            Embedding(a, b, r, np.eye(4))

    def test_image_cannot_exceed_reference(self):
        a, b, r = qudit_space(3, "a"), qudit_space(3, "b"), qudit_space(5, "r")
        with pytest.raises(SpaceMismatchError):
            random_isometry_embedding(a, b, r, seed=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_library_constructors_validate(self, seed):
        psi, e = random_pair(seed * 11 + 1)
        assert validate_embedding(e).passed

    def test_mode_partition_with_frozen_mode(self):
        sp = build_fock_space([
            ModeSpec("a", "boson", 1), ModeSpec("b", "boson", 1), ModeSpec("c", "boson", 1),
        ], "R")
        e = mode_partition_embedding(sp, ["a"], frozen={"c": 0})
        assert e.subsystem.dimension == 2 and e.complementer.dimension == 2
        assert validate_embedding(e).passed
        # image holds exactly the c=0 block
        psi_in = basis_state(sp, (1, 0, 0))
        comp, deficiency = project_onto_image(psi_in, e)
        assert deficiency == pytest.approx(0.0, abs=1e-12)
        psi_out = basis_state(sp, (0, 0, 1))
        comp, deficiency = project_onto_image(psi_out, e)
        assert deficiency == pytest.approx(1.0)

    def test_writable_isometry_is_copied(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        matrix = np.eye(4, dtype=np.complex128)
        e = embedding_from_isometry(a, b, tensor_product(a, b), matrix)
        matrix[0, 0] = 0.0
        assert e.isometry[0, 0] == 1.0
        assert matrix.flags.writeable and not e.isometry.flags.writeable

    def test_built_isometry_is_read_only_and_kept(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        e = mode_partition_embedding(sp, ["a"])
        assert not e.isometry.flags.writeable
        again = Embedding(e.subsystem, e.complementer, e.reference, e.isometry)
        assert again.isometry is e.isometry

    def test_mode_partition_must_cover_space(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        with pytest.raises(ValueError, match="partition"):
            mode_partition_embedding(sp, ["a"], complementer_labels=[])


def _selection_oracle(reference, groups, frozen):
    """The 0/1 map built column by column: for each product basis state, start
    from the frozen occupations, add every group's occupations at its labels
    and look the result up with index_of; a cutoff overflow is a zero column."""
    columns = list(itertools.product(*[range(space.dimension) for space, _ in groups]))
    mat = np.zeros((reference.dimension, len(columns)), dtype=np.complex128)
    for col, indices in enumerate(columns):
        occ = [frozen.get(label, 0) for label in reference.mode_labels]
        for (space, labels), i in zip(groups, indices):
            for label, n in zip(labels, space.occupation_of(i)):
                occ[reference.mode_index(label)] += n
        try:
            mat[reference.index_of(occ), col] = 1.0
        except ValueError:
            pass
    return mat


def _random_reference(rng):
    modes = []
    for i in range(int(rng.integers(2, 6))):
        if rng.random() < 0.4:
            modes.append(ModeSpec(f"f{i}", "fermion", 1))
        else:
            modes.append(ModeSpec(f"b{i}", "boson", int(rng.integers(0, 3))))
    return build_fock_space(modes, "R")


def _random_frozen(rng, reference, labels):
    return {l: int(rng.integers(0, reference.modes[reference.mode_index(l)].max_occupation + 1))
            for l in labels}


class TestSelectionMapOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_mode_partition_matches_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        ref = _random_reference(rng)
        labels = list(rng.permutation(ref.mode_labels))
        cut1, cut2 = sorted(int(x) for x in rng.integers(0, len(labels) + 1, size=2))
        sub, comp, frozen_labels = labels[:cut1], labels[cut1:cut2], labels[cut2:]
        frozen = _random_frozen(rng, ref, frozen_labels)
        e = mode_partition_embedding(ref, sub, comp, frozen)
        oracle = _selection_oracle(ref, [(e.subsystem, sub), (e.complementer, comp)], frozen)
        assert np.array_equal(e.isometry, oracle)

    @pytest.mark.parametrize("seed", range(60))
    def test_composition_matches_oracle(self, seed):
        ref, parts = _random_composition(seed)
        composed = compose_embeddings(parts, validate=False)
        frozen = {l: n for p in parts for l, n in p.partition.frozen}
        groups = [(p.subsystem, p.partition.subsystem_labels) for p in parts]
        groups.append((composed.complementer, composed.partition.complementer_labels))
        assert np.array_equal(composed.isometry, _selection_oracle(ref, groups, frozen))

    @pytest.mark.parametrize("seed", range(60))
    def test_composition_validity_matches_gram_check(self, seed, monkeypatch):
        _, parts = _random_composition(seed)
        composed = compose_embeddings(parts, validate=False)
        gram = validate_embedding(composed)
        loose = Tolerances(herm=2.0)
        assert validate_embedding(composed, loose).passed

        def refuse(*args, **kwargs):
            raise AssertionError("compose_embeddings built a Gram matrix")
        monkeypatch.setattr(relfock.hilbert, "validate_embedding", refuse)
        monkeypatch.setattr(relfock.composition, "validate_embedding", refuse, raising=False)
        if gram.passed:
            compose_embeddings(parts)
        else:
            with pytest.raises(EmbeddingValidationError) as err:
                compose_embeddings(parts)
            assert err.value.report == gram
        # The Gram check passes any 0/1 map at a tolerance above 1, overlaps included.
        assert np.array_equal(compose_embeddings(parts, tol=loose).isometry, composed.isometry)

    def test_shared_rows_without_missing_image(self):
        # Parts built on a space with the reference's id and dimension but
        # smaller cutoffs: both claim mode a, every sum fits, so two columns
        # share a row while every column has an image.
        ref = build_fock_space([ModeSpec("a", "boson", 3), ModeSpec("z", "boson", 0)], "R")
        other = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        parts = [mode_partition_embedding(ref, ["z"]),
                 mode_partition_embedding(other, ["a"]),
                 mode_partition_embedding(other, ["a"])]
        composed = compose_embeddings(parts, validate=False)
        assert np.abs(composed.isometry).sum(axis=0).min() == 1.0
        gram = validate_embedding(composed)
        assert not gram.passed and gram.max_deviation == 1.0
        with pytest.raises(EmbeddingValidationError) as err:
            compose_embeddings(parts)
        assert err.value.report == gram


def _random_composition(seed):
    """A reference and 1-3 mode-partition parts drawn independently, so they
    often overlap (claim a label twice, or claim a label another part froze);
    compose_embeddings(parts, validate=False) keeps those defective maps, zero
    columns included."""
    rng = np.random.Generator(np.random.PCG64(1000 + seed))
    ref = _random_reference(rng)
    pool = _random_frozen(rng, ref, [l for l in ref.mode_labels if rng.random() < 0.4])
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        frozen = {l: n for l, n in pool.items() if rng.random() < 0.7}
        free = [l for l in rng.permutation(ref.mode_labels) if l not in frozen]
        sub = free[:int(rng.integers(0, len(free) + 1))]
        parts.append(mode_partition_embedding(ref, sub, frozen=frozen))
    return ref, parts


class TestProjectOntoImage:
    def test_state_inside_image(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_embedding(a, b)
        psi = random_state_vector(e.reference, 7)
        comp, deficiency = project_onto_image(psi, e)
        assert deficiency == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(comp, psi.amplitudes)

    def test_orthogonal_state(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("c")], "R")
        e = mode_partition_embedding(sp, ["a"], frozen={"c": 0})
        psi = basis_state(sp, (0, 1))
        _, deficiency = project_onto_image(psi, e)
        assert deficiency == pytest.approx(1.0)

    def test_mixed_state_against_projector_oracle(self):
        # Oracle: deficiency computed from the dense projector V V^dagger.
        psi, e = random_pair(97)
        inside = e.isometry @ (e.isometry.conj().T @ psi.amplitudes)
        nrm = np.linalg.norm(inside)
        inside = inside / nrm
        # an orthogonal direction outside the image (exists because dim R > dim image)
        rngv = random_state_vector(e.reference, 1234).amplitudes
        outside = rngv - e.isometry @ (e.isometry.conj().T @ rngv)
        overlap = np.vdot(inside, outside)
        outside = outside - inside * overlap
        outside /= np.linalg.norm(outside)
        mixed = StateVector(psi.space_id, np.sqrt(0.7) * inside + np.sqrt(0.3) * outside)
        proj = e.isometry @ e.isometry.conj().T
        expected = mixed.norm_sq - float(np.vdot(mixed.amplitudes, proj @ mixed.amplitudes).real)
        _, deficiency = project_onto_image(mixed, e)
        assert deficiency == pytest.approx(expected, abs=1e-12)
        assert deficiency == pytest.approx(0.3, abs=1e-10)

    def test_space_mismatch(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_embedding(a, b)
        with pytest.raises(SpaceMismatchError):
            project_onto_image(random_state_vector(a, 1), e)

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_split_identity(self, seed):
        # |V V^dagger psi|^2 + deficiency = |psi|^2 for random states, dims <= 64.
        psi, e = random_pair(seed * 7 + 3)
        comp, deficiency = project_onto_image(psi, e)
        inside = e.isometry @ comp
        total = float(np.vdot(inside, inside).real) + deficiency
        assert total == pytest.approx(psi.norm_sq, abs=1e-10)


class TestStateConstructors:
    def test_bell_state_components(self):
        sp = build_fock_space([ModeSpec("q0"), ModeSpec("q1")], "R")
        psi = bell_state(sp)
        amps = psi.amplitudes
        assert amps[sp.index_of((0, 0))] == pytest.approx(1 / np.sqrt(2))
        assert amps[sp.index_of((1, 1))] == pytest.approx(1 / np.sqrt(2))
        assert psi.is_normalized()

    def test_random_state_is_normalized_and_seed_stable(self):
        sp = qudit_space(13, "x")
        s1 = random_state_vector(sp, 42)
        s2 = random_state_vector(sp, 42)
        assert s1.is_normalized()
        np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)

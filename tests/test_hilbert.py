"""Spaces, mode operators, charges, tensor products, embeddings."""
from __future__ import annotations

import itertools
import json
from contextlib import nullcontext

import numpy as np
import pytest

from relfock import (
    EmbeddingValidationError,
    FockSpace,
    ModeSpec,
    SpaceMismatchError,
    StateVector,
    Tolerances,
    basis_state,
    bell_state,
    build_fock_space,
    charge_values,
    check_superselection,
    compose_embeddings,
    embedding_from_isometry,
    load_scenario,
    mode_partition_embedding,
    random_isometry_embedding,
    random_state_vector,
    regroup_embedding,
    relational_state,
    run_scenario,
    schmidt_decompose,
    state_from_amplitudes,
    tensor_product,
    validate_embedding,
)
from relfock.composition import _compose
from relfock.hilbert import Embedding, mode_action, pull_back, push_forward
from relfock.superselection import _check_compatibility, sector_decomposition

from conftest import identity_map, mode_matrix, qudit_space, random_pair, raises_exactly


class TestBuildFockSpace:
    def test_single_boson_mode(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        assert sp.dimension == 3
        assert [tuple(row) for row in sp.basis_occupations] == [(0,), (1,), (2,)]

    def test_two_fermion_modes(self):
        sp = build_fock_space([ModeSpec("f1", "fermion"), ModeSpec("f2", "fermion")])
        assert sp.dimension == 4
        assert [tuple(row) for row in sp.basis_occupations] == [(0, 0), (0, 1), (1, 0), (1, 1)]

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
            assert sp.index_of(tuple(sp.basis_occupations[i])) == i
        # and the enumeration is a bijection
        seen = {tuple(row) for row in sp.basis_occupations}
        assert len(seen) == sp.dimension

    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_occupations_match_product_enumeration(self, n_modes):
        sp = build_fock_space([ModeSpec(f"b{i}", "boson", 2) for i in range(n_modes)])
        expected = np.array(list(itertools.product(range(3), repeat=n_modes)), dtype=np.int64)
        occ = sp.basis_occupations
        assert occ.dtype == np.int64 and not occ.flags.writeable
        assert np.array_equal(occ, expected)
        assert [sp.index_of(row) for row in expected] == list(range(sp.dimension))

    def test_charge_reach_beyond_int64_rejected(self):
        big = 2 ** 62
        modes = [ModeSpec("a", "boson", 1, {"lepton": big}),
                 ModeSpec("b", "boson", 2, {"electric": -big, "lepton": 1})]
        with pytest.raises(ValueError) as info:
            build_fock_space(modes, "S")
        assert str(info.value) == f"total electric charge in space 'S' can reach {2 * big}," \
            " outside int64"
        assert build_fock_space(modes[:1], "S").dimension == 2

    def test_trivial_space_has_one_empty_occupation(self):
        sp = FockSpace("T", ())
        expected = np.array(list(itertools.product()), dtype=np.int64).reshape(1, 0)
        assert sp.dimension == 1
        assert sp.basis_occupations.shape == (1, 0)
        assert np.array_equal(sp.basis_occupations, expected)
        assert tuple(sp.basis_occupations[0]) == () and sp.index_of(()) == 0
        for kind in ("electric", "baryon", "lepton"):
            assert np.array_equal(charge_values(sp, kind), np.zeros(1, dtype=np.int64))


class TestLadderOperators:
    def test_boson_annihilate_top_state(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        a = mode_matrix(sp, "a", "annihilate")
        out = a @ basis_state(sp, (2,)).amplitudes
        expected = np.sqrt(2) * basis_state(sp, (1,)).amplitudes
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_boson_create_truncates_at_top(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        adag = mode_matrix(sp, "a", "create")
        out = adag @ basis_state(sp, (2,)).amplitudes
        assert np.all(out == 0)

    def test_fermion_sign_matches_brute_force(self):
        # Oracle: build both operators on 2 fermion modes directly from the
        # occupation rule c2^dag |n1, n2> = (-1)^n1 sqrt(1) |n1, n2+1>.
        sp = build_fock_space([ModeSpec("f1", "fermion"), ModeSpec("f2", "fermion")])
        expected = np.zeros((4, 4), dtype=complex)
        for idx in range(4):
            n1, n2 = sp.basis_occupations[idx]
            if n2 == 0:
                expected[sp.index_of((n1, 1)), idx] = (-1.0) ** n1
        built = mode_matrix(sp, "f2", "create")
        np.testing.assert_allclose(built, expected, atol=1e-15)
        # the documented example: creating mode 2 on |1,0> picks up the sign
        out = built @ basis_state(sp, (1, 0)).amplitudes
        np.testing.assert_allclose(out, -basis_state(sp, (1, 1)).amplitudes)

    def test_fermion_anticommutation(self):
        sp = build_fock_space([ModeSpec("f1", "fermion"), ModeSpec("f2", "fermion")])
        c1 = mode_matrix(sp, "f1", "annihilate")
        c2 = mode_matrix(sp, "f2", "annihilate")
        anti = c1 @ c2 + c2 @ c1
        np.testing.assert_allclose(anti, 0, atol=1e-15)
        anti_dag = c1 @ c2.conj().T + c2.conj().T @ c1
        np.testing.assert_allclose(anti_dag, 0, atol=1e-15)

    def test_unknown_mode_label(self):
        sp = build_fock_space([ModeSpec("a", "boson", 1)])
        with pytest.raises(ValueError, match="no mode"):
            mode_action(sp, "zz", "annihilate")

    def test_commutator_identity_below_cutoff(self):
        # [a, a^dag] = 1 on every basis state below the cutoff, and
        # 1 - (max+1) = -max on the top state: truncation breaks it only there.
        sp = build_fock_space([ModeSpec("a", "boson", 3)])
        a = mode_matrix(sp, "a", "annihilate")
        comm = a @ a.conj().T - a.conj().T @ a
        diag = np.real(np.diag(comm))
        np.testing.assert_allclose(diag[:-1], 1.0, atol=1e-14)
        assert diag[-1] == pytest.approx(-3.0)


class TestChargeOperators:
    def test_additive_eigenvalue(self):
        sp = build_fock_space([ModeSpec("e-", "boson", 2, {"electric": -1})])
        q = charge_values(sp, "electric")
        state = basis_state(sp, (2,))
        np.testing.assert_allclose(q * state.amplitudes, -2 * state.amplitudes)

    def test_all_zero_charges_give_zero_operator(self):
        sp = build_fock_space([ModeSpec("a", "boson", 2)])
        assert np.all(charge_values(sp, "electric") == 0)

    def test_pair_state_is_neutral(self):
        sp = build_fock_space([
            ModeSpec("e-", "fermion", 1, {"electric": -1}),
            ModeSpec("e+", "fermion", 1, {"electric": 1}),
        ])
        q = charge_values(sp, "electric")
        state = basis_state(sp, (1, 1))
        np.testing.assert_allclose(q * state.amplitudes, 0 * state.amplitudes)

    def test_unknown_kind_rejected(self):
        sp = build_fock_space([ModeSpec("a")])
        with pytest.raises(ValueError, match="charge kind"):
            charge_values(sp, "color")

    def test_commutes_with_number_operators(self):
        sp = build_fock_space([
            ModeSpec("a", "boson", 2, {"electric": 1}),
            ModeSpec("b", "boson", 1, {"electric": -1, "baryon": 1}),
        ])
        q = np.diag(charge_values(sp, "electric").astype(np.complex128))
        for label in ("a", "b"):
            n = mode_matrix(sp, label, "number")
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
                occ = sp.basis_occupations[i]
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
        # The product space lists (a, b) pairs A-major, so A (x) B embeds into
        # it by the identity map.
        a = qudit_space(2, "a")
        b = qudit_space(3, "b")
        r = tensor_product(a, b)
        assert r.space_id == "qudit-a(x)qudit-b" and r.mode_labels == ("a", "b")
        occ_a, occ_b, occ_r = a.basis_occupations, b.basis_occupations, r.basis_occupations
        for i, j in itertools.product(range(2), range(3)):
            assert tuple(occ_r[i * 3 + j]) == tuple(occ_a[i]) + tuple(occ_b[j])
        np.testing.assert_array_equal(identity_map(a, b).isometry, np.eye(6))

    def test_operator_product_factorizes(self):
        # A mode operator of each factor, applied on the product space, acts
        # on a product state factor by factor.
        a = qudit_space(2, "a")
        b = qudit_space(2, "b")
        r = tensor_product(a, b)
        psi_a = random_state_vector(a, 3)
        psi_b = random_state_vector(b, 4)
        xy = mode_matrix(r, "a", "create") @ mode_matrix(r, "b", "annihilate")
        lhs = xy @ tensor_product(psi_a, psi_b).amplitudes
        rhs = tensor_product(
            StateVector(a.space_id, mode_matrix(a, "a", "create") @ psi_a.amplitudes),
            StateVector(b.space_id, mode_matrix(b, "b", "annihilate") @ psi_b.amplitudes))
        np.testing.assert_allclose(lhs, rhs.amplitudes, atol=1e-14)

    def test_kind_mismatch(self):
        a = qudit_space(2, "a")
        with pytest.raises(TypeError, match="kinds must match"):
            tensor_product(a, basis_state(a, (0,)))


class TestEmbeddings:
    def test_identity_embedding_validates_exactly(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        report = validate_embedding(identity_map(a, b))
        assert report.passed and report.max_deviation == 0.0

    def test_scaled_column_fails_with_expected_deviation(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
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
        assert relational_state(psi_in, e).trace_deficit == pytest.approx(0.0, abs=1e-12)
        psi_out = basis_state(sp, (0, 0, 1))
        assert relational_state(psi_out, e).trace_deficit == pytest.approx(1.0)

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
            for label, n in zip(labels, space.basis_occupations[i]):
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


def _random_partition(seed):
    """A reference and a mode partition of it with permuted subsystem,
    complementer and frozen label sets and random frozen occupations."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ref = _random_reference(rng)
    labels = list(rng.permutation(ref.mode_labels))
    cut1, cut2 = sorted(int(x) for x in rng.integers(0, len(labels) + 1, size=2))
    sub, comp, frozen_labels = labels[:cut1], labels[cut1:cut2], labels[cut2:]
    frozen = _random_frozen(rng, ref, frozen_labels)
    return ref, mode_partition_embedding(ref, sub, comp, frozen)


class TestSelectionMapOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_mode_partition_matches_oracle(self, seed):
        ref, e = _random_partition(seed)
        sub, comp = e.partition.subsystem_labels, e.partition.complementer_labels
        frozen = dict(e.partition.frozen)
        oracle = _selection_oracle(ref, [(e.subsystem, sub), (e.complementer, comp)], frozen)
        assert np.array_equal(e.isometry, oracle)

    @pytest.mark.parametrize("seed", range(60))
    def test_composition_matches_oracle(self, seed):
        ref, parts = _random_composition(seed)
        composed = _compose(parts)
        frozen = {l: n for p in parts for l, n in p.partition.frozen}
        groups = [(p.subsystem, p.partition.subsystem_labels) for p in parts]
        groups.append((composed.complementer, composed.partition.complementer_labels))
        assert np.array_equal(composed.isometry, _selection_oracle(ref, groups, frozen))

    @pytest.mark.parametrize("seed", range(60))
    def test_composition_validity_matches_gram_check(self, seed, monkeypatch):
        _, parts = _random_composition(seed)
        composed = _compose(parts)
        gram = validate_embedding(composed)
        loose = Tolerances(herm=2.0)
        assert validate_embedding(composed, loose).passed
        # A mode one part claims and another freezes is refused after the Gram check.
        claimed = {l for p in parts for l in p.partition.subsystem_labels}
        clash = any(l in claimed for p in parts for l, _ in p.partition.frozen)
        refused = pytest.raises(ValueError, match="claimed by one part and frozen by another")

        def returned(tol):
            # Every map compose_embeddings returns is valid at the caller's tol,
            # claims no frozen label, and is the unchecked map.
            got = compose_embeddings(parts, tol=tol)
            assert validate_embedding(got, tol).passed
            assert not {l for l, _ in got.partition.frozen} & set(got.partition.subsystem_labels)
            assert np.array_equal(got.rows, composed.rows)

        def refuse(self):
            raise AssertionError("compose_embeddings read a dense isometry for a Gram check")
        monkeypatch.setattr(Embedding, "isometry", property(refuse))
        if not gram.passed:
            with pytest.raises(EmbeddingValidationError) as err:
                returned(Tolerances())
            assert err.value.report == gram
        else:
            with refused if clash else nullcontext():
                returned(Tolerances())
        # The Gram check passes any 0/1 map at a tolerance above 1, overlaps included.
        with refused if clash else nullcontext():
            returned(loose)

    def test_shared_rows_without_missing_image(self):
        # Parts built on a space with the reference's id and dimension but
        # smaller cutoffs: both claim mode a, every sum fits, so two columns
        # share a row while every column has an image.
        ref = build_fock_space([ModeSpec("a", "boson", 3), ModeSpec("z", "boson", 0)], "R")
        other = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        parts = [mode_partition_embedding(ref, ["z"]),
                 mode_partition_embedding(other, ["a"]),
                 mode_partition_embedding(other, ["a"])]
        composed = _compose(parts)
        assert np.abs(composed.isometry).sum(axis=0).min() == 1.0
        gram = validate_embedding(composed)
        assert not gram.passed and gram.max_deviation == 1.0
        with pytest.raises(EmbeddingValidationError) as err:
            compose_embeddings(parts)
        assert err.value.report == gram


def _random_composition(seed):
    """A reference and 1-3 mode-partition parts drawn independently, so they
    often overlap (claim a label twice, or claim a label another part froze);
    _compose(parts) keeps those defective maps, zero
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


def _charged(ref, seed):
    """ref with random electric and lepton charges on every mode."""
    rng = np.random.Generator(np.random.PCG64(5000 + seed))
    modes = [ModeSpec(m.label, m.statistics, m.max_occupation,
                      {"electric": int(rng.integers(-2, 3)), "lepton": int(rng.integers(-1, 2))})
             for m in ref.modes]
    return build_fock_space(modes, ref.space_id)


def _on(reference, part):
    """The mode partition part, rebuilt on a reference with the same modes."""
    p = part.partition
    return mode_partition_embedding(reference, p.subsystem_labels, p.complementer_labels,
                                    dict(p.frozen))


def _dense_twin(e):
    """The same map as an explicit isometry, which takes the dense paths."""
    return Embedding(e.subsystem, e.complementer, e.reference, e.isometry)


def _states(reference, seed):
    """A random unit state and a unit state whose other entries are zeros of
    every sign: one amplitude per 0/1 column must keep them as the dense
    product does."""
    rng = np.random.Generator(np.random.PCG64(7000 + seed))
    d = reference.dimension
    zeros = np.array([complex(re, im) for re, im in rng.choice([0.0, -0.0], size=(d, 2))])
    amps = np.where(rng.random(d) < 0.5, rng.standard_normal(d) + 1j * rng.standard_normal(d),
                    zeros)
    amps[0] = 1.0
    return [random_state_vector(reference, seed), StateVector(reference.space_id,
                                                              amps / np.linalg.norm(amps))]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _outcome(fn, *args):
    """(None, fn(*args)), or (the type and message of what it raised, None)."""
    try:
        return None, fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc)), None


def _index_map_case(source, seed):
    """One of the random partitions or compositions (with missing and shared
    rows) rebuilt on a charged reference, and the factors of a composition."""
    if source == "partition":
        ref, e = _random_partition(seed)
        return _on(_charged(ref, seed), e), None
    ref, parts = _random_composition(seed)
    charged = _charged(ref, 100 + seed)
    parts = [_on(charged, p) for p in parts]
    return _compose(parts), [p.subsystem for p in parts]


def _compatibility(e, kind):
    """The charge compatibility check that check_superselection runs first."""
    _check_compatibility(e, sector_decomposition(e.reference, kind), Tolerances())


def _same_or_close(valid, x, y):
    """Bit equality on an isometry, where V phi places each amplitude alone;
    closeness on a map with a zero column or a shared row, where the dense
    product sums columns in its own order."""
    return _same_bits(x, y) if valid else np.allclose(x, y, rtol=0.0, atol=1e-12)


class TestIndexMapOracle:
    """Every index-map path against the dense path on the same map: results
    must agree bit for bit, signed zeros included, or raise alike. Only
    pushing forward through a map that fails validation may differ, by
    rounding."""

    @pytest.mark.parametrize("source, seed", [("partition", seed) for seed in range(40)]
                             + [("composition", seed) for seed in range(60)])
    def test_matches_dense_twin(self, source, seed):
        e, factors = _index_map_case(source, seed)
        twin = _dense_twin(e)
        assert e.rows is not None and twin.rows is None
        report = validate_embedding(e)
        assert report == validate_embedding(twin)
        for kind in ("electric", "lepton"):
            assert _outcome(_compatibility, e, kind) == _outcome(_compatibility, twin, kind)
        for psi in _states(e.reference, seed):
            assert _same_bits(pull_back(psi, e), pull_back(psi, twin))
            phi = pull_back(psi, e).reshape(-1)
            assert _same_or_close(report.passed, push_forward(phi, e), push_forward(phi, twin))
            dec, ref_dec = schmidt_decompose(psi, e), schmidt_decompose(psi, twin)
            assert _same_or_close(report.passed, dec.residual.amplitudes,
                                  ref_dec.residual.amplitudes)
            assert _same_or_close(report.passed, dec.residual_norm_sq, ref_dec.residual_norm_sq)
            assert dec.coefficients == ref_dec.coefficients
            for factor in ("A", "B"):
                rho, dense_rho = (relational_state(psi, x, factor) for x in (e, twin))
                assert _same_bits(rho.matrix, dense_rho.matrix)
                assert rho.trace_deficit == dense_rho.trace_deficit
            for kind in ("electric", "lepton"):
                got, want = (_outcome(check_superselection, psi, x, kind) for x in (e, twin))
                assert got == want
        if factors is not None:
            for keep in [[i] for i in range(len(factors))] + [list(range(len(factors)))[::-1]]:
                (err, regrouped), (dense_err, dense) = (
                    _outcome(regroup_embedding, x, factors, keep) for x in (e, twin))
                assert err == dense_err  # overlapping factors repeat a label
                if err is not None:
                    continue
                assert regrouped.rows is not None and dense.rows is None
                assert regrouped.subsystem == dense.subsystem
                assert regrouped.complementer == dense.complementer
                assert _same_bits(regrouped.isometry, dense.isometry)

    def test_shared_rows_match_dense_twin(self):
        ref = build_fock_space([ModeSpec("a", "boson", 3), ModeSpec("z", "boson", 0)], "R")
        other = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        parts = [mode_partition_embedding(ref, ["z"]),
                 mode_partition_embedding(other, ["a"]),
                 mode_partition_embedding(other, ["a"])]
        e = _compose(parts)
        twin = _dense_twin(e)
        assert validate_embedding(e) == validate_embedding(twin)
        assert not validate_embedding(e).passed
        psi = random_state_vector(ref, 3)
        phi = pull_back(psi, e).reshape(-1)
        pushed = push_forward(phi, e)
        assert np.allclose(pushed, push_forward(phi, twin), rtol=0.0, atol=1e-12)
        # Columns (a=0, a=1) and (a=1, a=0) share the row a=1: their amplitudes add.
        assert pushed[ref.index_of((1, 0))] == phi[1] + phi[2]
        rho, dense_rho = (relational_state(psi, x) for x in (e, twin))
        assert _same_bits(rho.matrix, dense_rho.matrix)
        assert rho.trace_deficit == dense_rho.trace_deficit


class TestIndexMapEmbedding:
    def test_mode_partition_keeps_no_matrix_until_read(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b"), ModeSpec("c")], "R")
        e = mode_partition_embedding(sp, ["a"], frozen={"c": 1})
        assert "isometry" not in e.__dict__
        assert e.rows.dtype == np.int64 and not e.rows.flags.writeable
        assert e.rows.tolist() == [sp.index_of((a, b, 1)) for a in (0, 1) for b in (0, 1)]
        assert validate_embedding(e).passed
        assert "isometry" not in e.__dict__
        mat = e.isometry
        assert e.isometry is mat and not mat.flags.writeable
        assert np.array_equal(mat, _selection_oracle(sp, [(e.subsystem, ["a"]),
                                                          (e.complementer, ["b"])], {"c": 1}))

    def test_identity_embedding_is_an_index_map(self):
        a, b = qudit_space(2, "a"), qudit_space(3, "b")
        e = identity_map(a, b)
        assert e.rows.tolist() == list(range(6))
        assert np.array_equal(e.isometry, np.eye(6))

    def test_explicit_isometry_has_no_rows(self):
        e = random_isometry_embedding(qudit_space(2, "a"), qudit_space(2, "b"),
                                      qudit_space(5, "r"), seed=2)
        assert e.rows is None and e.isometry.shape == (5, 4)

    def test_embeddings_compare_by_identity(self):
        a, b, r = qudit_space(2, "a"), qudit_space(2, "b"), qudit_space(5, "r")
        e1, e2 = (random_isometry_embedding(a, b, r, seed=s) for s in (1, 2))
        assert e1 == e1 and e1 != e2 and hash(e1) != hash(e2)
        sp = build_fock_space([ModeSpec("x"), ModeSpec("y")], "R")
        p1, p2 = (mode_partition_embedding(sp, ["x"]) for _ in range(2))
        assert p1 != p2 and len({e1, e2, p1, p2}) == 4

    def test_exactly_one_form(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        r = tensor_product(a, b)
        with pytest.raises(ValueError, match="exactly one"):
            Embedding(a, b, r)
        with pytest.raises(ValueError, match="exactly one"):
            Embedding(a, b, r, np.eye(4), rows=np.arange(4))

    @pytest.mark.parametrize("rows", [[0, 1, 2], [0, 1, 2, 4], [0, 1, 2, -2]])
    def test_index_map_must_fit_the_spaces(self, rows):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        with pytest.raises(SpaceMismatchError):
            Embedding(a, b, tensor_product(a, b), rows=rows)

    def test_writable_rows_are_copied(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        rows = np.arange(4)
        e = Embedding(a, b, tensor_product(a, b), rows=rows)
        rows[0] = 3
        assert e.rows[0] == 0 and not e.rows.flags.writeable


_GUARD_SCENARIO = {
    "schema": "relfock.scenario/1",
    "spaces": [{"id": "R", "modes": [
        {"label": f"f{i}", "statistics": "fermion", "charges": {"electric": (-1) ** i}}
        if i % 2 == 0 else {"label": f"b{i}"} for i in range(8)]}],
    "states": [{"name": "psi", "space": "R", "kind": "random", "seed": 4},
               {"name": "neutral", "space": "R", "kind": "basis",
                "occupations": [1, 0, 1, 0, 0, 1, 0, 0]}],
    "embeddings": [
        {"name": "frozen", "reference": "R", "subsystem_modes": ["f0", "b1"],
         "frozen": {"b3": 0}},
        {"name": "mid", "reference": "R", "subsystem_modes": ["f2", "f4"]},
        {"name": "last", "reference": "R", "subsystem_modes": ["b5", "f6", "b7"]},
    ],
    "hamiltonians": [{"name": "H", "space": "R", "terms": [
        {"coefficient": 0.4, "factors": [["create", "f0"], ["annihilate", "f2"]]},
        {"coefficient": 0.4, "factors": [["create", "f2"], ["annihilate", "f0"]]},
        {"coefficient": 0.3, "factors": [["number", "b3"]]}]}],
    "tasks": [
        {"command": "reduce", "name": "reduce-a", "state": "psi", "embedding": "frozen"},
        {"command": "reduce", "name": "reduce-b", "state": "psi", "embedding": "mid",
         "factor": "B"},
        {"command": "spectrum", "name": "spectrum", "state": "psi", "embedding": "frozen"},
        {"command": "schmidt", "name": "schmidt", "state": "psi", "embedding": "frozen"},
        {"command": "joint", "name": "joint", "state": "psi",
         "embeddings": ["frozen", "mid", "last"]},
        {"command": "check-ssr", "name": "ssr", "state": "neutral", "embedding": "mid",
         "kind": "electric"},
        {"command": "sample", "name": "sample", "state": "psi", "embedding": "last",
         "count": 20, "seed": 1},
        {"command": "trace-trajectory", "name": "trajectory", "state": "neutral",
         "hamiltonian": "H", "embedding": "frozen", "times": [0.0, 0.5, 1.0],
         "charge_kinds": ["electric"]},
    ],
}


def test_mode_partition_scenario_builds_no_dense_selection_matrix(tmp_path, monkeypatch):
    path = tmp_path / "partitions.json"
    path.write_text(json.dumps(_GUARD_SCENARIO))
    expected = run_scenario(load_scenario(path)).to_machine_bytes()

    def refuse(self):
        raise AssertionError(f"dense {self.reference.dimension} x {self.image_dimension}"
                             " selection matrix built")
    monkeypatch.setattr(Embedding, "isometry", property(refuse))
    report = run_scenario(load_scenario(path))
    assert [t.status for t in report.tasks] == ["ok"] * len(_GUARD_SCENARIO["tasks"])
    assert report.to_machine_bytes() == expected


class TestProjectOntoImage:
    """A reference state splits into its image component V^dagger psi
    (pull_back) and the weight outside the image (the trace deficit)."""

    def test_state_inside_image(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
        psi = random_state_vector(e.reference, 7)
        assert relational_state(psi, e).trace_deficit == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(pull_back(psi, e).reshape(-1), psi.amplitudes)

    def test_orthogonal_state(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("c")], "R")
        e = mode_partition_embedding(sp, ["a"], frozen={"c": 0})
        psi = basis_state(sp, (0, 1))
        assert relational_state(psi, e).trace_deficit == pytest.approx(1.0)

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
        deficiency = relational_state(mixed, e).trace_deficit
        assert deficiency == pytest.approx(expected, abs=1e-12)
        assert deficiency == pytest.approx(0.3, abs=1e-10)

    def test_space_mismatch(self):
        a, b = qudit_space(2, "a"), qudit_space(2, "b")
        e = identity_map(a, b)
        with pytest.raises(SpaceMismatchError):
            pull_back(random_state_vector(a, 1), e)
        with pytest.raises(SpaceMismatchError):
            relational_state(random_state_vector(a, 1), e)

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_split_identity(self, seed):
        # |V V^dagger psi|^2 + trace deficit = |psi|^2 for random states, dims <= 64.
        psi, e = random_pair(seed * 7 + 3)
        inside = e.isometry @ pull_back(psi, e).reshape(-1)
        total = float(np.vdot(inside, inside).real) + relational_state(psi, e).trace_deficit
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


class TestInputChecks:
    def test_index_of_needs_one_occupation_per_mode(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        with raises_exactly(ValueError, "expected 2 occupation numbers, got 1"):
            sp.index_of((0,))

    def test_state_vector_must_be_one_dimensional(self):
        with raises_exactly(ValueError, "amplitudes must be a one-dimensional vector"):
            StateVector("R", np.zeros((2, 2)))

    @pytest.mark.parametrize("index", [-1, 4])
    def test_basis_index_must_be_in_range(self, index):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        with raises_exactly(ValueError, f"basis index {index} out of range"):
            basis_state(sp, index)

    def test_amplitudes_must_match_the_dimension(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        with raises_exactly(SpaceMismatchError,
                            "expected 4 amplitudes for space 'R', got (3,)"):
            state_from_amplitudes(sp, [1, 0, 0])

    def test_bell_pair_states_must_differ(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        with raises_exactly(ValueError, "the two basis states must differ"):
            bell_state(sp, ((1, 0), (1, 0)))

    def test_frozen_occupation_must_be_in_range(self):
        sp = build_fock_space([ModeSpec("a"), ModeSpec("b")], "R")
        with raises_exactly(ValueError, "frozen occupation 2 out of range for mode 'b'"):
            mode_partition_embedding(sp, ["a"], frozen={"b": 2})

    def test_charge_kind_must_be_known(self):
        with raises_exactly(ValueError, "mode 'a': unknown charge kind 'colour'"):
            ModeSpec("a", charges={"colour": 1})
        with raises_exactly(ValueError, "unknown charge kind 'colour'"):
            ModeSpec("a", charges={"electric": 1}).charge("colour")

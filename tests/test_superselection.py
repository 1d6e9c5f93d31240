"""Charge sectors and block-diagonality of reduced states."""
from __future__ import annotations

import numpy as np
import pytest

from relfock import (
    CHARGE_KINDS,
    ChargeCompatibilityError,
    ModeSpec,
    StateVector,
    basis_state,
    bell_state,
    build_fock_space,
    charge_values,
    check_embedding_charge_compatibility,
    check_superselection,
    embedding_from_isometry,
    evolve,
    is_charge_eigenstate,
    mode_partition_embedding,
    sector_decomposition,
)

from conftest import qudit_space
from test_dynamics import pair_annihilation_model


def electron_positron_space():
    return build_fock_space([
        ModeSpec("e-", "fermion", 1, {"electric": -1, "lepton": 1}),
        ModeSpec("e+", "fermion", 1, {"electric": 1, "lepton": -1}),
    ], "EP")


def charged_playground(space_id="P"):
    return build_fock_space([
        ModeSpec("u", "boson", 2, {"electric": 2, "baryon": 1}),
        ModeSpec("d", "boson", 1, {"electric": -1, "baryon": 1}),
        ModeSpec("l", "fermion", 1, {"electric": -1, "lepton": 1}),
        ModeSpec("n", "boson", 1),
    ], space_id)


class TestSectorDecomposition:
    def test_electron_positron_sectors(self):
        sp = electron_positron_space()
        dec = sector_decomposition(sp, "electric")
        expected = {
            -1: (sp.index_of((1, 0)),),
            0: (sp.index_of((0, 0)), sp.index_of((1, 1))),
            1: (sp.index_of((0, 1)),),
        }
        assert dict(dec.sectors) == expected

    def test_chargeless_space_single_sector(self):
        sp = qudit_space(5, "a")
        dec = sector_decomposition(sp, "baryon")
        assert dec.charges == (0,)
        assert dec.indices(0) == tuple(range(5))

    def test_partition_matches_per_state_recount(self):
        # Oracle: recompute each basis state's charge independently.
        sp = charged_playground()
        for kind in CHARGE_KINDS:
            dec = sector_decomposition(sp, kind)
            all_indices = sorted(i for _, idx in dec.sectors for i in idx)
            assert all_indices == list(range(sp.dimension))
            for q, idx in dec.sectors:
                for i in idx:
                    occ = sp.occupation_of(i)
                    assert sum(n * m.charge(kind) for n, m in zip(occ, sp.modes)) == q


class TestIsChargeEigenstate:
    def test_single_basis_state(self):
        sp = electron_positron_space()
        dec = sector_decomposition(sp, "electric")
        assert is_charge_eigenstate(basis_state(sp, (1, 1)), dec) == 0

    def test_same_sector_superposition(self):
        sp = electron_positron_space()
        dec = sector_decomposition(sp, "electric")
        assert is_charge_eigenstate(bell_state(sp), dec) == 0

    def test_cross_sector_superposition_is_none(self):
        sp = electron_positron_space()
        amps = np.zeros(4, dtype=complex)
        amps[sp.index_of((0, 0))] = 1 / np.sqrt(2)
        amps[sp.index_of((0, 1))] = 1 / np.sqrt(2)
        dec = sector_decomposition(sp, "electric")
        assert is_charge_eigenstate(StateVector(sp.space_id, amps), dec) is None


class TestCheckSuperselection:
    def test_charge_eigenstate_passes(self):
        sp = electron_positron_space()
        e = mode_partition_embedding(sp, ["e-"])
        report = check_superselection(bell_state(sp), e, "electric")
        assert report.applicable and report.passed
        assert report.reference_charge == 0
        assert report.off_block_max < 1e-12

    def test_engineered_counterexample_fails_visibly(self):
        # (|00> + |11> + |01>)/sqrt(3) with a charged subsystem mode: the
        # reference straddles sectors and the reduced state picks up an
        # off-sector element of 1/3.
        sp = build_fock_space([
            ModeSpec("a", "boson", 1, {"electric": -1}),
            ModeSpec("b", "boson", 1),
        ], "CX")
        amps = np.zeros(4, dtype=complex)
        for occ in ((0, 0), (1, 1), (0, 1)):
            amps[sp.index_of(occ)] = 1 / np.sqrt(3)
        psi = StateVector(sp.space_id, amps)
        e = mode_partition_embedding(sp, ["a"])
        report = check_superselection(psi, e, "electric")
        assert not report.applicable
        assert report.reference_charge is None
        assert not report.passed
        assert report.off_block_max == pytest.approx(1 / 3, abs=1e-12)
        assert report.off_block_max > 0.1

    def test_holds_along_charge_conserving_evolution(self):
        space, h, psi0, embedding = pair_annihilation_model(g=0.8)
        # the t = 0 check is the oracle; conservation carries it to all times
        assert check_superselection(psi0, embedding, "electric").passed
        for t in np.linspace(0.0, 3.0, 7):
            psi_t = evolve(psi0, h, t)
            report = check_superselection(psi_t, embedding, "electric")
            assert report.applicable and report.passed, f"failed at t={t}"

    def test_incompatible_embedding_rejected(self):
        sp = build_fock_space([
            ModeSpec("a", "boson", 1, {"electric": 1}),
            ModeSpec("b", "boson", 1),
        ], "IC")
        a_space = qudit_space(2, "x", "Xs")
        b_space = qudit_space(2, "y", "Ys")
        # a Hadamard-like rotation mixes the two charge sectors
        had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mat = np.kron(had, np.eye(2)).astype(complex)
        e = embedding_from_isometry(a_space, b_space, sp, mat)
        with pytest.raises(ChargeCompatibilityError):
            check_superselection(basis_state(sp, (0, 0)), e, "electric")

    def test_mode_partitions_are_compatible(self):
        sp = charged_playground()
        for labels in (["u"], ["d", "l"], ["u", "n"]):
            e = mode_partition_embedding(sp, labels)
            for kind in CHARGE_KINDS:
                check_embedding_charge_compatibility(e, kind)


def random_sector_state(space, dec, rng) -> StateVector | None:
    charges = [q for q, idx in dec.sectors if len(idx) >= 2]
    if not charges:
        return None
    q = charges[rng.integers(0, len(charges))]
    idx = list(dec.indices(q))
    amps = np.zeros(space.dimension, dtype=complex)
    amps[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    amps /= np.linalg.norm(amps)
    return StateVector(space.space_id, amps)


def sector_block_rotation(space, dec, rng) -> np.ndarray:
    """A random unitary that is block-diagonal over the space's sectors."""
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    for _, idx in dec.sectors:
        idx = list(idx)
        g = rng.standard_normal((len(idx), len(idx))) \
            + 1j * rng.standard_normal((len(idx), len(idx)))
        q, _ = np.linalg.qr(g)
        mat[np.ix_(idx, idx)] = q
    return mat


class TestRandomizedTheorem:
    def test_many_random_eigenstates_and_embeddings(self):
        sp = charged_playground("PR")
        rng = np.random.Generator(np.random.PCG64(515151))
        labels = list(sp.mode_labels)
        checked = 0
        for trial in range(60):
            kind = CHARGE_KINDS[trial % 3]
            dec = sector_decomposition(sp, kind)
            psi = random_sector_state(sp, dec, rng)
            if psi is None:
                continue
            k = int(rng.integers(1, len(labels)))
            subset = list(rng.permutation(labels)[:k])
            e = mode_partition_embedding(sp, subset)
            if trial % 2:
                rotated = sector_block_rotation(sp, dec, rng) @ e.isometry
                e = embedding_from_isometry(e.subsystem, e.complementer, sp, rotated)
            report = check_superselection(psi, e, kind)
            assert report.applicable and report.passed, (trial, kind, subset)
            checked += 1
        assert checked >= 50

    def test_simultaneous_eigenstate_passes_all_kinds(self):
        sp = charged_playground("PS")
        # group basis indices by the full charge triple and pick a fat one
        triples = {}
        for i in range(sp.dimension):
            key = tuple(int(charge_values(sp, kind)[i]) for kind in CHARGE_KINDS)
            triples.setdefault(key, []).append(i)
        key, idx = max(triples.items(), key=lambda kv: len(kv[1]))
        assert len(idx) >= 2
        rng = np.random.Generator(np.random.PCG64(99))
        amps = np.zeros(sp.dimension, dtype=complex)
        amps[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        amps /= np.linalg.norm(amps)
        psi = StateVector(sp.space_id, amps)
        e = mode_partition_embedding(sp, ["u", "l"])
        for kind in CHARGE_KINDS:
            report = check_superselection(psi, e, kind)
            assert report.applicable and report.passed

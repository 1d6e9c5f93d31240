"""Charge sectors and block-diagonality of reduced states."""
from __future__ import annotations

import numpy as np
import pytest

from relfock import (
    CHARGE_KINDS,
    ChargeCompatibilityError,
    Embedding,
    FockSpace,
    ModeSpec,
    StateVector,
    Tolerances,
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
from relfock.hilbert import column_charges

from conftest import qudit_space
from test_dynamics import pair_annihilation_model
from test_hilbert import _dense_twin, _index_map_case, _outcome, _states


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


def _sectors_reference(space, kind):
    """(charge, basis indices) per sector, grouped by a dict over the basis."""
    by_charge: dict[int, list[int]] = {}
    for i, q in enumerate(charge_values(space, kind)):
        by_charge.setdefault(int(q), []).append(i)
    return tuple((q, tuple(by_charge[q])) for q in sorted(by_charge))


def _eigenstate_reference(psi, sectors, tol):
    """The first sector, charge ascending, holding all but tol.norm of the weight."""
    weights = np.abs(psi.amplitudes) ** 2
    total = float(weights.sum())
    if total == 0.0:
        return None
    for q, idx in sectors:
        if total - float(weights[list(idx)].sum()) < tol.norm:
            return q
    return None


def _compatibility_reference(e, kind, tol=Tolerances()):
    """Charge compatibility by a per-sector sum over explicit columns and two
    dict scans over the columns in order."""
    col_charge = column_charges(e, kind)
    if col_charge is None:
        sectors = _sectors_reference(e.reference, kind)
        weights = np.abs(e.isometry) ** 2
        n_cols = weights.shape[1]
        sector_weight = np.stack([weights[list(idx), :].sum(axis=0) for _, idx in sectors])
        best = np.argmax(sector_weight, axis=0)
        off = weights.sum(axis=0) - sector_weight[best, np.arange(n_cols)]
        if float(off.max()) >= tol.norm:
            col = int(np.argmax(off))
            raise ChargeCompatibilityError(
                f"embedding column {col} has weight {float(off[col]):g} outside a single"
                f" {kind} sector of {e.reference_id!r}"
            )
        col_charge = np.array([q for q, _ in sectors], dtype=np.int64)[best]
    totals = (charge_values(e.subsystem, kind)[:, None]
              + charge_values(e.complementer, kind)[None, :]).reshape(-1)
    total_to_sector: dict[int, int] = {}
    for total, sector in zip(totals, col_charge):
        if total_to_sector.setdefault(int(total), int(sector)) != int(sector):
            raise ChargeCompatibilityError(
                f"columns with total {kind} charge {int(total)} land in different"
                f" reference sectors"
            )
    seen: dict[int, int] = {}
    for total, sector in total_to_sector.items():
        if seen.setdefault(sector, total) != total:
            raise ChargeCompatibilityError(
                f"distinct total {kind} charges {seen[sector]} and {total} land in the"
                f" same reference sector"
            )


def _random_charged_space(rng, space_id, n_min, n_max):
    modes = []
    for i in range(int(rng.integers(n_min, n_max + 1))):
        charges = {"electric": int(rng.integers(-2, 3)), "lepton": int(rng.integers(-1, 2))}
        if rng.random() < 0.3:
            modes.append(ModeSpec(f"f{i}", "fermion", 1, charges))
        else:
            modes.append(ModeSpec(f"b{i}", "boson", int(rng.integers(0, 3)), charges))
    return build_fock_space(modes, space_id)


def _random_zero_one_isometry(seed):
    """A 0/1 isometry between random charged spaces, as an explicit matrix.

    Odd seeds send each column to a random free row. Even seeds first map each
    subsystem-plus-complementer total to a random electric sector, not
    necessarily a distinct one, and draw the column's row from that sector
    while it has room, so totals often share a sector without straddling.
    Every third seed rotates two columns into each other, which can make a
    column straddle sectors.
    """
    rng = np.random.Generator(np.random.PCG64(9000 + seed))
    while True:
        a = _random_charged_space(rng, "A", 1, 2)
        b = _random_charged_space(rng, "B", 1, 2) if rng.random() < 0.8 \
            else FockSpace.trivial("B")
        ref = _random_charged_space(rng, "R", 2, 5)
        if a.dimension * b.dimension <= ref.dimension:
            break
    n_cols = a.dimension * b.dimension
    if seed % 2:
        rows = rng.permutation(ref.dimension)[:n_cols]
    else:
        totals = (charge_values(a, "electric")[:, None]
                  + charge_values(b, "electric")[None, :]).reshape(-1)
        ref_q = charge_values(ref, "electric")
        sectors = np.unique(ref_q)
        target = {int(t): int(rng.choice(sectors)) for t in np.unique(totals)}
        free = list(rng.permutation(ref.dimension))
        rows = []
        for t in totals:
            room = [r for r in free if ref_q[r] == target[int(t)]]
            rows.append(room[0] if room else free[0])
            free.remove(rows[-1])
        rows = np.array(rows)
    matrix = np.zeros((ref.dimension, n_cols), dtype=np.complex128)
    matrix[rows, np.arange(n_cols)] = 1.0
    if seed % 3 == 0 and n_cols >= 2:
        j, k = rng.permutation(n_cols)[:2]
        cj, ck = matrix[:, j].copy(), matrix[:, k].copy()
        matrix[:, j], matrix[:, k] = (cj + ck) / np.sqrt(2), (cj - ck) / np.sqrt(2)
    return embedding_from_isometry(a, b, ref, matrix)


def _check_against_references(space, states, tol=Tolerances()):
    for kind in CHARGE_KINDS:
        dec, sectors = sector_decomposition(space, kind), _sectors_reference(space, kind)
        assert dec.sectors == sectors
        assert dec.charges == tuple(q for q, _ in sectors)
        assert dec.labels.size == space.dimension
        for q, idx in sectors:
            assert dec.indices(q) == idx
        assert all(type(q) is int and all(type(i) is int for i in idx)
                   for q, idx in dec.sectors)
        for psi in states:
            assert is_charge_eigenstate(psi, dec, tol) == _eigenstate_reference(psi, sectors, tol)


def _sector_states(space, seed):
    """A random unit state in each of two random sectors of every kind."""
    rng = np.random.Generator(np.random.PCG64(8000 + seed))
    states = []
    for kind in CHARGE_KINDS:
        dec = sector_decomposition(space, kind)
        for q in rng.choice(dec.charges, size=2):
            amps = np.zeros(space.dimension, dtype=np.complex128)
            idx = list(dec.indices(int(q)))
            amps[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
            states.append(StateVector(space.space_id, amps / np.linalg.norm(amps)))
    return states


class TestLabelArrayOracle:
    """Label-array sectors, eigenstate checks and compatibility checks against
    the dict-and-list loops they replaced: equal sectors, equal charges, and
    equal errors compared as type and message."""

    @pytest.mark.parametrize("source, seed", [("partition", seed) for seed in range(40)]
                             + [("composition", seed) for seed in range(60)])
    def test_index_map_cases(self, source, seed):
        e, _ = _index_map_case(source, seed)
        states = _states(e.reference, seed) + _sector_states(e.reference, seed)
        _check_against_references(e.reference, states)
        for space in (e.subsystem, e.complementer):
            _check_against_references(space, [])
        for x in (e, _dense_twin(e)):
            for kind in CHARGE_KINDS:
                assert _outcome(check_embedding_charge_compatibility, x, kind) \
                    == _outcome(_compatibility_reference, x, kind)

    def test_scrambled_rows_reach_split_totals(self):
        messages = []
        for seed in range(100):
            e, _ = _index_map_case("partition" if seed < 40 else "composition", seed % 40)
            rng = np.random.Generator(np.random.PCG64(6000 + seed))
            scrambled = Embedding(e.subsystem, e.complementer, e.reference,
                                  rows=rng.permutation(e.rows))
            for x in (scrambled, _dense_twin(scrambled)):
                for kind in ("electric", "lepton"):
                    got = _outcome(check_embedding_charge_compatibility, x, kind)
                    assert got == _outcome(_compatibility_reference, x, kind)
                    messages.append(got[0][1] if got[0] else "passed")
        assert sum("land in different reference sectors" in m for m in messages) >= 50

    def test_explicit_zero_one_isometries_reach_every_message(self):
        messages = []
        for seed in range(200):
            e = _random_zero_one_isometry(seed)
            _check_against_references(e.reference, _sector_states(e.reference, seed))
            rows = np.argmax(np.abs(e.isometry), axis=0)
            twin = Embedding(e.subsystem, e.complementer, e.reference, rows=rows)
            for x in (e, twin):
                got = _outcome(check_embedding_charge_compatibility, x, "electric")
                assert got == _outcome(_compatibility_reference, x, "electric")
            messages.append(_outcome(check_embedding_charge_compatibility, e, "electric"))
        texts = [err[1] if err else "passed" for err, _ in messages]
        for fragment in ("passed", "outside a single", "land in different reference sectors",
                         "land in the same reference sector"):
            assert sum(fragment in t for t in texts) >= 20, fragment

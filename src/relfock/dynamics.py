"""Unitary evolution of closed-system states (hbar = 1).

Hamiltonian terms are products of ladder and number operators, assembled by
following each basis column through the ``hilbert.mode_action`` index maps and
hermitized one by one from those maps. Evolution is the exact matrix
exponential through an eigendecomposition per conserved block (a connected
component of H's nonzero pattern), computed once per Hamiltonian, so norm and
energy are conserved to solver precision.
A trilinear conversion family moves quanta out of an embedded product
subspace, which is how a relational trace dynamically drops below one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Mapping, Sequence

import numpy as np

from .errors import SpaceMismatchError
from .hilbert import (
    Embedding,
    FockSpace,
    StateVector,
    charge_values,
    mode_action,
    pull_back,
    read_only,
)
from .tolerances import Tolerances, resolve

_FACTOR_KINDS = ("create", "annihilate", "number")


@dataclass(frozen=True)
class HamiltonianTerm:
    """coefficient times a product of mode operators; factors are (kind,
    mode_label) pairs applied right to left, like operator notation."""

    coefficient: float
    factors: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if isinstance(self.coefficient, complex):
            raise ValueError("term coefficients must be real")
        coeff = float(self.coefficient)
        factors = tuple((str(kind), str(label)) for kind, label in self.factors)
        for kind, _ in factors:
            if kind not in _FACTOR_KINDS:
                raise ValueError(f"unknown operator kind {kind!r}")
        object.__setattr__(self, "coefficient", coeff)
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hermitian operator on a space plus the terms it was built from."""

    space: FockSpace
    terms: tuple[HamiltonianTerm, ...]
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", read_only(self.matrix))

    @property
    def space_id(self) -> str:
        return self.space.space_id

    @cached_property
    def eigensystem(self) -> "SectorEigensystem":
        """Eigendecomposition per conserved block, computed on first use."""
        return _sector_eigensystem(self.matrix)

    def spectral_norm(self) -> float:
        return float(max(np.abs(w).max() for _, w, _ in self.eigensystem.blocks))


@dataclass(frozen=True)
class SectorEigensystem:
    """H block by block: one (indices, eigenvalues, eigenvectors) triple per
    block size s, stacking the k blocks of that size as arrays of shape
    (k, s), (k, s) and (k, s, s); row i of indices lists the basis states of
    one block in ascending order, and H restricted to them is
    u[i] diag(w[i]) u[i]^dagger. All arrays are read-only."""

    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) amplitudes, as u (e^{-iwt} (u^dagger a)) per block."""
        out = np.empty_like(amplitudes)
        for idx, w, u in self.blocks:
            phase = np.exp(-1j * w * t)
            if w.shape[1] == 1:  # u is [[1]]: a phase only
                out[idx] = phase * amplitudes[idx]
                continue
            # u^dagger a as conj(a^dagger u): no conjugated copy of u
            coeffs = np.matmul(amplitudes[idx].conj()[:, None, :], u).conj()
            coeffs *= phase[:, None, :]
            out[idx] = np.matmul(coeffs, u.swapaxes(1, 2))[:, 0, :]
        return out


def _sector_eigensystem(matrix: np.ndarray) -> SectorEigensystem:
    """Split a Hermitian matrix into the connected components of its nonzero
    pattern and diagonalize them, with one stacked ``eigh`` per block size.
    Size-1 blocks are their diagonal entry; a single block spanning the space
    goes to ``eigh`` as the matrix itself, with no gathered copy."""
    n = matrix.shape[0]
    rows, cols = np.nonzero(matrix)
    # Min-label propagation with pointer jumping over the (symmetric) pattern:
    # label[i] is always a member of i's block no larger than i, and settles
    # on the block's smallest index.
    label = np.arange(n)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, rows, label[cols])
        hooked = hooked[hooked]
        if (hooked == label).all():
            break
        label = hooked
    size = np.bincount(label, minlength=n)[label]
    order = np.lexsort((label, size))  # by block size, then block, then index
    size = size[order]
    blocks = []
    for s in np.unique(size).tolist():
        idx = order[size == s].reshape(-1, s)
        if s == 1:
            w = matrix[idx, idx].real
            u = np.ones((len(idx), 1, 1), dtype=np.complex128)
        elif s == n:
            w, u = np.linalg.eigh(matrix)
            w, u = w[None], u[None]
        else:
            w, u = np.linalg.eigh(matrix[idx[:, :, None], idx[:, None, :]])
        for arr in (idx, w, u):
            arr.flags.writeable = False
        blocks.append((idx, w, u))
    return SectorEigensystem(tuple(blocks))


def build_hamiltonian(space: FockSpace,
                      terms: Sequence[HamiltonianTerm | tuple],
                      tol: Tolerances | None = None) -> HamiltonianSpec:
    """Assemble sum of terms, adding each term's adjoint unless it is already
    self-adjoint. An empty term list gives the zero operator."""
    tol = resolve(tol)
    parsed = tuple(
        t if isinstance(t, HamiltonianTerm) else HamiltonianTerm(t[0], tuple(t[1]))
        for t in terms
    )
    cols = np.arange(space.dimension)
    total = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
    for term in parsed:
        # Follow each column through the factors right to left; multiply the
        # weights left to right, as the dense product of the factors would.
        rows, weights = cols, []
        for kind, label in reversed(term.factors):
            moved, weight = mode_action(space, label, kind)
            weights.append(weight[rows])
            rows = moved[rows]
        vals = term.coefficient * reduce(np.multiply, reversed(weights), np.ones(space.dimension))
        # The term holds vals[j] at (rows[j], j) and nothing else in column j;
        # entry (j, rows[j]) is vals[rows[j]] if column rows[j] maps back to
        # row j, else zero. Entries are real, so the adjoint is the transpose.
        paired = rows[rows] == cols
        mirror = np.where(paired, vals[rows], 0.0)
        if float(np.abs(vals - mirror).max()) < tol.herm:
            total[rows, cols] += vals
        else:
            total[rows, cols] += vals + mirror
            total[cols[~paired], rows[~paired]] += vals[~paired]
    dev = float(np.abs(total - total.conj().T).max())
    if dev >= tol.herm:
        raise ValueError(f"assembled Hamiltonian is not Hermitian: max dev {dev:g}")
    total.flags.writeable = False
    return HamiltonianSpec(space=space, terms=parsed, matrix=total)


def free_hamiltonian(space: FockSpace, frequencies: Mapping[str, float]) -> HamiltonianSpec:
    """sum_i omega_i n_i."""
    return build_hamiltonian(
        space, [(float(w), (("number", label),)) for label, w in frequencies.items()]
    )


def conversion_hamiltonian(space: FockSpace, coupling: float,
                           create_labels: Sequence[str],
                           annihilate_labels: Sequence[str]) -> HamiltonianSpec:
    """g(prod a^dagger prod a + h.c.): converts quanta between mode sets.
    With one created and two annihilated modes this is the trilinear family
    that empties an embedded pair into an outside mode."""
    factors = tuple(("create", l) for l in create_labels) + \
        tuple(("annihilate", l) for l in annihilate_labels)
    return build_hamiltonian(space, [(float(coupling), factors)])


def hopping_hamiltonian(space: FockSpace, coupling: float,
                        label_to: str, label_from: str) -> HamiltonianSpec:
    """g(a^dagger_to a_from + h.c.)."""
    return build_hamiltonian(
        space, [(float(coupling), (("create", label_to), ("annihilate", label_from)))]
    )


def evolve(psi0: StateVector, h: HamiltonianSpec, t: float,
           tol: Tolerances | None = None) -> StateVector:
    """psi(t) = exp(-i H t) psi0, exact through the eigendecomposition of
    each conserved block of H."""
    tol = resolve(tol)
    psi0.require_space(h.space_id, h.space.dimension)
    if not psi0.is_normalized(tol):
        raise ValueError(f"initial state must be unit norm; |psi|^2 = {psi0.norm_sq!r}")
    return StateVector(psi0.space_id, h.eigensystem.propagate(psi0.amplitudes, float(t)))


@dataclass
class Trajectory:
    """Recorded evolution: states plus scalar monitors at each time."""

    times: np.ndarray
    states: list[StateVector]
    norms: np.ndarray
    energies: np.ndarray
    charge_expectations: dict[str, np.ndarray]
    relational_traces: dict[str, np.ndarray]

    def deficits(self, key: str) -> np.ndarray:
        """Trace deficit 1 - Tr rho for a monitored embedding."""
        return 1.0 - self.relational_traces[key]


def evolve_trajectory(psi0: StateVector, h: HamiltonianSpec, times: Sequence[float],
                      embeddings: Mapping[str, Embedding] | None = None,
                      charge_kinds: Sequence[str] = (),
                      tol: Tolerances | None = None) -> Trajectory:
    """Evolve and record norm, energy, charge expectations and relational
    traces for each registered embedding at every requested time."""
    tol = resolve(tol)
    psi0.require_space(h.space_id, h.space.dimension)
    if not psi0.is_normalized(tol):
        raise ValueError(f"initial state must be unit norm; |psi|^2 = {psi0.norm_sq!r}")
    embeddings = dict(embeddings or {})
    for key, emb in embeddings.items():
        if emb.reference_id != h.space_id:
            raise SpaceMismatchError(
                f"embedding {key!r} references {emb.reference_id!r}, expected {h.space_id!r}"
            )
    charge_diags = {kind: charge_values(h.space, kind) for kind in charge_kinds}

    times_arr = np.asarray(list(times), dtype=np.float64)
    states: list[StateVector] = []
    norms = np.empty(len(times_arr))
    energies = np.empty(len(times_arr))
    charges = {kind: np.empty(len(times_arr)) for kind in charge_diags}
    traces = {key: np.empty(len(times_arr)) for key in embeddings}
    for i, t in enumerate(times_arr):
        state = StateVector(psi0.space_id, h.eigensystem.propagate(psi0.amplitudes, float(t)))
        states.append(state)
        amps = state.amplitudes
        norms[i] = float(np.vdot(amps, amps).real)
        energies[i] = float(np.vdot(amps, h.matrix @ amps).real)
        for kind, q in charge_diags.items():
            charges[kind][i] = float(np.vdot(amps, q * amps).real)
        for key, emb in embeddings.items():
            phi = pull_back(state, emb)
            traces[key][i] = float(np.vdot(phi, phi).real)
    drift = float(np.abs(norms - 1.0).max()) if len(times_arr) else 0.0
    if drift >= tol.evolve:
        raise ValueError(f"evolution lost unitarity: max norm drift {drift:g}")
    return Trajectory(times=times_arr, states=states, norms=norms, energies=energies,
                      charge_expectations=charges, relational_traces=traces)


def trace_deficit_trajectory(psi0: StateVector, h: HamiltonianSpec, e: Embedding,
                             times: Sequence[float],
                             charge_kinds: Sequence[str] = (),
                             tol: Tolerances | None = None) -> Trajectory:
    """Trajectory with the relational trace of one embedding monitored under
    the key 'subsystem'; deficits('subsystem') gives 1 - Tr rho_A(t)."""
    return evolve_trajectory(psi0, h, times, embeddings={"subsystem": e},
                             charge_kinds=charge_kinds, tol=tol)

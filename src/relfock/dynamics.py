"""Unitary evolution of closed-system states (hbar = 1).

Hamiltonian terms are products of ladder and number operators. Assembly
follows each basis column through the ``hilbert.mode_action`` index maps,
hermitizes each term from those maps, and keeps H as its nonzero entries
(row, column, value triplets), so no D x D matrix is built or scanned.
Evolution is the exact matrix exponential through an eigendecomposition per
conserved block (a connected component of H's nonzero pattern), computed once
per Hamiltonian, so norm and energy are conserved to solver precision.
``SectorEigensystem.propagate`` is the one propagator: it takes u^dagger psi0
once per block size and gives the state at every time as a row of one array;
``evolve_trajectory`` monitors those rows, and ``evolve`` is a one-point trajectory.
Coefficients are finite reals and every factor weight is real, so an
assembled H is real symmetric and its blocks are diagonalized in real
arithmetic.
A trilinear conversion family moves quanta out of an embedded product
subspace, which is how a relational trace dynamically drops below one.
"""
from __future__ import annotations

import math
import numbers
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
        coeff = self.coefficient
        # numbers.Real admits numpy reals but no complex type, numpy's included
        try:
            finite = isinstance(coeff, numbers.Real) and not isinstance(coeff, bool) \
                and math.isfinite(coeff)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"term coefficients must be finite real numbers, got {coeff!r}")
        coeff = float(coeff)
        factors = tuple((str(kind), str(label)) for kind, label in self.factors)
        for kind, _ in factors:
            if kind not in _FACTOR_KINDS:
                raise ValueError(f"unknown operator kind {kind!r}")
        object.__setattr__(self, "coefficient", coeff)
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hermitian operator on a space plus the terms it was built from, held
    as triplets: H[rows[k], cols[k]] = vals[k]. Construction sums repeated
    positions in the order given and drops exact zeros, so the stored
    (read-only) triplets are the nonzero entries of H in row-major order."""

    space: FockSpace
    terms: tuple[HamiltonianTerm, ...]
    rows: np.ndarray = field(compare=False)
    cols: np.ndarray = field(compare=False)
    vals: np.ndarray = field(compare=False)

    def __post_init__(self):
        n = self.space.dimension
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=np.complex128)
        if not (rows.ndim == 1 and rows.shape == cols.shape == vals.shape
                and np.all((rows >= 0) & (rows < n) & (cols >= 0) & (cols < n))):
            raise ValueError(f"triplets must be three equal-length 1-d arrays "
                             f"indexing the {n} x {n} operator")
        keys, inverse = np.unique(rows * n + cols, return_inverse=True)
        # bincount adds in input order, as a dense += in that order would
        summed = np.empty(len(keys), dtype=np.complex128)
        summed.real = np.bincount(inverse, vals.real, len(keys))
        summed.imag = np.bincount(inverse, vals.imag, len(keys))
        live = summed != 0
        keys = keys[live]
        for name, arr in (("rows", keys // n), ("cols", keys % n), ("vals", summed[live])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def space_id(self) -> str:
        return self.space.space_id

    @cached_property
    def matrix(self) -> np.ndarray:
        """H as a dense read-only D x D array, built on first read and kept."""
        n = self.space.dimension
        out = np.zeros((n, n), dtype=np.complex128)
        out[self.rows, self.cols] = self.vals
        out.flags.writeable = False
        return out

    @cached_property
    def eigensystem(self) -> "SectorEigensystem":
        """Eigendecomposition per conserved block, computed on first use."""
        return _sector_eigensystem(self)

    def spectral_norm(self) -> float:
        return float(max(np.abs(w).max() for _, w, _ in self.eigensystem.blocks))

    def energy(self, amplitudes: np.ndarray) -> float:
        """<a|H|a>, with the product H a summed row by row from the triplets."""
        products = self.vals * amplitudes[self.cols]
        h_a = np.empty(self.space.dimension, dtype=np.complex128)
        h_a.real = np.bincount(self.rows, products.real, len(h_a))
        h_a.imag = np.bincount(self.rows, products.imag, len(h_a))
        return float(np.vdot(amplitudes, h_a).real)


def _hermiticity_deviation(h: HamiltonianSpec) -> float:
    """max |H - H^dagger| from the triplets: each entry against the conjugate
    of its transpose partner, or of zero where the partner is absent."""
    if not len(h.vals):
        return 0.0
    n = h.space.dimension
    keys, partner_keys = h.rows * n + h.cols, h.cols * n + h.rows
    at = np.minimum(np.searchsorted(keys, partner_keys), len(keys) - 1)
    partner = np.where(keys[at] == partner_keys, h.vals[at], 0.0)
    return float(np.abs(h.vals - partner.conj()).max())


@dataclass(frozen=True)
class SectorEigensystem:
    """H block by block: one (indices, eigenvalues, eigenvectors) triple per
    block size s, stacking the k blocks of that size as arrays of shape
    (k, s), (k, s) and (k, s, s); row i of indices lists the basis states of
    one block in ascending order, and H restricted to them is
    u[i] diag(w[i]) u[i]^dagger. All arrays are read-only."""

    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def propagate(self, amplitudes: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """exp(-i H t) amplitudes at each time, as the rows of one read-only
        (T, D) array: u (e^{-iwt} (u^dagger a)) per block, with the block
        coefficients u^dagger a computed once per block size."""
        times = np.asarray(times, dtype=np.float64).tolist()
        out = np.empty((len(times), len(amplitudes)), dtype=np.complex128)
        for idx, w, u in self.blocks:
            a = amplitudes[idx]
            if w.shape[1] == 1:  # u is [[1]]: a phase only
                for row, t in zip(out, times):
                    row[idx] = np.exp(-1j * w * t) * a
                continue
            # u^dagger a as conj(a^dagger u): no conjugated copy of u
            coeffs = np.matmul(a.conj()[:, None, :], u).conj()
            u_t = u.swapaxes(1, 2)
            for row, t in zip(out, times):
                phase = np.exp(-1j * w * t)
                row[idx] = np.matmul(coeffs * phase[:, None, :], u_t)[:, 0, :]
        out.flags.writeable = False
        return out


def _sector_eigensystem(h: HamiltonianSpec) -> SectorEigensystem:
    """Split H into the connected components of its nonzero pattern and
    diagonalize them, with one stacked ``eigh`` per block size. Size-1 blocks
    are their diagonal entry and other blocks are gathered from the triplets,
    a single block spanning the space included. A real H (every Hamiltonian
    ``build_hamiltonian`` assembles) is gathered and diagonalized in real
    arithmetic; the eigenvectors are stored complex either way."""
    n, rows, cols = h.space.dimension, h.rows, h.cols
    vals = h.vals if h.vals.imag.any() else h.vals.real
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
    size_in_order = size[order]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    inside = label[rows] == label[cols]
    blocks, start = [], 0
    for s in np.unique(size).tolist():
        idx = order[size_in_order == s].reshape(-1, s)
        if s == 1:
            diag = np.zeros(n)
            on = rows == cols
            diag[rows[on]] = h.vals[on].real
            w = diag[idx]
            u = np.ones((len(idx), 1, 1), dtype=np.complex128)
        else:
            # entry (r, c) of block b sits at row rank[r] - start of the
            # (k*s, s) stack and at column (rank[c] - start) % s
            sel = inside & (size[rows] == s)
            stacked = np.zeros((idx.size, s), dtype=vals.dtype)
            stacked[rank[rows[sel]] - start, (rank[cols[sel]] - start) % s] = vals[sel]
            w, u = np.linalg.eigh(stacked.reshape(-1, s, s))
            u = u.astype(np.complex128, copy=False)
        for arr in (idx, w, u):
            arr.flags.writeable = False
        blocks.append((idx, w, u))
        start += idx.size
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
    pieces = [(cols[:0], cols[:0], np.zeros(0))]  # (rows, cols, vals) in term order
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
            pieces.append((rows, cols, vals))
        else:
            pieces.append((rows, cols, vals + mirror))
            pieces.append((cols[~paired], rows[~paired], vals[~paired]))
    rows, cols, vals = (np.concatenate(part) for part in zip(*pieces))
    live = vals != 0  # adding an exact zero changes no sum
    h = HamiltonianSpec(space=space, terms=parsed,
                        rows=rows[live], cols=cols[live], vals=vals[live])
    dev = _hermiticity_deviation(h)
    if not dev < tol.herm:  # NaN fails too
        raise ValueError(f"assembled Hamiltonian is not Hermitian: max dev {dev:g}")
    return h


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
    """psi(t) = exp(-i H t) psi0: the state of the one-point trajectory at t,
    with its checks."""
    return evolve_trajectory(psi0, h, [t], tol=tol).states[0]


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
    # Phases w t that overflow make states NaN; the drift check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        amps = h.eigensystem.propagate(psi0.amplitudes, times_arr)
    states = [StateVector(psi0.space_id, row) for row in amps]
    norms = np.array([np.vdot(a, a).real for a in amps])
    energies = np.array([h.energy(a) for a in amps])
    charges = {kind: np.array([np.vdot(a, q * a).real for a in amps])
               for kind, q in charge_diags.items()}
    traces = {key: np.array([np.vdot(phi, phi).real
                             for phi in (pull_back(s, emb) for s in states)])
              for key, emb in embeddings.items()}
    drift = float(np.abs(norms - 1.0).max(initial=0.0))
    if not drift < tol.evolve:  # NaN fails too
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

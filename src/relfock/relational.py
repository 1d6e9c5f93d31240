"""Relational states, possible internal states, and outcome sampling.

The state of a subsystem with respect to a reference system is the reduced
density operator of the reference state, computed through the embedding's
isometry. Because the embedded product space may be a proper subspace of the
reference space, the trace can fall short of one; the missing weight is the
probability that the subsystem is not there at all (annihilation), and it is
carried through spectra and sampling as an explicit outcome.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .hilbert import Embedding, StateVector, pull_back
from .tolerances import Tolerances, resolve


@dataclass(frozen=True)
class DensityOperator:
    """A positive Hermitian operator with trace at most one.

    trace_deficit = 1 - trace is meaningful when the operator was reduced
    from a unit-norm reference state; it is the weight of that state lying
    outside the embedded product space.
    """

    space_id: str
    matrix: np.ndarray
    trace: float
    trace_deficit: float

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_matrix(cls, space_id: str, matrix: np.ndarray) -> "DensityOperator":
        trace = float(np.trace(np.asarray(matrix)).real)
        return cls(space_id=space_id, matrix=matrix, trace=trace, trace_deficit=1.0 - trace)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


Factor = Literal["A", "B"]


def relational_state(psi_R: StateVector, e: Embedding, factor: Factor = "A",
                     tol: Tolerances | None = None) -> DensityOperator:
    """Reduced state of one embedding factor with respect to the reference.

    The reference state is pulled back through the isometry and the other
    factor is traced out. The result is Hermitian and positive by
    construction (symmetrized to remove roundoff), and its trace equals
    |V^dagger psi|^2, which can be smaller than one.
    """
    phi = pull_back(psi_R, e)
    if factor == "A":
        return _reduce(psi_R, phi, e.subsystem_id, resolve(tol))
    if factor == "B":
        return _reduce(psi_R, phi.T, e.complementer_id, resolve(tol))
    raise ValueError(f"factor must be 'A' or 'B', got {factor!r}")


def _reduce(psi_R: StateVector, phi: np.ndarray, space_id: str,
            tol: Tolerances) -> DensityOperator:
    """The reduced state phi phi^dagger on space_id of psi_R pulled back as
    phi: rows on the kept factor, columns on everything traced out."""
    if not psi_R.is_normalized(tol):
        raise ValueError(
            f"reference state must be unit norm; |psi|^2 = {psi_R.norm_sq!r}"
        )
    rho = phi @ phi.conj().T
    rho = (rho + rho.conj().T) / 2.0
    trace = float(np.trace(rho).real)
    return DensityOperator(space_id=space_id, matrix=rho, trace=trace,
                           trace_deficit=1.0 - trace)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition of a relational state.

    The eigenvectors are the possible internal states of the subsystem, each
    realized with probability equal to its eigenvalue; the weight missing
    from the trace appears as annihilation_probability so the outcome
    distribution sums to one. Eigenvalues closer to zero than the cutoff are
    dropped (counted in dropped_count). Indices grouped in degeneracy_groups
    share an eigenvalue within the degeneracy tolerance, in which case the
    reported basis is a deterministic convention, not physics.
    """

    space_id: str
    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[StateVector, ...]
    degeneracy_groups: tuple[tuple[int, ...], ...]
    annihilation_probability: float
    dropped_count: int

    @property
    def degenerate(self) -> bool:
        return any(len(g) > 1 for g in self.degeneracy_groups)

    @property
    def outcome_count(self) -> int:
        return len(self.eigenvalues)

    def eigenvector_matrix(self) -> np.ndarray:
        """Eigenvectors as columns, shape (dimension, outcome_count)."""
        if not self.eigenvectors:
            return np.zeros((0, 0), dtype=np.complex128)
        return np.stack([v.amplitudes for v in self.eigenvectors], axis=1)

    def projector(self, j: int) -> np.ndarray:
        v = self.eigenvectors[j].amplitudes
        return np.outer(v, v.conj())


def _pivot_phase(vec: np.ndarray) -> complex:
    """The unit phase that makes the first component of largest modulus of
    vec real positive (1 for the zero vector)."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    return pivot.conj() / abs(pivot) if abs(pivot) > 0 else 1.0


def _degeneracy_groups(values: np.ndarray, tol: float) -> list[list[int]]:
    """Runs of consecutive indices of descending values whose neighbours
    differ by less than tol."""
    groups: list[list[int]] = []
    for j in range(len(values)):
        if groups and (values[groups[-1][-1]] - values[j]) < tol:
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


def _deterministic_group_basis(vectors: np.ndarray) -> np.ndarray:
    """Replace an eigensolver's arbitrary basis of a degenerate eigenspace by
    a deterministic one: Gram-Schmidt over the columns of the group projector
    taken in index order, then phase-fixed and ordered by the first index of
    the largest-modulus component."""
    dim, k = vectors.shape
    projector = vectors @ vectors.conj().T
    basis: list[np.ndarray] = []
    for col in range(dim):
        cand = projector[:, col].copy()
        for b in basis:
            cand -= b * np.vdot(b, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            basis.append(cand / nrm)
        if len(basis) == k:
            break
    if len(basis) < k:
        # Projector columns were too collinear to span the space; keep the
        # solver's vectors (still deterministic for identical input).
        basis = [vectors[:, j] for j in range(k)]
    fixed = [b * _pivot_phase(b) for b in basis]
    fixed.sort(key=lambda v: int(np.argmax(np.abs(v))))
    return np.stack(fixed, axis=1)


def possible_internal_states(rho: DensityOperator,
                             tol: Tolerances | None = None) -> SpectralDecomposition:
    """Eigenvalues and eigenvectors of a relational state, with the trace
    deficit reported as the probability of annihilation. Raises unless rho
    is Hermitian PSD with trace <= 1; a NaN entry fails the Hermitian check."""
    tol = resolve(tol)
    herm_dev = float(np.abs(rho.matrix - rho.matrix.conj().T).max())
    if not herm_dev < tol.herm:
        raise ValueError(f"density operator not Hermitian: max dev {herm_dev:g}")
    w, v = np.linalg.eigh(rho.matrix)
    if not w[0] > -tol.psd:
        raise ValueError(f"density operator not PSD: min eigenvalue {float(w[0]):g}")
    if not rho.trace <= 1.0 + tol.norm:
        raise ValueError(f"density operator trace {rho.trace:g} exceeds one")
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    keep = w >= tol.zero_eig
    dropped = int(np.sum(~keep))
    w = w[keep]
    v = v[:, keep]
    w = np.clip(w, 0.0, 1.0)

    groups = _degeneracy_groups(w, tol.degen)
    for g in groups:
        if len(g) > 1:
            v[:, g] = _deterministic_group_basis(v[:, g])
        else:
            v[:, g[0]] *= _pivot_phase(v[:, g[0]])

    eigenvectors = tuple(StateVector(rho.space_id, v[:, j]) for j in range(len(w)))
    annihilation = max(0.0, 1.0 - float(np.sum(w)))
    return SpectralDecomposition(
        space_id=rho.space_id,
        eigenvalues=tuple(float(x) for x in w),
        eigenvectors=eigenvectors,
        degeneracy_groups=tuple(tuple(g) for g in groups),
        annihilation_probability=annihilation,
        dropped_count=dropped,
    )


@dataclass(frozen=True)
class SampleOutcome:
    """One realized internal state: either an eigenvector index or the
    annihilation outcome."""

    annihilated: bool
    index: int | None

    @classmethod
    def state(cls, index: int) -> "SampleOutcome":
        return cls(annihilated=False, index=index)

    @classmethod
    def annihilation(cls) -> "SampleOutcome":
        return cls(annihilated=True, index=None)


def sample_internal_states(dec: SpectralDecomposition, count: int, seed: int) -> np.ndarray:
    """Draw realized internal states; returns an int array where values
    0..outcome_count-1 are eigenvector indices and outcome_count means
    annihilated.

    The generator is PCG64 seeded as given; outcomes are found by inverse CDF
    over [eigenvalues..., annihilation_probability], so a run is a pure
    function of (decomposition, count, seed).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    probs = np.array(list(dec.eigenvalues) + [dec.annihilation_probability])
    cum = np.cumsum(probs)
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(count)
    idx = np.searchsorted(cum, u, side="right")
    # Overflow from roundoff in the cumulative sum lands on the last outcome
    # that has nonzero probability.
    last = len(dec.eigenvalues) if dec.annihilation_probability > 0.0 \
        else len(dec.eigenvalues) - 1
    if last < 0:
        raise ValueError("decomposition has no outcomes to sample")
    return np.minimum(idx, last).astype(np.int64)


def sample_internal_state(dec: SpectralDecomposition, seed: int) -> SampleOutcome:
    """Draw a single realized internal state (State(j) with probability equal
    to its eigenvalue, Annihilated with the leftover probability)."""
    idx = int(sample_internal_states(dec, 1, seed)[0])
    if idx == len(dec.eigenvalues):
        return SampleOutcome.annihilation()
    return SampleOutcome.state(idx)


@dataclass(frozen=True)
class IndependenceReport:
    """Result of checking that an isolated factor's relational state equals
    its own internal state."""

    applicable: bool
    passed: bool
    max_deviation: float
    trace_deficit: float
    entanglement_weight: float
    note: str


def check_isolated_independence(psi_R: StateVector, e: Embedding,
                                tol: Tolerances | None = None) -> IndependenceReport:
    """If the pulled-back state factorizes (subsystem relational state is rank
    one with negligible trace deficit), verify that the reduced state equals
    the projector onto the factor extracted independently by SVD."""
    tol = resolve(tol)
    phi = pull_back(psi_R, e)
    rho = _reduce(psi_R, phi, e.subsystem_id, tol)
    eigs = np.linalg.eigvalsh(rho.matrix)[::-1]
    secondary = float(eigs[1]) if len(eigs) > 1 else 0.0
    if secondary >= tol.zero_eig:
        return IndependenceReport(
            applicable=False, passed=False, max_deviation=float("nan"),
            trace_deficit=rho.trace_deficit, entanglement_weight=secondary,
            note="not applicable: state entangled",
        )
    if rho.trace_deficit >= tol.norm:
        return IndependenceReport(
            applicable=False, passed=False, max_deviation=float("nan"),
            trace_deficit=rho.trace_deficit, entanglement_weight=secondary,
            note=f"not applicable: trace deficit {rho.trace_deficit:g}",
        )
    u, _, _ = np.linalg.svd(phi)
    psi_a = u[:, 0]
    dev = float(np.abs(rho.matrix - np.outer(psi_a, psi_a.conj())).max())
    passed = dev < tol.herm
    return IndependenceReport(
        applicable=True, passed=passed, max_deviation=dev,
        trace_deficit=rho.trace_deficit, entanglement_weight=secondary,
        note="factorized" if passed else "factorized but reduced state deviates",
    )

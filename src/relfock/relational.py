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
from .tolerances import Tolerances


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


Factor = Literal["A", "B"]


def relational_state(psi_R: StateVector, e: Embedding, factor: Factor = "A",
                     tol: Tolerances = Tolerances()) -> DensityOperator:
    """Reduced state of one embedding factor with respect to the reference.

    The reference state is pulled back through the isometry and the other
    factor is traced out. The result is Hermitian and positive by
    construction (symmetrized to remove roundoff), and its trace equals
    |V^dagger psi|^2, which can be smaller than one.
    """
    phi = pull_back(psi_R, e)
    if factor == "A":
        return _reduce(psi_R, phi, e.subsystem_id, tol)
    if factor == "B":
        return _reduce(psi_R, phi.T, e.complementer_id, tol)
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
    return DensityOperator.from_matrix(space_id, (rho + rho.conj().T) / 2.0)


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
    # Never short of k: residual squared norms sum to k - len(basis) >= 1, so one is >= 1/dim.
    fixed = [b * _pivot_phase(b) for b in basis]
    fixed.sort(key=lambda v: int(np.argmax(np.abs(v))))
    return np.stack(fixed, axis=1)


def possible_internal_states(rho: DensityOperator,
                             tol: Tolerances = Tolerances()) -> SpectralDecomposition:
    """Eigenvalues and eigenvectors of a relational state, with the trace
    deficit reported as the probability of annihilation. Raises unless rho
    is Hermitian PSD with trace <= 1; a NaN entry fails the Hermitian check."""
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
    if count > np.iinfo(np.intp).max:  # more outcomes than an array can index
        raise ValueError(f"count must be at most {np.iinfo(np.intp).max}, got {count}")
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

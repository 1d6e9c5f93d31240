"""Schmidt decomposition with residual, composed embeddings, and joint
outcome distributions over several disjoint subsystems.

When the embedded product space is a proper subspace of the reference space,
a reference state splits into a Schmidt sum over the image plus a residual
orthogonal to every product basis state. Joint distributions over n factors
are squared norms of the pulled-back state contracted with each factor's
possible internal states in turn; their marginals reproduce the lower-order
distributions down to the single-factor eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Sequence

import numpy as np

from .errors import EmbeddingValidationError, SpaceMismatchError
from .hilbert import (
    Embedding,
    FockSpace,
    ModePartition,
    ModeSpec,
    StateVector,
    _factor_space,
    compose_space_id,
    permute_columns,
    pull_back,
    push_forward,
    selection_isometry,
    tensor_product,
    validate_embedding,
)
from .relational import SpectralDecomposition, _degeneracy_groups, _pivot_phase
from .tolerances import Tolerances


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_j c_j V(a_j (x) b_j) + residual, with the residual orthogonal
    to every product pair V(a_j (x) b_k).

    Canonical form: coefficients are real nonnegative in descending order
    (phases folded into the A-side vectors; each B-side vector has its first
    largest-modulus component real positive). Under degenerate coefficients
    the pairing is a deterministic convention, flagged via degeneracy_groups.
    """

    coefficients: tuple[float, ...]
    a_vectors: tuple[StateVector, ...]
    b_vectors: tuple[StateVector, ...]
    residual: StateVector
    residual_norm_sq: float
    degeneracy_groups: tuple[tuple[int, ...], ...]


def schmidt_decompose(psi_R: StateVector, e: Embedding,
                      tol: Tolerances = Tolerances()) -> SchmidtDecomposition:
    """Singular value decomposition of the pulled-back state, plus the part of
    psi outside the image as an explicit residual vector."""
    phi = pull_back(psi_R, e)
    if not psi_R.is_normalized(tol):
        raise ValueError(f"state must be unit norm; |psi|^2 = {psi_R.norm_sq!r}")
    u, s, vh = np.linalg.svd(phi, full_matrices=False)
    keep = s >= tol.zero_eig
    u, s, vh = u[:, keep], s[keep], vh[keep, :]

    # Phase convention: make each B vector canonical, absorb the opposite
    # phase into the A vector so c_j (x)-products are unchanged.
    phases = [_pivot_phase(vh[j, :]) for j in range(len(s))]
    b_rows = [vh[j, :] * phase for j, phase in enumerate(phases)]
    a_cols = [u[:, j] * np.conj(phase) for j, phase in enumerate(phases)]

    groups = _degeneracy_groups(s, tol.degen)
    # Within a degenerate group, order pairs by the first index of the
    # largest-modulus component of the A vector (stable for exact ties).
    order = list(range(len(s)))
    for g in groups:
        if len(g) > 1:
            g_sorted = sorted(g, key=lambda j: int(np.argmax(np.abs(a_cols[j]))))
            for pos, j in zip(g, g_sorted):
                order[pos] = j
    s = s[order]
    a_cols = [a_cols[j] for j in order]
    b_rows = [b_rows[j] for j in order]

    residual = psi_R.amplitudes - push_forward(phi.reshape(-1), e)
    res_norm_sq = float(np.vdot(residual, residual).real)
    return SchmidtDecomposition(
        coefficients=tuple(float(x) for x in s),
        a_vectors=tuple(StateVector(e.subsystem_id, a) for a in a_cols),
        b_vectors=tuple(StateVector(e.complementer_id, b) for b in b_rows),
        residual=StateVector(e.reference_id, residual),
        residual_norm_sq=res_norm_sq,
        degeneracy_groups=tuple(tuple(g) for g in groups),
    )


def _joint_subsystem(parts: Sequence[Embedding]) -> FockSpace:
    """Product of the parts' subsystem spaces. Colliding mode labels (which
    only occur for overlapping, i.e. invalid, factorizations) are renamed so
    the defective map can still be materialized and then fail validation."""
    modes: list[ModeSpec] = []
    seen: set[str] = set()
    for i, part in enumerate(parts):
        for mode in part.subsystem.modes:
            label = mode.label
            if label in seen:
                label = f"{mode.label}#{i}"
            seen.add(label)
            modes.append(ModeSpec(label, mode.statistics, mode.max_occupation, mode.charges))
    space_id = reduce(compose_space_id, (p.subsystem_id for p in parts))
    return FockSpace(space_id, tuple(modes))


def _compose(parts: Sequence[Embedding]) -> Embedding:
    """compose_embeddings' map before its checks: overlapping parts give zero
    columns or shared rows, and a mode claimed and frozen stays in both."""
    if not parts:
        raise ValueError("need at least one embedding to compose")
    reference = parts[0].reference
    for p in parts:
        if p.reference_id != reference.space_id or p.reference.dimension != reference.dimension:
            raise SpaceMismatchError("all parts must embed into the same reference space")
        if p.partition is None:
            raise ValueError(
                "compose_embeddings requires mode-partition embeddings; for explicit"
                " isometries supply the joint isometry via embedding_from_isometry"
            )
    frozen: dict[str, int] = {}
    for p in parts:
        for label, occ in p.partition.frozen:
            if frozen.setdefault(label, occ) != occ:
                raise ValueError(
                    f"inconsistent frozen occupations for mode {label!r}:"
                    f" {frozen[label]} vs {occ}"
                )

    subsystem = _joint_subsystem(parts)
    claimed = [l for p in parts for l in p.partition.subsystem_labels]
    comp_labels = tuple(
        l for l in reference.mode_labels if l not in claimed and l not in frozen
    )
    complementer = _factor_space(reference, comp_labels)

    groups = [(p.subsystem, p.partition.subsystem_labels) for p in parts]
    rows = selection_isometry(reference, groups + [(complementer, comp_labels)], frozen)
    partition = ModePartition(tuple(claimed), comp_labels, tuple(sorted(frozen.items())))
    return Embedding(subsystem, complementer, reference, partition=partition, rows=rows)


def compose_embeddings(parts: Sequence[Embedding],
                       tol: Tolerances = Tolerances()) -> Embedding:
    """Chain mode-partition embeddings of one reference into a single
    embedding of A_1 (x) ... (x) A_n with the leftover modes as complementer.

    Overlapping factors give a map that is not an isometry, which raises
    EmbeddingValidationError carrying the report of validate_embedding on it:
    max|V^dagger V - 1| is 1.0 if a column has no image or shares its row,
    else 0.0. A map that passes but has a mode one part claims and another
    freezes then raises ValueError naming the mode. Explicit-isometry
    embeddings cannot be chained; build the joint isometry directly instead.
    """
    composed = _compose(parts)
    report = validate_embedding(composed, tol)
    if not report.passed:
        raise EmbeddingValidationError(
            "composed map is not an isometry (overlapping or inconsistent"
            f" factors): max|V^dagger V - 1| = {report.max_deviation:g}",
            report=report,
        )
    frozen = dict(composed.partition.frozen)
    for label in composed.partition.subsystem_labels:
        if label in frozen:
            raise ValueError(
                f"mode {str(label)!r} is claimed by one part and frozen by another")
    return composed


def regroup_embedding(composed: Embedding, factors: Sequence[FockSpace],
                      keep: Sequence[int]) -> Embedding:
    """Derive from a joint embedding of factors A_1 ... A_n the embedding of
    the kept factors against everything else.

    The map is the same one with its column multi-index permuted, so
    relational states of the regrouped embedding are exactly consistent with
    the joint one.
    """
    factors = list(factors)
    keep = list(keep)
    dims = [f.dimension for f in factors]
    if prod(dims) != composed.subsystem.dimension:
        raise SpaceMismatchError(
            f"factor dimensions {dims} do not multiply to dim(A) ="
            f" {composed.subsystem.dimension}"
        )
    if len(set(keep)) != len(keep) or any(not 0 <= i < len(factors) for i in keep):
        raise ValueError(f"keep indices {keep} must be distinct positions into {len(factors)} factors")
    rest = [i for i in range(len(factors)) if i not in keep]

    full_dims = dims + [composed.complementer.dimension]
    axes = keep + rest + [len(dims)]

    new_sub = reduce(tensor_product, (factors[i] for i in keep))
    rest_spaces = [factors[i] for i in rest] + \
        ([composed.complementer] if composed.complementer.modes else [])
    new_comp = reduce(tensor_product, rest_spaces) if rest_spaces else composed.complementer
    return permute_columns(composed, full_dims, axes, new_sub, new_comp)


def _party_pullbacks(psi_R: StateVector, composed: Embedding,
                     factors: Sequence[FockSpace]) -> list[np.ndarray]:
    """V^dagger psi of a joint embedding of factors A_1 ... A_n as one (dim A_i,
    rest) matrix per factor, columns ordered as regroup_embedding(composed,
    factors, [i]) orders them, without building that regrouped map."""
    dims = [f.dimension for f in factors]
    phi = pull_back(psi_R, composed).reshape(*dims, -1)
    return [np.moveaxis(phi, i, 0).reshape(d, -1) for i, d in enumerate(dims)]


@dataclass(frozen=True)
class JointDistribution:
    """Probability tensor over the possible internal states of n disjoint
    subsystems. Entries can sum to less than one when the reference state has
    weight outside the joint image. max_imag is 0.0 for a computed
    distribution, whose entries are squared norms."""

    subsystem_ids: tuple[str, ...]
    index_ranges: tuple[int, ...]
    probabilities: np.ndarray
    total: float
    max_imag: float

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=np.float64)
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)

    def clamped_probabilities(self) -> np.ndarray:
        """Entries clamped into [0, 1] for reporting."""
        return np.clip(self.probabilities, 0.0, 1.0)


def joint_distribution(psi_I: StateVector, composed: Embedding,
                       spectra: Sequence[SpectralDecomposition],
                       tol: Tolerances = Tolerances()) -> JointDistribution:
    """P(j_1, ..., j_n): probability that each subsystem's realized internal
    state is the j_i-th possible one, simultaneously.

    Each entry is the squared norm |(v_j1 (x) ... (x) v_jn (x) 1_B)^dagger
    V^dagger psi|^2, so max_imag is 0.0. The spectra must come from the same
    reference state through regroupings of the same composed embedding; this
    is re-verified by checking that the single-axis marginals reproduce each
    spectrum's eigenvalues.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum")
    dims = [s.eigenvectors[0].dimension if s.eigenvectors else 0 for s in spectra]
    if any(d == 0 for d in dims):
        raise ValueError("every subsystem needs at least one possible internal state")
    if prod(dims) != composed.subsystem.dimension:
        raise SpaceMismatchError(
            f"spectra live on dimensions {dims}, inconsistent with dim(A) ="
            f" {composed.subsystem.dimension}"
        )

    amps = pull_back(psi_I, composed).reshape(*dims, -1)
    if not psi_I.is_normalized(tol):
        raise ValueError(f"reference state must be unit norm; |psi|^2 = {psi_I.norm_sq!r}")
    for s in spectra:  # each contraction appends that party's outcome axis
        amps = np.tensordot(amps, s.eigenvector_matrix().conj(), (0, 0))
    probs = (amps.real ** 2 + amps.imag ** 2).sum(axis=0)

    for axis, spectrum in enumerate(spectra):
        marg = probs.sum(axis=tuple(i for i in range(len(spectra)) if i != axis))
        expected = np.array(spectrum.eigenvalues)
        dev = float(np.abs(marg - expected).max())
        if dev > tol.marg:
            raise ValueError(
                f"spectrum for {spectrum.space_id!r} is inconsistent with the joint"
                f" state (marginal deviation {dev:g}); spectra must be computed from"
                " the same reference state and embedding regroupings"
            )

    return JointDistribution(
        subsystem_ids=tuple(s.space_id for s in spectra),
        index_ranges=probs.shape,
        probabilities=probs,
        total=float(probs.sum()),
        max_imag=0.0,
    )

"""Truncated Fock spaces, states, mode operators and subspace embeddings.

A physical system is a finite-dimensional Hilbert space spanned by occupation
number states of a fixed list of modes. Each mode carries statistics, an
occupation cutoff and integer charges per particle. A mode operator (create,
annihilate or count) is its occupation index map, ``mode_action``: where it
sends each basis state and with what weight; no operator matrix is built, and
charges are per-basis-state values (``charge_values``). Composite systems are
tensor products; a subsystem relation A (x) B <= R is represented explicitly
by an isometry V from the product space into the reference space, so the image
may be a proper subspace of R.

An isometry is held in one of two forms. A 0/1 map (a mode partition, or a
composition or regrouping of them) is its column -> row index map: pulling a
state back gathers one amplitude per column and validity is read off the rows,
in O(dim) time and memory, with no dim(R) x dim(A)*dim(B) matrix. Any other
map (an explicit isometry) is that dense matrix. validate_embedding checks
either form and gates embedding_from_isometry and compose_embeddings. Other
modules go through pull_back, push_forward, permute_columns and
column_charges; only dynamics.evolve_trajectory and
superselection._column_sectors read the form themselves.

Index conventions, used everywhere without exception:
  * basis states are occupation tuples enumerated lexicographically, first
    mode most significant;
  * tensor products and embedding columns are A-major: the flat index of
    (a, b) is a * dim_B + b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .errors import EmbeddingValidationError, SpaceMismatchError
from .tolerances import Tolerances

CHARGE_KINDS = ("electric", "baryon", "lepton")

Statistics = Literal["boson", "fermion"]

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModeSpec:
    """One mode: a label, statistics, an occupation cutoff and its charges.

    Fermion modes always have max_occupation 1; anything else is rejected
    rather than clamped. Charges are integers per particle that fit in int64,
    keyed by one of CHARGE_KINDS; omitted kinds count as zero. Booleans are
    not integers here.
    """

    label: str
    statistics: Statistics = "boson"
    max_occupation: int = 1
    charges: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"mode label must be a nonempty string, got {self.label!r}")
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if not _is_integer(self.max_occupation) or self.max_occupation < 0:
            raise ValueError(f"mode {self.label!r}: max_occupation must be a nonnegative integer")
        if self.statistics == "fermion" and self.max_occupation != 1:
            raise ValueError(
                f"fermion mode {self.label!r} must have max_occupation 1, got {self.max_occupation}"
            )
        charges = self.charges
        if isinstance(charges, Mapping):
            charges = tuple(sorted(charges.items()))
        else:
            charges = tuple(sorted((str(k), v) for k, v in charges))
        for kind, value in charges:
            if kind not in CHARGE_KINDS:
                raise ValueError(f"mode {self.label!r}: unknown charge kind {kind!r}")
            if not _is_integer(value) or not INT64_MIN <= value <= INT64_MAX:
                raise ValueError(f"mode {self.label!r}: charge {kind!r} must be an integer"
                                 f" in [{INT64_MIN}, {INT64_MAX}], got {value!r}")
        object.__setattr__(self, "charges", charges)

    @property
    def local_dimension(self) -> int:
        return self.max_occupation + 1

    def charge(self, kind: str) -> int:
        if kind not in CHARGE_KINDS:
            raise ValueError(f"unknown charge kind {kind!r}")
        return dict(self.charges).get(kind, 0)


@dataclass(frozen=True)
class FockSpace:
    """A labeled occupation-number space over an ordered list of modes.

    dimension = prod(max_occupation + 1); the basis enumeration is the
    lexicographic order of occupation tuples and is a bijection onto
    [0, dimension). Every basis state's total charge of each kind must fit in
    int64, so charge_values is exact.
    """

    space_id: str
    modes: tuple[ModeSpec, ...]
    dimension: int = field(init=False, compare=False, repr=False)
    _strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _occupations: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in space {self.space_id!r}: {labels}")
        for kind in CHARGE_KINDS:
            reach = sum(abs(m.charge(kind)) * m.max_occupation for m in self.modes)
            if reach > INT64_MAX:
                raise ValueError(f"total {kind} charge in space {self.space_id!r} can reach"
                                 f" {reach}, outside int64")
        dims = [m.local_dimension for m in self.modes]
        dimension = math.prod(dims)
        strides = tuple(math.prod(dims[i + 1:]) for i in range(len(dims)))
        occ = np.indices(dims, dtype=np.int64).reshape(len(dims), dimension).T
        occ.flags.writeable = False
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_strides", strides)
        object.__setattr__(self, "_occupations", occ)

    @property
    def mode_labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.modes)

    @property
    def basis_occupations(self) -> np.ndarray:
        """All occupation tuples as a read-only (dimension, n_modes) array."""
        return self._occupations

    def mode_index(self, label: str) -> int:
        for i, m in enumerate(self.modes):
            if m.label == label:
                return i
        raise ValueError(f"space {self.space_id!r} has no mode {label!r}")

    def index_of(self, occupations: Sequence[int]) -> int:
        if len(occupations) != len(self.modes):
            raise ValueError(
                f"expected {len(self.modes)} occupation numbers, got {len(occupations)}"
            )
        index = 0
        for occ, mode, stride in zip(occupations, self.modes, self._strides):
            if not 0 <= occ <= mode.max_occupation:
                raise ValueError(
                    f"occupation {occ} out of range for mode {mode.label!r}"
                    f" (max {mode.max_occupation})"
                )
            index += occ * stride
        return index


def build_fock_space(modes: Iterable[ModeSpec], space_id: str | None = None) -> FockSpace:
    """Construct a truncated Fock space from a nonempty list of mode specs."""
    modes = tuple(modes)
    if not modes:
        raise ValueError("a Fock space needs at least one mode")
    if space_id is None:
        space_id = "fock(" + ",".join(m.label for m in modes) + ")"
    return FockSpace(space_id=space_id, modes=modes)


def read_only(values, dtype=np.complex128) -> np.ndarray:
    """values as a read-only array of dtype, copied only if it is not one yet."""
    if isinstance(values, np.ndarray) and values.dtype == dtype \
            and not values.flags.writeable:
        return values
    mat = np.array(values, dtype=dtype)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class StateVector:
    """A vector in a named space. Not necessarily normalized: residuals and
    projected components are stored as StateVectors too; operations that
    require unit norm check it explicitly."""

    space_id: str
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = read_only(self.amplitudes)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional vector")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def is_normalized(self, tol: Tolerances = Tolerances()) -> bool:
        return abs(self.norm_sq - 1.0) < tol.norm

    def require_space(self, space_id: str, dimension: int) -> None:
        if self.space_id != space_id or self.dimension != dimension:
            raise SpaceMismatchError(
                f"state in {self.space_id!r} (dim {self.dimension}) does not live in"
                f" {space_id!r} (dim {dimension})"
            )


def basis_state(space: FockSpace, occupations: Sequence[int] | int) -> StateVector:
    """The basis vector for an occupation tuple (or a flat basis index)."""
    index = occupations if isinstance(occupations, int) else space.index_of(occupations)
    if isinstance(occupations, int) and not 0 <= index < space.dimension:
        raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(space.dimension, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(space.space_id, amps)


def state_from_amplitudes(space: FockSpace, amplitudes: Sequence[complex]) -> StateVector:
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (space.dimension,):
        raise SpaceMismatchError(
            f"expected {space.dimension} amplitudes for space {space.space_id!r},"
            f" got {amps.shape}"
        )
    return StateVector(space.space_id, amps)


def bell_state(
    space: FockSpace,
    pair: tuple[Sequence[int], Sequence[int]] | None = None,
) -> StateVector:
    """Equal superposition of two basis states, (|x> + |y>)/sqrt(2).

    By default x is the vacuum and y has one quantum in every mode, which on
    a pair of two-level modes gives the usual maximally entangled state.
    """
    if pair is None:
        lo = (0,) * len(space.modes)
        hi = (1,) * len(space.modes)
    else:
        lo, hi = pair
    i, j = space.index_of(lo), space.index_of(hi)
    if i == j:
        raise ValueError("the two basis states must differ")
    amps = np.zeros(space.dimension, dtype=np.complex128)
    amps[i] = amps[j] = 1.0 / np.sqrt(2.0)
    return StateVector(space.space_id, amps)


def random_state_vector(space: FockSpace, seed: int) -> StateVector:
    """A Haar-ish random unit vector: normalized complex Gaussian amplitudes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    amps = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
    amps /= np.linalg.norm(amps)
    return StateVector(space.space_id, amps)


def mode_action(space: FockSpace, label: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Where a mode operator (kind "create", "annihilate" or "number") sends
    each basis column j: to row moved[j] with weight[j]. Annihilation takes n
    to n-1 with sqrt(n), creation n to n+1 with sqrt(n+1), number keeps n with
    weight n; a column leaving the truncated space (no wraparound) stays with
    weight 0. Fermionic ladder weights carry the Jordan-Wigner sign
    (-1)^(occupation of the fermionic modes before the target in mode order).
    """
    i = space.mode_index(label)
    mode, occ = space.modes[i], space.basis_occupations
    n = occ[:, i]
    if kind == "number":
        return np.arange(space.dimension), n.astype(np.float64)
    step = 1 if kind == "create" else -1
    live = (n + step >= 0) & (n + step <= mode.max_occupation)
    weight = np.sqrt(np.maximum(n, n + step)) * live  # sqrt of the larger occupation
    moved = np.arange(space.dimension) + step * space._strides[i] * live
    if mode.statistics == "fermion":
        before = [k for k, m in enumerate(space.modes[:i]) if m.statistics == "fermion"]
        weight[occ[:, before].sum(axis=1) % 2 == 1] *= -1.0
    return moved, weight


def charge_values(space: FockSpace, kind: str) -> np.ndarray:
    """Total charge of each basis state as exact integers: sum over modes of
    occupation times per-particle charge."""
    if kind not in CHARGE_KINDS:
        raise ValueError(f"unknown charge kind {kind!r}")
    per_mode = np.array([m.charge(kind) for m in space.modes], dtype=np.int64)
    return space.basis_occupations @ per_mode


def compose_space_id(a: str, b: str) -> str:
    return f"{a}(x){b}"


def tensor_product(a, b):
    """Kronecker composition of two spaces or two states (A-major).

    Both arguments must be of the same kind; mode labels of composed spaces
    must stay unique.
    """
    if isinstance(a, FockSpace) and isinstance(b, FockSpace):
        return FockSpace(compose_space_id(a.space_id, b.space_id), a.modes + b.modes)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(compose_space_id(a.space_id, b.space_id),
                           np.kron(a.amplitudes, b.amplitudes))
    raise TypeError(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}: kinds must match"
    )


@dataclass(frozen=True)
class ModePartition:
    """Bookkeeping for embeddings built by splitting a space's modes: which
    labels form the subsystem, which the complementer, and which are frozen
    at a fixed occupation (and therefore excluded from both factors)."""

    subsystem_labels: tuple[str, ...]
    complementer_labels: tuple[str, ...]
    frozen: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True, init=False, eq=False)
class Embedding:
    """An isometry V realizing subsystem (x) complementer <= reference.

    V has shape dim(R) x (dim(A) * dim(B)); column a * dim_B + b is the image
    of basis state |a> (x) |b>. The image may be a proper subspace of R.

    Give exactly one of two forms. ``rows`` is the index map of a 0/1 map:
    column j is the basis vector of reference row rows[j], or zero where
    rows[j] is -1 (int64, read-only). ``isometry`` is an explicit dense
    matrix; for an index map it is built from the rows on first access and
    kept, which the library itself never does. Embeddings compare by
    identity: two maps over the same spaces are different embeddings.
    """

    subsystem: FockSpace
    complementer: FockSpace
    reference: FockSpace
    partition: ModePartition | None
    rows: np.ndarray | None

    def __init__(self, subsystem: FockSpace, complementer: FockSpace, reference: FockSpace,
                 isometry: np.ndarray | None = None, partition: ModePartition | None = None,
                 *, rows: np.ndarray | None = None):
        for name, value in (("subsystem", subsystem), ("complementer", complementer),
                            ("reference", reference), ("partition", partition)):
            object.__setattr__(self, name, value)
        if (isometry is None) == (rows is None):
            raise ValueError("an embedding takes exactly one of an isometry and an index map")
        expected = (reference.dimension, self.image_dimension)
        if rows is not None:
            rows = read_only(rows, np.int64)
            if rows.shape != expected[1:] or rows.min() < -1 or rows.max() >= expected[0]:
                raise SpaceMismatchError(
                    f"index map of shape {rows.shape} must send dim(A)*dim(B) ="
                    f" {expected[1]} columns to rows of dim(R) = {expected[0]} or -1"
                )
        else:
            mat = read_only(isometry)
            if mat.shape != expected:
                raise SpaceMismatchError(
                    f"isometry shape {mat.shape} does not match dim(R) x dim(A)*dim(B)"
                    f" = {expected}"
                )
            # dim(A)*dim(B) > dim(R) is not rejected here: such a map exists but
            # can never be an isometry, so validate_embedding reports the failure.
            object.__setattr__(self, "isometry", mat)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def isometry(self) -> np.ndarray:
        """V as a read-only dense matrix."""
        has = self.rows >= 0
        mat = np.zeros((self.reference.dimension, self.rows.size), dtype=np.complex128)
        mat[self.rows[has], has] = 1.0
        mat.flags.writeable = False
        return mat

    @property
    def image_dimension(self) -> int:
        return self.subsystem.dimension * self.complementer.dimension

    @property
    def subsystem_id(self) -> str:
        return self.subsystem.space_id

    @property
    def complementer_id(self) -> str:
        return self.complementer.space_id

    @property
    def reference_id(self) -> str:
        return self.reference.space_id


@dataclass(frozen=True)
class EmbeddingValidation:
    passed: bool
    max_deviation: float
    tolerance: float


def validate_embedding(e: Embedding, tol: Tolerances = Tolerances()) -> EmbeddingValidation:
    """Check V^dagger V = identity on A (x) B; report the max deviation."""
    if e.rows is not None:
        # 1.0 if a column has no image or shares its row with another, else 0.0
        dev = 0.0 if e.rows.min() >= 0 and np.unique(e.rows).size == e.rows.size else 1.0
    else:
        gram = e.isometry.conj().T @ e.isometry
        dev = float(np.abs(gram - np.eye(e.image_dimension)).max())
    return EmbeddingValidation(passed=dev < tol.herm, max_deviation=dev, tolerance=tol.herm)


def pull_back(psi_R: StateVector, e: Embedding) -> np.ndarray:
    """V^dagger psi as a (dim A, dim B) matrix: the coordinates of a reference
    state on the embedded product basis |a> (x) |b>."""
    psi_R.require_space(e.reference_id, e.reference.dimension)
    amps = psi_R.amplitudes
    if e.rows is None:
        # conj(psi^dagger V) equals V^dagger psi without a conjugated copy of V.
        component = np.conj(amps.conj() @ e.isometry)
    else:
        # One amplitude per column, with its zeros signed as the dense product
        # conj(conj(psi_r) * 1 + exact zeros) signs them.
        component = np.conj(np.conj(np.where(e.rows >= 0, amps[e.rows], 0.0)) + 0.0)
    return component.reshape(e.subsystem.dimension, e.complementer.dimension)


def push_forward(component: np.ndarray, e: Embedding) -> np.ndarray:
    """V phi: the reference-space amplitudes of phi, given on A (x) B as a
    flat vector in column order."""
    if e.rows is None:
        return e.isometry @ component
    has = e.rows >= 0
    image = np.zeros(e.reference.dimension, dtype=np.complex128)
    # Adding to +0 signs zeros as V phi does; a shared row sums its columns.
    np.add.at(image, e.rows[has], component[has])
    return image


def permute_columns(e: Embedding, shape: Sequence[int], axes: Sequence[int],
                    subsystem: FockSpace, complementer: FockSpace) -> Embedding:
    """The same map with its column multi-index, of the given shape,
    transposed by axes: an embedding of subsystem (x) complementer, whose
    product basis enumerates the permuted multi-index A-major."""
    if e.rows is not None:
        rows = e.rows.reshape(shape).transpose(axes).reshape(-1)
        return Embedding(subsystem, complementer, e.reference, rows=rows)
    d_r = e.reference.dimension
    w = e.isometry.reshape([d_r, *shape]).transpose([0] + [a + 1 for a in axes])
    matrix = w.reshape(d_r, subsystem.dimension * complementer.dimension)
    matrix.flags.writeable = False
    return Embedding(subsystem, complementer, e.reference, matrix)


def column_charges(e: Embedding, kind: str) -> np.ndarray | None:
    """Reference charge of each column of a 0/1 map, read off its index map
    (the reference's lowest charge for a zero column); None for an explicit
    isometry, whose columns need not lie in one charge sector."""
    if e.rows is None:
        return None
    values = charge_values(e.reference, kind)
    return np.where(e.rows >= 0, values[e.rows], values.min())


def selection_isometry(reference: FockSpace,
                       groups: Sequence[tuple[FockSpace, Sequence[str]]],
                       frozen: Mapping[str, int]) -> np.ndarray:
    """The index map of the 0/1 map placing the product of the group spaces
    into the reference: the row each column lands in, -1 for no image.

    Each group is a space plus the reference labels its modes occupy, in that
    space's mode order; columns enumerate the groups' basis states A-major, in
    group order. Every reference mode starts at its frozen occupation (zero
    if not frozen) and each group adds its occupations, so labels claimed by
    more than one group accumulate. A column whose occupations pass a cutoff
    has no image (a zero column), which makes the map fail validation.
    """
    n_modes = len(reference.modes)
    dims = [space.dimension for space, _ in groups]
    occ = np.empty((*dims, n_modes), dtype=np.int64)
    occ[...] = [frozen.get(l, 0) for l in reference.mode_labels]
    for axis, (space, labels) in enumerate(groups):
        placed = np.zeros((space.dimension, n_modes), dtype=np.int64)
        placed[:, [reference.mode_index(l) for l in labels]] = space.basis_occupations
        shape = [1] * len(dims) + [n_modes]
        shape[axis] = space.dimension
        occ += placed.reshape(shape)
    occ = occ.reshape(math.prod(dims), n_modes)
    fits = (occ <= [m.max_occupation for m in reference.modes]).all(axis=1)
    rows = np.where(fits, occ @ np.array(reference._strides, dtype=np.int64), -1)
    rows.flags.writeable = False
    return rows


def _factor_space(reference: FockSpace, labels: Sequence[str],
                  space_id: str | None = None) -> FockSpace:
    """The space of the given reference modes, in order, with id space_id or
    R[l1,l2]; no labels give the one-dimensional space with no modes."""
    labels = tuple(labels)
    return FockSpace(space_id or f"{reference.space_id}[{','.join(labels)}]",
                     tuple(reference.modes[reference.mode_index(l)] for l in labels))


def mode_partition_embedding(
    reference: FockSpace,
    subsystem_labels: Sequence[str],
    complementer_labels: Sequence[str] | None = None,
    frozen: Mapping[str, int] | None = None,
    subsystem_id: str | None = None,
    complementer_id: str | None = None,
) -> Embedding:
    """Embed a subset of modes (and the leftover modes) into the reference.

    Modes listed in ``frozen`` are pinned at a fixed occupation and belong to
    neither factor, so the image is a proper subspace of R whenever frozen is
    nonempty. Every reference mode must be claimed exactly once.
    """
    frozen = dict(frozen or {})
    sub = tuple(subsystem_labels)
    all_labels = reference.mode_labels
    for label in list(sub) + list(frozen):
        if label not in all_labels:
            raise ValueError(f"space {reference.space_id!r} has no mode {label!r}")
    if complementer_labels is None:
        comp = tuple(l for l in all_labels if l not in sub and l not in frozen)
    else:
        comp = tuple(complementer_labels)
    claimed = list(sub) + list(comp) + list(frozen)
    if sorted(claimed) != sorted(all_labels):
        raise ValueError(
            f"subsystem {sub}, complementer {comp} and frozen {tuple(frozen)} must"
            f" partition the modes {all_labels} of {reference.space_id!r}"
        )
    for label, occ in frozen.items():
        mode = reference.modes[reference.mode_index(label)]
        if not 0 <= occ <= mode.max_occupation:
            raise ValueError(f"frozen occupation {occ} out of range for mode {label!r}")
    space_a = _factor_space(reference, sub, subsystem_id)
    space_b = _factor_space(reference, comp, complementer_id)
    rows = selection_isometry(reference, [(space_a, sub), (space_b, comp)], frozen)
    return Embedding(space_a, space_b, reference,
                     partition=ModePartition(sub, comp, tuple(sorted(frozen.items()))),
                     rows=rows)


def embedding_from_isometry(
    space_a: FockSpace,
    space_b: FockSpace,
    reference: FockSpace,
    matrix: np.ndarray,
    tol: Tolerances = Tolerances(),
) -> Embedding:
    """Wrap an explicit isometry as an Embedding that validate_embedding passes."""
    e = Embedding(space_a, space_b, reference, matrix)
    report = validate_embedding(e, tol)
    if not report.passed:
        raise EmbeddingValidationError(
            f"matrix is not an isometry: max|V^dagger V - 1| = {report.max_deviation:g}",
            report=report,
        )
    return e


def random_isometry_embedding(space_a: FockSpace, space_b: FockSpace,
                              reference: FockSpace, seed: int) -> Embedding:
    """A random embedding: orthonormalized Gaussian columns (QR)."""
    dim_img = space_a.dimension * space_b.dimension
    if reference.dimension < dim_img:
        raise SpaceMismatchError(
            f"dim(R) = {reference.dimension} too small for image dimension {dim_img}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    mat = rng.standard_normal((reference.dimension, dim_img)) \
        + 1j * rng.standard_normal((reference.dimension, dim_img))
    q, _ = np.linalg.qr(mat)
    return Embedding(space_a, space_b, reference, q)

"""Shared builders for the test suite."""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from relfock import (
    Embedding,
    FockSpace,
    ModeSpec,
    build_fock_space,
    random_isometry_embedding,
    random_state_vector,
    tensor_product,
)
from relfock.hilbert import mode_action


def qudit_space(dim: int, label: str, space_id: str | None = None,
                charges=()) -> FockSpace:
    """A d-dimensional space realized as one boson mode with cutoff d-1."""
    return build_fock_space(
        [ModeSpec(label, "boson", dim - 1, charges)], space_id or f"qudit-{label}"
    )


def identity_map(a: FockSpace, b: FockSpace) -> Embedding:
    """A (x) B embedded as all of the product space: the identity index map."""
    return Embedding(a, b, tensor_product(a, b), rows=np.arange(a.dimension * b.dimension))


def mode_matrix(space: FockSpace, label: str, kind: str) -> np.ndarray:
    """One mode operator as a dense matrix, scattered from ``mode_action``."""
    moved, weight = mode_action(space, label, kind)
    mat = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
    mat[moved, np.arange(space.dimension)] = weight
    return mat


def dense_matrix(h) -> np.ndarray:
    """A Hamiltonian as a dense D x D complex array, scattered from its
    triplets."""
    n = h.space.dimension
    out = np.zeros((n, n), dtype=np.complex128)
    out[h.rows, h.cols] = h.vals
    return out


def block_eigenpairs(h) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Reference eigenpairs of a Hamiltonian's conserved blocks: per block
    size s, the k blocks' indices (k, s) as its eigensystem lists them, and
    w (k, s) and complex u (k, s, s) from np.linalg.eigh on each block
    scattered from h's triplets into an s x s matrix (real when H is)."""
    vals = h.vals if h.vals.imag.any() else h.vals.real
    place = np.full(h.space.dimension, -1)
    out = []
    for g in h.eigensystem._groups:
        idx = g.idx
        k, s = idx.shape
        place[idx.ravel()] = np.arange(idx.size)  # block * s + row
        at, to = place[h.rows], place[h.cols]
        inside = (at >= 0) & (to >= 0)
        mats = np.zeros((k, s, s), dtype=vals.dtype)
        mats[at[inside] // s, at[inside] % s, to[inside] % s] = vals[inside]
        place[idx.ravel()] = -1
        w, u = np.linalg.eigh(mats)
        out.append((idx, w, u.astype(np.complex128)))
    return out


def spectral_norm(h) -> float:
    """max |eigenvalue| of a Hamiltonian, from the reference eigenpairs of
    its blocks."""
    return float(max(np.abs(w).max() for _, w, _ in block_eigenpairs(h)))


@contextmanager
def raises_exactly(kind: type[BaseException], message: str):
    """Expect an exception of exactly this type (no subclass) whose one
    argument is exactly this message."""
    with pytest.raises(kind) as info:
        yield
    assert type(info.value) is kind and info.value.args == (message,)


def random_pair(seed: int, max_side: int = 8, max_ref: int = 64):
    """A random (state, embedding) pair with dim(R) possibly exceeding the
    image dimension, so part of the state lies outside the image."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dim_a = int(rng.integers(2, max_side + 1))
    dim_b = int(rng.integers(1, max(2, max_ref // dim_a) + 1))
    dim_b = min(dim_b, max_ref // dim_a)
    dim_img = dim_a * dim_b
    dim_r = int(rng.integers(dim_img, max_ref + 1))
    space_a = qudit_space(dim_a, "a", f"A{seed}")
    space_b = qudit_space(dim_b, "b", f"B{seed}")
    space_r = qudit_space(dim_r, "r", f"R{seed}")
    embedding = random_isometry_embedding(space_a, space_b, space_r, seed=seed + 1)
    psi = random_state_vector(space_r, seed=seed + 2)
    return psi, embedding


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrix argument of every np.linalg.eigh call the test makes, in
    call order; ``monkeypatch.undo()`` stops the recording."""
    seen, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        seen.append(a)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    return seen


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240811))

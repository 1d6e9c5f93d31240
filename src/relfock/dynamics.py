"""Unitary evolution of closed-system states (hbar = 1).

Hamiltonian terms are products of ladder and number operators. Assembly
follows each basis column through the ``hilbert.mode_action`` index maps,
hermitizes each term from those maps, and keeps H as its nonzero entries
(row, column, value triplets), so no D x D matrix is built or scanned.
Evolution works block by block: a conserved block is a connected component
of H's nonzero pattern, and a state never leaves the blocks it occupies, so
only the blocks where the state has an exactly nonzero amplitude (the
support) are propagated, and every other entry stays exactly zero.
``SectorEigensystem.propagate`` gives the states at all times as the rows
of one array, by one of two paths per occupied block: the exact exponential
through the block's eigenpairs, kept once found, with one broadcast product
per block size for all times; or a Chebyshev expansion on the block's ELL
slab (its entries padded to W per row), one recurrence from t = 0 for every
time, in O(T s + W s) memory and no BLAS call. A block whose eigenpairs
exist uses them; any other goes to Chebyshev when s^3 + T s^2 > C (W s +
T s) N, N its term count. Both paths conserve the norm to solver
precision, and the drift check guards both. ``evolve_trajectory`` computes
each monitor as one array expression over the support columns; ``evolve``
is a one-point trajectory.
Coefficients are finite reals and every factor weight is real, so an
assembled H is real symmetric and its blocks are diagonalized in real
arithmetic.
A trilinear conversion family moves quanta out of an embedded product
subspace, which is how a relational trace dynamically drops below one.
"""
from __future__ import annotations

import math
import numbers
import threading
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
)
from .tolerances import Tolerances

_FACTOR_KINDS = ("create", "annihilate", "number")
# Triplet products one ``HamiltonianSpec.energies`` chunk holds: 4 MB each of
# its two complex scratch arrays.
_ENERGY_CHUNK = 1 << 18


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
    def eigensystem(self) -> "SectorEigensystem":
        """The conserved blocks, found on first use; each block is
        diagonalized on first need."""
        return _sector_eigensystem(self)

    def energies(self, amplitudes: np.ndarray, support: np.ndarray) -> np.ndarray:
        """Re <a|H|a> for each row a of a (T, D) array, as the triplet sum
        Re sum conj(a[r]) v a[c]. Only the triplets inside support are read:
        pass the basis indices outside of which every row is zero. The rows
        are taken a chunk of times at a time, so the scratch holds at most
        _ENERGY_CHUNK triplet products (or one row's) however long the grid."""
        inside = np.zeros(self.space.dimension, dtype=bool)
        inside[support] = True
        keep = inside[self.rows] & inside[self.cols]
        rows, cols, vals = self.rows[keep], self.cols[keep], self.vals[keep]
        out = np.empty(len(amplitudes))
        step = max(1, _ENERGY_CHUNK // max(len(vals), 1))
        for start in range(0, len(amplitudes), step):
            chunk = amplitudes[start:start + step]
            # take keeps rows contiguous, so each row is summed as one vector
            products = chunk.take(cols, axis=1)
            products *= vals
            left = chunk.take(rows, axis=1)
            products *= np.conjugate(left, out=left)
            out[start:start + step] = products.real.sum(axis=1)
        return out


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


@dataclass(eq=False)
class _Blocks:
    """The k conserved blocks of one size s. Row i of idx (k, s) lists the
    basis states of block i in ascending order, entries holds H's nonzero
    entries inside these blocks as (block, row, column, value) in block-local
    coordinates, each block's row-major, stats the ``_block_stats``, and slab
    the ``_ell_slab`` once a block first goes to Chebyshev. The eigenpairs w
    (k, s) and u (k, s, s) are allocated when the first block is diagonalized;
    done marks the blocks they hold."""

    idx: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    done: np.ndarray
    stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    slab: list[tuple[np.ndarray, np.ndarray]] | None = None
    w: np.ndarray | None = None
    u: np.ndarray | None = None

    def eigenpairs(self, want) -> tuple[np.ndarray, np.ndarray]:
        """(w[want], u[want]) for a block mask or slice, diagonalizing the
        wanted blocks not done yet with one stacked ``eigh``."""
        pending = np.zeros_like(self.done)
        pending[want] = True
        pending &= ~self.done
        if pending.any():
            w, u = self._diagonalize(pending)
            if self.u is None:
                k, s = self.idx.shape
                self.w, self.u = np.empty((k, s)), np.empty((k, s, s), dtype=np.complex128)
            self.w[pending], self.u[pending] = w, u
            self.done |= pending
        return self.w[want], self.u[want]

    def _diagonalize(self, pending: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather the pending blocks from their entries and diagonalize them.
        A size-1 block is its diagonal entry, with u = [[1]]; the gathered
        stack is released on return."""
        block, row, col, val = self.entries
        take = pending[block]
        slot = np.cumsum(pending) - 1  # position of each pending block in the stack
        s = self.idx.shape[1]
        stacked = np.zeros((slot[-1] + 1, s, s), dtype=val.dtype)
        stacked[slot[block[take]], row[take], col[take]] = val[take]
        if s == 1:
            return stacked[:, 0].real, np.ones_like(stacked, dtype=np.complex128)
        return np.linalg.eigh(stacked)


class SectorEigensystem:
    """H block by block: the connected components of its nonzero pattern,
    grouped by size, the k blocks of each size one ``_Blocks``, whose
    eigenpairs give H on block i as u[i] diag(w[i]) u[i]^dagger.

    ``propagate`` diagonalizes an occupied block that ``_chebyshev_blocks``
    keeps on eigh on first need, and keeps it. A lock guards the first need,
    so no block is diagonalized twice, concurrent use included."""

    def __init__(self, groups: Sequence[_Blocks]):
        self._groups = tuple(groups)
        self._lock = threading.Lock()

    def propagate(self, amplitudes: np.ndarray,
                  times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """exp(-i H t) amplitudes at each time, as the rows of one read-only
        (T, D) array, and the support: the ascending basis indices of the
        occupied blocks (those with an amplitude that is exactly nonzero).
        A state never leaves the blocks it occupies, so every entry outside
        the support is exactly +0. No time, no work.

        Each occupied block takes one of two paths, by a rule that reads the
        block alone (``_chebyshev_blocks``; a block whose eigenpairs exist
        always takes them):
        - through its eigenpairs, diagonalizing it first if need be: per
          block size, u (e^{-iwt} (u^dagger a)) at all times is one broadcast
          product (T, k, 1, s) @ (k, s, s), with u^dagger a computed once;
        - through its ELL slab (``_chebyshev_states``), built once per block
          size: one recurrence for every time, no s x s array, no BLAS call."""
        times = np.asarray(times, dtype=np.float64)
        out = np.zeros((len(times), len(amplitudes)), dtype=np.complex128)
        support = [np.zeros(0, dtype=np.int64)]
        for g in self._groups:
            a = amplitudes[g.idx]
            occupied = a.any(axis=1)
            if not occupied.any():
                continue
            with self._lock:
                chosen = _chebyshev_blocks(g, occupied, times)
                if chosen and g.slab is None:
                    g.slab = _ell_slab(g)
                slab = g.slab
            for b, n in chosen:
                cols = g.idx[b]
                run = cols[-1] - cols[0] == len(cols) - 1  # then out[:, run] is a view
                block = out[:, cols[0]:cols[-1] + 1] if run else np.zeros_like(out[:, :len(cols)])
                _chebyshev_states(*slab[b], a[b], times, *(v[b] for v in g.stats[1:]), n, block)
                if not run:
                    out[:, cols] = block
                support.append(cols)
                occupied[b] = False
            if not occupied.any():
                continue
            if occupied.all():
                occupied = slice(None)  # views of the whole stack, no copies
            idx, a = g.idx[occupied], a[occupied]
            support.append(idx.ravel())
            if not len(times):
                continue
            with self._lock:
                w, u = g.eigenpairs(occupied)
            phases = np.exp(-1j * w * times[:, None, None])
            if w.shape[1] == 1:  # u is [[1]]: a phase only
                out[:, idx] = phases * a
                continue
            # u^dagger a as conj(a^dagger u): no conjugated copy of u
            coeffs = np.matmul(a.conj()[:, None, :], u).conj()
            out[:, idx] = np.matmul(coeffs * phases[:, :, None, :], u.swapaxes(1, 2))[:, :, 0]
        out.flags.writeable = False
        return out, np.sort(np.concatenate(support))


# The rule's constant: s^3 + T s^2 stands for the eigh and its T per-time
# products, (W s + T s) N for N products on the (W, s) slab and N terms summed
# into the (T, s) output, a batch of terms per pass. A sweep (creation and
# number terms on each mode, s = 64-2048, t <= 2; half-filled chains, s =
# 20-924, t <= 4; T = 1-2000; 2 cores, 1 and 2 BLAS threads, best of 7, 3 at
# s = 2048), priced by nnz before the slab, found Chebyshev faster on every
# block of more than 70 states and at every ratio above 16.0; eigh won at
# ratios up to 16.0, on blocks of 20-70 states only, and Chebyshev down to
# 1.17 (s = 70, T = 2000), so no C splits the sweep. Of the C >= 4, which keep
# 2-state blocks off the rule, 12 misroutes fewest (26 of 114 cases); ties:
# eigh. W s is nnz + 1 on a kicked block and 2 nnz on a half-filled chain.
_CHEBYSHEV_COST = 12.0


def _order(top: float, bits: int) -> int:
    """The first order m where (top/2)^m / m!, a bound on |J_m(x)| for |x| <=
    top, is below 2^-bits. The search starts at e top / 2: below it the bound
    exceeds 1 / sqrt(2 pi m), and above it each is under 1/e of the last."""
    m = int(math.e * top / 2)
    while top and m * math.log(top / 2) - math.lgamma(m + 1) > -bits * math.log(2):
        m += 1
    return m


def _bessel_j(x: np.ndarray, n: int) -> np.ndarray:
    """J_k(x) for k = 0..n at each x of a 1-d array, as an (n + 1, len(x))
    array: Miller's backward recurrence from J_{m+1} = 0, m = max(n,
    ``_order``(max|x|, 84)), whose start error, about (J_m / J_k)^2, is below
    rounding for J_k > 2^-60, run on the ratios J_k / J_{k-1} = x / (2k -
    x J_{k+1} / J_k): nothing overflows, x = 0 gives exactly delta_k0 and
    J_k(-x) = (-1)^k J_k(x). Normalized by J_0 + 2 sum_{2k<=n} J_2k = 1."""
    out, ratio = np.ones((n + 1, len(x))), np.zeros_like(x)
    for k in range(max(n, _order(float(np.abs(x).max(initial=0.0)), 84)), 0, -1):
        ratio = x / (2 * k - x * ratio)
        if k <= n:
            out[k] = ratio
    np.cumprod(out, axis=0, out=out)  # J_k / J_0
    out /= 2 * out[::2].sum(axis=0) - 1
    return out


def _chebyshev_blocks(g: _Blocks, occupied: np.ndarray,
                      times: np.ndarray) -> list[tuple[int, int]]:
    """The propagator rule: the occupied blocks of g not diagonalized yet where
    r max|t| > 0 and s^3 + T s^2 > _CHEBYSHEV_COST (W s + T s) N', W s the slab
    size, each with N' = ``_order``(r max|t|, 55) >= the term count. The cost
    stays in floats: a non-finite r max|t| fails N' > r max|t| and takes eigh."""
    if g.stats is None or not len(times):
        return []
    s, blocks = g.idx.shape[1], np.flatnonzero(occupied & ~g.done)
    size, _, radius = (v[blocks] for v in g.stats)
    eigh, per_term = s ** 3 + len(times) * s ** 2, size + len(times) * s
    with np.errstate(over="ignore", invalid="ignore"):
        reach = radius * np.abs(times).max()
        maybe = (reach > 0) & (eigh > _CHEBYSHEV_COST * per_term * np.maximum(reach, 1))
    return [(b, n) for b, x, cost in zip(blocks[maybe], reach[maybe], per_term[maybe])
            if eigh > _CHEBYSHEV_COST * cost * (n := _order(x, 55))]


def _chebyshev_states(cols: np.ndarray, vals: np.ndarray, a: np.ndarray,
                      times: np.ndarray, centre: float, radius: float, n: int,
                      out: np.ndarray) -> int:
    """Add exp(-i H t) a at each time into the rows of out (T, s), zero on
    entry, for one block given by its ELL slab (``_ell_slab``), the centre c
    and half-width r of an interval holding its spectrum, and a bound n on
    the term count N, which is returned: the Chebyshev expansion (Tal-Ezer
    and Kosloff, J. Chem. Phys. 81, 3967 (1984)) e^{-ict} sum_{k<=N} (2 -
    delta_k0) J_k(r t) v_k, v_k = (-i)^k T_k(H~) a, H~ = (H - c) / r, from
    v_0 = a, v_1 = -i H~ a, v_{k+1} = -2i H~ v_k + v_{k-1}, whose dropped terms
    sum below 2^-53 at r max|t| and so at every smaller |t|. One recurrence
    serves every time, each term one gather, one product and one sum over
    the slab's W rows. The newest m = min(N + 1, max(3, 8192 // s)) v_k wait
    in a ring of s-vectors (128 KB, or 3 past s = 2730), which also gives
    v_{k-1} and v_{k-2}; each full ring, then the last partial one, is added
    into out as one einsum (numpy's own loop, no BLAS) sum_k (2 - delta_k0)
    J_k(r t) v_k, a chunk of times at a time through 64 KB of scratch, so out
    is read and written once per m terms. e^{-ict} is applied when c != 0."""
    bessel = _bessel_j(radius * times, n)
    # 2 sum_{i>=k} |J_i|; the terms past the bound n sum below 2^-54 more
    tail = 2 * np.cumsum(np.abs(bessel[::-1, np.abs(times).argmax()]))
    terms = 1 + int((tail[:-2] >= 2.0 ** -54).sum())
    bessel[1:terms + 1] *= 2  # the factor 2 - delta_k0
    flat, work = out.view(np.float64), np.empty(vals.shape, dtype=np.complex128)
    rows = max(1, (1 << 12) // len(a))  # 64 KB of scratch per chunk of times
    scratch = np.empty((min(rows, len(times)), flat.shape[1]))
    ring = np.empty((min(terms + 1, max(3, (1 << 13) // len(a))), len(a)), dtype=np.complex128)
    ring[0], m = a, len(ring)  # v_k sits in slot k % m
    for first in range(0, terms + 1, m):
        for k in range(max(first, 1), min(first + m, terms + 1)):
            # -2i H~ v_{k-1}, then + v_{k-2}, or / 2 for v_1
            v, step = ring[(k - 1) % m], ring[k % m]
            v.take(cols, out=work, mode="clip")  # clip: no buffered copy; cols are in range
            np.add.reduce(np.multiply(work, vals, out=work), axis=0, out=step)
            if k > 1:
                step += ring[(k - 2) % m]
            else:
                step *= 0.5
        batch = ring[:min(m, terms + 1 - first)].view(np.float64)
        coeff = bessel[first:first + len(batch)]
        for i in range(0, len(times), rows):
            part = scratch[:len(flat[i:i + rows])]
            flat[i:i + rows] += np.einsum("kt,kf->tf", coeff[:, i:i + rows], batch, out=part)
    del bessel, coeff  # else they and the buffer of the phase product below set the peak
    if centre:
        out *= np.exp(-1j * centre * times)[:, None]
    return terms


def _block_stats(k: int, s: int, block: np.ndarray, row: np.ndarray, col: np.ndarray,
                 val: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Each block's slab size W s (W = 1 + its most off-diagonal entries in a
    row) and the centre and half-width of its Gershgorin span [min(H_ii -
    R_i), max(H_ii + R_i)], R_i = sum_{j != i} |H_ij|, which holds its
    spectrum; None if s^2 <= C, as then s^3 + T s^2 <= C (W s + T s) N'."""
    if s * s <= _CHEBYSHEV_COST:
        return None
    on, at, mag = row == col, block * s + row, np.abs(val)
    width = 1 + np.bincount(at[~on], minlength=k * s).reshape(k, s).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.bincount(at, np.where(on, val.real, -mag), k * s).reshape(k, s).min(axis=1)
        hi = np.bincount(at, np.where(on, val.real, mag), k * s).reshape(k, s).max(axis=1)
        return width * s, (hi + lo) / 2, (hi - lo) / 2


def _ell_slab(g: _Blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each block's ELL slab (Bell and Garland, SC'09), columns and values (W,
    s) with -2i H~ v = sum_j vals[j] v[cols[j]]: slot 0 holds H_ii - c, the
    next each row's off-diagonal entries in column order, padded with the
    row's own column and value 0; every value is scaled by -2i / r."""
    (block, row, col, val), (size, centre, radius) = g.entries, g.stats
    (k, s), ends = g.idx.shape, np.cumsum(size)
    base = np.repeat(ends - size, s) + np.tile(np.arange(s), k)  # slot 0 of each row
    cols, vals = np.tile(np.arange(s), ends[-1] // s), np.zeros(ends[-1], dtype=val.dtype)
    at, on = block * s + row, row == col
    off = np.flatnonzero(~on)
    # a row's entries are adjacent: each sits in slot 1 + its place in the run
    first = np.flatnonzero(np.diff(at_off := at[off], prepend=-1))
    slot = np.arange(1, len(off) + 1) - np.repeat(first, np.diff(first, append=len(off)))
    place = base[at_off] + slot * s
    cols[place], vals[place] = col[off], val[off]
    vals[base] = np.repeat(-centre, s)
    with np.errstate(all="ignore"):  # blocks the rule prices out may overflow
        vals[base[at[on]]] += val[on]
        vals = vals * np.repeat((-2 / radius) * 1j, size)
    return [(c.reshape(-1, s), v.reshape(-1, s))
            for c, v in zip(np.split(cols, ends[:-1]), np.split(vals, ends[:-1]))]


def _sector_eigensystem(h: HamiltonianSpec) -> SectorEigensystem:
    """Split H into the connected components of its nonzero pattern and keep,
    per block size, each block's indices and in-block entries; no block is
    diagonalized here. A real H (every Hamiltonian ``build_hamiltonian``
    assembles) keeps real entries, so its blocks are diagonalized in real
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
    groups, start = [], 0
    for s in np.unique(size).tolist():
        idx = order[size_in_order == s].reshape(-1, s)
        idx.flags.writeable = False
        # entry (r, c) of block b sits at rank[r] - start = b*s + row and
        # rank[c] - start = b*s + column; the triplets are row-major, and so
        # are each block's entries
        sel = inside & (size[rows] == s)
        at_row, at_col = rank[rows[sel]] - start, rank[cols[sel]] - start
        entries = (at_row // s, at_row % s, at_col % s, vals[sel])
        groups.append(_Blocks(idx, entries, np.zeros(len(idx), dtype=bool),
                              _block_stats(len(idx), s, *entries)))
        start += idx.size
    return SectorEigensystem(groups)


def build_hamiltonian(space: FockSpace,
                      terms: Sequence[HamiltonianTerm | tuple],
                      tol: Tolerances = Tolerances()) -> HamiltonianSpec:
    """Assemble sum of terms, adding each term's adjoint unless it is already
    self-adjoint. An empty term list gives the zero operator."""
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


def conversion_hamiltonian(space: FockSpace, coupling: float,
                           create_labels: Sequence[str],
                           annihilate_labels: Sequence[str]) -> HamiltonianSpec:
    """g(prod a^dagger prod a + h.c.): converts quanta between mode sets.
    With one created and two annihilated modes this is the trilinear family
    that empties an embedded pair into an outside mode."""
    factors = tuple(("create", l) for l in create_labels) + \
        tuple(("annihilate", l) for l in annihilate_labels)
    return build_hamiltonian(space, [(float(coupling), factors)])


def evolve(psi0: StateVector, h: HamiltonianSpec, t: float,
           tol: Tolerances = Tolerances()) -> StateVector:
    """psi(t) = exp(-i H t) psi0: the state of the one-point trajectory at t,
    with its checks."""
    return evolve_trajectory(psi0, h, [t], tol=tol).states[0]


@dataclass
class Trajectory:
    """Recorded evolution: the state at each time, as read-only views of the
    rows of one (T, D) array, plus scalar monitors at each time."""

    times: np.ndarray
    states: list[StateVector]
    norms: np.ndarray
    energies: np.ndarray
    charge_expectations: dict[str, np.ndarray]
    relational_traces: dict[str, np.ndarray]

    def deficits(self, key: str) -> np.ndarray:
        """Trace deficit 1 - Tr rho for a monitored embedding."""
        return 1.0 - self.relational_traces[key]


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise, as re^2 + im^2."""
    return np.square(z.real) + np.square(z.imag)


def evolve_trajectory(psi0: StateVector, h: HamiltonianSpec, times: Sequence[float],
                      embeddings: Mapping[str, Embedding] | None = None,
                      charge_kinds: Sequence[str] = (),
                      tol: Tolerances = Tolerances()) -> Trajectory:
    """Evolve and record norm, energy, charge expectations and relational
    traces for each registered embedding at every requested time. Each
    monitor is one array expression over the support columns of the states:
    norms, charges and index-map traces are sums of |a|^2, weighted by the
    charge or by how many embedded columns each entry carries; energies are
    the triplet sums inside the support; an explicit isometry V gives its
    traces from one product conj(a) @ V."""
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
    n = h.space.dimension

    times_arr = np.asarray(list(times), dtype=np.float64)
    # Phases w t that overflow make states NaN; the drift check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        amps, support = h.eigensystem.propagate(psi0.amplitudes, times_arr)
        # take keeps rows contiguous, so each row is summed as one vector
        occupied = amps.take(support, axis=1)
        weights = _abs2(occupied)
        norms = weights.sum(axis=1)
        energies = h.energies(amps, support)
        charges = {kind: (weights * q[support]).sum(axis=1)
                   for kind, q in charge_diags.items()}
        traces = {}
        for key, emb in embeddings.items():
            if emb.rows is None:
                traces[key] = _abs2(amps.conj() @ emb.isometry).sum(axis=1)
            else:
                carried = np.bincount(emb.rows[emb.rows >= 0], minlength=n)[support]
                traces[key] = (weights * carried).sum(axis=1)
    drift = float(np.abs(norms - 1.0).max(initial=0.0))
    if not drift < tol.evolve:  # NaN fails too
        raise ValueError(f"evolution lost unitarity: max norm drift {drift:g}")
    states = [StateVector(psi0.space_id, row) for row in amps]
    return Trajectory(times=times_arr, states=states, norms=norms,
                      energies=energies, charge_expectations=charges, relational_traces=traces)


def trace_deficit_trajectory(psi0: StateVector, h: HamiltonianSpec, e: Embedding,
                             times: Sequence[float],
                             charge_kinds: Sequence[str] = (),
                             tol: Tolerances = Tolerances()) -> Trajectory:
    """Trajectory with the relational trace of one embedding monitored under
    the key 'subsystem'; deficits('subsystem') gives 1 - Tr rho_A(t)."""
    return evolve_trajectory(psi0, h, times, embeddings={"subsystem": e},
                             charge_kinds=charge_kinds, tol=tol)

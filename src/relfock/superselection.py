"""Charge sectors and superselection checks.

Basis states are grouped by total additive charge using exact integer
arithmetic. If the reference state is a charge eigenstate and the embedding
respects the additive structure, the reduced state of any factor is
block-diagonal across that factor's charge sectors; check_superselection
measures the largest off-sector matrix element.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChargeCompatibilityError
from .hilbert import Embedding, FockSpace, StateVector, charge_values, column_charges
from .relational import relational_state
from .tolerances import Tolerances, resolve


@dataclass(frozen=True)
class SectorDecomposition:
    """Partition of a space's basis indices by total charge value."""

    space_id: str
    charge_kind: str
    dimension: int
    sectors: tuple[tuple[int, tuple[int, ...]], ...]  # (charge, basis indices), charge ascending

    @property
    def charges(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.sectors)

    def indices(self, charge: int) -> tuple[int, ...]:
        for q, idx in self.sectors:
            if q == charge:
                return idx
        raise KeyError(f"no sector with charge {charge}")


def sector_decomposition(space: FockSpace, kind: str) -> SectorDecomposition:
    """Group basis states by total charge (exact integers)."""
    values = charge_values(space, kind)
    by_charge: dict[int, list[int]] = {}
    for i, q in enumerate(values):
        by_charge.setdefault(int(q), []).append(i)
    sectors = tuple((q, tuple(by_charge[q])) for q in sorted(by_charge))
    return SectorDecomposition(space_id=space.space_id, charge_kind=kind,
                               dimension=space.dimension, sectors=sectors)


def is_charge_eigenstate(psi: StateVector, dec: SectorDecomposition,
                         tol: Tolerances | None = None) -> int | None:
    """The charge value whose sector holds essentially all amplitude weight,
    or None if the state straddles sectors."""
    tol = resolve(tol)
    if psi.space_id != dec.space_id or psi.dimension != dec.dimension:
        raise ValueError(
            f"state in {psi.space_id!r} does not match sector decomposition of"
            f" {dec.space_id!r}"
        )
    weights = np.abs(psi.amplitudes) ** 2
    total = float(weights.sum())
    if total == 0.0:
        return None
    for q, idx in dec.sectors:
        inside = float(weights[list(idx)].sum())
        if total - inside < tol.norm:
            return q
    return None


@dataclass(frozen=True)
class SuperselectionReport:
    """Outcome of a block-diagonality check on a reduced state.

    applicable is False when the reference state is not a charge eigenstate;
    the off-sector magnitude is still computed (and then typically nonzero,
    which is what makes the check falsifiable)."""

    charge_kind: str
    reference_charge: int | None
    applicable: bool
    off_block_max: float
    passed: bool
    tolerance: float


def _column_sectors(e: Embedding, kind: str, tol: Tolerances) -> np.ndarray:
    """Reference-space sector of every embedding column, or raise if any
    column straddles sectors. A zero column counts as the lowest sector."""
    charges = column_charges(e, kind)
    if charges is not None:
        return charges
    ref_sectors = sector_decomposition(e.reference, kind)
    weights = np.abs(e.isometry) ** 2
    n_cols = weights.shape[1]
    col_norm = weights.sum(axis=0)
    sector_weight = np.stack(
        [weights[list(idx), :].sum(axis=0) for _, idx in ref_sectors.sectors]
    )  # (n_sectors, n_cols)
    best = np.argmax(sector_weight, axis=0)
    off = col_norm - sector_weight[best, np.arange(n_cols)]
    if float(off.max()) >= tol.norm:
        col = int(np.argmax(off))
        raise ChargeCompatibilityError(
            f"embedding column {col} has weight {float(off[col]):g} outside a single"
            f" {ref_sectors.charge_kind} sector of {e.reference_id!r}"
        )
    charges = np.array([q for q, _ in ref_sectors.sectors], dtype=np.int64)
    return charges[best]


def check_embedding_charge_compatibility(e: Embedding, kind: str,
                                         tol: Tolerances | None = None) -> None:
    """Require that the sector of each column depend only on the total
    subsystem-plus-complementer charge, one sector per total, distinct totals
    in distinct sectors. Additivity then forces block-diagonal reductions of
    charge-eigenstate references."""
    tol = resolve(tol)
    col_charge = _column_sectors(e, kind, tol)
    q_a = charge_values(e.subsystem, kind)
    q_b = charge_values(e.complementer, kind)
    totals = (q_a[:, None] + q_b[None, :]).reshape(-1)
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


def check_superselection(psi_R: StateVector, e: Embedding, kind: str,
                         tol: Tolerances | None = None) -> SuperselectionReport:
    """Measure the largest matrix element of the reduced subsystem state that
    connects different subsystem charge sectors.

    For a charge-eigenstate reference and a charge-compatible embedding this
    must vanish; a reference superposed across sectors is reported as not
    applicable together with the (generally nonzero) off-sector magnitude.
    """
    tol = resolve(tol)
    psi_R.require_space(e.reference_id, e.reference.dimension)
    check_embedding_charge_compatibility(e, kind, tol)
    ref_sectors = sector_decomposition(e.reference, kind)
    reference_charge = is_charge_eigenstate(psi_R, ref_sectors, tol)

    rho = relational_state(psi_R, e, "A", tol)
    q_a = charge_values(e.subsystem, kind)
    off_mask = q_a[:, None] != q_a[None, :]
    off_block_max = float(np.abs(rho.matrix[off_mask]).max()) if off_mask.any() else 0.0

    applicable = reference_charge is not None
    return SuperselectionReport(
        charge_kind=kind,
        reference_charge=reference_charge,
        applicable=applicable,
        off_block_max=off_block_max,
        passed=applicable and off_block_max < tol.ssr,
        tolerance=tol.ssr,
    )

"""Charge sectors and superselection checks.

Basis states are grouped by total additive charge using exact integer
arithmetic, as the ascending distinct charges plus one int64 label per basis
state, the position of its charge there. If the reference state is a charge
eigenstate and the embedding respects the additive structure, the reduced
state of any factor is block-diagonal across that factor's charge sectors;
check_superselection measures the largest off-sector matrix element.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChargeCompatibilityError
from .hilbert import (Embedding, FockSpace, StateVector, charge_values, column_charges,
                      read_only)
from .relational import relational_state
from .tolerances import Tolerances


@dataclass(frozen=True, eq=False)
class SectorDecomposition:
    """Partition of a space's basis indices by total charge value: the
    distinct charges ascending (sector_charges) and each basis state's
    position among them (labels), both read-only int64 arrays."""

    space_id: str
    charge_kind: str
    sector_charges: np.ndarray
    labels: np.ndarray

    @property
    def charges(self) -> tuple[int, ...]:
        return tuple(self.sector_charges.tolist())

    @property
    def sectors(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(charge, basis indices) per sector, charge ascending."""
        return tuple((q, self.indices(q)) for q in self.charges)

    def indices(self, charge: int) -> tuple[int, ...]:
        charges = self.charges
        if charge not in charges:
            raise KeyError(f"no sector with charge {charge}")
        return tuple(np.flatnonzero(self.labels == charges.index(charge)).tolist())


def sector_decomposition(space: FockSpace, kind: str) -> SectorDecomposition:
    """Group basis states by total charge (exact integers)."""
    charges, labels = np.unique(charge_values(space, kind), return_inverse=True)
    return SectorDecomposition(space_id=space.space_id, charge_kind=kind,
                               sector_charges=read_only(charges, np.int64),
                               labels=read_only(labels, np.int64))


def is_charge_eigenstate(psi: StateVector, dec: SectorDecomposition,
                         tol: Tolerances = Tolerances()) -> int | None:
    """The charge value whose sector holds essentially all amplitude weight,
    or None if the state straddles sectors."""
    psi.require_space(dec.space_id, dec.labels.size)
    weights = np.abs(psi.amplitudes) ** 2
    total = float(weights.sum())
    if total == 0.0:
        return None
    inside = np.bincount(dec.labels, weights=weights)
    held = np.flatnonzero(total - inside < tol.norm)
    return int(dec.sector_charges[held[0]]) if held.size else None


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


def _column_sectors(e: Embedding, ref_sectors: SectorDecomposition,
                    tol: Tolerances) -> np.ndarray:
    """Reference-space sector of every embedding column, or raise if any
    column straddles sectors. A zero column counts as the lowest sector."""
    charges = column_charges(e, ref_sectors.charge_kind)
    if charges is not None:
        return charges
    weights = np.abs(e.isometry) ** 2
    sector_weight = np.stack([weights[ref_sectors.labels == j].sum(axis=0)
                              for j in range(ref_sectors.sector_charges.size)])
    best = np.argmax(sector_weight, axis=0)
    off = weights.sum(axis=0) - sector_weight[best, np.arange(weights.shape[1])]
    if float(off.max()) >= tol.norm:
        col = int(np.argmax(off))
        raise ChargeCompatibilityError(
            f"embedding column {col} has weight {float(off[col]):g} outside a single"
            f" {ref_sectors.charge_kind} sector of {e.reference_id!r}"
        )
    return ref_sectors.sector_charges[best]


def _check_compatibility(e: Embedding, ref_sectors: SectorDecomposition,
                         tol: Tolerances) -> None:
    """Require that the sector of each column depend only on the total
    subsystem-plus-complementer charge, one sector per total, distinct totals
    in distinct sectors; additivity then forces block-diagonal reductions of
    charge-eigenstate references. Each error names the offender that a scan
    of the columns in order meets first."""
    kind = ref_sectors.charge_kind
    col_charge = _column_sectors(e, ref_sectors, tol)
    q_a = charge_values(e.subsystem, kind)
    q_b = charge_values(e.complementer, kind)
    totals, first, inverse = np.unique((q_a[:, None] + q_b[None, :]).reshape(-1),
                                       return_index=True, return_inverse=True)
    sector = col_charge[first]  # the sector of each total's first column
    clash = sector[inverse] != col_charge
    if clash.any():
        raise ChargeCompatibilityError(
            f"columns with total {kind} charge {int(totals[inverse[np.argmax(clash)]])}"
            f" land in different reference sectors"
        )
    order = np.lexsort((first, sector))  # totals by sector, then by first column
    shared = np.flatnonzero(sector[order][1:] == sector[order][:-1]) + 1
    if shared.size:
        # The total met first whose sector an earlier total holds; it is second in its sector.
        later = shared[np.argmin(first[order][shared])]
        raise ChargeCompatibilityError(
            f"distinct total {kind} charges {int(totals[order[later - 1]])} and"
            f" {int(totals[order[later]])} land in the same reference sector"
        )


def check_superselection(psi_R: StateVector, e: Embedding, kind: str,
                         tol: Tolerances = Tolerances()) -> SuperselectionReport:
    """Measure the largest matrix element of the reduced subsystem state that
    connects different subsystem charge sectors.

    For a charge-eigenstate reference and a charge-compatible embedding this
    must vanish; a reference superposed across sectors is reported as not
    applicable together with the (generally nonzero) off-sector magnitude.
    """
    psi_R.require_space(e.reference_id, e.reference.dimension)
    ref_sectors = sector_decomposition(e.reference, kind)
    _check_compatibility(e, ref_sectors, tol)
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

"""Numeric tolerances used across the library.

All comparisons against exact algebraic identities (isometry, Hermiticity,
unit norm, ...) go through a single Tolerances record, passed per call, so
they can be tightened or relaxed for one run, e.g. from the command line.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10        # |norm^2 - 1| for unit vectors, trace bounds
    herm: float = 1e-10        # max |M - M^dagger|, isometry defect, orthonormality
    psd: float = 1e-10         # permitted negative slack on eigenvalues
    degen: float = 1e-9        # eigenvalue gap below which a group counts as degenerate
    zero_eig: float = 1e-12    # eigenvalues below this are not reported as outcomes
    evolve: float = 1e-9       # norm/energy drift allowed along a trajectory
    ssr: float = 1e-12         # max off-sector matrix element in superselection checks
    marg: float = 1e-9         # marginal-consistency slack for joint distributions

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        return replace(self, **kwargs)

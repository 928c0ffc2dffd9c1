"""Spin structures as circle holonomy, and the Fourier mode lattices.

Separation of variables splits every operator over frequencies nu along
the circle factor.  Scalar fields use the integer lattice 2*pi*m/P.
Spinors see the holonomy of the spin structure: the bounding structure is
antiperiodic along the circle (half-integer lattice), the non-bounding one
periodic (integer lattice, which is what admits a parallel spinor on the
flat cylinder).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError


class SpinStructure(enum.Enum):
    BOUNDING = "bounding"
    NON_BOUNDING = "non-bounding"

    @property
    def antiperiodic(self) -> bool:
        return self is SpinStructure.BOUNDING

    def to_json(self) -> str:
        return self.value

    @staticmethod
    def from_json(name):
        if name is None:
            return None
        try:
            return SpinStructure(name)
        except ValueError as exc:
            raise AssemblyError(f"unknown spin structure {name!r}") from exc


#: marker for scalar fields in enumerate_modes
SCALAR = "scalar"


@dataclass(frozen=True)
class ModeSet:
    """Finite, sign-symmetric set of circle frequencies for one field kind."""

    frequencies: tuple
    field_kind: str  # 'scalar' or 'spinor'
    cutoff: int

    def __iter__(self):
        return iter(self.frequencies)

    def __contains__(self, nu):
        return any(abs(nu - x) <= 1e-12 for x in self.frequencies)


def _offset(structure) -> float:
    if structure == SCALAR:
        return 0.0
    if isinstance(structure, SpinStructure):
        return 0.5 if structure.antiperiodic else 0.0
    raise AssemblyError(f"expected SpinStructure or SCALAR, got {structure!r}")


def enumerate_modes(structure, period: float, cutoff: int) -> ModeSet:
    """Lowest-|nu| frequencies: 2*cutoff of them, plus nu=0 when present.

    nu = 2*pi*(m + eps)/P with eps = 1/2 exactly for bounding spinors.
    """
    if cutoff < 1:
        raise AssemblyError(f"cutoff must be >= 1, got {cutoff}")
    if not period > 0:
        raise AssemblyError(f"period must be positive, got {period}")
    eps = _offset(structure)
    base = 2.0 * math.pi / period
    if eps == 0.0:
        ms = range(-cutoff, cutoff + 1)
    else:
        ms = range(-cutoff, cutoff)
    freqs = tuple(sorted(base * (m + eps) for m in ms))
    kind = SCALAR if structure == SCALAR else "spinor"
    return ModeSet(frequencies=freqs, field_kind=kind, cutoff=cutoff)


def mode_in_structure(nu: float, structure, period: float) -> bool:
    """Whether nu lies on the Fourier lattice of the given field."""
    eps = _offset(structure)
    m = nu * period / (2.0 * math.pi) - eps
    return abs(m - round(m)) <= 1e-9


def mode_lower_bound_term(nu: float, warp, grid) -> float:
    """min over the grid of nu^2/f^2, the centrifugal floor of mode nu.

    The scalar mode-nu quadratic form dominates this multiple of the mass,
    so any mode whose floor exceeds the current best eigenvalue cannot
    improve the sweep and may be skipped.
    """
    f = np.asarray(warp.value(grid.nodes), dtype=float)
    return float(nu * nu * np.min(1.0 / (f * f)))

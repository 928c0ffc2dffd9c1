"""Spin structures as circle holonomy, and the Fourier mode lattices.

Separation of variables splits every operator over frequencies nu along
the circle factor.  Scalar fields use the integer lattice 2*pi*m/P.
Spinors see the holonomy of the spin structure: the bounding structure is
antiperiodic along the circle (half-integer lattice), the non-bounding one
periodic (integer lattice, which is what admits a parallel spinor on the
flat cylinder).  Tones and probes walk lattice_modes upward until
mode_lower_bound_term clears their level.
"""

from __future__ import annotations

import enum
import math

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


#: marker for scalar fields in lattice_modes
SCALAR = "scalar"


def _offset(structure) -> float:
    if structure == SCALAR:
        return 0.0
    if isinstance(structure, SpinStructure):
        return 0.5 if structure.antiperiodic else 0.0
    raise AssemblyError(f"expected SpinStructure or SCALAR, got {structure!r}")


def lattice_modes(structure, period: float, count: int) -> list:
    """The `count` lowest nonnegative lattice frequencies, ascending.

    nu = 2*pi*(m + eps)/P, m = 0, 1, ..., with eps = 1/2 exactly for
    bounding spinors, else 0; mode -nu has the spectrum of mode nu.
    """
    if not period > 0:
        raise AssemblyError(f"period must be positive, got {period}")
    eps = _offset(structure)
    base = 2.0 * math.pi / period
    return [base * (m + eps) for m in range(count)]


def mode_in_structure(nu: float, structure, period: float) -> bool:
    """Whether nu lies on the Fourier lattice of the given field."""
    eps = _offset(structure)
    m = nu * period / (2.0 * math.pi) - eps
    return abs(m - round(m)) <= 1e-9


def mode_lower_bound_term(nu: float, warp, grid) -> float:
    """min over the grid of nu^2/f^2, the centrifugal floor of mode nu.

    The scalar mode-nu quadratic form dominates this multiple of the mass,
    and the floor grows with |nu|, so the first mode whose floor exceeds
    the best eigenvalue certifies every higher mode.
    """
    f = np.asarray(warp.value(grid.nodes), dtype=float)
    return float(nu * nu * np.min(1.0 / (f * f)))

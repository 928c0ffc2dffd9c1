import math

import numpy as np
import pytest

from diraclab.geometry import ConstantWarp, CosineWarp
from diraclab.operators import Grid
from diraclab.spin import (
    SCALAR,
    SpinStructure,
    lattice_modes,
    mode_in_structure,
    mode_lower_bound_term,
)


def test_bounding_half_integer_lattice():
    assert lattice_modes(SpinStructure.BOUNDING, 2 * math.pi, 3) == \
        [0.5, 1.5, 2.5]


def test_nonbounding_integer_lattice():
    assert lattice_modes(SpinStructure.NON_BOUNDING, 2 * math.pi, 3) == \
        [0.0, 1.0, 2.0]


def test_scalar_lattice_on_double_cover():
    assert lattice_modes(SCALAR, 4 * math.pi, 3) == [0.0, 0.5, 1.0]


def test_lattice_modes_ascend_on_the_lattice():
    rng = np.random.default_rng(11)
    for _ in range(20):
        period = float(rng.uniform(0.5, 20.0))
        count = int(rng.integers(1, 65))
        structure = rng.choice([SCALAR, SpinStructure.BOUNDING,
                                SpinStructure.NON_BOUNDING])
        modes = lattice_modes(structure, period, count)
        assert len(modes) == count
        assert all(lo < hi for lo, hi in zip(modes, modes[1:]))
        assert all(mode_in_structure(nu, structure, period) for nu in modes)
        step = 2 * math.pi / period
        if structure == SpinStructure.BOUNDING:
            assert modes[0] == 0.5 * step
        else:
            assert modes[0] == 0.0


def test_bounding_never_contains_zero():
    for period in (1.0, 2 * math.pi, 11.0):
        modes = lattice_modes(SpinStructure.BOUNDING, period, 5)
        assert all(nu > 1e-12 for nu in modes)


def test_mode_in_structure():
    assert mode_in_structure(0.5, SpinStructure.BOUNDING, 2 * math.pi)
    assert not mode_in_structure(0.5, SpinStructure.NON_BOUNDING, 2 * math.pi)
    assert mode_in_structure(0.0, SCALAR, 2 * math.pi)
    assert mode_in_structure(0.5, SCALAR, 4 * math.pi)


def test_mode_lower_bound_term_zero_mode():
    (f,) = ConstantWarp(1.0).derivatives(Grid(a=0.0, b=1.0, n=32).nodes, (0,))
    assert mode_lower_bound_term(0.0, f) == 0.0


def test_mode_lower_bound_term_constant_warp():
    (f,) = ConstantWarp(1.0).derivatives(Grid(a=0.0, b=1.0, n=32).nodes, (0,))
    assert mode_lower_bound_term(1.0, f) == pytest.approx(1.0, abs=1e-14)


def test_mode_lower_bound_term_cosine_window():
    # window (-pi/2 + 0.1, pi/2 - 0.1); odd node count puts t = 0 on the
    # grid, where (1/4)/cos^2 attains its minimum 1/4
    grid = Grid(a=-math.pi / 2 + 0.1, b=math.pi / 2 - 0.1, n=301)
    (f,) = CosineWarp().derivatives(grid.nodes, (0,))
    term = mode_lower_bound_term(0.5, f)
    assert term == pytest.approx(0.25, abs=1e-12)

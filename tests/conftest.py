import pytest

from diraclab.eigensolve import GridPolicy, fundamental_tone, sample_ladder
from diraclab.operators import KIND_DIRAC, KIND_LAPLACIAN
from diraclab.scenarios import find_scenario


@pytest.fixture(scope="session")
def sphere_scenario():
    return find_scenario("round-sphere")


@pytest.fixture(scope="session")
def sphere_dirac_tone(sphere_scenario):
    sc = sphere_scenario
    return fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, sample_ladder(
        sc.surface, GridPolicy().grids(sc.surface)))


@pytest.fixture(scope="session")
def sphere_laplace_tone(sphere_scenario):
    sc = sphere_scenario
    return fundamental_tone(sc.surface, KIND_LAPLACIAN, None, sample_ladder(
        sc.surface, GridPolicy().grids(sc.surface)))

"""diraclab: spectral bounds for Laplace and Dirac operators on
surfaces of revolution, at desk scale.

The package discretizes warped-product metrics dt^2 + f(t)^2 dphi^2,
separates operators over circle modes, computes fundamental tones with
refinement extrapolation, and checks the curvature and area lower bounds
(including the tracked counterexample families) scenario by scenario.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AssemblyError,
    CatalogError,
    ConvergenceError,
    DiraclabError,
    DomainError,
    GeometryError,
    InfiniteAreaError,
    SchemaError,
)
from .geometry import (  # noqa: F401
    ConstantWarp,
    CosineWarp,
    CurvatureProfile,
    ExpCuspWarp,
    TabulatedWarp,
    WarpedSurface,
    area,
    curvature_profile,
    gauss_curvature,
    surface_from_json,
)
from .spin import (  # noqa: F401
    SCALAR,
    SpinStructure,
    lattice_modes,
    mode_lower_bound_term,
)
from .operators import (  # noqa: F401
    KIND_DIRAC,
    KIND_LAPLACIAN,
    Grid,
    MassMatrix,
    ReducedOperator,
    Section,
    assemble_dirac_square,
    assemble_laplacian,
    bochner_gradient_energy,
    dump_operator,
    leibniz_defect,
    make_grid,
    rayleigh_quotient,
)
from .eigensolve import (  # noqa: F401
    EigenResult,
    GridPolicy,
    ProbeResult,
    ToneResult,
    fundamental_tone,
    richardson,
    smallest_eigenpairs,
    truncation_probe,
)
from .bounds import (  # noqa: F401
    BoundVerdict,
    CutoffReport,
    KillingDiagnostics,
    SpectralReport,
    area_bound,
    cutoff_stability_check,
    essential_bound_check,
    friedrich_bound,
    friedrich_check,
    killing_equality_check,
    lichnerowicz_check,
)
from .scenarios import (  # noqa: F401
    Scenario,
    builtin_catalog,
    cover_scenario,
    eval_test_section,
    find_scenario,
    mk_orthogonality,
    section_norm2,
)

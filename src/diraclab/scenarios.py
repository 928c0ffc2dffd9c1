"""Built-in scenario catalog: geometries, test sections, expected outcomes.

Every scenario is built by a generator function below, with closed-form
test sections and a list of expected checks, each carrying a provenance
note for where its number comes from; ``Scenario.to_json`` writes it in
the schema the CLI accepts for user scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import AssemblyError, CatalogError, GeometryError
from .operators import (CUSP_TAIL_REL, KIND_DIRAC, KIND_LAPLACIAN, KINDS,
                        Grid, Section, block_section, check_on_lattice)
from .spin import SpinStructure

ANGULAR_FULL = "full_period"
ANGULAR_HALF = "half_period"


@dataclass(frozen=True)
class SectionSpec:
    """Closed-form reduced section attached to a scenario."""

    name: str
    field_kind: str  # operators.KIND_*
    mode: float
    profile: str  # 'cos_cap' or 'boxed_sine'
    params: dict = field(default_factory=dict)
    angular: str = ANGULAR_FULL

    def __post_init__(self):
        where = f"section {self.name!r}"
        if self.field_kind not in KINDS:
            raise CatalogError(
                f"{where}: unknown field_kind {self.field_kind!r}")
        if self.profile not in ("cos_cap", "boxed_sine"):
            raise CatalogError(f"{where}: unknown profile {self.profile!r}")
        if self.angular not in (ANGULAR_FULL, ANGULAR_HALF):
            raise CatalogError(f"{where}: key 'angular' must be {ANGULAR_FULL}"
                               f" or {ANGULAR_HALF}, got {self.angular!r}")
        params = ("t0", "length") if self.profile == "boxed_sine" else ()
        # a Laplacian block squares its mode in the centrifugal term
        rules = {"mode": " whose square is finite", "length": " above 0"}
        for key, x in [("mode", self.mode)] + [
                (k, self.params.get(k)) for k in params]:
            if (not geometry.is_finite_number(x)
                    or key == "length" and not x > 0
                    or key == "mode" and not float(x) * float(x) < math.inf):
                raise CatalogError(f"{where}: key {key!r} must be a finite "
                                   f"number{rules.get(key, '')}, got {x!r}")
        object.__setattr__(self, "mode", float(self.mode))

    def to_json(self):
        return {
            "name": self.name,
            "field_kind": self.field_kind,
            "mode": self.mode,
            "profile": self.profile,
            "params": dict(self.params),
            "angular": self.angular,
        }


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    surface: geometry.WarpedSurface
    spin: SpinStructure | None
    sections: tuple = ()
    expected: tuple = ()

    def section_spec(self, name: str) -> SectionSpec:
        for spec in self.sections:
            if spec.name == name:
                return spec
        raise CatalogError(
            f"scenario {self.id!r} has no section named {name!r}")

    def to_json(self):
        return {
            "id": self.id,
            "description": self.description,
            "surface": self.surface.to_json(),
            "spin": None if self.spin is None else self.spin.to_json(),
            "sections": [s.to_json() for s in self.sections],
            "expected": [dict(e) for e in self.expected],
        }


def _string(doc: dict, key: str, default: str | None = None) -> str:
    """doc[key], or default where the key is absent and a default is given;
    a string either way."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, str):
        raise CatalogError(f"malformed scenario document: key {key!r} must "
                           f"be a string, got {value!r}")
    return value


def scenario_from_json(doc: dict) -> Scenario:
    """The scenario of a document; CatalogError where it describes none: a
    section whose mode is off its field's Fourier lattice (check_on_lattice)
    or a boxed sine whose support misses the open interval (t_min, t_max)
    included."""
    try:
        sections = tuple(
            SectionSpec(name=_string(s, "name"), field_kind=s["field_kind"],
                        mode=s["mode"], profile=s["profile"],
                        params=dict(s.get("params", {})),
                        angular=s.get("angular", ANGULAR_FULL))
            for s in doc.get("sections", []))
        scenario = Scenario(
            id=_string(doc, "id"),
            description=_string(doc, "description", ""),
            surface=geometry.surface_from_json(doc["surface"]),
            spin=SpinStructure.from_json(doc.get("spin")),
            sections=sections,
            expected=tuple(dict(e) for e in doc.get("expected", [])),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed scenario document: {exc}") from exc
    except GeometryError as exc:
        raise CatalogError(
            f"malformed scenario document: key 'surface': {exc}") from exc
    except AssemblyError as exc:
        raise CatalogError(
            f"malformed scenario document: key 'spin': {exc}") from exc
    lo, hi = scenario.surface.t_min, scenario.surface.t_max
    for spec in sections:
        where = f"malformed scenario document: section {spec.name!r}"
        try:
            check_on_lattice(spec.field_kind, scenario.spin, spec.mode,
                             scenario.surface.period)
        except AssemblyError as exc:
            raise CatalogError(f"{where}: {exc}") from exc
        if spec.profile == "boxed_sine":
            t0 = spec.params["t0"]
            t1 = t0 + spec.params["length"]
            if not (t0 < hi and t1 > lo):
                raise CatalogError(f"{where}: support ({t0}, {t1}) misses "
                                   f"the surface interval ({lo}, {hi})")
    return scenario


_CATALOG_CACHE = None


def builtin_catalog() -> list:
    """The built-in scenarios, generated once per process."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE = list(_generate_builtins())
    return list(_CATALOG_CACHE)


def find_scenario(selector: str) -> Scenario:
    """The built-in scenario of an id: from builtin_catalog()'s list where
    it is built, else built in catalog order up to the match only."""
    for sc in _CATALOG_CACHE or _generate_builtins():
        if sc.id == selector:
            return sc
    raise CatalogError(f"unknown scenario id {selector!r}")


def eval_test_section(scenario: Scenario, name: str, grid: Grid) -> Section:
    """Sample a named closed-form section on a grid."""
    spec = scenario.section_spec(name)
    t = grid.nodes
    if spec.profile == "cos_cap":
        values = np.cos(t)
    else:  # boxed_sine
        t0 = float(spec.params["t0"])
        length = float(spec.params["length"])
        inside = (t > t0) & (t < t0 + length)
        values = np.where(inside,
                          np.sin(np.pi * (t - t0) / length), 0.0)
    return block_section(spec.field_kind, spec.mode, grid, 0, values)


def section_norm2(scenario: Scenario, name: str, grid: Grid, w) -> float:
    """Weighted L2 norm squared of a named section over the full surface.

    w are the node weights of the grid (operators.sample_grid's Samples.w),
    which carry the full period P; a real cosine mode has angular mass P/2,
    so it takes half of that, and everything else all of it (a
    parallel-frame spinor amplitude integrates |.|^2 = 1).
    """
    spec = scenario.section_spec(name)
    section = eval_test_section(scenario, name, grid)
    total = sum(float(np.sum(w * np.abs(c) ** 2))
                for c in section.components())
    return 0.5 * total if spec.angular == ANGULAR_HALF else total


def mk_orthogonality(scenario: Scenario, grid: Grid, w,
                     name: str = "f_k") -> float:
    """Weighted inner product of a separated cosine section with 1.

    w are the node weights of the grid (operators.sample_grid's Samples.w).
    Mode separation makes this vanish exactly (the angular integral of
    cos(nu phi) over a full period is zero for lattice nu != 0); the
    returned value is the floating-point product of the separated factors.
    """
    spec = scenario.section_spec(name)
    section = eval_test_section(scenario, name, grid)
    P = scenario.surface.period
    nu = spec.mode
    # the angular integral as a fraction of the period the weights carry
    angular = 1.0 if nu == 0 else math.sin(nu * P) / (nu * P)
    return angular * float(np.sum(w * section.values))


# ---------------------------------------------------------------------------
# catalog generation
# ---------------------------------------------------------------------------

_HALF_PI = math.pi / 2.0


def _round_sphere_surface() -> geometry.WarpedSurface:
    return geometry.WarpedSurface(
        warp=geometry.CosineWarp(), t_min=-_HALF_PI, t_max=_HALF_PI,
        period=2.0 * math.pi)


def round_sphere_scenario() -> Scenario:
    return Scenario(
        id="round-sphere",
        description=(
            "Unit sphere with both rotation poles removed; constant Gauss "
            "curvature 1.  The first nonzero Laplace eigenvalue is 2, the "
            "squared spinor operator has fundamental tone 1, and both the "
            "curvature bound and the area bound are attained there."),
        surface=_round_sphere_surface(),
        spin=SpinStructure.BOUNDING,
        sections=(),
        expected=(
            {"check": "area", "value": 4.0 * math.pi, "rel_tol": 1e-10,
             "provenance": "closed-form integral of the cosine profile"},
            {"check": "kappa_spinor", "value": 0.5, "tol": 1e-9,
             "provenance": "constant curvature: scal/4 = 1/2"},
            {"check": "laplace_tone", "value": 2.0, "tol": 1e-3,
             "provenance": "sphere spectrum l(l+1), first nonzero"},
            {"check": "dirac_tone", "value": 1.0, "tol": 1e-3,
             "provenance": "squared spinor spectrum (k+1)^2; equals both "
                           "closed-form bounds"},
            {"check": "tone_attaining_mode", "value": 0.5, "tol": 1e-9,
             "provenance": "half-integer mode of the minimizing section"},
            {"check": "bound_verdict", "bound": "friedrich",
             "verdict": "holds", "value": 1.0,
             "provenance": "equality case; n kappa/(n-1) = 2 * 1/2"},
            {"check": "bound_verdict", "bound": "area", "verdict": "holds",
             "value": 1.0,
             "provenance": "equality case; 4 pi/area = 4 pi/(4 pi)"},
            {"check": "bound_verdict", "bound": "lichnerowicz",
             "verdict": "holds", "statistic": "tone",
             "provenance": "equality case for the function Laplacian"},
            {"check": "bound_verdict", "bound": "essential",
             "verdict": "holds",
             "provenance": "compact-like: no end carries essential "
                           "spectrum"},
            {"check": "killing", "max_norm_variation": 1e-2,
             "max_bochner_ratio": 1e-2,
             "provenance": "equality-case section has constant length and "
                           "connection energy 1/n of the operator energy"},
        ),
    )


def cover_scenario(k: int) -> Scenario:
    """k-fold covering of the punctured sphere, with pulled-back spin.

    The circle holonomy of the covering pullback is (-1)^k, so odd covers
    keep the bounding structure and even covers the non-bounding one.
    """
    if k < 1:
        raise CatalogError("cover index k must be >= 1")
    spin = SpinStructure.BOUNDING if k % 2 == 1 else SpinStructure.NON_BOUNDING
    quotient = 2.0 - 1.5 * (1.0 - k ** -2)
    expected = [
        {"check": "area", "value": 4.0 * math.pi * k, "rel_tol": 1e-10,
         "provenance": "k-fold cover multiplies the base area"},
        {"check": "section_norm2", "section": "f_k",
         "value": 4.0 * k * math.pi / 3.0, "tol": 1e-6,
         "provenance": "separated quadrature (P/2) * int cos^3"},
        {"check": "section_rayleigh", "section": "f_k",
         "value": quotient, "tol": 1e-3,
         "provenance": "closed-form quotient 2 - (3/2)(1 - 1/k^2)"},
        {"check": "orthogonality", "section": "f_k", "max_abs": 1e-12,
         "provenance": "mode separation against the constants"},
        {"check": "dirac_tone", "value": 1.0, "tol": 1e-3,
         "provenance": "pulled-back equality-case section lives in mode "
                       "1/2 on every cover"},
        {"check": "bound_verdict", "bound": "friedrich", "verdict": "holds",
         "value": 1.0,
         "provenance": "curvature bound is insensitive to incompleteness; "
                       "n kappa/(n-1) = 2 * 1/2"},
    ]
    if k == 1:
        expected.append(
            {"check": "bound_verdict", "bound": "lichnerowicz",
             "verdict": "holds", "statistic": "section", "section": "f_k",
             "provenance": "quotient equals the bound exactly at k = 1"})
    else:
        expected.append(
            {"check": "bound_verdict", "bound": "lichnerowicz",
             "verdict": "violated-as-predicted", "statistic": "section",
             "section": "f_k", "predicted": True,
             "provenance": "mean-zero test function with quotient below "
                           "the bound on the incomplete cover"})
    return Scenario(
        id=f"cover-m{k}",
        description=(
            f"{k}-fold covering of the punctured sphere with the pulled "
            f"back metric; constant curvature 1 but incomplete.  The "
            f"separated test function in mode 1/{k} is orthogonal to "
            f"constants yet its quotient drops below the first-eigenvalue "
            f"bound once k >= 2."),
        surface=geometry.WarpedSurface(
            warp=geometry.CosineWarp(), t_min=-_HALF_PI, t_max=_HALF_PI,
            period=2.0 * math.pi * k),
        spin=spin,
        sections=(SectionSpec(name="f_k", field_kind=KIND_LAPLACIAN,
                              mode=1.0 / k, profile="cos_cap",
                              angular=ANGULAR_HALF),),
        expected=tuple(expected),
    )


def flat_cylinder_scenario(length: float, spin: SpinStructure) -> Scenario:
    tag = "bounding" if spin is SpinStructure.BOUNDING else "nonbounding"
    lam = (math.pi / length) ** 2
    if spin is SpinStructure.BOUNDING:
        lam += 0.25
    ab = 2.0 / length  # 4*pi / (2*pi*L)
    expected = [
        {"check": "area", "value": 2.0 * math.pi * length, "rel_tol": 1e-10,
         "provenance": "product metric: area = P * L"},
        {"check": "laplace_tone", "value": (math.pi / length) ** 2,
         "tol": 1e-3, "provenance": "Dirichlet string ground value"},
        {"check": "dirac_tone", "value": lam, "tol": 1e-3,
         "provenance": "flat reduction -u'' + nu^2 u with Dirichlet ends"},
        {"check": "bound_verdict", "bound": "friedrich",
         "verdict": "inapplicable",
         "provenance": "flat metric: curvature constant is zero"},
        {"check": "bound_verdict", "bound": "lichnerowicz",
         "verdict": "inapplicable", "statistic": "tone",
         "provenance": "flat metric: Ricci constant is zero"},
        {"check": "bound_verdict", "bound": "essential",
         "verdict": "inapplicable",
         "provenance": "curvature tail vanishes; degenerate floor"},
        {"check": "killing", "applicable": False,
         "provenance": "no equality case on a flat cylinder"},
    ]
    if spin is SpinStructure.BOUNDING:
        expected.append(
            {"check": "bound_verdict", "bound": "area", "verdict": "holds",
             "provenance": "bounding structure: tone 1/4 + (pi/L)^2 stays "
                           "above 2/L for every L"})
    else:
        verdict = "violated-as-predicted" if lam < ab else "holds"
        prov = ("tone (pi/L)^2 drops below 2/L once L exceeds pi^2/2"
                if verdict != "holds" else
                "short cylinder: (pi/L)^2 still above 2/L although the "
                "spin hypothesis fails")
        expected.append(
            {"check": "bound_verdict", "bound": "area", "verdict": verdict,
             "predicted": True, "provenance": prov})
        expected.append(
            {"check": "section_rayleigh", "section": "dirichlet_sine",
             "value": (math.pi / length) ** 2, "tol": 1e-3,
             "provenance": "sine profile times the parallel frame is an "
                           "exact reduced eigensection"})
    sections = ()
    if spin is SpinStructure.NON_BOUNDING:
        sections = (SectionSpec(
            name="dirichlet_sine", field_kind=KIND_DIRAC, mode=0.0,
            profile="boxed_sine",
            params={"t0": 0.0, "length": length}),)
    return Scenario(
        id=f"flat-cylinder-l{length:g}-{tag}",
        description=(
            f"Flat cylinder of length {length:g} and circumference 2*pi "
            f"with the {spin.value} spin structure; Dirichlet ends realize "
            f"the canonical extension on the incomplete surface."),
        surface=geometry.WarpedSurface(
            warp=geometry.ConstantWarp(1.0), t_min=0.0, t_max=length,
            period=2.0 * math.pi),
        spin=spin,
        sections=sections,
        expected=tuple(expected),
    )


def _smoothed_ramp(x: np.ndarray, w: float) -> np.ndarray:
    """C2 ramp: 0 for x <= -w, x for x >= w, quintic-blended derivative."""
    out = np.where(x >= w, x, 0.0)
    mid = np.abs(x) < w
    s = (x[mid] + w) / (2.0 * w)
    anti = s ** 4 * 2.5 - s ** 5 * 3.0 + s ** 6  # integral of smoothstep5
    out = out.astype(float)
    out[mid] = anti * 2.0 * w
    return out


def _cusp_profile(length: float, cusp_area: float, period: float,
                  blend: float = 0.1, samples_per_unit: int = 60):
    """Flat middle [0, L] with exponential cusp ends, C2-blended seams.

    Each cusp is cut where its tail area drops below CUSP_TAIL_REL of the
    cusp mass, the fraction that cuts an infinite ExpCuspWarp end.  The
    table is padded past the declared truncation points so natural spline
    ends never distort curvature inside the surface; returns
    (ts, fs, t_lo, t_hi) with the declared interval.
    """
    beta = period / cusp_area
    t_tail = math.log(1.0 / CUSP_TAIL_REL) / beta
    pad = 10.0 / samples_per_unit
    lo, hi = -t_tail - pad, length + t_tail + pad
    n = max(int((hi - lo) * samples_per_unit), 400)
    ts = np.linspace(lo, hi, n + 1)
    g = _smoothed_ramp(-ts, blend) + _smoothed_ramp(ts - length, blend)
    fs = np.exp(-beta * g)
    return ts, fs, -t_tail, length + t_tail


def cusp_cylinder_scenario(length: float = 10.0,
                           cusp_area: float = math.pi) -> Scenario:
    period = 2.0 * math.pi
    ts, fs, t_lo, t_hi = _cusp_profile(length, cusp_area, period)
    lam = (math.pi / length) ** 2
    return Scenario(
        id=f"cusp-cylinder-l{length:g}",
        description=(
            "Complete surface: a flat cylinder with two finite-area "
            "exponential cusp ends, carrying the non-bounding structure.  "
            "The zero-extended sine section is admissible only for the "
            "full first-order form, not for the two-sided Dirichlet form "
            "on the truncated window; its quotient still evaluates to "
            "(pi/L)^2 because it is supported where the metric is exactly "
            "flat, and that upper bound exhibits the area-bound violation. "
            "Tails are truncated where the remaining cusp area falls "
            "below 1e-6 of the cusp mass."),
        surface=geometry.WarpedSurface(
            warp=geometry.TabulatedWarp(ts, fs),
            t_min=t_lo, t_max=t_hi, period=period,
            end_labels=(geometry.END_CUSP, geometry.END_CUSP)),
        spin=SpinStructure.NON_BOUNDING,
        sections=(SectionSpec(
            name="dirichlet_sine", field_kind=KIND_DIRAC, mode=0.0,
            profile="boxed_sine", params={"t0": 0.0, "length": length}),),
        expected=(
            {"check": "area",
             "value": 2.0 * math.pi * length + 2.0 * cusp_area,
             "rel_tol": 1e-3,
             "provenance": "flat middle P*L plus two cusp masses; seams "
                           "blended, tails truncated at 1e-6 relative"},
            {"check": "section_rayleigh", "section": "dirichlet_sine",
             "value": lam, "tol": 1e-3,
             "provenance": "compactly supported in the flat middle"},
            {"check": "bound_verdict", "bound": "area",
             "verdict": "violated-as-predicted", "predicted": True,
             "statistic": "section", "section": "dirichlet_sine",
             "provenance": "certified upper bound (pi/L)^2 below "
                           "4*pi/(2*pi*L + 2*A)"},
            {"check": "bound_verdict", "bound": "friedrich",
             "verdict": "inapplicable",
             "provenance": "cusp curvature is negative"},
            {"check": "bound_verdict", "bound": "essential",
             "verdict": "inapplicable",
             "provenance": "curvature tail is negative; degenerate floor"},
        ),
    )


def _growing_profile(step: float = 5e-4, f_floor: float = 0.02,
                     f_pad: float = 0.003, subsample: int = 10):
    """Integrate f'' = -(1 + t^2) f from (1, 0) and mirror symmetrically.

    The table extends past the declared surface interval (down to f_pad
    instead of f_floor) so the natural-spline end conditions, which force
    the interpolated f'' to zero at the outermost samples, never distort
    curvature inside the surface.  Returns (ts, fs, t_surface_end).
    """
    def rhs(t, f, df):
        return df, -(1.0 + t * t) * f

    f, df, t = 1.0, 0.0, 0.0
    ts = [0.0]
    fs = [1.0]
    h2, h6 = step / 2, step / 6
    while f > f_pad and t < 3.0:
        a1, b1 = rhs(t, f, df)
        a2, b2 = rhs(t + h2, f + h2 * a1, df + h2 * b1)
        a3, b3 = rhs(t + h2, f + h2 * a2, df + h2 * b2)
        a4, b4 = rhs(t + step, f + step * a3, df + step * b3)
        f, df = (f + h6 * (a1 + 2 * a2 + 2 * a3 + a4),
                 df + h6 * (b1 + 2 * b2 + 2 * b3 + b4))
        t += step
        ts.append(t)
        fs.append(f)
    ts = np.array(ts[::subsample])
    fs = np.array(fs[::subsample])
    inside = ts[fs >= f_floor]
    t_end = float(inside[-1])
    ts_full = np.concatenate([-ts[::-1][:-1], ts])
    fs_full = np.concatenate([fs[::-1][:-1], fs])
    return ts_full, fs_full, t_end


def growing_curvature_scenario() -> Scenario:
    ts, fs, T = _growing_profile()
    fracs = (0.7, 0.85, 1.0)
    windows = [[-0.5 * f * 2 * T, 0.5 * f * 2 * T] for f in fracs]
    return Scenario(
        id="growing-curvature",
        description=(
            "Tabulated profile solving f'' = -(1 + t^2) f, so the scalar "
            "curvature is 2(1 + t^2) and the spinor curvature term grows "
            "like t^2/2 toward the ends; eigenvalue counts below a fixed "
            "threshold stabilize on growing windows, the discreteness "
            "indicator."),
        surface=geometry.WarpedSurface(
            warp=geometry.TabulatedWarp(ts, fs), t_min=-T, t_max=T,
            period=2.0 * math.pi),
        spin=SpinStructure.BOUNDING,
        sections=(),
        expected=(
            {"check": "kappa_spinor", "value": 0.5, "tol": 5e-3,
             "provenance": "curvature term (1 + t^2)/2 has infimum 1/2 "
                           "at the equator (spline tolerance)"},
            {"check": "bound_verdict", "bound": "friedrich",
             "verdict": "holds",
             "provenance": "curvature constant 1/2 gives floor 1"},
            {"check": "bound_verdict", "bound": "area", "verdict": "holds",
             "provenance": "bounding structure on a finite-area surface"},
            {"check": "bound_verdict", "bound": "essential",
             "verdict": "holds",
             "provenance": "incomplete: both ends are boundary circles, "
                           "which carry no essential spectrum"},
            {"check": "probe", "operator": "dirac_square",
             "threshold": 3.5, "windows": windows, "behavior": "stable",
             "provenance": "discrete spectrum below a fixed threshold"},
        ),
    )


def long_cylinder_probe_scenario(total: float = 64.0) -> Scenario:
    windows = [[0.0, total / 8], [0.0, total / 4],
               [0.0, total / 2], [0.0, total]]
    threshold = 0.1
    counts = [2 * math.floor(b * math.sqrt(threshold) / math.pi)
              for _, b in windows]
    return Scenario(
        id="long-cylinder-probe",
        description=(
            "Flat cylinder probed on windows of doubling length with the "
            "non-bounding structure: the mode-zero string spectrum "
            "pi^2 j^2 / L^2 accumulates at zero, so counts below a small "
            "threshold keep growing instead of stabilizing."),
        surface=geometry.WarpedSurface(
            warp=geometry.ConstantWarp(1.0), t_min=0.0, t_max=total,
            period=2.0 * math.pi),
        spin=SpinStructure.NON_BOUNDING,
        sections=(),
        expected=(
            {"check": "probe", "operator": "dirac_square",
             "threshold": threshold, "windows": windows,
             "behavior": "growing", "counts": counts,
             "provenance": "closed-form string spectrum below the "
                           "threshold grows linearly with the window: "
                           "2 #{j >= 1 : (pi j/L)^2 < threshold}, both "
                           "mode-0 half-spinor blocks holding it"},
        ),
    )


def _generate_builtins():
    """The built-in scenarios in catalog order, each built when reached."""
    yield round_sphere_scenario()
    for k in (1, 2, 3, 5):
        yield cover_scenario(k)
    for length in (2.0, 5.0, 10.0):
        yield flat_cylinder_scenario(length, SpinStructure.BOUNDING)
        yield flat_cylinder_scenario(length, SpinStructure.NON_BOUNDING)
    yield cusp_cylinder_scenario()
    yield growing_curvature_scenario()
    yield long_cylinder_probe_scenario()


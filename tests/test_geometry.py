import math
from dataclasses import replace

import numpy as np
import pytest

from diraclab import geometry
from diraclab.errors import DomainError, GeometryError
from diraclab.geometry import (
    ConstantWarp,
    CosineWarp,
    ExpCuspWarp,
    TabulatedWarp,
    WarpedSurface,
    area,
    curvature_profile,
    end_kind,
    gauss_curvature,
    surface_from_json,
)
from diraclab.operators import make_grid

HALF_PI = math.pi / 2


def sphere(period=2 * math.pi):
    return WarpedSurface(warp=CosineWarp(), t_min=-HALF_PI, t_max=HALF_PI,
                         period=period)


def cylinder(length=5.0):
    return WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=length,
                         period=2 * math.pi)


def cusp():
    return WarpedSurface(warp=ExpCuspWarp(1.0), t_min=0.0, t_max=math.inf,
                         period=2 * math.pi,
                         end_labels=(geometry.END_BOUNDARY, geometry.END_CUSP))


def test_gauss_curvature_cosine_is_one():
    s = sphere()
    for t in np.linspace(-1.4, 1.4, 17):
        assert gauss_curvature(s, float(t)) == pytest.approx(1.0, abs=1e-12)


def test_gauss_curvature_constant_is_zero():
    s = cylinder()
    assert gauss_curvature(s, 2.3) == 0.0


def test_gauss_curvature_exp_cusp():
    # symbolic second derivative of exp(-t) gives exactly -1
    assert gauss_curvature(cusp(), 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_gauss_curvature_outside_interval_raises():
    with pytest.raises(DomainError):
        gauss_curvature(sphere(), 2.0)
    with pytest.raises(DomainError):
        gauss_curvature(cylinder(), -0.1)


def test_area_round_sphere():
    assert area(sphere()) == pytest.approx(4 * math.pi, rel=1e-10)


def test_area_cover_multiplicativity():
    base = area(sphere())
    for k in (2, 3, 5):
        assert area(sphere(period=2 * k * math.pi)) == pytest.approx(
            k * base, rel=1e-10)


def test_area_flat_cylinder():
    assert area(cylinder(5.0)) == pytest.approx(10 * math.pi, rel=1e-10)


def test_area_exp_cusp_analytic_tail():
    # integral of c e^{-t} over (0, inf) is c, so area = P c
    s = WarpedSurface(warp=ExpCuspWarp(2.0), t_min=0.0, t_max=math.inf,
                      period=2 * math.pi,
                      end_labels=(geometry.END_BOUNDARY, geometry.END_CUSP))
    assert area(s) == pytest.approx(4 * math.pi, rel=1e-10)


def test_area_tabulated_linear_exact():
    # a natural cubic spline reproduces f = 1 + t exactly; its integral over
    # (0.5, 2.5) is 2 + (2.5^2 - 0.5^2) / 2 = 5
    ts = np.linspace(0.0, 3.0, 7)
    s = WarpedSurface(warp=TabulatedWarp(ts, 1.0 + ts), t_min=0.5, t_max=2.5,
                      period=2 * math.pi)
    assert area(s) == pytest.approx(10 * math.pi, rel=1e-12)


def test_area_divergent_raises():
    ts = np.linspace(0.0, 3.0, 7)
    upper_cusp = (geometry.END_BOUNDARY, geometry.END_CUSP)
    for s in (
        WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=math.inf,
                      period=2 * math.pi, end_labels=upper_cusp),
        WarpedSurface(warp=TabulatedWarp(ts, 1.0 + ts), t_min=0.0,
                      t_max=math.inf, period=2 * math.pi,
                      end_labels=upper_cusp),
        WarpedSurface(warp=CosineWarp(), t_min=0.0, t_max=math.inf,
                      period=2 * math.pi, end_labels=upper_cusp),
        WarpedSurface(warp=ExpCuspWarp(1.0), t_min=-math.inf, t_max=0.0,
                      period=2 * math.pi,
                      end_labels=(geometry.END_CUSP, geometry.END_BOUNDARY)),
    ):
        assert area(s) == math.inf


def test_area_that_is_not_positive_raises():
    # geometry.area owns divergence: a finite interval whose integral comes
    # out negative (cos < 0 on (2, 4)) is bad data, not a diverging area
    s = WarpedSurface(warp=CosineWarp(), t_min=2.0, t_max=4.0,
                      period=2 * math.pi)
    with pytest.raises(GeometryError, match="area came out"):
        area(s)


def test_curvature_profile_sphere():
    prof = curvature_profile(sphere(), make_grid(sphere(), 128))
    assert prof.kappa_spinor == pytest.approx(0.5, abs=1e-9)
    assert prof.kappa_oneform == pytest.approx(1.0, abs=1e-9)
    assert prof.kappa_spinor > 0


def test_curvature_profile_cylinder_flat():
    prof = curvature_profile(cylinder(), make_grid(cylinder(), 64))
    assert prof.kappa_spinor == 0.0
    assert prof.kappa_oneform == 0.0
    assert not prof.kappa_spinor > 0


def test_curvature_profile_exp_cusp():
    prof = curvature_profile(cusp(), make_grid(cusp(), 64))
    assert prof.kappa_spinor == pytest.approx(-0.5, abs=1e-9)


def test_end_kinds():
    assert end_kind(sphere(), "lower") == "singular"
    assert end_kind(sphere(), "upper") == "singular"
    assert end_kind(cylinder(), "lower") == "regular"
    assert end_kind(cusp(), "upper") == "cusp"
    assert end_kind(cusp(), "lower") == "regular"


def test_complete_ends_are_the_ends_end_kind_reads_as_cusp():
    # completeness is read from the end labels alone, so a cusp-complete
    # end on a finite interval is complete and a pole is not
    assert sphere().complete_ends == (False, False)
    assert cylinder().complete_ends == (False, False)
    assert cusp().complete_ends == (False, True)
    both = replace(sphere(), end_labels=(geometry.END_CUSP,) * 2)
    assert both.complete_ends == (True, True)
    for s in (sphere(), cylinder(), cusp(), both):
        assert s.complete_ends == tuple(end_kind(s, side) == "cusp"
                                        for side in ("lower", "upper"))


def test_surface_json_roundtrip_all_variants():
    ts = np.linspace(0.0, 3.0, 24)
    fs = 2.0 + np.sin(ts)
    for s in (sphere(), cylinder(),
              replace(cusp(), t_max=8.0, end_labels=(geometry.END_BOUNDARY,
                                                     geometry.END_BOUNDARY)),
              WarpedSurface(warp=TabulatedWarp(ts, fs), t_min=0.2, t_max=2.8,
                            period=4.0)):
        doc = s.to_json()
        back = surface_from_json(doc)
        assert back.to_json() == doc
    # a document's numbers are finite; infinite windows stay in the API
    with pytest.raises(GeometryError, match="'t_max' must be a finite"):
        surface_from_json(cusp().to_json())


def test_warp_positive_reads_the_exact_minimum_on_the_interval():
    # cosine: the interval must lie in one lobe, zero allowed at its ends
    for lo, hi, positive in ((-HALF_PI, HALF_PI, True), (-1.5, 2.0, False),
                             (2 * math.pi - 1.0, 2 * math.pi + 1.0, True),
                             (2.0, 4.0, False)):
        s = WarpedSurface(warp=CosineWarp(), t_min=lo, t_max=hi,
                          period=2 * math.pi)
        assert geometry.warp_positive(s) == positive, (lo, hi)
    # every sample positive, yet the spline dips below zero between two
    warp = TabulatedWarp([0.0, 1.0, 1.1, 2.0, 3.0, 4.0],
                         [1.0, 1.0, 0.001, 1.0, 1.0, 1.0])
    (dense,) = warp.derivatives(np.linspace(0.0, 4.0, 400_001), (0,))
    (low,) = warp.derivatives(warp.minimum_candidates(0.0, 4.0), (0,))
    assert float(np.min(low)) == pytest.approx(float(np.min(dense)),
                                               abs=1e-9)
    assert np.min(low) < -1.19
    s = WarpedSurface(warp=warp, t_min=0.0, t_max=3.0, period=2 * math.pi)
    assert not geometry.warp_positive(s)
    with pytest.raises(GeometryError, match="not positive on"):
        surface_from_json(s.to_json())
    # a spline that is zero at an end, where a singular end sits, reads
    ts = np.linspace(-1.0, 2.0, 13)
    cone = TabulatedWarp(ts, ts + 1.5)
    assert geometry.warp_positive(WarpedSurface(
        warp=cone, t_min=-1.5, t_max=2.0, period=2 * math.pi))
    assert not geometry.warp_positive(WarpedSurface(
        warp=cone, t_min=-1.6, t_max=2.0, period=2 * math.pi))


def test_tabulated_warp_validation():
    with pytest.raises(GeometryError):
        TabulatedWarp([0, 1, 2], [1, 1, 1])  # too few samples
    with pytest.raises(GeometryError):
        TabulatedWarp([0, 1, 1, 2], [1, 1, 1, 1])  # not increasing
    with pytest.raises(GeometryError):
        TabulatedWarp([0, 1, 2, 3], [1, -1, 1, 1])  # not positive
    for ts, fs in (([0, 1, 2, 3], [1, math.nan, 1, 1]),
                   ([0, 1, 2, math.inf], [1, 1, 1, 1])):
        with pytest.raises(GeometryError, match="finite"):
            TabulatedWarp(ts, fs)


def test_tabulated_warp_derivatives_match_spline_theory():
    ts = np.linspace(0.0, 3.0, 400)
    warp = TabulatedWarp(ts, 2.0 + np.sin(ts))
    probe = np.linspace(0.3, 2.7, 50)
    deriv, second = warp.derivatives(probe, (1, 2))
    assert np.max(np.abs(deriv - np.cos(probe))) < 1e-5
    assert np.max(np.abs(second + np.sin(probe))) < 1e-3
    # the catalog tables against scipy's natural spline, inside each table
    # and 0.01 past each end, where both extrapolate with the end pieces
    from scipy.interpolate import CubicSpline

    from diraclab.scenarios import find_scenario
    for scenario in ("cusp-cylinder-l10", "growing-curvature"):
        warp = find_scenario(scenario).surface.warp
        ref = CubicSpline(warp.ts, warp.fs, bc_type="natural")
        lo, hi = warp.ts[0] - 0.01, warp.ts[-1] + 0.01
        probe = np.concatenate([np.linspace(lo, hi, 4001), warp.ts])
        for order, got, tol in zip((0, 1, 2),
                                   warp.derivatives(probe, (0, 1, 2)),
                                   (1e-15, 5e-15, 1e-12)):
            want = ref(probe, order)
            assert (np.max(np.abs(got - want))
                    <= tol * np.max(np.abs(want))), (scenario, order)
        # whole table, past both ends, reversed, a short span in each tail
        # piece, and random spans
        spans = [(warp.ts[0], warp.ts[-1]), (lo, hi), (hi, lo),
                 (lo, warp.ts[0]), (warp.ts[-1], hi),
                 *np.random.default_rng(7).uniform(lo, hi, (200, 2))]
        for a, b in spans:
            want = ref.integrate(a, b)
            assert abs(warp.integral(a, b) - want) <= 1e-14 * abs(want), \
                (scenario, a, b)


def _bits(x):
    """The shape and the bytes of a float array or scalar."""
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _horner(warp, t):
    """f, f' and f'' of a tabulated warp at t, spelled out from its segment
    coefficients by Horner's rule."""
    i, x = warp._segment(t)
    c0, c1, c2, c3 = (c[i] for c in warp._coef)
    return ((c3 * x + c2) * x + c1) * x + c0, \
        (3 * c3 * x + 2 * c2) * x + c1, 6 * c3 * x + 2 * c2


# one warp of each variant, and its f, f' and f'' in closed form
CLOSED_FORMS = [
    (CosineWarp(), lambda t: (np.cos(t), -np.sin(t), -np.cos(t))),
    (ConstantWarp(1.7), lambda t: (np.full_like(np.asarray(t, float), 1.7),
                                   np.zeros_like(np.asarray(t, float)),
                                   np.zeros_like(np.asarray(t, float)))),
    (ExpCuspWarp(1.3), lambda t: (1.3 * np.exp(-np.asarray(t, float)),
                                  -1.3 * np.exp(-np.asarray(t, float)),
                                  1.3 * np.exp(-np.asarray(t, float)))),
    (TabulatedWarp(np.linspace(-1.0, 2.0, 9) ** 3,
                   2.0 + np.sin(np.arange(9.0))), None),
]


@pytest.mark.parametrize("warp,closed", CLOSED_FORMS,
                         ids=lambda x: getattr(x, "variant", ""))
def test_each_warp_s_derivatives_are_its_closed_forms_bit_for_bit(warp,
                                                                   closed):
    # inside and past the ends of the table, at and between its knots, and
    # a scalar; orders 0, 1 and 2 from one call
    closed = closed or (lambda t: _horner(warp, t))
    for t in (np.linspace(-1.5, 8.5, 1001), np.linspace(-1.0, 2.0, 9) ** 3,
              0.3, -1.2):
        got = warp.derivatives(t, (0, 1, 2))
        assert [_bits(g) for g in got] == [_bits(w) for w in closed(t)], t


@pytest.mark.parametrize("warp", [w for w, _ in CLOSED_FORMS],
                         ids=lambda w: w.variant)
def test_grouping_orders_in_one_call_never_changes_a_bit(warp):
    import itertools
    t = np.linspace(-1.5, 8.5, 1001)
    alone = {k: _bits(warp.derivatives(t, (k,))[0]) for k in (0, 1, 2)}
    for size in (1, 2, 3):
        for orders in itertools.permutations((0, 1, 2), size):
            got = warp.derivatives(t, orders)
            assert [_bits(g) for g in got] == [alone[k] for k in orders]


REMOVED_EVALUATORS = {"value", "deriv", "second", "value_and_deriv",
                      "f", "fprime", "f_and_fprime", "fsecond"}


def test_each_warp_has_one_evaluator_and_two_modules_call_it():
    # every warp evaluates f, f' and f'' through derivatives(t, orders)
    # alone: no module calls or defines the four evaluators it replaced on
    # a warp, nor the surface's four pass-throughs, and only the geometry
    # functions and operators.sample_grid evaluate a warp
    import ast
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    removed, callers = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and \
                    node.name in REMOVED_EVALUATORS:
                removed.append(f"{path.name}:{node.lineno} def {node.name}")
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr in REMOVED_EVALUATORS:
                removed.append(f"{path.name}:{node.lineno} "
                               f"{ast.unparse(node.func)}")
            if node.func.attr == "derivatives":
                callers.add(path.name)
    assert removed == []
    assert callers == {"geometry.py", "operators.py"}
    for warp, _ in CLOSED_FORMS:
        assert not REMOVED_EVALUATORS & set(dir(warp))
    assert not REMOVED_EVALUATORS & set(dir(sphere()))


def test_constant_warp_requires_positive():
    with pytest.raises(GeometryError):
        ConstantWarp(0.0)


def test_surface_validation():
    with pytest.raises(GeometryError):
        WarpedSurface(warp=CosineWarp(), t_min=1.0, t_max=0.0, period=1.0)
    with pytest.raises(GeometryError):
        WarpedSurface(warp=CosineWarp(), t_min=0.0, t_max=1.0, period=-1.0)
    with pytest.raises(GeometryError):
        # infinite end must carry the cusp label
        WarpedSurface(warp=ExpCuspWarp(1.0), t_min=0.0, t_max=math.inf,
                      period=1.0)


def test_mirror_symmetric_surfaces():
    # every built-in but the cusp table: the sphere, the covers, the flat
    # cylinders and growing-curvature
    from diraclab.scenarios import builtin_catalog
    assert [sc.id for sc in builtin_catalog()
            if not geometry.mirror_symmetric(sc.surface)] == [
                "cusp-cylinder-l10"]


def test_mirror_symmetric_rejects_what_is_not_even():
    # the growing-curvature table with one sample nudged by 1 ulp
    from diraclab.scenarios import find_scenario
    grown = find_scenario("growing-curvature").surface
    assert geometry.mirror_symmetric(grown)
    fs = grown.warp.fs.copy()
    fs[3] = np.nextafter(fs[3], np.inf)
    nudged = replace(grown, warp=TabulatedWarp(grown.warp.ts, fs))
    assert not geometry.mirror_symmetric(nudged)
    assert not geometry.mirror_symmetric(cusp())
    assert not geometry.mirror_symmetric(
        replace(cusp(), t_min=-1.0, t_max=1.0, end_labels=(
            geometry.END_BOUNDARY, geometry.END_BOUNDARY)))
    assert not geometry.mirror_symmetric(replace(sphere(), t_max=1.2))
    assert geometry.mirror_symmetric(sphere(period=10.0))
    assert geometry.mirror_symmetric(replace(cylinder(), t_min=-3.0))

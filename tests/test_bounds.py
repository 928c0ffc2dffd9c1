import json
import math

import numpy as np
import pytest

from diraclab import bounds
from diraclab.bounds import (
    HOLDS,
    INAPPLICABLE,
    VIOLATED_PREDICTED,
    VIOLATED_UNEXPECTED,
    SOURCE_UPPER,
    area_bound,
    area_bound_check,
    cutoff_stability_check,
    essential_bound_check,
    friedrich_bound,
    friedrich_check,
    killing_equality_check,
    lichnerowicz_check,
    load_report,
    reports_to_csv,
)
from diraclab.eigensolve import GridPolicy, ToneResult, smallest_eigenpairs
from diraclab.errors import AssemblyError, SchemaError
from diraclab.geometry import (
    END_BOUNDARY,
    END_CUSP,
    ConstantWarp,
    WarpedSurface,
    curvature_profile,
)
from diraclab.operators import (
    KIND_DIRAC,
    Section,
    assemble_dirac_square,
    assemble_laplacian,
    make_grid,
)
from diraclab.scenarios import cover_scenario, find_scenario
from diraclab.spin import SpinStructure


def _tone(value, bar=1e-9, kind=KIND_DIRAC):
    return ToneResult(kind=kind, lambda_star=value, nu_star=0.5,
                      error_bar=bar, per_mode={}, table=[], flags=[])


def test_friedrich_bound_values():
    assert friedrich_bound(2, 0.5) == 1.0
    assert friedrich_bound(2, 1.0) == 2.0
    assert friedrich_bound(3, 0.5) == pytest.approx(0.75)
    with pytest.raises(AssemblyError):
        friedrich_bound(1, 0.5)


def test_area_bound_values():
    assert area_bound(4 * math.pi) == pytest.approx(1.0, abs=1e-15)
    assert area_bound(10 * math.pi) == pytest.approx(0.4, abs=1e-15)
    # cusp-extended cylinder, L = 10 and cusp mass pi each:
    # 4 pi / (20 pi + 2 pi) = 2/11
    assert area_bound(22 * math.pi) == pytest.approx(2.0 / 11.0, abs=1e-15)
    assert area_bound(math.inf) == 0.0
    with pytest.raises(AssemblyError):
        area_bound(0.0)


def test_bounds_coincide_on_round_sphere():
    # both closed-form bounds equal 1 there, to 1e-12
    from diraclab.geometry import area
    sc = find_scenario("round-sphere")
    fb = friedrich_bound(2, 0.5)
    ab = area_bound(area(sc.surface))
    assert abs(fb - ab) <= 1e-12
    assert abs(fb - 1.0) <= 1e-12


def test_friedrich_check_sphere_holds(sphere_scenario, sphere_dirac_tone):
    sc = sphere_scenario
    prof = curvature_profile(sc.surface, make_grid(sc.surface, 256))
    v = friedrich_check(sc.surface, prof, sphere_dirac_tone)
    assert v.verdict == HOLDS
    assert v.value == pytest.approx(1.0, abs=1e-9)
    assert abs(v.margin) < 1e-3


def test_friedrich_check_flat_inapplicable():
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    prof = curvature_profile(sc.surface, make_grid(sc.surface, 128))
    v = friedrich_check(sc.surface, prof, _tone(math.pi ** 2 / 25))
    assert v.verdict == INAPPLICABLE
    assert v.value == 0.0


def test_friedrich_check_unexpected_violation_is_flagged(sphere_scenario):
    # a hypothesis-complete violation can only be a numerical failure
    sc = sphere_scenario
    prof = curvature_profile(sc.surface, make_grid(sc.surface, 128))
    v = friedrich_check(sc.surface, prof, _tone(0.5))
    assert v.verdict == VIOLATED_UNEXPECTED


def test_area_check_bounding_cylinder_holds():
    sc = find_scenario("flat-cylinder-l5-bounding")
    v = area_bound_check(sc.surface, sc.spin, 0.25 + math.pi ** 2 / 25, 1e-9)
    assert v.verdict == HOLDS
    assert v.value == pytest.approx(0.4)


def test_area_check_nonbounding_violation_only_when_predicted():
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    v = area_bound_check(sc.surface, sc.spin, math.pi ** 2 / 25, 1e-9)
    assert v.verdict == VIOLATED_PREDICTED
    # short cylinder: hypothesis still fails but nothing is violated
    sc2 = find_scenario("flat-cylinder-l2-nonbounding")
    v2 = area_bound_check(sc2.surface, sc2.spin, math.pi ** 2 / 4, 1e-9)
    assert v2.verdict == HOLDS
    assert any("hypothesis fails" in n for n in v2.notes)


def test_area_check_infinite_area_is_inapplicable():
    # a constant warp on [0, inf) is complete but has infinite area
    surface = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0,
                            t_max=math.inf, period=2.0 * math.pi,
                            end_labels=(END_BOUNDARY, END_CUSP))
    v = area_bound_check(surface, SpinStructure.BOUNDING, 1.0, 1e-9)
    assert v.verdict == INAPPLICABLE
    assert v.value == 0.0
    assert dict(v.hypotheses)["finite area"] is False
    assert any("degenerate" in n for n in v.notes)


def test_lichnerowicz_sphere_equality_and_cover_violation():
    sphere = find_scenario("round-sphere")
    prof = curvature_profile(sphere.surface, make_grid(sphere.surface, 256))
    v = lichnerowicz_check(sphere.surface, prof, 2.0000001, 1e-6)
    assert v.verdict == HOLDS
    m2 = cover_scenario(2)
    prof2 = curvature_profile(m2.surface, make_grid(m2.surface, 256))
    v2 = lichnerowicz_check(m2.surface, prof2, 0.875, 1e-9, predicted=True,
                            statistic_source=SOURCE_UPPER)
    assert v2.verdict == VIOLATED_PREDICTED
    assert v2.value == pytest.approx(2.0, abs=1e-6)
    # same data without the counterexample marker never claims prediction
    v3 = lichnerowicz_check(m2.surface, prof2, 0.875, 1e-9, predicted=False,
                            statistic_source=SOURCE_UPPER)
    assert v3.verdict == INAPPLICABLE


def test_killing_diagnostics_sphere_decrease_under_refinement():
    sc = find_scenario("round-sphere")
    results = []
    for n in (256, 512):
        grid = make_grid(sc.surface, n)
        op = assemble_dirac_square(sc.surface, sc.spin, 0.5, grid)
        res = smallest_eigenpairs(op, 1)
        diag = killing_equality_check(sc.surface, op,
                                      curvature_profile(sc.surface, grid),
                                      res.sections[0],
                                      math.sqrt(res.eigenvalues[0]))
        assert diag.applicable
        results.append(diag)
    assert results[1].norm_variation < results[0].norm_variation < 1e-2
    assert results[1].bochner_ratio_deviation < \
        results[0].bochner_ratio_deviation < 1e-2


def test_killing_check_takes_the_operator_phi_solves():
    sc = find_scenario("round-sphere")
    grid = make_grid(sc.surface, 256)
    prof = curvature_profile(sc.surface, grid)
    op = assemble_dirac_square(sc.surface, sc.spin, 0.5, grid)
    res = smallest_eigenpairs(op, 1)
    alpha = math.sqrt(res.eigenvalues[0])
    assert killing_equality_check(sc.surface, op, prof, res.sections[0],
                                  alpha).applicable
    coarse = make_grid(sc.surface, 128)
    for other in (assemble_dirac_square(sc.surface, sc.spin, 1.5, grid),
                  assemble_dirac_square(sc.surface, sc.spin, 0.5, coarse),
                  assemble_laplacian(sc.surface, 0.5, grid)):
        with pytest.raises(AssemblyError):
            killing_equality_check(sc.surface, other, prof, res.sections[0],
                                   alpha)


def test_killing_inapplicable_off_equality_case():
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    grid = make_grid(sc.surface, 128)
    op = assemble_dirac_square(sc.surface, sc.spin, 0.0, grid)
    res = smallest_eigenpairs(op, 1)
    diag = killing_equality_check(sc.surface, op,
                                  curvature_profile(sc.surface, grid),
                                  res.sections[0],
                                  math.sqrt(res.eigenvalues[0]))
    assert not diag.applicable


def _cylinder_ground(length=16.0, n=512):
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    from diraclab.geometry import ConstantWarp, WarpedSurface
    surf = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=length,
                         period=2 * math.pi)
    grid = make_grid(surf, n)
    op = assemble_dirac_square(surf, SpinStructure.NON_BOUNDING, 0.0, grid)
    res = smallest_eigenpairs(op, 1)
    return surf, grid, res.sections[0]


def test_cutoff_check_long_cylinder_monotone_and_audited():
    surf, grid, phi = _cylinder_ground()
    L = 16.0
    report = cutoff_stability_check(surf, SpinStructure.NON_BOUNDING, phi,
                                    [L / 8, L / 4, L / 2])
    assert report.inequality_ok
    assert report.slopes_ok
    assert report.monotone
    # radius covering the whole window makes the cutoff identically one
    assert report.defects[-1] <= 1e-10


def test_cutoff_compact_support_inside_radius_gives_zero_defect():
    surf, grid, phi = _cylinder_ground()
    # compactly supported section: boxed sine in the middle third
    vals = np.zeros((2, grid.n))
    t = grid.nodes
    inside = (t > 6.0) & (t < 10.0)
    vals[0] = np.where(inside, np.sin(math.pi * (t - 6.0) / 4.0), 0.0)
    sec = Section(kind=KIND_DIRAC, nu=0.0, grid=grid, values=vals)
    report = cutoff_stability_check(surf, SpinStructure.NON_BOUNDING, sec,
                                    [7.0], center=8.0)
    assert report.defects[0] <= 1e-12


def test_cutoff_rejects_oversized_radius():
    surf, grid, phi = _cylinder_ground()
    with pytest.raises(AssemblyError):
        cutoff_stability_check(surf, SpinStructure.NON_BOUNDING, phi, [20.0])


def test_essential_check_three_regimes():
    sphere = find_scenario("round-sphere")
    grid = make_grid(sphere.surface, 256)
    prof = curvature_profile(sphere.surface, grid)
    v = essential_bound_check(sphere.surface, sphere.spin, prof, grid)
    assert v.verdict == HOLDS  # no essential ends, positive floor

    cyl = find_scenario("flat-cylinder-l5-bounding")
    grid = make_grid(cyl.surface, 128)
    prof = curvature_profile(cyl.surface, grid)
    v = essential_bound_check(cyl.surface, cyl.spin, prof, grid)
    assert v.verdict == INAPPLICABLE  # degenerate floor

    grow = find_scenario("growing-curvature")
    grid = make_grid(grow.surface, 256)
    prof = curvature_profile(grow.surface, grid)
    v = essential_bound_check(grow.surface, grow.spin, prof, grid)
    assert v.verdict == HOLDS
    assert any("counts below" in n for n in v.notes)

    cusp = find_scenario("cusp-cylinder-l10")
    grid = make_grid(cusp.surface, 256)
    prof = curvature_profile(cusp.surface, grid)
    v = essential_bound_check(cusp.surface, cusp.spin, prof, grid)
    assert v.verdict == INAPPLICABLE  # negative curvature tail


def test_report_schema_guard_and_csv():
    from diraclab.cli import run_scenario
    rep = run_scenario(find_scenario("flat-cylinder-l2-bounding"),
                       GridPolicy(base_n=64, levels=2))
    text = rep.to_json()
    doc = load_report(text)
    assert doc["scenario"] == "flat-cylinder-l2-bounding"
    csv_text = reports_to_csv([doc])
    header = csv_text.splitlines()[0].split(",")
    assert header == bounds.CSV_COLUMNS
    with pytest.raises(SchemaError):
        load_report(json.dumps({"schema_version": 1}))


def test_json_has_no_nan_tokens():
    from diraclab.cli import run_scenario
    rep = run_scenario(find_scenario("flat-cylinder-l2-bounding"),
                       GridPolicy(base_n=64, levels=2))
    text = rep.to_json()
    assert "NaN" not in text and "Infinity" not in text
    json.loads(text)  # strict-parsable

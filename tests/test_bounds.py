import json
import math
from dataclasses import is_dataclass

import numpy as np
import pytest

from diraclab import bounds
from diraclab.bounds import (
    HOLDS,
    INAPPLICABLE,
    VIOLATED_PREDICTED,
    VIOLATED_UNEXPECTED,
    SOURCE_NONE,
    SOURCE_PROBE,
    SOURCE_TONE,
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
from diraclab.eigensolve import GridPolicy, ProbeResult, smallest_eigenpairs
from diraclab.errors import AssemblyError, SchemaError
from diraclab.geometry import (
    END_BOUNDARY,
    END_CUSP,
    ConstantWarp,
    CosineWarp,
    WarpedSurface,
    area,
    curvature_profile,
)
from diraclab.operators import (
    KIND_DIRAC,
    Grid,
    Section,
    assemble_dirac_square,
    assemble_laplacian,
    bochner_gradient_energy,
    make_grid,
    rayleigh_quotient,
)
from diraclab.scenarios import cover_scenario, find_scenario
from diraclab.spin import SpinStructure


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
    sc = find_scenario("round-sphere")
    fb = friedrich_bound(2, 0.5)
    ab = area_bound(area(sc.surface))
    assert abs(fb - ab) <= 1e-12
    assert abs(fb - 1.0) <= 1e-12


def test_friedrich_check_sphere_holds(sphere_scenario, sphere_dirac_tone):
    sc = sphere_scenario
    prof = curvature_profile(sc.surface, make_grid(sc.surface, 256))
    tone = sphere_dirac_tone
    v = friedrich_check(prof, tone.lambda_star, tone.error_bar, SOURCE_TONE,
                        False)
    assert v.verdict == HOLDS
    assert v.value == pytest.approx(1.0, abs=1e-9)
    assert abs(v.margin) < 1e-3


def test_friedrich_check_flat_inapplicable():
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    prof = curvature_profile(sc.surface, make_grid(sc.surface, 128))
    v = friedrich_check(prof, math.pi ** 2 / 25, 1e-9, SOURCE_TONE, False)
    assert v.verdict == INAPPLICABLE
    assert v.value == 0.0


def test_friedrich_check_unexpected_violation_is_flagged(sphere_scenario):
    # a hypothesis-complete violation can only be a numerical failure
    sc = sphere_scenario
    prof = curvature_profile(sc.surface, make_grid(sc.surface, 128))
    v = friedrich_check(prof, 0.5, 1e-9, SOURCE_TONE, False)
    assert v.verdict == VIOLATED_UNEXPECTED


def test_area_check_bounding_cylinder_holds():
    sc = find_scenario("flat-cylinder-l5-bounding")
    v = area_bound_check(sc.spin, area(sc.surface), 0.25 + math.pi ** 2 / 25,
                         1e-9, SOURCE_TONE, False)
    assert v.verdict == HOLDS
    assert v.value == pytest.approx(0.4)


def test_area_check_nonbounding_violation_only_when_predicted():
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    v = area_bound_check(sc.spin, area(sc.surface), math.pi ** 2 / 25, 1e-9,
                         SOURCE_TONE, True)
    assert v.verdict == VIOLATED_PREDICTED
    # the same violation without the counterexample marker is no prediction
    v = area_bound_check(sc.spin, area(sc.surface), math.pi ** 2 / 25, 1e-9,
                         SOURCE_TONE, False)
    assert v.verdict == INAPPLICABLE
    # short cylinder: hypothesis still fails but nothing is violated
    sc2 = find_scenario("flat-cylinder-l2-nonbounding")
    v2 = area_bound_check(sc2.spin, area(sc2.surface), math.pi ** 2 / 4,
                          1e-9, SOURCE_TONE, True)
    assert v2.verdict == HOLDS
    assert any("hypothesis fails" in n for n in v2.notes)


def test_area_check_infinite_area_is_inapplicable():
    # a constant warp on [0, inf) is complete but has infinite area
    surface = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0,
                            t_max=math.inf, period=2.0 * math.pi,
                            end_labels=(END_BOUNDARY, END_CUSP))
    assert area(surface) == math.inf
    v = area_bound_check(SpinStructure.BOUNDING, math.inf, 1.0, 1e-9,
                         SOURCE_TONE, False)
    assert v.verdict == INAPPLICABLE
    assert v.value == 0.0
    passed = {h["name"]: h["passed"] for h in v.hypotheses}
    assert passed["finite area"] is False
    assert any("degenerate" in n for n in v.notes)


def test_lichnerowicz_sphere_equality_and_cover_violation():
    sphere = find_scenario("round-sphere")
    prof = curvature_profile(sphere.surface, make_grid(sphere.surface, 256))
    v = lichnerowicz_check(prof, False, 2.0000001, 1e-6, SOURCE_TONE, False)
    assert v.verdict == HOLDS
    m2 = cover_scenario(2)
    prof2 = curvature_profile(m2.surface, make_grid(m2.surface, 256))
    v2 = lichnerowicz_check(prof2, False, 0.875, 1e-9, SOURCE_UPPER, True)
    assert v2.verdict == VIOLATED_PREDICTED
    assert v2.value == pytest.approx(2.0, abs=1e-6)
    # same data without the counterexample marker never claims prediction
    v3 = lichnerowicz_check(prof2, False, 0.875, 1e-9, SOURCE_UPPER, False)
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
                                      res.section(0),
                                      math.sqrt(res.eigenvalues[0]))
        assert diag.applicable
        results.append(diag)
    assert results[1].norm_variation < results[0].norm_variation < 1e-2
    assert results[1].bochner_ratio_deviation < \
        results[0].bochner_ratio_deviation < 1e-2


def test_killing_energy_ratio_reads_the_solvers_energy():
    # the audits' energy is the form the solve squares, lambda_0 ||phi||_M^2
    # of smallest_eigenpairs' own value; with kappa = scal/4 = 1/2 on the
    # unit sphere the Bochner ratio deviation is (lambda_0 - 1)/(2 lambda_0)
    sc = find_scenario("round-sphere")
    grid = make_grid(sc.surface, 512)
    op = assemble_dirac_square(sc.surface, sc.spin, 0.5, grid)
    res = smallest_eigenpairs(op, 1)
    phi, lam = res.section(0), res.eigenvalues[0]
    pairs = list(zip(op.blocks, phi.components()))
    curv = sum(float(np.sum(b.mass * 0.5 * c ** 2)) for b, c in pairs)
    norm2 = sum(b.mass_form(c) for b, c in pairs)
    assert bochner_gradient_energy(sc.surface, op, phi) + curv == \
        pytest.approx(lam * norm2, rel=1e-12)
    diag = killing_equality_check(sc.surface, op,
                                  curvature_profile(sc.surface, grid), phi,
                                  math.sqrt(lam))
    assert diag.bochner_ratio_deviation == pytest.approx(
        (lam - 1.0) / (2.0 * lam), rel=1e-9)


def test_killing_check_takes_the_operator_phi_solves():
    # every section audit takes the operator phi solves: another mode,
    # another grid (of another n, or of the same n on another window) and
    # the other kind each raise, where a quotient would read silently; the
    # Laplacian takes mode 1, on its lattice Z, since no scalar mode is 0.5
    sc = find_scenario("round-sphere")
    surf = sc.surface
    grid = make_grid(surf, 256)
    prof = curvature_profile(surf, grid)
    op = assemble_dirac_square(surf, sc.spin, 0.5, grid)
    res = smallest_eigenpairs(op, 1)
    phi = res.section(0)
    alpha = math.sqrt(res.eigenvalues[0])
    audits = [lambda o: rayleigh_quotient(o, phi),
              lambda o: bochner_gradient_energy(surf, o, phi),
              lambda o: killing_equality_check(surf, o, prof, phi, alpha),
              lambda o: cutoff_stability_check(o, phi, [0.3, 0.6])]
    assert killing_equality_check(surf, op, prof, phi, alpha).applicable
    for audit in audits:
        audit(op)
    coarse = make_grid(surf, 128)
    window = Grid(a=0.5 * grid.a, b=0.5 * grid.b, n=grid.n)
    for other in (assemble_dirac_square(surf, sc.spin, 1.5, grid),
                  assemble_dirac_square(surf, sc.spin, 0.5, coarse),
                  assemble_dirac_square(surf, sc.spin, 0.5, window),
                  assemble_laplacian(surf, 1.0, grid)):
        for audit in audits:
            with pytest.raises(AssemblyError):
                audit(other)


def test_killing_inapplicable_off_equality_case():
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    grid = make_grid(sc.surface, 128)
    op = assemble_dirac_square(sc.surface, sc.spin, 0.0, grid)
    res = smallest_eigenpairs(op, 1)
    diag = killing_equality_check(sc.surface, op,
                                  curvature_profile(sc.surface, grid),
                                  res.section(0),
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
    return op, grid, res.section(0)


def test_every_spinor_audit_rejects_a_section_of_another_kind():
    # a scalar ground and the operator it solves pair, but no spinor audit
    # takes them
    _, grid, _ = _cylinder_ground(n=64)
    surf = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=16.0,
                         period=2 * math.pi)
    lap = assemble_laplacian(surf, 0.0, grid)
    phi = smallest_eigenpairs(lap, 1).section(0)
    prof = curvature_profile(surf, grid)
    audits = [lambda: killing_equality_check(surf, lap, prof, phi, 1.0),
              lambda: cutoff_stability_check(lap, phi, [4.0]),
              lambda: bochner_gradient_energy(surf, lap, phi)]
    for audit in audits:
        with pytest.raises(AssemblyError, match="audit needs dirac_square"):
            audit()


def test_cutoff_check_long_cylinder_monotone_and_audited():
    op, grid, phi = _cylinder_ground()
    L = 16.0
    report = cutoff_stability_check(op, phi, [L / 8, L / 4, L / 2])
    assert report.inequality_ok
    assert report.slopes_ok
    assert report.monotone
    # radius covering the whole window makes the cutoff identically one
    assert report.defects[-1] <= 1e-10


def test_cutoff_compact_support_inside_radius_gives_zero_defect():
    op, grid, phi = _cylinder_ground()
    # compactly supported section: boxed sine in the middle third
    vals = np.zeros((2, grid.n))
    t = grid.nodes
    inside = (t > 6.0) & (t < 10.0)
    vals[0] = np.where(inside, np.sin(math.pi * (t - 6.0) / 4.0), 0.0)
    sec = Section(kind=KIND_DIRAC, nu=0.0, grid=grid, values=vals)
    report = cutoff_stability_check(op, sec, [7.0])
    assert report.defects[0] <= 1e-12


def test_cutoff_rejects_oversized_radius():
    op, grid, phi = _cylinder_ground()
    with pytest.raises(AssemblyError):
        cutoff_stability_check(op, phi, [20.0])


def _sphere_ground(n=256):
    sc = find_scenario("round-sphere")
    grid = make_grid(sc.surface, n)
    op = assemble_dirac_square(sc.surface, sc.spin, 0.5, grid)
    return op, smallest_eigenpairs(op, 1).section(0)


def test_cutoff_check_holds_on_the_sphere_equality_mode():
    # nu = 1/2: a mirror block pair with free sides and a_e != 0, so the
    # product-rule term of the right side is not zero
    op, phi = _sphere_ground()
    report = cutoff_stability_check(op, phi, [0.3, 0.6, 1.2])
    assert report.inequality_ok
    assert report.slopes_ok
    assert report.monotone
    assert all(d > 0 for d in report.defects)


def test_cutoff_check_samples_the_warp_slope_once(monkeypatch):
    # the audit reads f'/(2f) from the blocks of the operator it is given:
    # it samples the warp zero times and never evaluates it or its
    # derivative
    from diraclab import operators
    from diraclab.geometry import CosineWarp
    op, phi = _sphere_ground(128)
    sampling, evaluated = [], []
    sample_grid, derivatives = operators.sample_grid, CosineWarp.derivatives

    def counted_sample_grid(*args, **kwargs):
        sampling.append(True)
        return sample_grid(*args, **kwargs)

    def watched_derivatives(self, t, orders):
        evaluated.append(tuple(orders))
        return derivatives(self, t, orders)
    monkeypatch.setattr(operators, "sample_grid", counted_sample_grid)
    monkeypatch.setattr(CosineWarp, "derivatives", watched_derivatives)
    cutoff_stability_check(op, phi, [0.3, 0.6])
    assert sampling == []
    assert evaluated == []


def _essential_on(surface, spin, n):
    grid = make_grid(surface, n)
    prof = curvature_profile(surface, grid)
    return essential_bound_check(surface, spin, prof, grid)


def _essential(sid, n):
    sc = find_scenario(sid)
    return _essential_on(sc.surface, sc.spin, n)


def _complete_cap():
    """A spherical cap cos t on (-1.2, 1.2) with both ends labeled
    cusp-complete: a complete end with the positive floor 1."""
    return WarpedSurface(warp=CosineWarp(), t_min=-1.2, t_max=1.2,
                         period=2.0 * math.pi, end_labels=(END_CUSP,) * 2)


def test_essential_check_three_regimes():
    # each verdict names its statistic: the probe's threshold where it
    # probes, none (NaN) where it does not
    for sid, n in (("round-sphere", 256), ("growing-curvature", 256)):
        v = _essential(sid, n)
        assert v.verdict == HOLDS  # no complete end, positive floor
        assert v.statistic_source == SOURCE_NONE and math.isnan(v.lambda_star)
        assert v.notes == ["no end can carry essential spectrum; holds "
                           "trivially"]

    v = _essential("flat-cylinder-l5-bounding", 128)
    assert v.verdict == INAPPLICABLE  # degenerate floor
    assert v.statistic_source == SOURCE_NONE and math.isnan(v.lambda_star)

    v = _essential("cusp-cylinder-l10", 256)
    assert v.verdict == INAPPLICABLE  # negative curvature tail
    assert v.statistic_source == SOURCE_NONE and math.isnan(v.lambda_star)


def test_no_built_in_probes_for_its_essential_verdict(monkeypatch):
    # no built-in has a complete end with a positive curvature floor, so no
    # essential verdict of the catalog counts window eigenvalues
    from diraclab.scenarios import builtin_catalog

    def boom(*args, **kwargs):
        raise AssertionError("the essential check probed")
    monkeypatch.setattr(bounds, "truncation_probe", boom)
    for sc in builtin_catalog():
        if sc.spin is not None:
            _essential(sc.id, 64)


def test_essential_check_probes_a_complete_end_with_a_positive_floor():
    # the cap has the floor 1; its Dirac square has nothing below 0.95 on
    # any window
    v = _essential_on(_complete_cap(), SpinStructure.BOUNDING, 64)
    assert (v.verdict, v.statistic_source) == (HOLDS, SOURCE_PROBE)
    assert v.value == pytest.approx(1.0, rel=1e-6)
    assert v.lambda_star == bounds.ESSENTIAL_PROBE_MARGIN * v.value
    assert v.notes == [f"counts below {v.lambda_star:.6g}: [0, 0, 0]"]
    assert v.notes[0].startswith("counts below 0.95")


def test_essential_counts_that_keep_growing_are_unexpected(monkeypatch):
    # spectrum accumulating below the floor is a violation with all
    # hypotheses met
    def growing(surface, kind, spin, windows, threshold):
        return ProbeResult(threshold=threshold, windows=windows,
                           counts=[2, 4, 6], stable=False)
    monkeypatch.setattr(bounds, "truncation_probe", growing)
    v = _essential_on(_complete_cap(), SpinStructure.BOUNDING, 64)
    assert v.verdict == VIOLATED_UNEXPECTED
    assert v.statistic_source == SOURCE_PROBE
    assert v.notes[-1] == "window counts kept growing below the floor"
    assert "[2, 4, 6]" in v.notes[0]


def test_essential_windows_stay_inside_a_shifted_surface():
    # shifted by 0.7, the widest window centred on the grid's midpoint
    # would round past t_min; the windows start at the grid's own ends.
    # The growing-curvature profile, with both ends labeled complete so
    # that the check probes
    from dataclasses import replace

    from diraclab.geometry import TabulatedWarp
    grow = replace(find_scenario("growing-curvature").surface,
                   end_labels=(END_CUSP,) * 2)
    shift = 0.7
    moved = replace(grow, warp=TabulatedWarp(grow.warp.ts + shift,
                                             grow.warp.fs),
                    t_min=grow.t_min + shift, t_max=grow.t_max + shift)
    notes = []
    for surface in (grow, moved):
        v = _essential_on(surface, SpinStructure.BOUNDING, 64)
        assert (v.verdict, v.statistic_source) == (HOLDS, SOURCE_PROBE)
        notes.append(v.notes)
    assert notes[0] == notes[1]


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


def test_json_has_no_nan_tokens(tmp_path, capsys):
    # verify, sweep and report write JSON a strict parser reads: the
    # essential verdict's margin and the inapplicable killing diagnostics
    # are not finite, and read null
    from diraclab.cli import main

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    def emit(*argv):
        assert main(list(argv)) == 0
        text = capsys.readouterr().out
        return text, json.loads(text, parse_constant=reject)

    text, report = emit("verify", "--scenario", "flat-cylinder-l2-bounding",
                        "--grid-n", "64", "--levels", "2")
    path = tmp_path / "report.json"
    path.write_text(text)
    _, sweep = emit("sweep", "--sweep", "L=2,5", "--grid-n", "64",
                    "--format", "json")
    _, merged = emit("report", str(path), "--format", "json")
    (essential,) = [v for v in report["verdicts"]
                    if v["bound"] == "essential"]
    assert essential["margin"] is None
    assert report["diagnostics"]["killing"]["norm_variation"] is None
    assert [row["L"] for row in sweep["rows"]] == [2.0, 5.0]
    assert merged["reports"] == [report]


def to_plain(x):
    """x in JSON values: a number that is not finite becomes None (null), a
    numpy scalar its Python number, a tuple a list and a dataclass the dict
    of its fields, at every depth."""
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else None
    if isinstance(x, np.generic):
        return to_plain(x.item())
    if isinstance(x, dict):
        return {k: to_plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_plain(v) for v in x]
    if is_dataclass(x):
        return to_plain(vars(x))
    return x


def _stdlib_dumps(doc) -> str:
    """The reference text bounds.dumps must write."""
    return json.dumps(to_plain(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


@pytest.mark.parametrize("base_n", [128, 512])
def test_dumps_writes_the_stdlib_text_of_every_built_in_report(base_n):
    from diraclab.cli import run_scenario
    from diraclab.scenarios import builtin_catalog
    for sc in builtin_catalog():
        report = run_scenario(sc, GridPolicy(base_n=base_n, levels=3))
        assert report.to_json() == _stdlib_dumps(report._fields()), sc.id


def test_dumps_writes_the_stdlib_text_of_every_value_kind():
    # the null rule of to_plain, numpy scalars, tuples, empty containers,
    # a dataclass, signed zero, exponent floats and escaped strings, at
    # several depths; and the errors the stdlib raises where it raises
    from dataclasses import dataclass as plain_dataclass

    @plain_dataclass
    class Record:
        x: float = math.nan
        pair: tuple = (1, np.float32(2.5))

    doc = {"nan": math.nan, "inf": [math.inf, -math.inf],
           "f64": np.float64(0.1), "f64_nan": np.float64(math.nan),
           "f32": np.float32(0.1), "i64": np.int64(-3),
           "bools": [np.bool_(True), np.bool_(False), True, False],
           "tuple": (1, (2.0, []), {}), "empty": {}, "none": [],
           "record": Record(), "zero": -0.0, "small": 1e-06,
           "big": 10 ** 30, "null": None,
           "text": "héllo ✓ \"q\" \\ \n\t\x01 \U0001f600",
           "café \"key\"": [[[]], [{}], {"k": [Record()]}]}
    for value in (doc, [doc, 1, "s"], {1: "a", 2.5: "b", False: "c"},
                  1.5, math.nan, "s", [], {}, Record(), np.float64(2.0)):
        assert bounds.dumps(value) == _stdlib_dumps(value)
    for bad in ({"k": object()}, {(1,): 2}, {math.nan: 1}, {"a": 1, 2: 3},
                [{1, 2}]):
        with pytest.raises((TypeError, ValueError)) as want:
            _stdlib_dumps(bad)
        with pytest.raises(want.type, match=str(want.value)):
            bounds.dumps(bad)

"""Acceptance suite: every shipped claim, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion at its pinned tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

from diraclab.bounds import (
    HOLDS,
    VIOLATED_PREDICTED,
    VIOLATED_UNEXPECTED,
    area_bound,
    cutoff_stability_check,
    friedrich_bound,
)
from diraclab.cli import _sweep_rows, main, run_scenario
from diraclab.eigensolve import (
    GridPolicy,
    fundamental_tone,
    sample_ladder,
    smallest_eigenpairs,
    truncation_probe,
)
from diraclab.geometry import (
    ConstantWarp,
    WarpedSurface,
    area,
    curvature_profile,
)
from diraclab.operators import (
    KIND_DIRAC,
    KIND_LAPLACIAN,
    Grid,
    Section,
    assemble_dirac_square,
    assemble_laplacian,
    bochner_gradient_energy,
    make_grid,
    rayleigh_quotient,
    sample_grid,
)
from diraclab.scenarios import (
    builtin_catalog,
    cover_scenario,
    eval_test_section,
    find_scenario,
    mk_orthogonality,
    section_norm2,
)
from diraclab.spin import SpinStructure


def _criterion(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_sphere_laplace_tone():
    start = time.perf_counter()
    surface = find_scenario("round-sphere").surface
    tone = fundamental_tone(surface, KIND_LAPLACIAN, None, sample_ladder(
        surface, GridPolicy(base_n=512).grids(surface)))
    elapsed = time.perf_counter() - start
    err = abs(tone.lambda_star - 2.0)
    _criterion(1, err <= 1e-3 and elapsed < 10.0,
               f"first nonzero Laplace eigenvalue {tone.lambda_star:.6f}, "
               f"error {err:.2e} <= 1e-3, runtime {elapsed:.2f}s < 10s")


def test_criterion_2_sphere_dirac_equality_case(sphere_dirac_tone):
    sc = find_scenario("round-sphere")
    tone = sphere_dirac_tone
    err = abs(tone.lambda_star - 1.0)
    fb = friedrich_bound(2, 0.5)
    ab = area_bound(area(sc.surface))
    bounds_meet = abs(fb - 1.0) < 1e-12 and abs(ab - 1.0) < 1e-10

    from diraclab.bounds import killing_equality_check
    diags = []
    for n in (256, 512):
        grid = make_grid(sc.surface, n)
        op = assemble_dirac_square(sc.surface, sc.spin, 0.5, grid)
        res = smallest_eigenpairs(op, 1)
        diags.append(killing_equality_check(
            sc.surface, op, curvature_profile(sc.surface, grid),
            res.section(0), math.sqrt(res.eigenvalues[0])))
    killing_ok = (
        all(d.applicable for d in diags)
        and all(d.norm_variation < 1e-2 for d in diags)
        and all(d.bochner_ratio_deviation < 1e-2 for d in diags)
        and diags[1].norm_variation < diags[0].norm_variation
        and diags[1].bochner_ratio_deviation < diags[0].bochner_ratio_deviation)
    _criterion(2, err <= 1e-3 and bounds_meet and killing_ok,
               f"tone {tone.lambda_star:.6f} (err {err:.2e}), curvature "
               f"bound {fb}, area bound {ab:.12f}, killing variation "
               f"{diags[1].norm_variation:.2e}, energy-ratio deviation "
               f"{diags[1].bochner_ratio_deviation:.2e}, both decreasing")


def test_criterion_3_covering_surfaces():
    details = []
    ok = True
    for k in (2, 3, 5):
        sc = cover_scenario(k)
        grid = make_grid(sc.surface, 512)
        w = sample_grid(sc.surface, grid).w
        norm2 = section_norm2(sc, "f_k", grid, w)
        norm_err = abs(norm2 - 4 * k * math.pi / 3)
        sec = eval_test_section(sc, "f_k", grid)
        op = assemble_laplacian(sc.surface, sec.nu, grid)
        rq = rayleigh_quotient(op, sec)
        rq_err = abs(rq - (2 - 1.5 * (1 - k ** -2)))
        orth = abs(mk_orthogonality(sc, grid, w))
        rep = run_scenario(sc)
        verdict = next(
            c["detail"]["computed"] for c in rep.checks
            if c["name"] == "bound:lichnerowicz")
        ok &= (norm_err <= 1e-6 and rq_err <= 1e-3 and orth <= 1e-12
               and verdict == VIOLATED_PREDICTED)
        details.append(f"k={k}: |norm err|={norm_err:.1e}, "
                       f"|rq err|={rq_err:.1e}, orth={orth:.1e}, {verdict}")
    rep1 = run_scenario(cover_scenario(1))
    verdict1 = next(c["detail"]["computed"] for c in rep1.checks
                    if c["name"] == "bound:lichnerowicz")
    ok &= verdict1 == HOLDS
    details.append(f"k=1: {verdict1}")
    _criterion(3, ok, "; ".join(details))


def test_criterion_4_nonbounding_cylinders_and_crossover():
    ok = True
    details = []
    policy = GridPolicy(base_n=256, levels=3)
    for L in (2.0, 5.0, 10.0):
        sc = find_scenario(f"flat-cylinder-l{L:g}-nonbounding")
        tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, sample_ladder(
            sc.surface, policy.grids(sc.surface)))
        err = abs(tone.lambda_star - (math.pi / L) ** 2)
        ok &= err <= 1e-3
        details.append(f"L={L:g} err {err:.1e}")
    rows, flagged = _sweep_rows("L", [4.5 + 0.25 * i for i in range(5)],
                                SpinStructure.NON_BOUNDING, 128, 2)
    ok &= flagged == []
    signs = [r["margin"] > 0 for r in rows]
    flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
    crossover_ok = len(flips) == 1 and \
        rows[flips[0]]["L"] < math.pi ** 2 / 2 < rows[flips[0] + 1]["L"]
    ok &= crossover_ok
    details.append(
        f"margin sign flip inside [{rows[flips[0]]['L']:g}, "
        f"{rows[flips[0] + 1]['L']:g}] around pi^2/2 = {math.pi**2/2:.4f}")
    _criterion(4, ok, "; ".join(details))


def test_criterion_5_bounding_cylinders():
    ok = True
    details = []
    policy = GridPolicy(base_n=256, levels=3)
    for L in (2.0, 5.0, 10.0):
        sc = find_scenario(f"flat-cylinder-l{L:g}-bounding")
        tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, sample_ladder(
            sc.surface, policy.grids(sc.surface)))
        expect = 0.25 + (math.pi / L) ** 2
        err = abs(tone.lambda_star - expect)
        above = tone.lambda_star >= 2.0 / L - 3 * tone.error_bar
        ok &= err <= 1e-3 and above
        details.append(f"L={L:g} err {err:.1e}, tone >= 2/L: {above}")
    _criterion(5, ok, "; ".join(details))


def test_criterion_6_property_suite():
    sphere = find_scenario("round-sphere")
    cyl = find_scenario("flat-cylinder-l5-bounding")
    grow = find_scenario("growing-curvature")
    checks = {}

    grid = make_grid(sphere.surface, 128)
    sym = True
    for op in (assemble_laplacian(sphere.surface, 1.0, grid),
               assemble_dirac_square(sphere.surface, sphere.spin, 0.5, grid)):
        for block in op.blocks:
            dense = (np.diag(block.diag) + np.diag(block.off, 1)
                     + np.diag(block.off, -1))
            sym &= bool(np.array_equal(dense, dense.T))
    checks["stiffness symmetry exact"] = sym

    nonneg = True
    for sc, nu in ((sphere, 0.5), (cyl, 0.5), (grow, 0.5)):
        g = make_grid(sc.surface, 128)
        op = assemble_dirac_square(sc.surface, sc.spin, nu, g)
        nonneg &= smallest_eigenpairs(op, 1).eigenvalues[0] >= -1e-8
    checks["squared-operator spectra >= -1e-8"] = nonneg

    g = make_grid(sphere.surface, 128)
    mode_sym = True
    for nu in (0.5, 1.5):
        va = smallest_eigenpairs(
            assemble_dirac_square(sphere.surface, sphere.spin, nu, g),
            3).eigenvalues
        vb = smallest_eigenpairs(
            assemble_dirac_square(sphere.surface, sphere.spin, -nu, g),
            3).eigenvalues
        mode_sym &= bool(np.max(np.abs(va - vb)) <= 1e-8)
    checks["mode reflection symmetry <= 1e-8"] = mode_sym

    h = 6.0 / 384
    prev = None
    mono = True
    surf6 = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=6.0,
                          period=2 * math.pi)
    for b in (4.0, 5.0, 6.0):
        gw = Grid(a=0.0, b=b, n=int(round(b / h)) - 1)
        vals = smallest_eigenpairs(
            assemble_laplacian(surf6, 0.0, gw), 4).eigenvalues
        if prev is not None:
            mono &= bool(np.all(vals <= prev + 1e-10))
        prev = vals
    checks["Dirichlet domain monotonicity on 3 nested windows"] = mono

    surf16 = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=16.0,
                           period=2 * math.pi)
    g16 = make_grid(surf16, 512)
    op16 = assemble_dirac_square(surf16, SpinStructure.NON_BOUNDING, 0.0, g16)
    phi16 = smallest_eigenpairs(op16, 1).section(0)
    rep = cutoff_stability_check(op16, phi16, [2.0, 4.0, 8.0])
    checks["cutoff slope audit |grad f_rho| <= 1/rho"] = rep.slopes_ok
    checks["cutoff truncation inequality and monotonicity"] = \
        rep.inequality_ok and rep.monotone

    rng = np.random.default_rng(5)
    bge_ok = True
    for sc, nu in ((sphere, 0.5), (cyl, 0.5), (grow, 0.5)):
        g = make_grid(sc.surface, 128)
        op = assemble_dirac_square(sc.surface, sc.spin, nu, g)
        phi = smallest_eigenpairs(op, 1).section(0)
        bge_ok &= bochner_gradient_energy(sc.surface, op, phi) >= -1e-8
        rnd = Section(kind=KIND_DIRAC, nu=nu, grid=g,
                      values=rng.standard_normal((2, g.n)))
        bge_ok &= bochner_gradient_energy(sc.surface, op, rnd) >= -1e-8
    checks["connection energy >= -1e-8 on nonneg-curvature scenarios"] = \
        bge_ok

    for name, passed in checks.items():
        print(f"  property: {name}: {'PASS' if passed else 'FAIL'}")
    _criterion(6, all(checks.values()),
               f"{sum(checks.values())}/{len(checks)} properties")


def test_criterion_7_truncation_probes():
    grow = find_scenario("growing-curvature")
    exp = next(e for e in grow.expected if e["check"] == "probe")
    probe_g = truncation_probe(grow.surface, KIND_DIRAC, grow.spin,
                               [tuple(w) for w in exp["windows"]],
                               exp["threshold"])
    stable_ok = probe_g.counts[0] == probe_g.counts[1] == probe_g.counts[2]

    surf = WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=64.0,
                         period=2 * math.pi)
    windows = [(0.0, L) for L in (8.0, 16.0, 32.0, 64.0)]
    probe_c = truncation_probe(surf, KIND_DIRAC,
                               SpinStructure.NON_BOUNDING, windows, 0.1)
    oracle = [2 * math.floor(L * math.sqrt(0.1) / math.pi)
              for _, L in windows]
    growing_ok = probe_c.counts == oracle and not probe_c.stable
    _criterion(7, stable_ok and growing_ok,
               f"growing-curvature counts {probe_g.counts} stable; "
               f"long-cylinder counts {probe_c.counts} match the string "
               f"oracle {oracle} and keep growing")


def test_criterion_8_byte_identical_verify(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--scenario", "round-sphere"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    _criterion(8, identical,
               f"two verify runs, {len(a.read_bytes())} bytes each, "
               f"byte-identical: {identical}")


def test_catalog_regression_guard_no_unexpected_verdicts():
    # violated-as-predicted may only appear for the tracked counterexample
    # families, and violated-unexpected never
    allowed_predicted = {
        ("cover-m2", "lichnerowicz"),
        ("cover-m3", "lichnerowicz"),
        ("cover-m5", "lichnerowicz"),
        ("flat-cylinder-l5-nonbounding", "area"),
        ("flat-cylinder-l10-nonbounding", "area"),
        ("cusp-cylinder-l10", "area"),
    }
    for sc in builtin_catalog():
        rep = run_scenario(sc)
        assert rep.all_expected_match, sc.id
        for v in rep.verdicts:
            assert v.verdict != VIOLATED_UNEXPECTED, (sc.id, v.bound)
            if v.verdict == VIOLATED_PREDICTED:
                assert (sc.id, v.bound) in allowed_predicted

import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from diraclab import cli, eigensolve
from diraclab.errors import AssemblyError, ConvergenceError
from diraclab.eigensolve import (
    GridPolicy,
    _backward_error,
    fundamental_tone,
    richardson,
    smallest_eigenpairs,
    truncation_probe,
)
from diraclab.geometry import ConstantWarp, CosineWarp, WarpedSurface
from diraclab.operators import (
    KIND_DIRAC,
    KIND_LAPLACIAN,
    Grid,
    MassMatrix,
    assemble,
    assemble_dirac_square,
    assemble_laplacian,
    make_grid,
)
from diraclab.cli import run_scenario
from diraclab.scenarios import (
    builtin_catalog,
    cover_scenario,
    find_scenario,
)
from diraclab.spin import SpinStructure, mode_lower_bound_term

HALF_PI = math.pi / 2


def sphere():
    return WarpedSurface(warp=CosineWarp(), t_min=-HALF_PI, t_max=HALF_PI,
                         period=2 * math.pi)


def cylinder(length=5.0):
    return WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=length,
                         period=2 * math.pi)


def test_residuals_within_tolerance():
    s = sphere()
    grid = make_grid(s, 512)
    for op in (assemble_laplacian(s, 1.0, grid),
               assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5, grid)):
        res = smallest_eigenpairs(op, 3)
        assert np.all(res.residuals <= grid.n * np.finfo(float).eps)
        assert np.all(np.diff(res.eigenvalues) >= 0)


def _dense_stiffness(block):
    return (np.diag(block.diag) + np.diag(block.off, 1)
            + np.diag(block.off, -1))


def test_blocks_match_dense_generalized_eigh():
    s = sphere()
    grid = make_grid(s, 512)
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5, grid)
    for block in op.blocks:
        ref = scipy.linalg.eigh(_dense_stiffness(block),
                                np.diag(block.mass.weights),
                                eigvals_only=True, subset_by_index=[0, 3])
        got = smallest_eigenpairs(replace(op, blocks=(block,)), 4)
        assert np.max(np.abs(got.eigenvalues - ref)) <= 1e-8


def test_cylinder_scalar_ground_above_512_nodes():
    s = cylinder()
    op = assemble_laplacian(s, 0.0, make_grid(s, 600))
    res = smallest_eigenpairs(op, 2)
    assert res.eigenvalues[0] == pytest.approx(math.pi ** 2 / 25, rel=1e-4)


def test_perturbed_eigenvector_fails_backward_error_gate(monkeypatch):
    s = sphere()
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5,
                               make_grid(s, 512))
    near = smallest_eigenpairs(op, 1).block_values
    lapack = eigensolve.dstein

    def perturbed(*args):
        V, info = lapack(*args)
        noise = np.random.default_rng(7).standard_normal(V.shape)
        return V + 1e-6 * noise / math.sqrt(V.shape[0]), info
    monkeypatch.setattr(eigensolve, "dstein", perturbed)
    for bracket in (None, near):  # the index path and a bracketed level
        with pytest.raises(ConvergenceError, match="backward error"):
            smallest_eigenpairs(op, 1, bracket)


def _same_pairs(got, ref):
    assert np.allclose(got.eigenvalues, ref.eigenvalues, rtol=1e-12, atol=0)
    assert np.array_equal(got.block_index, ref.block_index)
    for a, b in zip(got.sections, ref.sections):
        # an eigenvector's sign is arbitrary
        gap = min(np.max(np.abs(a.values - b.values)),
                  np.max(np.abs(a.values + b.values)))
        assert gap <= 1e-9 * np.max(np.abs(b.values))


def _lapack_calls(monkeypatch):
    calls = {"dpttrf": [], "dstebz": []}
    for name, seen in calls.items():
        def counted(*args, _real=getattr(eigensolve, name), _seen=seen):
            out = _real(*args)
            _seen.append(out)
            return out
        monkeypatch.setattr(eigensolve, name, counted)
    return calls


@pytest.mark.parametrize("scale, widened", [(10.0, "dpttrf"),
                                            (0.01, "dstebz")])
def test_wrong_bracket_widens_to_the_index_pairs(monkeypatch, scale, widened):
    # true level-1 values scaled by 10 fail the lower certificate; scaled
    # by 0.01 they leave too few values below hi
    sc = find_scenario("round-sphere")
    grid = GridPolicy().grids(sc.surface)[1]
    op = assemble(sc.surface, KIND_DIRAC, sc.spin, 0.5, grid)
    ref = smallest_eigenpairs(op, 2)
    calls = _lapack_calls(monkeypatch)
    got = smallest_eigenpairs(op, 2, [scale * v for v in ref.block_values])
    _same_pairs(got, ref)
    assert len(calls[widened]) > len(op.blocks)
    if widened == "dpttrf":
        assert any(info != 0 for _, _, info in calls["dpttrf"])


def test_zero_bracket_on_the_kernel_skip_mode(monkeypatch):
    cusp = find_scenario("cusp-cylinder-l10")
    grid = GridPolicy().grids(cusp.surface)[1]
    op = assemble(cusp.surface, KIND_LAPLACIAN, None, 0.0, grid)
    ref = smallest_eigenpairs(op, 2)
    calls = _lapack_calls(monkeypatch)
    got = smallest_eigenpairs(op, 2, [np.array([0.0])])
    _same_pairs(got, ref)
    assert len(calls["dstebz"]) > 1  # hi widened from the zero value


def test_bracketed_levels_certify_without_widening(monkeypatch):
    # level 0 bisects the index range; levels 1 and 2 each take one
    # certificate and one bisection per block
    calls = _lapack_calls(monkeypatch)
    fundamental_tone(sphere(), KIND_DIRAC, SpinStructure.BOUNDING,
                     GridPolicy(base_n=128, levels=3))
    certs = calls["dpttrf"]
    assert certs and all(info == 0 for _, _, info in certs)
    assert len(calls["dstebz"]) == len(certs) + len(certs) // 2


def test_probe_counts_match_dense_eigvalsh(monkeypatch):
    # the Sturm counts of every probe block of the essential-check
    # scenarios equal a dense count of the generalized spectrum
    seen = []
    real = eigensolve._count_block_below

    def recorded(block, threshold):
        seen.append((block, threshold, real(block, threshold)))
        return seen[-1][2]
    monkeypatch.setattr(eigensolve, "_count_block_below", recorded)
    for sc in builtin_catalog():
        if any(e.get("bound") == "essential" for e in sc.expected):
            run_scenario(sc)
    assert seen
    for block, threshold, count in seen:
        dense = scipy.linalg.eigvalsh(_dense_stiffness(block),
                                      np.diag(block.mass.weights))
        assert count == np.sum(dense <= threshold)


SPHERE_PROBE_WINDOWS = [(-1.2, 1.2), (-1.4, 1.4)]


def test_probe_counts_every_mode_below_the_threshold():
    # brute force: every half-integer mode whose floor is at or below the
    # threshold, dense generalized spectra of its blocks, doubled for
    # nu > 0; the probe's 45 such modes are more than 32
    s, threshold = sphere(), 2000.0
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.BOUNDING,
                             SPHERE_PROBE_WINDOWS, threshold, n_base=256)
    h = 2.4 / 257  # the first window's span over n_base + 1
    expected = []
    for a, b in SPHERE_PROBE_WINDOWS:
        grid = Grid(a=a, b=b, n=int(round((b - a) / h)) - 1)
        total = 0
        for nu in (m + 0.5 for m in range(200)):
            if mode_lower_bound_term(nu, s.warp, grid) > threshold:
                continue
            op = assemble(s, KIND_DIRAC, SpinStructure.BOUNDING, nu, grid)
            for block in op.blocks:
                dense = scipy.linalg.eigvalsh(_dense_stiffness(block),
                                              np.diag(block.mass.weights))
                total += 2 * int(np.sum(dense <= threshold))
        expected.append(total)
    assert probe.counts == expected


def test_probe_raises_when_every_mode_stays_below_the_threshold():
    # 63.5^2 < 5000: no mode within MAX_MODE_CUTOFF has its floor above
    with pytest.raises(ConvergenceError):
        truncation_probe(sphere(), KIND_DIRAC, SpinStructure.BOUNDING,
                         SPHERE_PROBE_WINDOWS, 5000.0, n_base=256)


def test_default_tones_end_at_one_pruning_certificate(monkeypatch):
    # solved modes, ascending, then exactly one mode whose floor is above
    # the tone
    tones = []
    real = cli.fundamental_tone

    def recorded(*args, **kwargs):
        tones.append(real(*args, **kwargs))
        return tones[-1]
    monkeypatch.setattr(cli, "fundamental_tone", recorded)
    for sc in builtin_catalog():
        run_scenario(sc, GridPolicy())
    assert tones
    for tone in tones:
        modes = list(tone.per_mode)
        assert modes == sorted(modes)
        *solved, last = tone.per_mode.values()
        assert solved and all("value" in rec for rec in solved)
        assert list(last) == ["pruned_at"]
        assert last["pruned_at"] > tone.lambda_star


def test_backward_error_is_scale_free():
    s = sphere()
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5,
                               make_grid(s, 512))
    res = smallest_eigenpairs(op, 1)
    block = op.blocks[res.block_index[0]]
    lam = res.eigenvalues[0]
    vec = res.sections[0].values[res.block_index[0]]
    # a perturbed pair, so the residual is well above rounding
    vec = vec + 1e-6 * np.random.default_rng(7).standard_normal(vec.shape)
    err = _backward_error(block, lam, vec)
    assert err > block.n * np.finfo(float).eps
    both = replace(block, diag=1e6 * block.diag, off=1e6 * block.off,
                   mass=MassMatrix(1e6 * block.mass.weights))
    assert _backward_error(both, lam, vec) == pytest.approx(err, rel=1e-8)
    stiff = replace(block, diag=1e6 * block.diag, off=1e6 * block.off)
    assert _backward_error(stiff, 1e6 * lam, vec) == \
        pytest.approx(err, rel=1e-8)


def test_cylinder_dirac_ground_single_grid():
    s = cylinder(5.0)
    op = assemble_dirac_square(s, SpinStructure.NON_BOUNDING, 0.0,
                               make_grid(s, 512))
    res = smallest_eigenpairs(op, 1)
    assert res.eigenvalues[0] == pytest.approx(math.pi ** 2 / 25, abs=1e-4)


def test_count_validation():
    s = cylinder()
    op = assemble_laplacian(s, 0.0, make_grid(s, 32))
    with pytest.raises(AssemblyError):
        smallest_eigenpairs(op, 0)
    with pytest.raises(AssemblyError):
        smallest_eigenpairs(op, op.size - 1)


def test_richardson_recovers_geometric_sequence():
    exact = 1.7
    seq = [exact + 0.1 * 4.0 ** (-k) for k in range(3)]
    val, bar, order = richardson(seq)
    assert val == pytest.approx(exact, abs=1e-12)
    assert order == pytest.approx(2.0, abs=1e-9)
    assert bar >= abs(val - seq[-1])


def test_richardson_handles_non_geometric_noise():
    val, bar, order = richardson([1.0, 1.2, 1.1])
    assert val == 1.1
    assert bar > 0


def test_sphere_dirac_tone(sphere_dirac_tone):
    tone = sphere_dirac_tone
    assert tone.lambda_star == pytest.approx(1.0, abs=1e-3)
    assert tone.nu_star == 0.5
    assert tone.flags == []
    # the first mode above the tone's floor certifies every higher mode
    assert "pruned_at" in tone.per_mode[1.5]


def test_sphere_scalar_first_nonzero(sphere_laplace_tone):
    tone = sphere_laplace_tone
    assert tone.kernel_skipped
    assert tone.lambda_star == pytest.approx(2.0, abs=1e-3)


def test_cylinder_scalar_tone_has_no_kernel_skip():
    tone = fundamental_tone(cylinder(5.0), KIND_LAPLACIAN, None,
                            GridPolicy(base_n=128, levels=2))
    assert not tone.kernel_skipped
    assert tone.lambda_star == pytest.approx(math.pi ** 2 / 25, abs=1e-3)


def test_cover_m2_scalar_mode_below_test_function_quotient():
    # the nu = 1/2 restriction of the cover Laplacian dips below the
    # quotient of the matching test function (0.875), down to nu(nu+1)
    sc = cover_scenario(2)
    tone = fundamental_tone(sc.surface, KIND_LAPLACIAN, None,
                            GridPolicy(base_n=256, levels=3))
    rec = tone.per_mode[0.5]
    assert rec["value"] <= 0.875
    assert rec["value"] == pytest.approx(0.75, abs=2e-3)


def test_cover_m5_dirac_tone_attains_curvature_floor():
    sc = cover_scenario(5)
    tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin,
                            GridPolicy(base_n=256, levels=3))
    assert tone.lambda_star == pytest.approx(1.0, abs=1e-3)
    assert tone.nu_star == pytest.approx(0.5, abs=1e-12)
    # every unpruned mode stays above the floor within its error bar
    for nu, rec in tone.per_mode.items():
        if "value" in rec:
            assert rec["value"] >= 1.0 - 3 * rec["error_bar"] - 1e-9


def test_flat_cylinder_tones_both_structures():
    for L in (2.0, 5.0):
        for spin, shift in ((SpinStructure.NON_BOUNDING, 0.0),
                            (SpinStructure.BOUNDING, 0.25)):
            tone = fundamental_tone(cylinder(L), KIND_DIRAC, spin,
                                    GridPolicy(base_n=128, levels=3))
            expect = shift + (math.pi / L) ** 2
            assert tone.lambda_star == pytest.approx(expect, abs=1e-3)


def test_probe_long_cylinder_counts_match_string_oracle():
    s = cylinder(64.0)
    windows = [(0.0, 8.0), (0.0, 16.0), (0.0, 32.0), (0.0, 64.0)]
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.NON_BOUNDING,
                             windows, 0.1, n_base=400)
    # two spinor components of the periodic zero mode, string values
    # pi^2 j^2 / L^2 below 0.1
    expected = [2 * math.floor(L * math.sqrt(0.1) / math.pi)
                for L in (8, 16, 32, 64)]
    assert probe.counts == expected
    assert not probe.stable
    assert probe.counts[-1] > probe.counts[0]


def test_probe_growing_curvature_counts_stabilize():
    sc = find_scenario("growing-curvature")
    exp = next(e for e in sc.expected if e["check"] == "probe")
    probe = truncation_probe(sc.surface, KIND_DIRAC, sc.spin,
                             [tuple(w) for w in exp["windows"]],
                             exp["threshold"], n_base=400)
    assert probe.stable
    assert probe.counts[0] == probe.counts[-1]


def test_sweep_exhaustion_sets_warning_flag():
    # a very fat cylinder keeps every centrifugal floor below the tone,
    # so even the walk's cap of MAX_MODE_CUTOFF can never certify the
    # pruning
    fat = WarpedSurface(warp=ConstantWarp(1000.0), t_min=0.0, t_max=5.0,
                        period=2 * math.pi)
    tone = fundamental_tone(
        fat, KIND_DIRAC, SpinStructure.NON_BOUNDING,
        GridPolicy(base_n=64, levels=1))
    assert "sweep-exhausted-without-pruning-certificate" in tone.flags
    assert tone.lambda_star == pytest.approx(math.pi ** 2 / 25, rel=1e-3)


def test_tone_lays_each_level_grid_once(monkeypatch):
    # one grid per refinement level, shared by every solved mode and by
    # the pruning terms
    sizes = []
    real = eigensolve.make_grid

    def counted(surface, n, **kwargs):
        sizes.append(n)
        return real(surface, n, **kwargs)
    monkeypatch.setattr(eigensolve, "make_grid", counted)
    tone = fundamental_tone(sphere(), KIND_LAPLACIAN, None,
                            GridPolicy(base_n=64, levels=3))
    assert sum("value" in rec for rec in tone.per_mode.values()) > 1
    assert sizes == [64, 128, 256]


def _fresh_level0_section(surface, kind, spin, nu, base_n, take_second):
    op = assemble(surface, kind, spin, nu, make_grid(surface, base_n))
    return smallest_eigenpairs(op, 2 if take_second else 1).sections[-1]


def test_tone_ground_is_the_level0_section_of_the_attaining_mode(
        sphere_dirac_tone):
    sc = find_scenario("round-sphere")
    tone = sphere_dirac_tone
    fresh = _fresh_level0_section(sc.surface, KIND_DIRAC, sc.spin,
                                  tone.nu_star, GridPolicy().base_n, False)
    assert tone.ground.grid == fresh.grid
    assert tone.ground.nu == fresh.nu
    assert np.array_equal(tone.ground.values, fresh.values)

    # kernel skip: the ground is the second pair of the nu = 0 mode
    cusp = find_scenario("cusp-cylinder-l10")
    tone = fundamental_tone(cusp.surface, KIND_LAPLACIAN, None,
                            GridPolicy(base_n=64, levels=2))
    assert tone.kernel_skipped and tone.nu_star == 0.0
    fresh = _fresh_level0_section(cusp.surface, KIND_LAPLACIAN, None, 0.0,
                                  64, True)
    assert tone.ground.grid == fresh.grid
    assert np.array_equal(tone.ground.values, fresh.values)


def test_probe_rejects_non_nested_windows():
    s = cylinder(10.0)
    with pytest.raises(AssemblyError):
        truncation_probe(s, KIND_DIRAC, SpinStructure.NON_BOUNDING,
                         [(0.0, 8.0), (1.0, 6.0)], 0.1)


def test_probe_round_sphere_counts_stable():
    s = sphere()
    d = 0.3
    windows = [(-HALF_PI + d / 2 ** i, HALF_PI - d / 2 ** i)
               for i in range(3)]
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.BOUNDING,
                             windows, 10.0, n_base=400)
    assert probe.stable


def test_tone_ground_op_is_the_operator_its_ground_solves(sphere_dirac_tone):
    sc = find_scenario("round-sphere")
    tone = sphere_dirac_tone
    op = tone.ground_op
    assert op.kind == KIND_DIRAC and op.nu == tone.ground.nu
    assert op.grid == tone.ground.grid
    fresh = assemble(sc.surface, KIND_DIRAC, sc.spin, tone.nu_star, op.grid)
    for got, ref in zip(op.blocks, fresh.blocks):
        assert np.array_equal(got.diag, ref.diag)
        assert np.array_equal(got.off, ref.off)
        assert np.array_equal(got.mass.weights, ref.mass.weights)


# Runs the three routines as a cold process loads them, without
# scipy.linalg, on block 0 of round-sphere's nu = 0.5 Dirac mode at level 1.
_COLD_LAPACK = """
import sys
import numpy as np
from diraclab import eigensolve
from diraclab.eigensolve import GridPolicy
from diraclab.operators import KIND_DIRAC, assemble
from diraclab.scenarios import find_scenario
sc = find_scenario("round-sphere")
grid = GridPolicy().grids(sc.surface)[1]
op = assemble(sc.surface, KIND_DIRAC, sc.spin, 0.5, grid)
_, d, e = eigensolve._congruence(op.blocks[0])
m, w, iblock, isplit, info = eigensolve.dstebz(d, e, 2, 0.0, 1.0, 1, 2,
                                               0.0, b"B")
V, vinfo = eigensolve.dstein(d, e, w[:m], iblock, isplit)
lo = 0.9 * w[0]
dd, ee, pinfo = eigensolve.dpttrf(d - lo, e)
assert "scipy.linalg" not in sys.modules
np.savez(sys.argv[1], d=d, e=e, w=w, iblock=iblock, isplit=isplit, V=V,
         dd=dd, ee=ee, info=[m, info, vinfo, pinfo])
"""


def test_cold_loaded_lapack_matches_scipy_linalg_lapack(tmp_path):
    from scipy.linalg import lapack
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "cold.npz"
    subprocess.run([sys.executable, "-c", _COLD_LAPACK, str(out)],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    cold = np.load(out)
    d, e = cold["d"], cold["e"]
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 2,
                                               0.0, b"B")
    V, vinfo = lapack.dstein(d, e, w[:m], iblock, isplit)
    dd, ee, pinfo = lapack.dpttrf(d - 0.9 * w[0], e)
    assert list(cold["info"]) == [m, info, vinfo, pinfo] == [2, 0, 0, 0]
    for key, ref in (("w", w), ("iblock", iblock), ("isplit", isplit),
                     ("V", V), ("dd", dd), ("ee", ee)):
        assert np.array_equal(cold[key], ref), key


def _scipy_at(tmp_path):
    """A find_spec stand-in that puts scipy in tmp_path, with a _flapack
    file there that is not an extension module."""
    linalg = tmp_path / "linalg"
    linalg.mkdir()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        (linalg / ("_flapack" + suffix)).write_bytes(b"not a shared object")
    fake = importlib.machinery.ModuleSpec(
        "scipy", None, origin=str(tmp_path / "__init__.py"))
    return lambda name, *args: fake


@pytest.mark.parametrize("where", ["no-suffix", "unloadable-file"])
def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch, tmp_path,
                                                  where):
    from scipy.linalg import lapack
    if where == "no-suffix":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    else:
        monkeypatch.setattr(importlib.util, "find_spec", _scipy_at(tmp_path))
    module = eigensolve._lapack()
    assert module is sys.modules["scipy.linalg._flapack"]
    assert module.dstebz is lapack.dstebz
    assert module.dstein is lapack.dstein and module.dpttrf is lapack.dpttrf

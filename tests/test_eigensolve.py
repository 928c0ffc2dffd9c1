import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from diraclab import bounds, cli, eigensolve, operators
from diraclab.errors import AssemblyError, ConvergenceError
from diraclab.eigensolve import (
    UNCERTIFIED,
    GridPolicy,
    _backward_error,
    check_probe_windows,
    fundamental_tone,
    richardson,
    sample_ladder,
    smallest_eigenpairs,
    truncation_probe,
)
from diraclab.geometry import ConstantWarp, CosineWarp, WarpedSurface
from diraclab.operators import (
    KIND_DIRAC,
    KIND_LAPLACIAN,
    Grid,
    ReducedOperator,
    _assemble_block,
    assemble,
    assemble_dirac_square,
    assemble_laplacian,
    lay_grid,
    make_grid,
    sample_grid,
)
from diraclab.cli import run_scenario
from diraclab.scenarios import (
    builtin_catalog,
    cover_scenario,
    find_scenario,
)
from diraclab.spin import (
    SpinStructure,
    lattice_modes,
    mode_lower_bound_term,
)

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
                                np.diag(block.mass),
                                eigvals_only=True, subset_by_index=[0, 3])
        got = smallest_eigenpairs(replace(op, blocks=(block,)), 4)
        assert np.max(np.abs(got.eigenvalues - ref)) <= 1e-8


def test_cylinder_scalar_ground_above_512_nodes():
    s = cylinder()
    op = assemble_laplacian(s, 0.0, make_grid(s, 600))
    res = smallest_eigenpairs(op, 2)
    assert res.eigenvalues[0] == pytest.approx(math.pi ** 2 / 25, rel=1e-4)


def test_perturbed_eigenvector_fails_backward_error_gate(monkeypatch):
    # noisy dgtsv solves widen each residual interval but still certify
    # the index, so the backward-error gate must reject the pair, whether
    # the block is seeded by bisection or by the coarser level's values
    s = sphere()
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5,
                               make_grid(s, 512))
    near = smallest_eigenpairs(op, 1).block_values

    def perturbed(*args, _real=eigensolve.dgtsv):
        *out, vectors, info = _real(*args)
        noise = np.random.default_rng(7).standard_normal(vectors.shape)
        size = np.linalg.norm(vectors, axis=0) / math.sqrt(vectors.shape[0])
        return (*out, vectors + 1e-6 * size * noise, info)
    monkeypatch.setattr(eigensolve, "dgtsv", perturbed)
    for bracket in (None, near):
        with pytest.raises(ConvergenceError, match="backward error"):
            smallest_eigenpairs(op, 1, bracket)


def test_a_block_that_never_certifies_raises(monkeypatch):
    # no uncertified vector is ever returned: when refinement fails from
    # the coarser level's values and from the bisected ones, the solve
    # raises
    s = sphere()
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5,
                               make_grid(s, 512))
    near = smallest_eigenpairs(op, 2).block_values
    monkeypatch.setattr(eigensolve, "_refine", lambda *args: None)
    for bracket in (None, near):
        with pytest.raises(ConvergenceError,
                           match="the 2 lowest pairs of a block of n = 512"):
            smallest_eigenpairs(op, 2, bracket)


def _same_pairs(got, ref):
    # block by block: the two blocks of a Dirac mode may share a value to
    # rounding, and then their order in the merged list is arbitrary
    got_order, ref_order = (np.lexsort((res.eigenvalues, res.block_index))
                            for res in (got, ref))
    assert np.allclose(got.eigenvalues[got_order],
                       ref.eigenvalues[ref_order], rtol=1e-12, atol=0)
    assert np.array_equal(got.block_index[got_order],
                          ref.block_index[ref_order])
    for a, b in zip((got.section(i) for i in got_order),
                    (ref.section(i) for i in ref_order)):
        # an eigenvector's sign is arbitrary
        gap = min(np.max(np.abs(a.values - b.values)),
                  np.max(np.abs(a.values + b.values)))
        assert gap <= 1e-9 * np.max(np.abs(b.values))


def _lapack_calls(monkeypatch):
    calls = {"dgtsv": [], "_count_below": [], "_refine": [], "_bisect": [],
             "_solve_block": []}
    for name, seen in calls.items():
        def counted(*args, _real=getattr(eigensolve, name), _seen=seen):
            out = _real(*args)
            _seen.append(out)
            return out
        monkeypatch.setattr(eigensolve, name, counted)
    return calls


def _certified(calls):
    """Whether each refinement certified its block."""
    return [out is not None for out in calls["_refine"]]


def _dirac_level1_ops():
    """The nu = 1/2 Dirac operator on the default ladder's level 1 of the
    round sphere, whose blocks mirror each other, and of its cap
    (-pi/2, 1.2), whose blocks do not; each with the blocks it solves."""
    sphere_sc = find_scenario("round-sphere")
    for surface, solved in ((sphere_sc.surface, 1),
                            (replace(sphere_sc.surface, t_max=1.2), 2)):
        grid = GridPolicy().grids(surface)[1]
        yield assemble(surface, KIND_DIRAC, sphere_sc.spin, 0.5, grid), solved


@pytest.mark.parametrize("scale, seed", [(10.0, "bisected"),
                                         (0.01, "coarser")])
def test_wrong_bracket_widens_to_the_index_pairs(monkeypatch, scale, seed):
    # `seed` names the values the certified vectors are refined from: true
    # level-1 values scaled by 10 lead the iteration to higher pairs, and
    # the pivot count finds more values than pairs below them, so each
    # solved block refines again from its bisected values; scaled by 0.01
    # they still reach the two lowest pairs, which the count certifies
    for op, solved in _dirac_level1_ops():
        ref = smallest_eigenpairs(op, 2)
        with monkeypatch.context() as patch:
            calls = _lapack_calls(patch)
            got = smallest_eigenpairs(op, 2,
                                      [scale * v for v in ref.block_values])
        _same_pairs(got, ref)
        blocks = len(calls["_solve_block"])
        assert blocks == solved
        if seed == "bisected":
            assert _certified(calls) == [False, True] * blocks
            assert all(found > 2 for found in calls["_count_below"][::2])
            assert calls["_count_below"][1::2] == [2] * blocks
            assert len(calls["_bisect"]) == blocks
        else:
            assert _certified(calls) == [True] * blocks
            assert calls["_count_below"] == [2] * blocks
            assert not calls["_bisect"]


@pytest.mark.parametrize("picks, found", [((1,), 2), ((0, 2), 3),
                                          ((1, 1), None)])
def test_near_that_skips_a_pair_fails_a_certificate(monkeypatch, picks,
                                                     found):
    # refined from lambda_2 alone, the one pair converges to lambda_2 and
    # the pivot count also finds lambda_1 below its interval; from
    # lambda_1 and lambda_3, it finds three values up to the second
    # interval; from lambda_2 twice, both pairs converge to lambda_2, and
    # their intervals overlap before any count (which would find two
    # values); each time the solved block refines again from its bisected
    # values
    for op, solved in _dirac_level1_ops():
        ref = smallest_eigenpairs(op, len(picks))
        near = [v[list(picks)]
                for v in smallest_eigenpairs(op, 3).block_values]
        with monkeypatch.context() as patch:
            calls = _lapack_calls(patch)
            got = smallest_eigenpairs(op, len(picks), near)
        _same_pairs(got, ref)
        blocks = len(calls["_solve_block"])
        assert blocks == solved
        rejected = [] if found is None else [found]
        assert calls["_count_below"] == (rejected + [len(picks)]) * blocks
        assert _certified(calls) == [False, True] * blocks
        assert len(calls["_bisect"]) == blocks


MIRRORED = ("round-sphere", "cover-m3", "flat-cylinder-l5-nonbounding",
            "growing-curvature")


def _mirror_and_other_ops(n=512):
    """(operator, blocks it solves) for the three lowest Dirac modes of
    each mirrored kind of surface and of the sphere's cap (-pi/2, 1.2),
    whose blocks differ, and for mode 0 of the cusp table, whose blocks
    are equal."""
    sphere_sc = find_scenario("round-sphere")
    cusp = find_scenario("cusp-cylinder-l10")
    cases = [(find_scenario(sid).surface, find_scenario(sid).spin, 3, 1)
             for sid in MIRRORED]
    cases += [(replace(sphere_sc.surface, t_max=1.2), sphere_sc.spin, 3, 2),
              (cusp.surface, cusp.spin, 1, 1)]
    for surface, spin, modes, solved in cases:
        grid = make_grid(surface, n)
        for nu in lattice_modes(spin, surface.period, modes):
            yield assemble(surface, KIND_DIRAC, spin, nu, grid), solved


def test_mirror_operators_refine_one_block(monkeypatch):
    # the block equal to the solved one, or to its mirror image, takes its
    # values and vectors: one refinement per mirrored operator, and per
    # mode 0, whose blocks are equal; two on any other
    for op, solved in _mirror_and_other_ops():
        with monkeypatch.context() as patch:
            calls = _lapack_calls(patch)
            res = smallest_eigenpairs(op, 3)
        assert len(calls["_refine"]) == solved, (op.grid, op.nu)
        if solved == 1:
            assert np.array_equal(*res.block_values)
        assert np.all(res.residuals <= op.grid.n * np.finfo(float).eps)


def _two_block_op(op, surface):
    """op with both blocks assembled from the samples, no mirror."""
    samples = sample_grid(surface, op.grid)
    blocks = tuple(_assemble_block(surface, op.grid, KIND_DIRAC, mu, samples)
                   for mu in (-op.nu, op.nu))
    return ReducedOperator(kind=KIND_DIRAC, nu=op.nu, grid=op.grid,
                           blocks=blocks)


@pytest.mark.parametrize("n", [512, 8192])
def test_mirror_values_match_a_two_block_solve(n):
    for sid in MIRRORED:
        sc = find_scenario(sid)
        grid = make_grid(sc.surface, n)
        for nu in lattice_modes(sc.spin, sc.surface.period, 2):
            op = assemble(sc.surface, KIND_DIRAC, sc.spin, nu, grid)
            got = smallest_eigenpairs(op, 3)
            ref = smallest_eigenpairs(_two_block_op(op, sc.surface), 3)
            assert np.allclose(got.eigenvalues, ref.eigenvalues,
                               rtol=1e-14, atol=0), (sid, nu)
            # the second pair is the first pair's vector, in block 1 and
            # reversed where block 1 is the mirror image of block 0
            turn = op.twin
            assert turn is not None
            assert list(got.block_index[:2]) == [0, 1]
            assert np.array_equal(got.section(1).values[1],
                                  got.section(0).values[0][turn])


def test_cusp_mode_zero_solves_once_to_the_same_report(monkeypatch):
    # mu = -0 and +0 assemble one block, held twice, so one solve gives
    # both, and the report is the one that solving both blocks gives
    cusp = find_scenario("cusp-cylinder-l10")
    grid = GridPolicy().grids(cusp.surface)[0]
    op = assemble(cusp.surface, KIND_DIRAC, cusp.spin, 0.0, grid)
    with monkeypatch.context() as patch:
        calls = _lapack_calls(patch)
        smallest_eigenpairs(op, 2)
    assert len(calls["_refine"]) == 1
    with monkeypatch.context() as patch:
        calls = _lapack_calls(patch)
        once = run_scenario(cusp, GridPolicy()).to_json()
    real = eigensolve.assemble
    monkeypatch.setattr(eigensolve, "assemble",
                        lambda *args: replace(real(*args), twin=None))
    both = _lapack_calls(monkeypatch)
    assert run_scenario(cusp, GridPolicy()).to_json() == once
    assert len(both["_refine"]) > len(calls["_refine"])


def test_zero_bracket_on_the_kernel_skip_mode(monkeypatch):
    # near = [0] refines the kernel surrogate itself; for two pairs it is
    # too short, and the block refines from its bisected values alone
    cusp = find_scenario("cusp-cylinder-l10")
    grid = GridPolicy().grids(cusp.surface)[1]
    op = assemble(cusp.surface, KIND_LAPLACIAN, None, 0.0, grid)
    for count in (1, 2):
        ref = smallest_eigenpairs(op, count)
        with monkeypatch.context() as patch:
            calls = _lapack_calls(patch)
            got = smallest_eigenpairs(op, count, [np.array([0.0])])
        _same_pairs(got, ref)
        assert _certified(calls) == [True] * len(op.blocks)
        assert len(calls["_bisect"]) == (count - 1) * len(op.blocks)


def test_bracketed_levels_certify_without_widening(monkeypatch):
    # every default tone of the catalog: level 0 refines each block from
    # its bisected values, each finer level from the coarser level's, and
    # every refinement certifies
    calls = _lapack_calls(monkeypatch)
    for sc in builtin_catalog():
        run_scenario(sc, GridPolicy())
    refined = _certified(calls)
    assert refined and all(refined)
    assert len(refined) == GridPolicy().levels * len(calls["_bisect"])


def test_singular_first_shift_judges_the_start_vector():
    # the constant vector, pair 0's start, is the lowest eigenvector of the
    # Neumann second difference plus I, at 1: the first solve, shifted at 1,
    # meets an exact zero pivot, and the certificate accepts the start
    # vector itself
    n = 32
    d = np.full(n, 3.0)
    d[[0, -1]] = 2.0
    X = eigensolve._refine(d, np.full(n - 1, -1.0), 1, [1.0])
    assert X is not None
    assert np.allclose(X[:, 0], 1 / math.sqrt(n), rtol=1e-15, atol=0)


def test_singular_shift_ends_the_iteration_at_a_certified_pair(
        monkeypatch):
    # seeded 0.5 off, pair 0 of the Neumann second difference plus I
    # (n = 16) reaches its eigenvector in one step, with the exact quotient
    # 1; the second solve, shifted there, meets an exact zero pivot, the
    # iteration stops at the vector of the step before, and the certificate
    # accepts it
    calls = _lapack_calls(monkeypatch)
    n = 16
    d = np.full(n, 3.0)
    d[[0, -1]] = 2.0
    X = eigensolve._refine(d, np.full(n - 1, -1.0), 1, [1.5])
    assert [info for *_, info in calls["dgtsv"]] == [0, n]
    assert X is not None
    assert np.allclose(np.abs(X[:, 0]), 1 / math.sqrt(n), rtol=1e-15, atol=0)


@pytest.mark.parametrize("sid,edge,nu", [
    ("cover-m2", {"t_min": 0.0}, 0.5),
    ("cover-m3", {"t_max": -1.0}, 1.5),
], ids=["hemisphere", "cap"])
def test_a_bisected_shift_on_an_eigenvalue_still_certifies(
        monkeypatch, sid, edge, nu):
    # on 16 nodes the second block's bisected value is its eigenvalue to
    # the last bit: its first solve meets an exact zero pivot, the start
    # vector fails its certificate, and the pair starts once more, shifted
    # slack below, where one solve certifies it
    sc = find_scenario(sid)
    surface = replace(sc.surface, **edge)
    op = assemble(surface, KIND_DIRAC, sc.spin, nu, make_grid(surface, 16))
    calls = _lapack_calls(monkeypatch)
    res = smallest_eigenpairs(op, 1)
    assert [info for *_, info in calls["dgtsv"]] == [0, 16, 0]
    assert _certified(calls) == [True, True]
    assert res.residuals[0] <= 16 * np.finfo(float).eps


def test_a_16_node_ladder_is_its_own_seed(monkeypatch):
    # the seed grid of a 16-node ladder is its level 0: no second grid is
    # laid or sampled, and a tone assembles each solved mode once per level,
    # level 0's operator both bisected and solved
    sc = find_scenario("round-sphere")
    grids = GridPolicy(base_n=16, levels=2).grids(sc.surface)
    sampled, assembled = [], []

    def count_samples(surface, grid, _real=eigensolve.sample_grid):
        sampled.append(grid)
        return _real(surface, grid)

    def count_assembly(surface, kind, spin, nu, grid, samples,
                       _real=eigensolve.assemble):
        assembled.append((nu, grid))
        return _real(surface, kind, spin, nu, grid, samples)
    monkeypatch.setattr(eigensolve, "sample_grid", count_samples)
    monkeypatch.setattr(eigensolve, "assemble", count_assembly)
    ladder = sample_ladder(sc.surface, grids)
    assert sampled == grids and ladder[1] is ladder[0][0]
    for kind, spin in ((KIND_DIRAC, sc.spin), (KIND_LAPLACIAN, None)):
        assembled.clear()
        tone = fundamental_tone(sc.surface, kind, spin, ladder)
        solved = [nu for nu, rec in tone.per_mode.items() if "value" in rec]
        assert solved
        assert assembled == [(nu, grid) for nu in solved for grid in grids]


def _sphere_dirac_op(n, nu=0.5):
    sc = find_scenario("round-sphere")
    return assemble(sc.surface, KIND_DIRAC, sc.spin, nu,
                    make_grid(sc.surface, n))


def _pairs(res):
    return (res.eigenvalues.copy(),
            [res.section(j).values.copy() for j in range(len(res.vectors))],
            [v.copy() for v in res.block_values])


def _same_bits(a, b):
    (lam_a, vec_a, blk_a), (lam_b, vec_b, blk_b) = a, b
    assert np.array_equal(lam_a, lam_b)
    assert all(np.array_equal(x, y) for x, y in zip(vec_a, vec_b))
    assert all(np.array_equal(x, y) for x, y in zip(blk_a, blk_b))


def test_threads_solve_on_their_own_workspace():
    # threads solving blocks of different sizes at the same time, more of
    # them than cores and switching often, give the bits of serial solves:
    # each thread has its own scratch vectors
    ops = [_sphere_dirac_op(n, nu) for n, nu in
           ((4096, 0.5), (1536, 1.5), (2048, 2.5), (700, 0.5))]
    serial = [_pairs(smallest_eigenpairs(op, 3)) for op in ops]
    got, errors = [[] for _ in ops], []
    start = threading.Barrier(len(ops))

    def solve(i):
        try:
            start.wait(timeout=60)
            for _ in range(4):
                got[i].append(_pairs(smallest_eigenpairs(ops[i], 3)))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)
    threads = [threading.Thread(target=solve, args=(i,))
               for i in range(len(ops))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for runs, ref in zip(got, serial):
        assert len(runs) == 4
        for run in runs:
            _same_bits(run, ref)


def test_results_keep_their_values_after_a_larger_solve():
    # vectors, sections and refined X never alias the workspace, which a
    # later, larger solve grows and overwrites
    op = _sphere_dirac_op(256)
    res = smallest_eigenpairs(op, 2)
    before = _pairs(res)
    _, d, e = eigensolve._congruence(op.blocks[0])
    X = eigensolve._refine(d, e, 2, res.block_values[0])
    X_before = X.copy()
    smallest_eigenpairs(_sphere_dirac_op(8192), 3)
    _same_bits(_pairs(res), before)
    assert np.array_equal(X, X_before)
    for buf in eigensolve._workspace.bufs.values():
        assert not np.shares_memory(X, buf)
        assert not any(np.shares_memory(res.section(j).values, buf)
                       for j in range(len(res.vectors)))


def test_dgtsv_solves_in_place(monkeypatch):
    # f2py copies no argument: each array dgtsv returns is the scratch
    # vector it was given
    shared = []
    real = eigensolve.dgtsv

    def solve(*args):
        out = real(*args)
        shared.append([np.shares_memory(o, a)
                       for o, a in zip(out[:4], args[:4])])
        return out
    monkeypatch.setattr(eigensolve, "dgtsv", solve)
    smallest_eigenpairs(_sphere_dirac_op(2048), 2)
    assert shared and all(all(row) and len(row) == 4 for row in shared)


def _count_warp_calls(monkeypatch, warp):
    """(array size, orders) of each call of warp's derivatives, in order."""
    calls, real = [], type(warp).derivatives

    def counted(self, t, orders):
        calls.append((np.size(t), tuple(orders)))
        return real(self, t, orders)
    monkeypatch.setattr(type(warp), "derivatives", counted)
    return calls


def _count_sample_grid(monkeypatch):
    """The grids passed to operators.sample_grid, through every binding of
    it in a loaded diraclab module."""
    real, grids = operators.sample_grid, []

    def counted(surface, grid):
        grids.append(grid)
        return real(surface, grid)
    for name, module in list(sys.modules.items()):
        if name == "diraclab" or name.startswith("diraclab."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return grids


def test_tone_samples_each_grid_once(monkeypatch):
    # both tones and the section checks of a run share one sampling of each
    # ladder grid and of the seed grid (1024 // 16 nodes), and a tone handed
    # a sampled ladder evaluates no warp: the floors read the level-0 samples
    policy = GridPolicy(base_n=1024, levels=3)
    for name, reads in (
            ("round-sphere", {"laplace_tone", "dirac_tone"}),
            ("cover-m5", {"dirac_tone", "section_norm2:f_k",
                          "section_rayleigh:f_k", "orthogonality:f_k"})):
        sc = find_scenario(name)
        grids = policy.grids(sc.surface)
        seed = lay_grid(sc.surface, 64, grids[0].side_kinds,
                        grids[0].side_slopes)
        with monkeypatch.context() as patch:
            sampled = _count_sample_grid(patch)
            report = run_scenario(sc, policy)
        assert reads <= {check["name"] for check in report.checks}
        assert sorted(sampled, key=lambda g: g.n) == [seed, *grids]
    ladder = sample_ladder(sc.surface, grids)
    for kind, spin in ((KIND_DIRAC, sc.spin), (KIND_LAPLACIAN, None)):
        with monkeypatch.context() as patch:
            calls = _count_warp_calls(patch, sc.surface.warp)
            tone = fundamental_tone(sc.surface, kind, spin, ladder)
        assert sum("value" in rec for rec in tone.per_mode.values()) > 1
        assert calls == []


def test_a_probe_run_samples_only_its_windows(monkeypatch):
    # sampling is lazy: a run that reads no tone and no section samples no
    # ladder grid, however fine the ladder
    sc = find_scenario("long-cylinder-probe")
    exp = next(e for e in sc.expected if e["check"] == "probe")
    sampled = _count_sample_grid(monkeypatch)
    run_scenario(sc, GridPolicy(base_n=8192, levels=4))
    windows = check_probe_windows(sc.surface, exp["windows"])
    assert len(windows) == 4
    assert [(g.a, g.b, g.n) for g in sampled] == windows


def test_probe_samples_each_window_once(monkeypatch):
    # every counted mode of a window assembles on one sampling of it, in
    # place of one per mode and window, and its floors read those samples:
    # f at the n nodes, and f with f' at the n + 1 midpoints from one call
    sc = find_scenario("growing-curvature")
    exp = next(e for e in sc.expected if e["check"] == "probe")
    windows = [tuple(w) for w in exp["windows"]]
    ref = truncation_probe(sc.surface, KIND_DIRAC, sc.spin, windows,
                           exp["threshold"])
    calls = _count_warp_calls(monkeypatch, sc.surface.warp)
    probe = truncation_probe(sc.surface, KIND_DIRAC, sc.spin, windows,
                             exp["threshold"])
    assert probe.counts == ref.counts and max(probe.counts) > 1
    ns = [n for _, _, n in check_probe_windows(sc.surface, windows)]
    assert calls == [call for n in ns
                     for call in ((n, (0,)), (n + 1, (0, 1)))]


def test_probe_window_above_the_node_cap_lays_no_grid(monkeypatch):
    # the first window's spacing would give the second 1538999999 nodes
    built = []

    def grid(*args, **kwargs):
        built.append(kwargs["n"])
        raise AssertionError("a grid was laid")
    monkeypatch.setattr(eigensolve, "Grid", grid)
    with pytest.raises(AssemblyError, match="1538999999 nodes"):
        truncation_probe(cylinder(3.0), KIND_DIRAC,
                         SpinStructure.NON_BOUNDING, [(0, 1e-6), (0, 3)], 0.1)
    assert built == []


def test_both_mode_walks_share_the_kind_rule():
    # the probe and the tone walk the lattice of their kind, and reject an
    # unknown kind and a Dirac walk without spin, before any solve
    s = cylinder(3.0)
    ladder = sample_ladder(s, GridPolicy(base_n=32, levels=1).grids(s))
    walks = [lambda kind, spin: truncation_probe(s, kind, spin,
                                                 [(0.0, 3.0)], 1.0),
             lambda kind, spin: fundamental_tone(s, kind, spin, ladder)]
    for walk in walks:
        with pytest.raises(AssemblyError, match="unknown operator kind"):
            walk("bogus", SpinStructure.BOUNDING)
        with pytest.raises(AssemblyError, match="need a spin structure"):
            walk(KIND_DIRAC, None)


def _sturm_count(d, e, hi):
    """dstebz's RANGE = 'V' count of the eigenvalues of (d, e) up to hi."""
    m, _, _, _, info = eigensolve.dstebz(d, e, 1, -np.inf, hi, 0, 0, np.inf,
                                         b"E")
    assert info == 0
    return int(m)


def _both_counts(d, e, hi):
    return eigensolve._count_below(d, e, hi), _sturm_count(d, e, hi)


@pytest.mark.parametrize("n", [16, 17, 64, 1000])
def test_pivot_count_matches_the_sturm_count(n):
    # below and above the spectrum, and BRACKET_SLACK * eps * ||T||_1 (the
    # certificate's padding) on either side of an eigenvalue, the pivot
    # count equals dstebz's; at an eigenvalue and one ulp either side the
    # two round differently, and each finds one of the two indices there
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    w = eigensolve._bisect(d, e, n)
    slack = (eigensolve.BRACKET_SLACK * np.finfo(float).eps
             * eigensolve._norm1(d, e))
    assert _both_counts(d, e, w[0] - 1.0) == (0, 0)
    assert _both_counts(d, e, w[-1] + 1.0) == (n, n)
    for j in np.unique(np.linspace(0, n - 1, 16).astype(int)):
        assert _both_counts(d, e, w[j] - slack) == (j, j)
        assert _both_counts(d, e, w[j] + slack) == (j + 1, j + 1)
        for hi in (np.nextafter(w[j], -np.inf), w[j],
                   np.nextafter(w[j], np.inf)):
            assert set(_both_counts(d, e, hi)) <= {j, j + 1}


def test_pivot_count_at_zero_pivots_and_split_blocks():
    # an exact zero pivot first and inside, zero off-diagonals, and pivots
    # that fail only at the next-to-last index, the last, or both
    cases = [(np.array([1.0, 3.0, 3.0]), np.ones(2), 1.0, 1),
             (np.array([2.0, 0.5, 3.0, 3.0]), np.ones(3), 0.0, 1)]
    for tail in ([-1.0, 3.0], [3.0, -1.0], [-1.0, -1.0]):
        d = np.full(12, 3.0)
        d[-2:] = tail
        cases.append((d, np.full(11, 0.1), 0.0, tail.count(-1.0)))
    for d, e, hi, want in cases:
        assert _both_counts(d, e, hi) == (want, want), (d, hi)
    rng = np.random.default_rng(5)
    d, e = rng.standard_normal(40), rng.standard_normal(39)
    e[::4] = 0.0
    slack = (eigensolve.BRACKET_SLACK * np.finfo(float).eps
             * eigensolve._norm1(d, e))
    for j, lam in enumerate(eigensolve._bisect(d, e, d.size)):
        assert _both_counts(d, e, lam - slack) == (j, j)
        assert _both_counts(d, e, lam + slack) == (j + 1, j + 1)


def test_pivot_count_matches_the_sturm_count_on_every_catalog_count(
        monkeypatch):
    # every certificate and probe count of the catalog at 512 x 3
    seen = []
    real = eigensolve._count_below

    def recorded(d, e, hi):
        seen.append((d, e, hi))
        return real(d, e, hi)
    monkeypatch.setattr(eigensolve, "_count_below", recorded)
    for sc in builtin_catalog():
        run_scenario(sc, GridPolicy(base_n=512, levels=3))
    assert len(seen) > 100
    for d, e, hi in seen:
        assert real(d, e, hi) == _sturm_count(d, e, hi)


def test_twin_seeds_bisect_one_block(monkeypatch):
    # a round-sphere Dirac tone on 8192 x 4: every mode is a mirror twin,
    # so its seed operator bisects its -|nu| block alone, on SEED_N nodes
    sc = find_scenario("round-sphere")
    bisected = []
    real = eigensolve._bisect

    def bisect(d, e, count):
        bisected.append(d.size)
        return real(d, e, count)
    monkeypatch.setattr(eigensolve, "_bisect", bisect)
    tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, sample_ladder(
        sc.surface, GridPolicy(8192, 4).grids(sc.surface)))
    solved = [nu for nu, rec in tone.per_mode.items() if "value" in rec]
    assert solved
    assert bisected == [eigensolve.SEED_N] * len(solved)


def test_grid_policy_rejects_an_invalid_ladder_at_construction():
    # a library caller gets the CLI's check: no IndexError from an empty
    # ladder, and no grid laid above the node cap
    for base_n, levels, message in (
            (512, 0, "levels >= 1 required"),
            (8, 3, "base grid >= 16"),
            (2 ** 20, 2, r"base grid \* 2\^\(levels - 1\) <= 1048576"),
            (100.5, 2, "integer base grid and levels required"),
            (512, 2.0, "integer base grid and levels required"),
            ("512", 3, "integer base grid and levels required"),
            (512, True, "integer base grid and levels required")):
        with pytest.raises(AssemblyError, match=message):
            GridPolicy(base_n=base_n, levels=levels)
    assert GridPolicy(np.int64(512), 3).grids(sphere())[0].n == 512
    policy = GridPolicy(base_n=2 ** 19, levels=2)
    assert policy.base_n * 2 ** (policy.levels - 1) == \
        eigensolve.MAX_GRID_NODES


def test_fine_ladders_seed_level_0_from_one_bisection_at_seed_n(monkeypatch):
    # every ladder bisects only on its seed grid, n0 // 16 nodes of a first
    # grid of n0 (at least 16, at most SEED_N, as on a fine ladder), and
    # every refinement from those seeds certifies
    bisected, certified = [], []
    real_bisect, real_refine = eigensolve._bisect, eigensolve._refine

    def bisect(d, e, count):
        bisected.append(d.size)
        return real_bisect(d, e, count)

    def refine(*args):
        out = real_refine(*args)
        certified.append(out is not None)
        return out
    monkeypatch.setattr(eigensolve, "_bisect", bisect)
    monkeypatch.setattr(eigensolve, "_refine", refine)
    for base_n, levels, seed_n in ((64, 2, 16), (128, 3, 16), (512, 3, 32),
                                   (8192, 2, eigensolve.SEED_N)):
        bisected.clear()
        certified.clear()
        for sc in builtin_catalog():
            run_scenario(sc, GridPolicy(base_n=base_n, levels=levels))
        assert set(bisected) == {seed_n}, base_n
        assert certified and all(certified), base_n


def test_seed_grid_is_16_times_coarser_than_the_first_grid(monkeypatch):
    # min(SEED_N, max(16, n0 // 16)) nodes, laid for the first grid's ends
    # (no grid is sampled here)
    monkeypatch.setattr(eigensolve, "sample_grid", lambda surface, grid: 0)
    s = find_scenario("flat-cylinder-l2-bounding").surface
    for n0, seed_n in ((16, 16), (128, 16), (512, 32), (8192, 512),
                       (2 ** 20, 512)):
        first = make_grid(s, n0)
        seed = lay_grid(s, seed_n, first.side_kinds, first.side_slopes)
        assert sample_ladder(s, [first]) == ([(first, 0)], (seed, 0))


def _catalog_tones(monkeypatch, policy, names=None):
    """(tone, surface, kind, spin, ladder) of every tone, and the check
    outcomes, of the built-ins run at policy."""
    tones, outcomes = [], []
    real_tone = cli.fundamental_tone

    def tone(surface, kind, spin, ladder):
        tones.append((real_tone(surface, kind, spin, ladder), surface, kind,
                      spin, ladder))
        return tones[-1][0]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "fundamental_tone", tone)
        for sc in builtin_catalog():
            if names is None or sc.id in names:
                report = run_scenario(sc, policy)
                outcomes.append([(c["name"], c["passed"])
                                 for c in report.checks])
    return tones, outcomes


@pytest.mark.parametrize("base_n", [128, 512])
def test_seeded_level_0_agrees_with_a_block_s_own_bisection(monkeypatch,
                                                            base_n):
    # each tone's level-0 value, refined from the seed grid's values, is
    # within 1e-14 of the unseeded solve, which bisects the block itself
    tones, _ = _catalog_tones(monkeypatch, GridPolicy(base_n=base_n))
    assert len(tones) == 20
    for tone, surface, kind, spin, ladder in tones:
        grid, samples = ladder[0][0]
        for row in tone.table:
            if row["level"] == 0:
                pick = int(tone.kernel_skipped and row["nu"] == 0)
                op = assemble(surface, kind, spin, row["nu"], grid, samples)
                ref = smallest_eigenpairs(op, pick + 1).eigenvalues[pick]
                assert abs(row["value"] - ref) <= 1e-14 * abs(ref)


def test_a_wrong_seed_cannot_select_the_wrong_pair(monkeypatch):
    # lambda_2 planted in place of lambda_1 among the seed grid's bisected
    # values: the refinement from it does not certify, the block falls
    # back to its own bisection, and every tone and check outcome is the
    # unplanted run's
    names = {"round-sphere", "flat-cylinder-l2-bounding", "cover-m5"}
    policy = GridPolicy(base_n=512, levels=3)
    seed_n = 32
    fallbacks = []
    real_bisect = eigensolve._bisect

    def planted(d, e, count):
        if d.size != seed_n:
            fallbacks.append(d.size)
            return real_bisect(d, e, count)
        w = real_bisect(d, e, max(count, 2))
        return np.concatenate([w[1:2], w[1:count]])
    tones, outcomes = _catalog_tones(monkeypatch, policy, names)
    monkeypatch.setattr(eigensolve, "_bisect", planted)
    planted_tones, planted_outcomes = _catalog_tones(monkeypatch, policy,
                                                     names)
    assert fallbacks and set(fallbacks) == {512}
    assert planted_outcomes == outcomes
    assert len(planted_tones) == len(tones) == 5
    for (tone, *_), (ref, *_) in zip(planted_tones, tones):
        assert (tone.nu_star, tone.flags) == (ref.nu_star, ref.flags)
        assert [sorted(rec) for rec in tone.per_mode.values()] == \
            [sorted(rec) for rec in ref.per_mode.values()]
        assert len(tone.table) == len(ref.table)
        for row, ref_row in zip(tone.table, ref.table):
            assert abs(row["value"] - ref_row["value"]) <= \
                1e-14 * abs(ref_row["value"])


def test_probe_counts_match_dense_eigvalsh(monkeypatch):
    # the pivot counts of every probe block that the scenarios with an
    # essential entry run (growing-curvature's probe check; no built-in
    # essential verdict probes) equal a dense count of the generalized
    # spectrum; each count follows the congruence of the block it counts
    seen, blocks = [], []
    real_congruence = eigensolve._congruence
    real_count = eigensolve._count_below
    real_probe = eigensolve.truncation_probe

    def congruence(block):
        blocks.append(block)
        return real_congruence(block)

    def count(d, e, hi):
        seen.append((blocks[-1], hi, real_count(d, e, hi)))
        return seen[-1][2]

    def probe(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(eigensolve, "_congruence", congruence)
            patch.setattr(eigensolve, "_count_below", count)
            return real_probe(*args, **kwargs)
    for module in (cli, bounds):
        monkeypatch.setattr(module, "truncation_probe", probe)
    for sc in builtin_catalog():
        if any(e.get("bound") == "essential" for e in sc.expected):
            run_scenario(sc)
    assert seen
    for block, threshold, count in seen:
        dense = scipy.linalg.eigvalsh(_dense_stiffness(block),
                                      np.diag(block.mass))
        assert count == np.sum(dense <= threshold)


SPHERE_PROBE_WINDOWS = [(-1.2, 1.2), (-1.4, 1.4)]


def _probe_work(monkeypatch, probe_args, twins=True):
    """The counts of a probe, the pivot counts it makes, and the twin (or
    None) of each operator it assembles; twins=False assembles every
    operator with twin=None, so both blocks of each mode are counted."""
    ops, pivots = [], []
    real_assemble, real_count = eigensolve.assemble, eigensolve._count_below

    def assemble(*args):
        ops.append(real_assemble(*args))
        if not twins:
            ops[-1] = replace(ops[-1], twin=None)
        return ops[-1]

    def count(*args):
        pivots.append(args[-1])
        return real_count(*args)
    with monkeypatch.context() as patch:
        patch.setattr(eigensolve, "assemble", assemble)
        patch.setattr(eigensolve, "_count_below", count)
        probe = truncation_probe(*probe_args)
    return probe.counts, len(pivots), [op.twin for op in ops]


def test_probe_counts_each_twin_once(monkeypatch):
    # on the growing-curvature windows and the sphere's, every mode is a
    # mirror twin and costs one pivot count per window; the counts are
    # those of counting both blocks of every mode
    sc = find_scenario("growing-curvature")
    exp = next(e for e in sc.expected if e["check"] == "probe")
    for args in ((sc.surface, KIND_DIRAC, sc.spin,
                  [tuple(w) for w in exp["windows"]], exp["threshold"]),
                 (sphere(), KIND_DIRAC, SpinStructure.BOUNDING,
                  SPHERE_PROBE_WINDOWS, 2000.0)):
        counts, pivots, twins = _probe_work(monkeypatch, args)
        ref_counts, ref_pivots, ref_twins = _probe_work(monkeypatch, args,
                                                        twins=False)
        assert counts == ref_counts
        assert twins and all(t == slice(None, None, -1) for t in twins)
        assert all(t is None for t in ref_twins)
        assert pivots == len(twins) and ref_pivots == 2 * len(twins)


def test_probe_counts_every_mode_below_the_threshold():
    # brute force: every half-integer mode whose floor is at or below the
    # threshold, dense generalized spectra of its blocks, doubled for
    # nu > 0; the probe's 45 such modes are more than 32
    s, threshold = sphere(), 2000.0
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.BOUNDING,
                             SPHERE_PROBE_WINDOWS, threshold)
    h = 2.4 / 513  # the first window's span over SEED_N + 1
    expected = []
    for a, b in SPHERE_PROBE_WINDOWS:
        grid = Grid(a=a, b=b, n=int(round((b - a) / h)) - 1)
        total = 0
        for nu in (m + 0.5 for m in range(200)):
            floor = mode_lower_bound_term(
                nu, s.warp.derivatives(grid.nodes, (0,))[0])
            if floor > threshold:
                continue
            op = assemble(s, KIND_DIRAC, SpinStructure.BOUNDING, nu, grid)
            for block in op.blocks:
                dense = scipy.linalg.eigvalsh(_dense_stiffness(block),
                                              np.diag(block.mass))
                total += 2 * int(np.sum(dense <= threshold))
        expected.append(total)
    assert probe.counts == expected


def test_probe_is_flagged_when_every_mode_stays_below_the_threshold():
    # 63.5^2 < 5000: no mode within MAX_MODE_CUTOFF has its floor above, so
    # the counts of those modes come back flagged, not raised
    probe = truncation_probe(sphere(), KIND_DIRAC, SpinStructure.BOUNDING,
                             SPHERE_PROBE_WINDOWS, 5000.0)
    assert probe.flags == [UNCERTIFIED]
    assert len(probe.counts) == len(SPHERE_PROBE_WINDOWS)
    assert all(c > 0 for c in probe.counts)


def test_only_the_mode_walk_reads_the_floor():
    # tones and probes share one walk, so one call site of the floor
    import ast
    calls = []
    for path in (Path(__file__).resolve().parents[1]
                 / "src" / "diraclab").glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            calls += [(path.name, getattr(top, "name", None))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(
                          node.func, "attr", None)) == "mode_lower_bound_term"]
    assert calls == [("eigensolve.py", "_mode_walk")]


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
    vec = res.section(0).values[res.block_index[0]]
    # a perturbed pair, so the residual is well above rounding
    vec = vec + 1e-6 * np.random.default_rng(7).standard_normal(vec.shape)
    err = _backward_error(block, lam, vec)
    assert err > block.n * np.finfo(float).eps
    both = replace(block, diag=1e6 * block.diag, off=1e6 * block.off,
                   mass=1e6 * block.mass)
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


def test_richardson_keeps_a_sequence_that_stopped_moving():
    # a zero last difference has no ratio: the last level, the bar floor
    # and an infinite order
    assert richardson([1.0, 0.5, 0.5]) == (0.5, 1e-14, math.inf)


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


def test_equality_case_tones_at_the_default_ladder(sphere_laplace_tone,
                                                  sphere_dirac_tone):
    # the closed-form tones whose modes have a free side, at 512 x 3: with
    # every block's mass the node rule Samples.w, the extrapolated error is
    # below 3e-8 for the Laplace tone 2 and 6e-9 for each Dirac tone 1
    assert abs(sphere_laplace_tone.lambda_star - 2.0) < 3e-8
    assert abs(sphere_dirac_tone.lambda_star - 1.0) < 6e-9
    for k in (1, 3, 5):
        sc = cover_scenario(k)
        tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, sample_ladder(
            sc.surface, GridPolicy().grids(sc.surface)))
        assert abs(tone.lambda_star - 1.0) < 6e-9, k


def test_cylinder_scalar_tone_has_no_kernel_skip():
    surface = cylinder(5.0)
    tone = fundamental_tone(surface, KIND_LAPLACIAN, None, sample_ladder(
        surface, GridPolicy(base_n=128, levels=2).grids(surface)))
    assert not tone.kernel_skipped
    assert tone.lambda_star == pytest.approx(math.pi ** 2 / 25, abs=1e-3)


def test_cover_m2_scalar_mode_below_test_function_quotient():
    # the nu = 1/2 restriction of the cover Laplacian dips below the
    # quotient of the matching test function (0.875), down to nu(nu+1)
    sc = cover_scenario(2)
    tone = fundamental_tone(sc.surface, KIND_LAPLACIAN, None, sample_ladder(
        sc.surface, GridPolicy(base_n=256, levels=3).grids(sc.surface)))
    rec = tone.per_mode[0.5]
    assert rec["value"] <= 0.875
    assert rec["value"] == pytest.approx(0.75, abs=2e-3)


def test_cover_m5_dirac_tone_attains_curvature_floor():
    sc = cover_scenario(5)
    tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, sample_ladder(
        sc.surface, GridPolicy(base_n=256, levels=3).grids(sc.surface)))
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
            surface = cylinder(L)
            ladder = sample_ladder(
                surface, GridPolicy(base_n=128, levels=3).grids(surface))
            tone = fundamental_tone(surface, KIND_DIRAC, spin, ladder)
            expect = shift + (math.pi / L) ** 2
            assert tone.lambda_star == pytest.approx(expect, abs=1e-3)


def test_probe_long_cylinder_counts_match_string_oracle():
    s = cylinder(64.0)
    windows = [(0.0, 8.0), (0.0, 16.0), (0.0, 32.0), (0.0, 64.0)]
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.NON_BOUNDING,
                             windows, 0.1)
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
                             exp["threshold"])
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
        sample_ladder(fat, GridPolicy(base_n=64, levels=1).grids(fat)))
    assert "sweep-exhausted-without-pruning-certificate" in tone.flags
    assert tone.lambda_star == pytest.approx(math.pi ** 2 / 25, rel=1e-3)


def test_tone_lays_each_level_grid_once(monkeypatch):
    # one grid per refinement level and one seed grid (64 // 16 nodes, at
    # least 16), shared by every solved mode and by the pruning terms
    sizes = []
    real = operators.lay_grid

    def counted(surface, n, kinds, slopes):
        sizes.append(n)
        return real(surface, n, kinds, slopes)
    for module in (operators, eigensolve):
        monkeypatch.setattr(module, "lay_grid", counted)
    surface = sphere()
    tone = fundamental_tone(surface, KIND_LAPLACIAN, None, sample_ladder(
        surface, GridPolicy(base_n=64, levels=3).grids(surface)))
    assert sum("value" in rec for rec in tone.per_mode.values()) > 1
    assert sizes == [64, 128, 256, 16]


def _fresh_level0_section(surface, kind, spin, nu, base_n, take_second):
    # a level-0 solve seeded, as a tone's, from the values each block
    # bisects on a seed grid of base_n // 16 nodes, at least 16
    count = 2 if take_second else 1
    grid = make_grid(surface, base_n)
    seed = lay_grid(surface, max(16, base_n // 16), grid.side_kinds,
                    grid.side_slopes)
    near = [eigensolve._bisect(*eigensolve._congruence(block)[1:], count)
            for block in assemble(surface, kind, spin, nu, seed).blocks]
    op = assemble(surface, kind, spin, nu, grid)
    return smallest_eigenpairs(op, count, near).section(count - 1)


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
    ladder = sample_ladder(
        cusp.surface, GridPolicy(base_n=64, levels=2).grids(cusp.surface))
    tone = fundamental_tone(cusp.surface, KIND_LAPLACIAN, None, ladder)
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


def test_probe_rejects_windows_off_the_surface():
    # each window [a, b] needs t_min <= a < b <= t_max; a window that ends
    # on the surface's end is allowed
    s = cylinder(10.0)
    for windows in ([(8.0, 0.0), (0.0, 10.0)], [(0.0, 8.0), (0.0, 16.0)],
                    [(-1.0, 8.0)]):
        with pytest.raises(AssemblyError, match="t_min <= a < b <= t_max"):
            truncation_probe(s, KIND_DIRAC, SpinStructure.NON_BOUNDING,
                             windows, 0.1)
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.NON_BOUNDING,
                             [(0.0, 5.0), (0.0, 10.0)], 0.1)
    assert probe.windows == [(0.0, 5.0), (0.0, 10.0)]


def test_probe_round_sphere_counts_stable():
    s = sphere()
    d = 0.3
    windows = [(-HALF_PI + d / 2 ** i, HALF_PI - d / 2 ** i)
               for i in range(3)]
    probe = truncation_probe(s, KIND_DIRAC, SpinStructure.BOUNDING,
                             windows, 10.0)
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
        assert np.array_equal(got.mass, ref.mass)


# Runs the three routines as a cold process loads them, without
# scipy.linalg, on block 0 of round-sphere's nu = 0.5 Dirac mode at level 1:
# the index range bisection, a Sturm count, one shifted solve and one
# shifted LDL^T factorization.
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
m, w, _, _, info = eigensolve.dstebz(d, e, 2, 0.0, 1.0, 1, 2, 0.0, b"E")
c, _, _, _, cinfo = eigensolve.dstebz(d, e, 1, -np.inf, 1.1 * w[1], 0, 0,
                                      np.inf, b"E")
*_, x, ginfo = eigensolve.dgtsv(e, d - 0.9 * w[0], e, np.ones((d.size, 1)))
p, l, finfo = eigensolve.dpttrf(d - 0.9 * w[0], e)
assert "scipy.linalg" not in sys.modules
np.savez(sys.argv[1], d=d, e=e, w=w, x=x, p=p, l=l,
         info=[m, info, c, cinfo, ginfo, finfo])
"""


def test_cold_loaded_lapack_matches_scipy_linalg_lapack(tmp_path):
    from scipy.linalg import lapack
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "cold.npz"
    subprocess.run([sys.executable, "-c", _COLD_LAPACK, str(out)],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    cold = np.load(out)
    d, e = cold["d"], cold["e"]
    m, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 2, 0.0, b"E")
    c, _, _, _, cinfo = lapack.dstebz(d, e, 1, -np.inf, 1.1 * w[1], 0, 0,
                                      np.inf, b"E")
    *_, x, ginfo = lapack.dgtsv(e, d - 0.9 * w[0], e, np.ones((d.size, 1)))
    p, l, finfo = lapack.dpttrf(d - 0.9 * w[0], e)
    assert list(cold["info"]) == [m, info, c, cinfo, ginfo, finfo] \
        == [2, 0, 2, 0, 0, 0]
    for key, ref in (("w", w), ("x", x), ("p", p), ("l", l)):
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
    assert module.dstebz is lapack.dstebz and module.dgtsv is lapack.dgtsv


def test_a_tone_builds_one_section_per_solved_mode(monkeypatch):
    # only the level-0 ground of each solved mode becomes a Section (the
    # second pair of nu = 0 under the kernel skip); the finer levels, whose
    # sections nothing reads, build none
    sc = find_scenario("round-sphere")
    grids = GridPolicy(base_n=128, levels=3).grids(sc.surface)
    ladder = sample_ladder(sc.surface, grids)
    built, real = [], eigensolve.block_section

    def counted(kind, nu, grid, index, values):
        built.append((kind, nu, grid))
        return real(kind, nu, grid, index, values)
    monkeypatch.setattr(eigensolve, "block_section", counted)
    modes = 0
    for kind, spin in ((KIND_DIRAC, sc.spin), (KIND_LAPLACIAN, None)):
        built.clear()
        tone = fundamental_tone(sc.surface, kind, spin, ladder)
        solved = [nu for nu, rec in tone.per_mode.items() if "value" in rec]
        modes += len(solved)
        assert built == [(kind, nu, grids[0]) for nu in solved]
        assert tone.ground.nu == tone.nu_star
        assert tone.ground.grid == grids[0]
    assert modes > 2


def test_a_direct_caller_gets_every_section():
    # each pair's vector laid out in its block, the other spinor component
    # zero
    op = _sphere_dirac_op(256, 1.5)
    res = smallest_eigenpairs(op, 3)
    assert len(res.vectors) == 3
    for j in range(3):
        sec, bi = res.section(j), res.block_index[j]
        assert (sec.kind, sec.nu, sec.grid) == (op.kind, op.nu, op.grid)
        assert np.array_equal(sec.values[bi], res.vectors[j])
        assert not sec.values[1 - bi].any()

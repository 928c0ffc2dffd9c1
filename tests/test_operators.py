import math
import re
from dataclasses import replace

import numpy as np
import pytest

from diraclab.errors import AssemblyError
from diraclab.geometry import ConstantWarp, CosineWarp, WarpedSurface
from diraclab.operators import (
    DIRICHLET,
    FREE,
    KIND_DIRAC,
    KIND_LAPLACIAN,
    KINDS,
    Grid,
    Section,
    _assemble_block,
    assemble,
    assemble_dirac_square,
    assemble_laplacian,
    block_boundary_conditions,
    bochner_gradient_energy,
    check_on_lattice,
    kind_lattice,
    make_grid,
    product_rule_defect,
    rayleigh_quotient,
    sample_grid,
    section_energy,
)
from diraclab.eigensolve import smallest_eigenpairs
from diraclab.scenarios import cover_scenario, find_scenario
from diraclab.spin import SCALAR, SpinStructure, lattice_modes

HALF_PI = math.pi / 2


def sphere():
    return WarpedSurface(warp=CosineWarp(), t_min=-HALF_PI, t_max=HALF_PI,
                         period=2 * math.pi)


def cylinder(length=5.0):
    return WarpedSurface(warp=ConstantWarp(1.0), t_min=0.0, t_max=length,
                         period=2 * math.pi)


def test_dirichlet_string_spectrum():
    # classical spectrum j^2 on (0, pi); relative accuracy 1e-4 at N=512
    s = cylinder(math.pi)
    op = assemble_laplacian(s, 0.0, make_grid(s, 512))
    res = smallest_eigenpairs(op, 3)
    for j, lam in enumerate(res.eigenvalues, start=1):
        assert lam == pytest.approx(j * j, rel=1e-4)


def test_stiffness_exactly_symmetric():
    s = sphere()
    grid = make_grid(s, 64)
    for op in (assemble_laplacian(s, 1.0, grid),
               assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5, grid)):
        for block in op.blocks:
            dense = (np.diag(block.diag) + np.diag(block.off, 1)
                     + np.diag(block.off, -1))
            assert np.array_equal(dense, dense.T)


def test_energy_is_the_quadratic_form_of_the_stiffness():
    # free sides (scalar mode 0, Dirac blocks on the sphere), Dirichlet
    # sides and the scalar potential
    s = sphere()
    grid = make_grid(s, 64)
    u = np.random.default_rng(3).standard_normal(grid.n)
    for op in (assemble_laplacian(s, 0.0, grid),
               assemble_laplacian(s, 1.0, grid),
               assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5, grid)):
        for block in op.blocks:
            quadratic = (np.sum(block.diag * u * u)
                         + 2.0 * np.sum(block.off * u[:-1] * u[1:]))
            assert block.energy(u) == pytest.approx(float(quadratic),
                                                    rel=1e-12)


def test_mass_positive_and_tracks_span_area():
    s = cylinder(5.0)
    grid = make_grid(s, 256)
    op = assemble_laplacian(s, 0.0, grid)
    w = op.blocks[0].mass
    assert np.all(w > 0)
    span_area = s.period * (grid.nodes[-1] - grid.nodes[0])
    assert abs(w.sum() - span_area) <= 3 * grid.h * s.period


def test_every_block_mass_is_the_node_rule_at_a_free_side():
    # the sphere's Laplace block at nu = 0 is free at both poles and each
    # Dirac block at nu = +-1/2 at one: the mass is still the grid's
    # Samples.w, reversed for the mirror (+1/2) block
    s = sphere()
    grid = make_grid(s, 512)
    w = sample_grid(s, grid).w
    (block,) = assemble_laplacian(s, 0.0, grid).blocks
    assert block_boundary_conditions(KIND_LAPLACIAN, 0.0, grid) == \
        (FREE, FREE)
    assert np.array_equal(block.mass, w)
    for nu in (0.5, -0.5):
        op = assemble_dirac_square(s, SpinStructure.BOUNDING, nu, grid)
        for block, mu in zip(op.blocks, (-nu, nu)):
            assert FREE in block_boundary_conditions(KIND_DIRAC, mu, grid)
            assert np.array_equal(block.mass, w[::-1] if mu > 0 else w)


def test_boundary_condition_rule_on_sphere():
    s = sphere()
    grid = make_grid(s, 64)
    # scalar: mode 0 is limit point at both poles, higher modes are not
    assert block_boundary_conditions(KIND_LAPLACIAN, 0.0, grid) == (FREE, FREE)
    assert block_boundary_conditions(KIND_LAPLACIAN, 1.0, grid) == \
        (DIRICHLET, DIRICHLET)
    # dirac block mu = +1/2: regular branch exponent 0 at the upper pole
    assert block_boundary_conditions(KIND_DIRAC, 0.5, grid) == \
        (DIRICHLET, FREE)
    assert block_boundary_conditions(KIND_DIRAC, -0.5, grid) == \
        (FREE, DIRICHLET)
    assert block_boundary_conditions(KIND_DIRAC, 1.5, grid) == \
        (DIRICHLET, DIRICHLET)


def test_boundary_condition_rule_on_cylinder_always_dirichlet():
    grid = make_grid(cylinder(), 64)
    for coef in (0.0, 0.5, 1.0):
        assert block_boundary_conditions(KIND_DIRAC, coef, grid) == \
            (DIRICHLET, DIRICHLET)
        assert block_boundary_conditions(KIND_LAPLACIAN, coef, grid) == \
            (DIRICHLET, DIRICHLET)


def test_rayleigh_quotient_of_eigenvector_is_eigenvalue():
    s = sphere()
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5,
                               make_grid(s, 128))
    res = smallest_eigenpairs(op, 1)
    rq = rayleigh_quotient(op, res.section(0))
    assert rq == pytest.approx(res.eigenvalues[0], rel=1e-12)


def test_rayleigh_quotient_cover_test_function():
    # separated quotient of the k = 2 test function: 2 - (3/2)(1 - 1/4)
    from diraclab.scenarios import eval_test_section
    sc = cover_scenario(2)
    grid = make_grid(sc.surface, 1024)
    sec = eval_test_section(sc, "f_k", grid)
    op = assemble_laplacian(sc.surface, sec.nu, grid)
    assert rayleigh_quotient(op, sec) == pytest.approx(0.875, abs=5e-4)


def test_rayleigh_quotient_cylinder_sine():
    s = cylinder(5.0)
    grid = make_grid(s, 512)
    vals = np.zeros((2, grid.n))
    vals[0] = np.sin(math.pi * grid.nodes / 5.0)
    sec = Section(kind=KIND_DIRAC, nu=0.0, grid=grid, values=vals)
    op = assemble_dirac_square(s, SpinStructure.NON_BOUNDING, 0.0, grid)
    assert rayleigh_quotient(op, sec) == \
        pytest.approx(math.pi ** 2 / 25.0, abs=1e-4)


def test_rayleigh_zero_section_raises():
    s = cylinder()
    grid = make_grid(s, 32)
    op = assemble_laplacian(s, 0.0, grid)
    with pytest.raises(AssemblyError):
        rayleigh_quotient(op, Section(kind=KIND_LAPLACIAN, nu=0.0, grid=grid,
                                      values=np.zeros(grid.n)))


def test_mode_symmetry_exact():
    s = sphere()
    grid = make_grid(s, 128)
    for nu in (0.5, 1.5):
        a = assemble_dirac_square(s, SpinStructure.BOUNDING, nu, grid)
        b = assemble_dirac_square(s, SpinStructure.BOUNDING, -nu, grid)
        va = np.sort(smallest_eigenpairs(a, 4).eigenvalues)
        vb = np.sort(smallest_eigenpairs(b, 4).eigenvalues)
        assert np.array_equal(va, vb)  # identical blocks, reordered


def test_dirac_mode_must_match_spin_lattice():
    s = cylinder()
    grid = make_grid(s, 32)
    with pytest.raises(AssemblyError):
        assemble_dirac_square(s, SpinStructure.BOUNDING, 1.0, grid)
    with pytest.raises(AssemblyError):
        assemble_dirac_square(s, SpinStructure.NON_BOUNDING, 0.5, grid)


def test_domain_monotonicity_on_nested_windows():
    # aligned spacings make the hat spaces genuinely nested, so every
    # fixed-index Dirichlet eigenvalue is non-increasing in the window
    s = cylinder(6.0)
    h = 6.0 / 384
    prev = None
    for b in (4.0, 5.0, 6.0):
        n = int(round(b / h)) - 1
        grid = Grid(a=0.0, b=b, n=n)
        op = assemble_laplacian(s, 0.0, grid)
        vals = smallest_eigenpairs(op, 5).eigenvalues
        if prev is not None:
            assert np.all(vals <= prev + 1e-10)
        prev = vals


def test_bochner_energy_of_parallel_section_is_its_wall_elements():
    # constant spinor on the flat cylinder in the periodic zero mode: no
    # curvature term, and no connection energy inside the window; the
    # Dirichlet walls are not in its form domain, so the energy the solver
    # squares is that of the two end elements, 2 * (2 pi h) (1/h)^2
    s = cylinder(5.0)
    grid = make_grid(s, 64)
    op = assemble_dirac_square(s, SpinStructure.NON_BOUNDING, 0.0, grid)
    vals = np.zeros((2, grid.n))
    vals[0] = 1.0
    sec = Section(kind=KIND_DIRAC, nu=0.0, grid=grid, values=vals)
    assert bochner_gradient_energy(s, op, sec) == pytest.approx(
        4 * math.pi / grid.h, rel=1e-12)


def test_bochner_energy_half_split_on_sphere_ground(sphere_dirac_tone):
    s = sphere()
    grid = make_grid(s, 512)
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5, grid)
    res = smallest_eigenpairs(op, 1)
    phi = res.section(0)
    bge = bochner_gradient_energy(s, op, phi)
    assert bge / section_energy(op, phi) == pytest.approx(0.5, abs=1e-3)


def test_bochner_energy_nonnegative_on_curved_scenarios():
    rng = np.random.default_rng(99)
    for sid, nu in (("round-sphere", 0.5), ("flat-cylinder-l5-bounding", 0.5),
                    ("growing-curvature", 0.5)):
        sc = find_scenario(sid)
        grid = make_grid(sc.surface, 128)
        op = assemble_dirac_square(sc.surface, sc.spin, nu, grid)
        for _ in range(3):
            sec = Section(kind=KIND_DIRAC, nu=nu, grid=grid,
                          values=rng.standard_normal((2, grid.n)))
            assert bochner_gradient_energy(sc.surface, op, sec) >= -1e-8


def test_product_rule_remainder_is_exact_on_the_sphere_blocks():
    # A(f u)_e - fbar_e (A u)_e - (df_e/h) ubar_e = a_e df_e du_e / 4 to
    # rounding, f carried to the fenceposts by its end values and u by the
    # ghost zeros, on both round-sphere nu = 1/2 blocks (one the mirror of
    # the other, with free sides)
    s = sphere()
    grid = make_grid(s, 128)
    op = assemble_dirac_square(s, SpinStructure.BOUNDING, 0.5, grid)
    rng = np.random.default_rng(3)
    f = np.cos(grid.nodes) + 0.1 * rng.standard_normal(grid.n)
    fe = np.pad(f, 1, mode="edge")
    fbar, df = 0.5 * (fe[:-1] + fe[1:]), np.diff(fe)
    comps, total = rng.standard_normal((2, grid.n)), 0.0
    for block, u in zip(op.blocks, comps):
        ue = np.pad(u, 1)
        ubar, du = 0.5 * (ue[:-1] + ue[1:]), np.diff(ue)
        afu = block.factor(f * u)
        rest = afu - fbar * block.factor(u) - df / grid.h * ubar
        scale = np.max(np.abs(afu)) + np.max(np.abs(block.factor(u)))
        tol = 64 * np.finfo(float).eps * scale
        remainder = 0.25 * block.a_e * df * du
        assert np.max(np.abs(rest - remainder)) <= tol
        assert np.max(np.abs(remainder)) > 1e3 * tol
        total += np.sum(block.w_e * remainder ** 2)
    # product_rule_defect is the weighted norm of exactly that remainder
    assert product_rule_defect(op.blocks, f, comps) == pytest.approx(
        math.sqrt(total), rel=1e-12)


def test_one_rule_gives_the_lattice_of_each_kind(monkeypatch):
    # kind_modes, both assemblies and a scenario document's section check
    # read one rule: the scalar lattice for the Laplacian, the spin
    # structure for a Dirac square, and none for a Dirac square without
    # spin; scenarios reaches it only through operators.check_on_lattice
    from diraclab import operators, scenarios
    for spin in (None, SpinStructure.BOUNDING):
        assert kind_lattice(KIND_LAPLACIAN, spin) == SCALAR
        assert kind_lattice(KIND_DIRAC, spin) is spin
    with pytest.raises(AssemblyError, match="unknown operator kind"):
        kind_lattice("bogus", None)
    for name in ("SCALAR", "mode_in_structure", "kind_lattice"):
        assert not hasattr(scenarios, name), name
    asked = []

    def lattice(kind, spin):
        asked.append(kind)
        return kind_lattice(kind, spin)
    monkeypatch.setattr(operators, "kind_lattice", lattice)
    scenarios.scenario_from_json(cover_scenario(2).to_json())
    assert asked == [KIND_LAPLACIAN]


def test_an_off_lattice_mode_is_not_assembled():
    # the scalar lattice of period 2 pi is Z, and the non-bounding spinor
    # lattice too; a Dirac square without spin has no lattice to be off
    s = sphere()
    grid = make_grid(s, 64)
    scalar = re.escape(f"mode 0.5 is not on the scalar lattice for period "
                       f"{2 * math.pi}")
    for build in (lambda: assemble_laplacian(s, 0.5, grid),
                  lambda: assemble(s, KIND_LAPLACIAN, None, 0.5, grid)):
        with pytest.raises(AssemblyError, match=scalar):
            build()
    with pytest.raises(AssemblyError, match="mode 0.5 is not on the "
                       "non-bounding spinor lattice"):
        assemble(s, KIND_DIRAC, SpinStructure.NON_BOUNDING, 0.5, grid)
    assemble_laplacian(s, 1.0, grid)
    check_on_lattice(KIND_DIRAC, None, 0.3, 2 * math.pi)


def test_section_shape_validation():
    grid = Grid(a=0.0, b=1.0, n=32)
    with pytest.raises(AssemblyError):
        Section(kind=KIND_DIRAC, nu=0.0, grid=grid, values=np.ones(32))
    with pytest.raises(AssemblyError):
        Section(kind=KIND_LAPLACIAN, nu=0.0, grid=grid,
                values=np.full(32, math.nan))


def test_an_unknown_kind_is_an_assembly_error():
    # a misspelled kind is rejected, never assembled or read as a Dirac
    # square
    grid = Grid(a=0.0, b=5.0, n=32)
    assert KINDS == (KIND_LAPLACIAN, KIND_DIRAC)
    with pytest.raises(AssemblyError, match="unknown operator kind"):
        assemble(cylinder(), "bogus", SpinStructure.BOUNDING, 0.5, grid)
    with pytest.raises(AssemblyError, match="unknown operator kind"):
        Section(kind="bogus", nu=0.5, grid=grid, values=np.ones((2, 32)))


def test_the_scalar_block_is_the_factor_rule_plus_its_potential():
    # one stiffness formula: a scalar block of mode nu is, bit for bit, the
    # Dirac block whose factor has a_e = 0, plus the node potential
    s = cylinder()
    grid = make_grid(s, 64)
    samples = sample_grid(s, grid)
    flat = samples._replace(half_log=np.zeros_like(samples.half_log))
    for nu in (0.0, 1.0, 3.0):
        scalar = _assemble_block(s, grid, KIND_LAPLACIAN, nu, samples)
        dirac = _assemble_block(s, grid, KIND_DIRAC, 0.0, flat)
        assert not np.any(dirac.a_e)
        assert np.array_equal(scalar.diag, dirac.diag + scalar.pot)
        assert np.array_equal(scalar.off, dirac.off)


def test_grid_validation():
    with pytest.raises(AssemblyError):
        Grid(a=0.0, b=1.0, n=8)  # below the minimum node count
    with pytest.raises(AssemblyError):
        Grid(a=1.0, b=0.0, n=32)


def _dirac_ops(sid, n=128, modes=3):
    """Scenario sid's Dirac operators of its `modes` lowest lattice modes
    and their negatives on n nodes, with the grid's samples."""
    sc = find_scenario(sid)
    grid = make_grid(sc.surface, n)
    samples = sample_grid(sc.surface, grid)
    for nu in lattice_modes(sc.spin, sc.surface.period, modes):
        for signed in (nu, -nu):
            yield sc.surface, grid, samples, signed, assemble_dirac_square(
                sc.surface, sc.spin, signed, grid)


def _same_block(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("diag", "off", "mass", "w_e", "a_e"))


@pytest.mark.parametrize("sid", ["round-sphere", "cover-m3",
                                 "flat-cylinder-l5-nonbounding",
                                 "growing-curvature"])
def test_mirror_block_is_the_exact_reflection(sid):
    # the -|nu| block is assembled from the samples, wherever blocks lists
    # it, and the +|nu| block is its mirror image: the arrays reversed bit
    # for bit and a_e negated, all read-only; mode 0 holds its one block
    # twice
    for surface, grid, samples, nu, op in _dirac_ops(sid):
        src = int(nu < 0)
        source, mirror = op.blocks[src], op.blocks[1 - src]
        assert _same_block(source, _assemble_block(
            surface, grid, KIND_DIRAC, -abs(nu), samples))
        if nu == 0:
            assert mirror is source and op.twin == slice(None)
            continue
        assert op.twin == slice(None, None, -1)
        for name in ("diag", "off", "mass", "w_e"):
            assert np.array_equal(getattr(mirror, name),
                                  getattr(source, name)[::-1])
            assert not getattr(mirror, name).flags.writeable
        assert np.array_equal(mirror.a_e, -source.a_e[::-1])
        assert not mirror.a_e.flags.writeable


def test_blocks_off_the_mirror_are_assembled_from_the_samples():
    # the cusp table misses the mirror by rounding, the cap (-pi/2, 1.2)
    # is not even, and a window off the sphere's middle is not centered:
    # each block is the assembly of its own coefficient, as before
    sc = find_scenario("round-sphere")
    cap = replace(sc.surface, t_max=1.2)
    off_center = Grid(a=-1.0, b=1.2, n=64)
    cases = list(_dirac_ops("cusp-cylinder-l10"))
    for surface, grid in ((cap, make_grid(cap, 128)),
                          (sc.surface, off_center)):
        samples = sample_grid(surface, grid)
        for nu in (0.5, -0.5, 1.5):
            cases.append((surface, grid, samples, nu, assemble_dirac_square(
                surface, sc.spin, nu, grid)))
    for surface, grid, samples, nu, op in cases:
        for block, mu in zip(op.blocks, (-nu, nu)):
            assert _same_block(block, _assemble_block(
                surface, grid, KIND_DIRAC, mu, samples))


def test_a_surface_decides_its_mirror_symmetry_once(monkeypatch):
    # WarpedSurface.mirrored asks geometry.mirror_symmetric on first read
    # and keeps the answer on the surface: every later Dirac assembly on it
    # reads that, and a replaced surface decides anew
    from diraclab import geometry
    asked, real = [], geometry.mirror_symmetric

    def counted(surface):
        asked.append(surface)
        return real(surface)
    monkeypatch.setattr(geometry, "mirror_symmetric", counted)
    sc = find_scenario("growing-curvature")
    surface = replace(sc.surface)
    grid = make_grid(surface, 64)
    for nu in lattice_modes(sc.spin, surface.period, 3):
        assert assemble_dirac_square(surface, sc.spin, nu, grid).twin
    nudged = replace(surface, t_max=surface.t_max - 0.5)
    assert assemble_dirac_square(nudged, sc.spin, 0.5,
                                 make_grid(nudged, 64)).twin is None
    assert asked == [surface, nudged]
    assert asked[0] is surface and asked[1] is nudged


def _one_matrix(block, source):
    """The slices that read block's diag, off and mass bit for bit from
    source's: slice(None) where the two are equal, the reversing slice where
    block is source's mirror image (both on a flat cylinder, whose blocks
    are palindromes)."""
    return [turn for turn in (slice(None), slice(None, None, -1))
            if all(np.array_equal(getattr(block, name),
                                  getattr(source, name)[turn])
                   for name in ("diag", "off", "mass"))]


def test_twin_is_set_exactly_where_the_blocks_are_one_matrix():
    # the 3 lowest modes +-nu of every catalog scenario at n = 512 (the
    # cusp's modes nu != 0 among them), the cap (-pi/2, 1.2) and the window
    # (-1, 1.2) off the sphere's middle: twin is set where the +|nu| block
    # reads as the -|nu| block, and then is such a reading
    from diraclab.scenarios import builtin_catalog
    sc = find_scenario("round-sphere")
    cap = replace(sc.surface, t_max=1.2)
    cases = [(s.surface, s.spin, make_grid(s.surface, 512))
             for s in builtin_catalog()]
    cases += [(cap, sc.spin, make_grid(cap, 512)),
              (sc.surface, sc.spin, Grid(a=-1.0, b=1.2, n=512))]
    apart = 0
    for surface, spin, grid in cases:
        for nu in lattice_modes(spin, surface.period, 3):
            for signed in (nu, -nu):
                op = assemble_dirac_square(surface, spin, signed, grid)
                src = int(signed < 0)
                found = _one_matrix(op.blocks[1 - src], op.blocks[src])
                assert (op.twin is not None) == bool(found), (grid, signed)
                assert op.twin is None or op.twin in found, (grid, signed)
                apart += op.twin is None
    assert apart == 4 + 6 + 6  # cusp nu = 1, 2; the cap; the window

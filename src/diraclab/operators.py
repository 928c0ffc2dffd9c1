"""Per-mode 1D operators: weak-form assembly of Delta and D^2.

Everything here reduces a separated mode nu to a symmetric tridiagonal
stiffness matrix against a diagonal mass matrix on a uniform grid.

The scalar Laplacian mode is the form

    integral ( u' v' f  +  nu^2 u v / f ) P dt .

The squared Dirac operator splits into two half-spinor blocks.  Each block
is the form |A_mu u|^2 against the weighted measure, with the first-order
factor

    A_mu = d/dt + f'/(2f) + mu/f ,      mu in {+nu, -nu} ,

assembled as a sum of per-element squares over all n + 1 elements of the
window (midpoint coefficients, ghost zeros at both fenceposts), which
makes the stiffness symmetric positive semidefinite by construction.  A
free side gets element weight zero instead of a boundary element.  The
scalar mode is the same sum with A = d/dt plus the node potential.
The two blocks are one matrix on two kinds of mode, and the assembly
says so (ReducedOperator.twin): at nu = 0, mu = -0 and +0 assemble the
same block, which blocks holds twice; on a mirror-symmetric surface
(geometry.mirror_symmetric) whose window has the same kind and slope at
both sides, the reflection R of the window gives A_(-mu) R = -R A_mu, so
the +|nu| block is the exact mirror image of the -|nu| block: that one is
assembled from the grid samples, and the other holds its arrays reversed,
a_e negated.  Solves, seeds and probes then work on one block per twin.
Block.factor gives (A_mu u)_e on those elements, the package's one discrete
Dirac operator: Block.energy sums its weighted squares, which keeps
relative accuracy where u^T S u would cancel digits of size eps/h^2;
section_energy sums Block.energy over the operator a section solves
(check_pairing), and the cutoff audit applies the factor.

Boundary treatment.  Regular boundary circles and cusp truncations get a
Dirichlet ghost node (the Friedrichs condition).  At a singular end where
f ~ c1 * r the local solutions of a block behave like r^gamma and
r^(-gamma) with gamma = 1/2 +- mu/c1 (|nu|/c1 for the scalar mode).  For
gamma != 0 the Dirichlet condition at the truncation point selects the
regular branch at polynomial cost O(delta^(2|gamma|)).  At gamma == 0 the
singular partner carries infinite energy, so no boundary condition is
needed there, while forcing a Dirichlet zero would only converge like
1/log(1/delta) (the point has zero capacity); those ends are therefore
left free.  This is what makes the truncated problems converge to the
Friedrichs extension at polynomial rates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import AssemblyError
from .spin import SCALAR, SpinStructure, lattice_modes, mode_in_structure

KIND_LAPLACIAN = "laplacian_scalar"
KIND_DIRAC = "dirac_square"
KINDS = (KIND_LAPLACIAN, KIND_DIRAC)  # check_kind rejects any other

DIRICHLET = "dirichlet"
FREE = "free"

_GAMMA_EPS = 1e-9
_EPS = float(np.finfo(float).eps)

DELTA_RATIO = 0.5
CUSP_TAIL_REL = 1e-6


def check_kind(kind) -> None:
    """AssemblyError unless kind is in KINDS; Section and assemble call it."""
    if kind not in KINDS:
        raise AssemblyError(f"unknown operator kind {kind!r}")


def kind_lattice(kind: str, spin):
    """The Fourier lattice of a kind's modes: SCALAR for the Laplacian, the
    spin structure for a Dirac square, None for one without spin."""
    check_kind(kind)
    return SCALAR if kind == KIND_LAPLACIAN else spin


def check_on_lattice(kind: str, spin, nu: float, period: float) -> None:
    """AssemblyError unless mode nu lies on its kind's kind_lattice; a Dirac
    square without spin has no lattice to be off."""
    structure = kind_lattice(kind, spin)
    if structure is not None and not mode_in_structure(nu, structure, period):
        lattice = ("scalar" if structure == SCALAR
                   else f"{structure.value} spinor")
        raise AssemblyError(
            f"mode {nu} is not on the {lattice} lattice for period {period}")


def kind_modes(kind: str, spin, period: float, count: int) -> list:
    """The `count` lowest nonnegative modes on a kind's kind_lattice."""
    structure = kind_lattice(kind, spin)
    if structure is None:
        raise AssemblyError(f"{KIND_DIRAC} modes need a spin structure")
    return lattice_modes(structure, period, count)


@dataclass(frozen=True)
class Grid:
    """Uniform nodes strictly inside the window (a, b).

    Nodes sit at a + h, a + 2h, ..., b - h with h = (b - a)/(n + 1); the
    fenceposts a and b carry the implied Dirichlet zeros where a block is
    Dirichlet.  side_kinds records what each window side is cut from:
    'regular', 'singular' or 'cusp'.  side_slopes holds |f'| at singular
    surface ends (None elsewhere).
    """

    a: float
    b: float
    n: int
    side_kinds: tuple = ("regular", "regular")
    side_slopes: tuple = (None, None)

    def __post_init__(self):
        if not self.a < self.b:
            raise AssemblyError("grid window must have a < b")
        if self.n < 16:
            raise AssemblyError(f"grid needs n >= 16, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)

    @property
    def delta(self) -> float:
        """DELTA_RATIO * h where lay_grid truncates a singular side, else 0."""
        return DELTA_RATIO * self.h if "singular" in self.side_kinds else 0.0

    @property
    def boundary_circle(self) -> bool:
        """Whether a side is cut from an honest boundary circle."""
        return "regular" in self.side_kinds


def make_grid(surface, n: int) -> Grid:
    """Compute the solve window for a surface and lay down n nodes.

    This is the one place that classifies the ends (Grid.side_kinds);
    lay_grid places the window for them.
    """
    kinds = (geometry.end_kind(surface, "lower"),
             geometry.end_kind(surface, "upper"))
    slopes = tuple(geometry.edge_slope(surface, side)
                   if kind == "singular" else None
                   for kind, side in zip(kinds, ("lower", "upper")))
    return lay_grid(surface, n, kinds, slopes)


def lay_grid(surface, n: int, kinds: tuple, slopes: tuple) -> Grid:
    """n nodes on the solve window of a surface whose ends are already
    classified: kinds and slopes as in Grid.side_kinds and side_slopes.

    Singular ends are truncated at distance delta = DELTA_RATIO * h (the
    coupling keeps a single refinement parameter); cusp ends are cut where
    the remaining tail area drops below CUSP_TAIL_REL of the cusp mass.
    """
    bounds = [surface.t_min, surface.t_max]
    ratios = [0.0, 0.0]
    for i in range(2):
        if kinds[i] == "singular":
            ratios[i] = DELTA_RATIO
        elif kinds[i] == "cusp" and math.isinf(bounds[i]):
            if not isinstance(surface.warp, geometry.ExpCuspWarp) or i == 0:
                raise AssemblyError(
                    "an infinite end needs a decaying cusp profile")
            cut = math.log(1.0 / CUSP_TAIL_REL)
            bounds[i] = surface.t_min + cut
    span = bounds[1] - bounds[0]
    if not (math.isfinite(span) and span > 0):
        raise AssemblyError(f"cannot grid the window {bounds}")
    h = span / (n + 1 + ratios[0] + ratios[1])
    a = bounds[0] + ratios[0] * h
    b = bounds[1] - ratios[1] * h
    return Grid(a=a, b=b, n=n, side_kinds=tuple(kinds),
                side_slopes=tuple(slopes))


@dataclass(frozen=True)
class Block:
    """One tridiagonal stiffness/mass pair of a reduced operator.

    The stiffness is the form energy(u); diag and off are its matrix.  mass
    holds the diagonal mass weights, the grid's node weights Samples.w =
    P f h at a free side too.  w_e and a_e are the weights P f h (zero at a
    free side) and coefficients f'/(2f) + mu/f of the n + 1 elements; pot is
    the scalar node potential P h nu^2 / f.  A scalar block has a_e None and
    a Dirac block pot None: those terms vanish.  mass, and w_e without a
    free side, are read-only arrays that other blocks of the same grid
    share, and every array of a mirror Dirac block is a read-only reversed
    view of its partner's (a_e a negated copy).
    """

    diag: np.ndarray
    off: np.ndarray
    mass: np.ndarray
    h: float
    w_e: np.ndarray
    a_e: np.ndarray | None
    pot: np.ndarray | None

    @property
    def n(self) -> int:
        return len(self.diag)

    def factor(self, v: np.ndarray) -> np.ndarray:
        """(A u)_e = (u_{e+1} - u_e)/h + a_e (u_e + u_{e+1})/2 on all n + 1
        elements, with ghost zeros at both fenceposts."""
        u = np.concatenate([[0.0], np.asarray(v), [0.0]])
        du = (u[1:] - u[:-1]) / self.h
        if self.a_e is None:
            return du
        return du + self.a_e * 0.5 * (u[:-1] + u[1:])

    def energy(self, v: np.ndarray) -> float:
        """sum_e w_e (A u)_e^2 + sum_i pot_i u_i^2 of a real vector."""
        au = self.factor(v)
        total = (self.w_e * (au * au)).sum()
        if self.pot is not None:
            u = np.asarray(v)
            total = total + (self.pot * (u * u)).sum()
        return float(total)

    def mass_form(self, v: np.ndarray) -> float:
        u = np.asarray(v)
        return float((self.mass * (u * u)).sum())


@dataclass(frozen=True)
class ReducedOperator:
    """Self-adjoint reduced operator for one Fourier mode.

    kind is 'laplacian_scalar' (one block) or 'dirac_square' (two blocks;
    blocks[c] acts on spinor component c with coefficients (-nu, +nu)).
    twin, which only assemble_dirac_square sets, says that the two blocks
    are one matrix: the +|nu| block's eigenvectors are the -|nu| block's
    read through this slice, slice(None) where both entries of blocks are
    one Block (nu = 0) and the reversing slice where the +|nu| block is the
    mirror image of the other; None where each block has its own spectrum.
    """

    kind: str
    nu: float
    grid: Grid
    blocks: tuple
    twin: slice | None = None

    @property
    def size(self) -> int:
        return sum(b.n for b in self.blocks)


@dataclass
class Section:
    """Grid samples of a scalar function or 2-component spinor.

    values has shape (n,) for scalars and (2, n) for spinors; spinor
    component c matches ReducedOperator.blocks[c].
    """

    kind: str
    nu: float
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        check_kind(self.kind)
        self.values = np.asarray(self.values)
        want = (self.grid.n,) if self.kind == KIND_LAPLACIAN else (2, self.grid.n)
        if self.values.shape != want:
            raise AssemblyError(
                f"section shape {self.values.shape}, expected {want}")
        if not np.all(np.isfinite(self.values)):
            raise AssemblyError("section has non-finite entries")

    def components(self):
        return [self.values] if self.kind == KIND_LAPLACIAN else list(self.values)


def block_section(kind: str, nu: float, grid: Grid, index: int, values):
    """The section of values in block `index`; a spinor's other is zero."""
    if kind == KIND_DIRAC:
        full = np.zeros((2, grid.n))
        full[index] = values
        values = full
    return Section(kind=kind, nu=nu, grid=grid, values=values)


def block_boundary_conditions(kind: str, coef: float, grid: Grid) -> tuple:
    """Dirichlet everywhere except limit-point singular ends: those where
    the exponent gamma of the module docstring is zero."""
    out = []
    for end, c1, sign in zip(grid.side_kinds, grid.side_slopes, (1.0, -1.0)):
        if end != "singular":
            out.append(DIRICHLET)
            continue
        gamma = (abs(coef) / c1 if kind == KIND_LAPLACIAN
                 else 0.5 + sign * coef / c1)
        out.append(FREE if abs(gamma) < _GAMMA_EPS else DIRICHLET)
    return tuple(out)


def _check_positive(f_vals, what: str):
    """AssemblyError unless every value is finite and above 0; a NaN fails
    both comparisons."""
    if not (f_vals.min() > 0 and f_vals.max() < math.inf):
        raise AssemblyError(f"warp must be strictly positive on the {what}")


def _at_free_sides(w_e, bc: tuple) -> np.ndarray:
    """w_e itself where bc has no free side; else a copy of w_e with the
    end element of each free side zeroed."""
    ends = [end for end, side in zip((0, -1), bc) if side == FREE]
    if not ends:
        return w_e
    w_e = np.array(w_e, dtype=float)
    w_e[ends] = 0.0
    return w_e


Samples = namedtuple("Samples", "w w_e f_nodes fm half_log")


def sample_grid(surface, grid: Grid) -> Samples:
    """The warp sampled once on a grid, as read-only arrays.

    Returns Samples(w, w_e, f_nodes, fm, half_log): the node weights P f h
    and the element weights P f h at all n + 1 element midpoints, f at the
    nodes, f at the midpoints and f'/(2f) there.  w is the one node
    quadrature: every weighted sum over the nodes reads it, and it is every
    block's mass.  Every block and mode of either kind assembled on the
    grid shares them, and mode floors read f_nodes.
    """
    mids = grid.a + grid.h * (np.arange(grid.n + 1) + 0.5)
    (f_nodes,) = surface.warp.derivatives(grid.nodes, (0,))
    f_nodes = np.asarray(f_nodes, dtype=float)
    _check_positive(f_nodes, "grid nodes")
    fm, fprime = (np.asarray(x, dtype=float)
                  for x in surface.warp.derivatives(mids, (0, 1)))
    _check_positive(fm, "element midpoints")
    half_log = fprime / (2.0 * fm)
    out = Samples(surface.period * f_nodes * grid.h,
                  surface.period * fm * grid.h, f_nodes, fm, half_log)
    for x in out:
        x.flags.writeable = False
    return out


def _assemble_block(surface, grid: Grid, kind: str, coef: float,
                    samples: Samples) -> Block:
    w, w_e, f_nodes, fm, half_log = samples
    h = grid.h
    w_e = _at_free_sides(w_e, block_boundary_conditions(kind, coef, grid))
    # (A u)_e = left_e u_e + right_e u_{e+1}: Block.factor, whose weighted
    # squares are the stiffness; the scalar factor has a_e = 0
    if kind == KIND_LAPLACIAN:
        a_e, pot = None, surface.period * h * coef ** 2 / f_nodes
        left, right = -1.0 / h, 1.0 / h
    else:
        a_e, pot = half_log + coef / fm, None
        left, right = -1.0 / h + 0.5 * a_e, 1.0 / h + 0.5 * a_e
    # w_e * left is formed once for both diagonals, and squared in place
    # once the off-diagonal has read it
    w_left = w_e * left
    off = (w_left * right)[1:-1]
    w_left *= left
    diag = (w_e * right * right)[:-1] + w_left[1:]
    return Block(diag=diag if pot is None else diag + pot, off=off, mass=w,
                 h=h, w_e=w_e, a_e=a_e, pot=pot)


def assemble_laplacian(surface, nu: float, grid: Grid,
                       samples=None) -> ReducedOperator:
    """Mode-nu scalar Laplacian as a (stiffness, mass) pair; samples, when
    given, are sample_grid(surface, grid)."""
    check_on_lattice(KIND_LAPLACIAN, None, nu, surface.period)
    if samples is None:
        samples = sample_grid(surface, grid)
    block = _assemble_block(surface, grid, KIND_LAPLACIAN, float(nu), samples)
    return ReducedOperator(kind=KIND_LAPLACIAN, nu=float(nu), grid=grid,
                           blocks=(block,))


def assemble_dirac_square(surface, spin: SpinStructure, nu: float,
                          grid: Grid, samples=None) -> ReducedOperator:
    """Mode-nu D^2 as the direct sum of its two half-spinor blocks; samples,
    when given, are sample_grid(surface, grid).

    At nu = 0 one block is assembled and held twice (twin slice(None)); on
    a mirrored window the -|nu| block is assembled from the samples and the
    +|nu| block is its mirror image (_mirror_block, twin reversing).
    """
    if not isinstance(spin, SpinStructure):
        raise AssemblyError("dirac assembly needs a SpinStructure")
    check_on_lattice(KIND_DIRAC, spin, nu, surface.period)
    if samples is None:
        samples = sample_grid(surface, grid)
    nu = float(nu)
    twin = None
    if nu == 0:
        block = _assemble_block(surface, grid, KIND_DIRAC, -nu, samples)
        blocks = (block, block)
        twin = slice(None)
    elif _mirrored_window(surface, grid):
        source = _assemble_block(surface, grid, KIND_DIRAC, -abs(nu), samples)
        blocks = (source, _mirror_block(source))
        if nu < 0:  # blocks[0] carries -nu = +|nu|
            blocks = blocks[::-1]
        twin = slice(None, None, -1)
    else:
        blocks = tuple(_assemble_block(surface, grid, KIND_DIRAC, mu, samples)
                       for mu in (-nu, +nu))
    return ReducedOperator(kind=KIND_DIRAC, nu=nu, grid=grid, blocks=blocks,
                           twin=twin)


def _mirrored_window(surface, grid: Grid) -> bool:
    """Whether the reflection t -> a + b - t of the window maps the surface,
    the grid and the boundary conditions of each Dirac block onto those of
    its partner: a mirror-symmetric surface (WarpedSurface.mirrored, decided
    once per surface), a window centered on its middle to rounding, and the
    same kind and slope at both window sides."""
    lo, hi = surface.t_min, surface.t_max
    offset = (grid.a + grid.b) - (lo + hi)
    return (grid.side_kinds[0] == grid.side_kinds[1]
            and grid.side_slopes[0] == grid.side_slopes[1]
            and surface.mirrored
            and abs(offset) <= 4 * _EPS * max(abs(lo), abs(hi)))


def _mirror_block(block: Block) -> Block:
    """The Dirac block of coefficient -mu, as the exact mirror image of the
    block of coefficient mu on a mirrored window (geometry.mirror_symmetric).

    Node i maps to node n - 1 - i and element e to element n - e; the
    factor changes sign under the reflection, so a_e is reversed and
    negated.  diag, off, mass and w_e are reversed read-only views of the
    block's arrays.
    """
    a_e = -block.a_e[::-1]
    a_e.flags.writeable = False
    return Block(diag=_reversed(block.diag), off=_reversed(block.off),
                 mass=_reversed(block.mass), h=block.h,
                 w_e=_reversed(block.w_e), a_e=a_e, pot=None)


def _reversed(x: np.ndarray) -> np.ndarray:
    view = x[::-1]
    view.flags.writeable = False
    return view


def assemble(surface, kind: str, spin, nu: float, grid: Grid,
             samples=None) -> ReducedOperator:
    """Mode-nu operator of a kind in KINDS; spin is unused for Laplacians.

    samples are sample_grid(surface, grid), which a caller that assembles
    many modes on one grid passes to each; without them the grid is
    sampled here.
    """
    check_kind(kind)
    if kind == KIND_LAPLACIAN:
        return assemble_laplacian(surface, nu, grid, samples)
    return assemble_dirac_square(surface, spin, nu, grid, samples)


def check_pairing(op: ReducedOperator, phi: Section, kind=None) -> None:
    """AssemblyError unless op is the operator phi lives on, of phi's kind,
    mode nu and grid, and that kind is `kind` where an audit names one."""
    if kind is not None and phi.kind != kind:
        raise AssemblyError(f"{phi.kind} section where the audit needs {kind}")
    if (phi.kind, phi.nu) != (op.kind, op.nu):
        raise AssemblyError(f"{phi.kind} section of mode {phi.nu} on a "
                            f"{op.kind} operator of mode {op.nu}")
    if phi.grid != op.grid:
        raise AssemblyError("section and operator must share one grid")


def section_energy(op: ReducedOperator, phi: Section) -> float:
    """The form every solve on op squares, at phi: the sum of Block.energy
    over op's blocks, all n + 1 elements with the Dirichlet ends."""
    check_pairing(op, phi)
    return sum(b.energy(v) for b, v in zip(op.blocks, phi.components()))


def mass_norm2(op: ReducedOperator, phi: Section) -> float:
    """(mass phi, phi): the sum of Block.mass_form over op's blocks."""
    check_pairing(op, phi)
    return sum(b.mass_form(v) for b, v in zip(op.blocks, phi.components()))


def rayleigh_quotient(op: ReducedOperator, phi: Section) -> float:
    """section_energy / mass_norm2; an upper bound for the tone."""
    num = section_energy(op, phi)
    den = mass_norm2(op, phi)
    if den <= 0:
        raise AssemblyError("section has zero norm")
    return num / den


def bochner_gradient_energy(surface, op: ReducedOperator,
                            phi: Section) -> float:
    """section_energy - (K_spinor phi, phi): the connection energy.

    K_spinor = scal/4 is evaluated per node, so the spin connection never
    needs to be assembled; the value is a squared norm up to discretization
    error and must stay >= -solver tolerance wherever scal >= 0.
    """
    check_pairing(op, phi, KIND_DIRAC)
    kap = geometry.gauss_curvature(surface, op.grid.nodes) / 2.0
    return section_energy(op, phi) - sum(
        float(np.sum(b.mass * kap * np.abs(c) ** 2))
        for b, c in zip(op.blocks, phi.components()))


def product_rule_defect(blocks, fv, comps) -> float:
    """sqrt(sum_e w_e |A(f u)_e - fbar_e (A u)_e - (df_e/h) ubar_e|^2) over
    the components u of the blocks' Block.factor A.

    fv are the multiplier's node values, carried to the fenceposts by its
    end values; fbar_e, ubar_e are element means and df_e = f_(e+1) - f_e.
    Since (f u)_(e+1) - (f u)_e = fbar_e du_e + ubar_e df_e, the defect is
    exactly a_e df_e du_e / 4: computed in that form, it does not cancel.
    The cutoff audit (bounds.cutoff_stability_check) reads it.
    """
    df = np.diff(np.pad(np.asarray(fv, dtype=float), 1, mode="edge"))
    total = 0.0
    for block, comp in zip(blocks, comps):
        defect = 0.25 * block.a_e * df * np.diff(np.pad(comp, 1))
        total += float(np.sum(block.w_e * defect * defect))
    return math.sqrt(total)

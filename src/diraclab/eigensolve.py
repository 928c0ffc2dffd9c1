"""Generalized eigensolves, mode sweeps, and refinement studies.

Every tridiagonal block goes to LAPACK bisection (dstebz, then dstein for
the vectors) after the diagonal-mass congruence M^(-1/2) S M^(-1/2), which
keeps the bandwidth.  The coarsest level bisects the index range from the
Gershgorin interval; every finer level bisects only a value bracket around
the same block's values at the coarser level, whose lower end is certified
below the spectrum in O(n) by the LDL^T factorization dpttrf of T - lo I.
LAPACK gives the eigenvector v; the reported eigenvalue is the factored
quotient energy(v) / (M v, v), which keeps relative accuracy where the
bisection value carries an absolute error of about eps * ||S|| / ||M||
(Demmel & Kahan, 1990).  Each pair must pass the scale-free normwise
backward error bound ||S v - lam M v|| / ((||S||_1 + |lam| ||M||_1) ||v||)
<= n * eps (Higham & Higham, 1998).
Fundamental tones walk the circle modes in ascending |nu|, extrapolating
each over a geometric (h, delta) refinement sequence, up to the first mode
whose centrifugal floor certifies the rest; probes walk them the same way.
The three LAPACK routines come from scipy's f2py module, loaded by file spec,
because importing scipy.linalg for them would cost a cold verify more than
half its time in scipy's array-API shim.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AssemblyError, ConvergenceError
from .operators import (
    CUSP_TAIL_REL,
    DELTA_RATIO,
    KIND_DIRAC,
    KIND_LAPLACIAN,
    Grid,
    ReducedOperator,
    Section,
    assemble,
    make_grid,
)
from .spin import SCALAR, lattice_modes, mode_lower_bound_term


# Tone walks and probes look at most at this many lowest nonnegative modes.
MAX_MODE_CUTOFF = 64

PROBE_MAX_BASE_N = 800  # node cap of a probe's first window

# A coarser level gives each eigenvalue to a few percent; a bracket starts
# this far (relative) around it, padded by BRACKET_SLACK * eps * ||T||_1.
BRACKET_REL = 0.1
BRACKET_SLACK = 8

_RANGE_VALUE, _RANGE_INDEX = 1, 2  # dstebz RANGE = 'V', 'I'


def _lapack():
    """scipy's f2py LAPACK module, without importing scipy.linalg.

    Relies on scipy's private layout scipy/linalg/_flapack<suffix>.  The
    extension module registers itself under its scipy name, so a later
    scipy.linalg.lapack import hands out the same routines.  When no such
    file exists or it does not load, falls back to scipy.linalg's import.
    """
    found = importlib.util.find_spec("scipy")
    if found is not None and found.origin:
        stem = os.path.join(os.path.dirname(found.origin), "linalg",
                            "_flapack")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if not os.path.isfile(stem + suffix):
                continue
            try:
                spec = importlib.util.spec_from_file_location(
                    "scipy.linalg._flapack", stem + suffix)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
            except (ImportError, OSError):
                break
    from scipy.linalg import _flapack
    return _flapack


_flapack = _lapack()
dpttrf, dstebz, dstein = _flapack.dpttrf, _flapack.dstebz, _flapack.dstein


@dataclass(frozen=True)
class GridPolicy:
    """Refinement policy for tone computations.

    base_n is the coarsest node count; each of the `levels` refinement
    steps doubles it.
    Singular-end truncation distances are tied to the spacing (delta =
    DELTA_RATIO * h, a constant), so one geometric sequence refines h and
    delta together and a single estimated-order Richardson step
    extrapolates both.
    """

    base_n: int = 512
    levels: int = 3

    def to_json(self) -> dict:
        """The fields and the three grid constants, for provenance."""
        return {**asdict(self), "delta_ratio": DELTA_RATIO,
                "cusp_tail_rel": CUSP_TAIL_REL,
                "max_mode_cutoff": MAX_MODE_CUTOFF}

    def grids(self, surface) -> list:
        """The `levels` refinement grids of a surface, coarsest first."""
        return [make_grid(surface, self.base_n * 2 ** level)
                for level in range(self.levels)]


@dataclass
class EigenResult:
    """Low eigenpairs of one reduced operator."""

    eigenvalues: np.ndarray
    sections: list
    residuals: np.ndarray  # normwise backward error of each pair
    grid: Grid
    block_index: np.ndarray
    block_values: list  # each block's solved values, ascending


@dataclass
class ToneResult:
    """Extrapolated fundamental tone of a mode sweep, and its minimizer."""

    kind: str
    lambda_star: float
    nu_star: float
    error_bar: float
    per_mode: dict  # nu -> {"value", "error_bar", "order"} or {"pruned_at"}
    table: list  # per (nu, level): n, h, delta, value
    flags: list
    kernel_skipped: bool = False
    ground: Section | None = None  # level-0 section of mode nu_star
    ground_op: ReducedOperator | None = None  # the operator ground solves


@dataclass
class ProbeResult:
    """Eigenvalue counts below a threshold over nested windows."""

    threshold: float
    windows: list
    counts: list
    stable: bool


def _congruence(block):
    """Scale M^(-1/2) and the diagonals of M^(-1/2) S M^(-1/2) of a block."""
    scale = 1.0 / np.sqrt(block.mass.weights)
    return (scale, block.diag * scale * scale,
            block.off * scale[:-1] * scale[1:])


def _gershgorin(d, e) -> tuple:
    """||T||_1 and the Gershgorin interval of the tridiagonal T = (d, e)."""
    off = np.pad(np.abs(e), 1)
    radius = off[:-1] + off[1:]
    return (float(np.max(np.abs(d) + radius)), float(np.min(d - radius)),
            float(np.max(d + radius)))


def _bracket(d, e, count, near) -> tuple:
    """dstebz on a value range (vl, hi] that holds the `count` lowest values.

    `near` are the same block's values at the coarser level.  lo starts
    BRACKET_REL below near[0] and hi BRACKET_REL above near[count - 1],
    each padded by `slack` so that a zero value still leaves vl < hi.
    dpttrf(d - lo, e) succeeds exactly when lo < lambda_1, up to its
    backward error of a few eps ||T||_1, so bisection starts `slack` below
    a certified lo.  A failed certificate moves lo down, and fewer than
    `count` values in range move hi up, each doubling its distance from
    near; both stop at the padded Gershgorin interval, where the range
    holds the whole spectrum.
    """
    norm, gl, gu = _gershgorin(d, e)
    slack = BRACKET_SLACK * np.finfo(float).eps * norm
    floor, ceil = gl - slack, gu + slack
    low, top = float(near[0]), float(near[:count][-1])
    lo = max(floor, low - BRACKET_REL * abs(low) - slack)
    while lo > floor and dpttrf(d - lo, e)[2] != 0:
        lo = max(floor, low - 2.0 * (low - lo))
    hi = min(ceil, top + BRACKET_REL * abs(top) + slack)
    while True:
        found = dstebz(d, e, _RANGE_VALUE, lo - slack, hi, 0, 0, 0.0, b"B")
        if found[0] >= count or hi >= ceil:
            return found
        hi = min(ceil, top + 2.0 * (hi - top))


def _solve_block(block, count, near=None):
    """Eigenvectors of the `count` lowest pairs of a block, M-scaled back.

    Without `near`, bisection takes the index range 1..count from the
    Gershgorin interval; with it, the certified value bracket of _bracket.
    """
    scale, d, e = _congruence(block)
    if near is None:
        m, w, iblock, isplit, info = dstebz(d, e, _RANGE_INDEX, 0.0, 1.0,
                                            1, count, 0.0, b"B")
    else:
        m, w, iblock, isplit, info = _bracket(d, e, count, near)
    if info != 0 or m < count:
        raise ConvergenceError(
            f"dstebz found {m} of {count} eigenvalues (info {info})")
    # the lowest `count`, still grouped by split block as dstein expects
    keep = np.sort(np.argsort(w[:m], kind="stable")[:count])
    w = w[keep]
    iblock[:count] = iblock[keep]
    V, info = dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"dstein: {info} eigenvectors did not converge")
    return V[:, np.argsort(w)] * scale[:, None]


def _backward_error(block, lam: float, v: np.ndarray) -> float:
    """||S v - lam M v||_2 / ((||S||_1 + |lam| ||M||_1) ||v||_2)."""
    w = block.mass.weights
    norm_s = _gershgorin(block.diag, block.off)[0]
    r = block.matvec(v) - lam * w * v
    return float(np.linalg.norm(r) / ((norm_s + abs(lam) * np.max(w))
                                      * np.linalg.norm(v)))


def _count_block_below(block, threshold: float) -> int:
    """Eigenvalues <= threshold, from dstebz's Sturm counts at the ends.

    A tolerance as wide as the range ends the bisection before its first
    step; the count does not depend on it.
    """
    _, d, e = _congruence(block)
    m, _, _, _, info = dstebz(d, e, _RANGE_VALUE, -np.inf, threshold, 0, 0,
                              np.inf, b"E")
    if info != 0:
        raise ConvergenceError(f"dstebz count failed (info {info})")
    return int(m)


def smallest_eigenpairs(op: ReducedOperator, count: int,
                        near=None) -> EigenResult:
    """The `count` lowest generalized eigenpairs of (stiffness, mass).

    near, if given, is the block_values of the same operator at a coarser
    level; each block then bisects only a certified bracket around them.
    Raises ConvergenceError when a pair's backward error is above n * eps.
    """
    if count < 1 or count > op.size - 2:
        raise AssemblyError(
            f"count must be in [1, {op.size - 2}], got {count}")
    per_block = min(count, min(b.n for b in op.blocks) - 2)
    per_block = max(per_block, 1)
    merged = []
    block_values = []
    for bi, block in enumerate(op.blocks):
        V = _solve_block(block, per_block, None if near is None else near[bi])
        values = []
        for j in range(V.shape[1]):
            vec = V[:, j] / math.sqrt(block.mass_form(V[:, j]))
            values.append(block.energy(vec))
            merged.append((values[-1], bi, vec))
        block_values.append(np.sort(values))
    merged.sort(key=lambda rec: (rec[0], rec[1]))
    merged = merged[:count]

    eigenvalues = np.array([rec[0] for rec in merged])
    block_index = np.array([rec[1] for rec in merged])
    sections = []
    residuals = []
    for lam, bi, vec in merged:
        block = op.blocks[bi]
        residuals.append(_backward_error(block, lam, vec))
        bound = block.n * np.finfo(float).eps
        if residuals[-1] > bound:
            raise ConvergenceError(
                f"eigenpair backward error {residuals[-1]:.2e} above "
                f"n * eps = {bound:.2e}")
        if op.kind == KIND_DIRAC:
            full = np.zeros((2, op.grid.n))
            full[bi] = vec
            sections.append(Section(kind=KIND_DIRAC, nu=op.nu, grid=op.grid,
                                    values=full))
        else:
            sections.append(Section(kind=KIND_LAPLACIAN, nu=op.nu,
                                    grid=op.grid, values=vec))
    return EigenResult(eigenvalues, sections, np.array(residuals), op.grid,
                       block_index, block_values)


def richardson(seq) -> tuple:
    """Extrapolate a geometric refinement sequence; returns (value, bar, p).

    The convergence order is estimated from the data (singular-end
    truncations are not always second order), and the error bar is the
    distance from the last level to the extrapolated value.
    """
    seq = [float(x) for x in seq]
    if len(seq) == 1:
        return seq[0], abs(seq[0]) * 1e-3 + 1e-9, float("nan")
    if len(seq) == 2:
        return seq[1], abs(seq[1] - seq[0]) + 1e-14, float("nan")
    l0, l1, l2 = seq[-3:]
    d0, d1 = l0 - l1, l1 - l2
    if d1 == 0.0:
        return l2, 1e-14, float("inf")
    ratio = d0 / d1
    if ratio <= 1.0:
        return l2, abs(d0) + abs(d1) + 1e-14, float("nan")
    p = min(max(math.log2(ratio), 0.3), 4.0)
    val = l2 - d1 / (2 ** p - 1)
    return val, abs(val - l2) + 1e-14, p


def _mode_value(surface, kind, spin, nu, grids, pick):
    """Pair `pick` of one mode per level, extrapolated; its level-0 section
    and operator.

    Each level after the first brackets its solve from the values of the
    level before.
    """
    seq = []
    rows = []
    near = None
    for level, grid in enumerate(grids):
        op = assemble(surface, kind, spin, nu, grid)
        res = smallest_eigenpairs(op, pick + 1, near)
        near = res.block_values
        value = float(res.eigenvalues[pick])
        if level == 0:
            ground, ground_op = res.sections[pick], op
        seq.append(value)
        delta = DELTA_RATIO * grid.h \
            if "singular" in grid.side_kinds else 0.0
        rows.append({"nu": nu, "level": level, "n": grid.n, "h": grid.h,
                     "delta": delta, "value": value})
    val, bar, order = richardson(seq)
    return val, bar, order, rows, (ground, ground_op)


def fundamental_tone(surface, kind: str, spin=None,
                     policy: GridPolicy = GridPolicy(),
                     grids=None) -> ToneResult:
    """min over circle modes of the extrapolated ground eigenvalue.

    For the scalar Laplacian on surfaces with no honest boundary circle
    (all ends singular or cusps) the constants survive in the form domain,
    so the nu = 0 ground is the kernel surrogate and the sweep reports the
    first nonzero eigenvalue instead; with a Dirichlet boundary present the
    kernel is empty and the plain minimum is returned.

    The walk ends at the first mode whose floor on the coarsest grid is above
    the best value, recorded as {"pruned_at": floor}; a walk through all
    MAX_MODE_CUTOFF modes without one is flagged.

    grids is the ladder to refine on, policy.grids(surface) if not given;
    the result's ground is the attaining mode's level-0 section, and
    ground_op the operator it solves.
    """
    if kind not in (KIND_LAPLACIAN, KIND_DIRAC):
        raise AssemblyError(f"unknown operator kind {kind!r}")
    if kind == KIND_DIRAC and spin is None:
        raise AssemblyError("dirac tone needs a spin structure")
    structure = SCALAR if kind == KIND_LAPLACIAN else spin
    grids = grids or policy.grids(surface)
    ends = grids[0].side_kinds
    kernel_skip = kind == KIND_LAPLACIAN and "regular" not in ends

    flags = []
    if "cusp" in ends:
        flags.append("cusp-truncated-upper-estimate")

    best = math.inf
    best_nu = math.nan
    best_bar = math.inf
    best_ground = (None, None)
    per_mode = {}
    table = []
    for nu in lattice_modes(structure, surface.period, MAX_MODE_CUTOFF):
        term = mode_lower_bound_term(nu, surface.warp, grids[0])
        if term > best:
            per_mode[nu] = {"pruned_at": term}
            break
        pick = int(kernel_skip and abs(nu) < 1e-12)  # skip the kernel
        val, bar, order, rows, ground = _mode_value(
            surface, kind, spin, nu, grids, pick)
        per_mode[nu] = {"value": val, "error_bar": bar, "order": order}
        table.extend(rows)
        if val < best:
            best, best_nu, best_bar, best_ground = val, nu, bar, ground
    else:
        flags.append("sweep-exhausted-without-pruning-certificate")
    return ToneResult(kind=kind, lambda_star=best, nu_star=best_nu,
                      error_bar=best_bar, per_mode=per_mode, table=table,
                      flags=flags, kernel_skipped=kernel_skip,
                      ground=best_ground[0], ground_op=best_ground[1])


def truncation_probe(surface, kind: str, spin, windows, threshold: float,
                     n_base: int = 512) -> ProbeResult:
    """Count eigenvalues below `threshold` on a nested window sequence.

    Stabilizing counts indicate purely discrete spectrum below the
    threshold (compact perturbations do not move the essential spectrum);
    counts that keep growing signal spectrum accumulating below it.
    All probe windows use Dirichlet walls and share one node spacing so the
    discrete spaces are genuinely nested; the first window gets n_base
    nodes, at most PROBE_MAX_BASE_N.  Each window counts modes up to the
    first floor above the threshold, and raises ConvergenceError when all
    MAX_MODE_CUTOFF modes stay at or below it.
    """
    windows = [(float(a), float(b)) for a, b in windows]
    for (a0, b0), (a1, b1) in zip(windows, windows[1:]):
        if a1 > a0 + 1e-12 or b1 < b0 - 1e-12:
            raise AssemblyError("probe windows must be nested and growing")
    structure = SCALAR if kind == KIND_LAPLACIAN else spin
    span0 = windows[0][1] - windows[0][0]
    h = span0 / (min(n_base, PROBE_MAX_BASE_N) + 1)
    modes = lattice_modes(structure, surface.period, MAX_MODE_CUTOFF)
    counts = []
    for a, b in windows:
        n = max(16, int(round((b - a) / h)) - 1)
        grid = Grid(a=a, b=b, n=n)
        total = 0
        for nu in modes:
            if mode_lower_bound_term(nu, surface.warp, grid) > threshold:
                break
            op = assemble(surface, kind, spin, nu, grid)
            c = sum(_count_block_below(blk, threshold) for blk in op.blocks)
            if nu > 1e-12:
                c *= 2  # modes +-nu carry identical spectra
            total += c
        else:
            raise ConvergenceError(
                f"probe window ({a}, {b}): all {MAX_MODE_CUTOFF} mode floors "
                f"are at or below the threshold {threshold}")
        counts.append(total)
    stable = len(counts) >= 2 and counts[-1] == counts[-2]
    return ProbeResult(threshold=threshold, windows=windows, counts=counts,
                       stable=stable)

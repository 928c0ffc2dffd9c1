"""Generalized eigensolves, mode sweeps, and refinement studies.

Every tridiagonal block is solved after the diagonal-mass congruence
M^(-1/2) S M^(-1/2), which keeps the bandwidth, and every vector comes from
one certified path.  Each pair is seeded with a value: the same block's at
the coarser level; at the coarsest level, the one LAPACK dstebz bisects
from the Gershgorin interval on the ladder's seed grid, with 1/16 of the
coarsest level's nodes, at least 16 and at most SEED_N (sample_ladder; at
16 nodes it is the coarsest level itself); and wherever a seed fails, or a
direct caller gives none, the block's own bisected value.  One
inverse-iteration step and a few Rayleigh-quotient steps per pair, each an
O(n) dgtsv solve, give vectors whose residuals bound an interval around
each value (Parlett, 1998, ch. 4).  The index is certified in O(n): the
intervals are disjoint, and the nonpositive pivots of one restarted dpttrf
factorization count exactly the wanted number of values up to the top
interval (Sylvester's law of inertia).
The reported eigenvalue is the factored quotient energy(v) / (M v, v) of
the vector v, which keeps relative accuracy where a value of T carries an
absolute error of about eps * ||S|| / ||M|| (Demmel & Kahan, 1990).  Each
pair must pass the scale-free normwise backward error bound
||S v - lam M v|| / ((||S||_1 + |lam| ||M||_1) ||v||) <= n * eps
(Higham & Higham, 1998).
A Dirac operator's -|nu| block is solved first; where the assembly marks
the other block as its twin (ReducedOperator.twin: every mode nu = 0, and
the modes of a mirrored window), that block takes the same values and the
same vectors read through the twin slice, since a permuted matrix has the
permuted eigenpairs: one refinement per twin.  Each copied pair still
passes the backward-error gate on its own block.  Seeds bisect, and probes
count, a twin's -|nu| block alone.
Fundamental tones and probes share one walk over the circle modes
(_mode_walk); tones extrapolate each mode over a geometric (h, delta)
refinement sequence.
The three LAPACK routines come from scipy's f2py module, loaded by file
spec, because importing scipy.linalg for them would cost a cold verify more
than half its time in scipy's array-API shim.  This is the package's only
route to scipy: dgtsv also solves geometry.TabulatedWarp's spline moments.
The solves and pivot counts run in place on one workspace per thread: six
float64 scratch vectors that dgtsv (all four overwrite flags) and dpttrf
overwrite, the matvec and the residual write into, and that grow to the
largest block solved and are never freed.  _scratch(n) hands a kernel the
views of all six for a block of order n, and keeps those of the last n, so
the kernels of one block neither look a vector up nor slice it.  A thread
keeps about 6 * 8 * n bytes for its largest n: about 3 MB after an
8192 x 4 ladder, about 48 MB after one whose finest grid has 2^20 nodes.
Scratch views never leave this module's kernels; every returned vector and
section is a fresh array, or a twin's view of one.
smallest_eigenpairs returns each pair's vector; EigenResult.section(j)
lays one out as a Section when called.  A tone builds one Section per
solved mode: its level-0 ground, the one ToneResult.ground can hold.
Dot products and norms are numpy's own single-threaded sums (np.einsum),
never a BLAS kernel, so the bytes of a result do not depend on the BLAS
thread count; the other reductions are ndarray methods.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import threading
from collections import namedtuple
from dataclasses import asdict, dataclass, field

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
    block_section,
    kind_modes,
    lay_grid,
    make_grid,
    sample_grid,
)
from .spin import mode_lower_bound_term


# Tone walks and probes look at most at this many lowest nonnegative modes.
MAX_MODE_CUTOFF = 64

# The flag of a tone or probe whose walk ended without a pruning certificate.
UNCERTIFIED = "sweep-exhausted-without-pruning-certificate"

# Node cap of every grid: the finest level of a tone ladder, and each
# probe window.
MAX_GRID_NODES = 2 ** 20

# The node cap of a ladder's seed grid, whose bisected values seed its level
# 0 (sample_ladder), and the node count of a probe's first window.
SEED_N = 512

# A refined eigenvalue's interval is padded by BRACKET_SLACK * eps * ||T||_1,
# and its Rayleigh-quotient iteration fails after RQI_STEPS steps.
BRACKET_SLACK = 8
RQI_STEPS = 8

_RANGE_INDEX = 2  # dstebz RANGE = 'I'


def _lapack():
    """scipy's f2py LAPACK module, for its dgtsv, dpttrf and dstebz, without
    importing scipy.linalg.

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
dgtsv, dpttrf, dstebz = _flapack.dgtsv, _flapack.dpttrf, _flapack.dstebz


@dataclass(frozen=True)
class GridPolicy:
    """Refinement policy for tone computations.

    base_n is the coarsest node count; each of the `levels` refinement
    steps doubles it.  A ladder needs integers (not booleans) base_n >= 16
    and levels >= 1, and a finest grid of base_n * 2^(levels - 1) <=
    MAX_GRID_NODES nodes; AssemblyError otherwise, before any grid is laid.
    Singular-end truncation distances are tied to the spacing (delta =
    DELTA_RATIO * h, a constant), so one geometric sequence refines h and
    delta together and a single estimated-order Richardson step
    extrapolates both.
    """

    base_n: int = 512
    levels: int = 3

    def __post_init__(self):
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool)
                   for x in (self.base_n, self.levels)):
            raise AssemblyError(f"an integer base grid and levels required, "
                                f"got {self.base_n!r} and {self.levels!r}")
        if self.base_n < 16 or self.levels < 1:
            raise AssemblyError(f"a base grid >= 16 and levels >= 1 "
                                f"required, got {self.base_n} and "
                                f"{self.levels}")
        if self.base_n > MAX_GRID_NODES >> (self.levels - 1):
            raise AssemblyError(f"base grid * 2^(levels - 1) <= "
                                f"{MAX_GRID_NODES} required, got "
                                f"{self.base_n} and levels {self.levels}")

    def to_json(self) -> dict:
        """The fields and the three grid constants, for provenance."""
        return {**asdict(self), "delta_ratio": DELTA_RATIO,
                "cusp_tail_rel": CUSP_TAIL_REL,
                "max_mode_cutoff": MAX_MODE_CUTOFF}

    def grids(self, surface) -> list:
        """The `levels` refinement grids of a surface, coarsest first, laid
        for the end kinds that make_grid finds on the coarsest."""
        first = make_grid(surface, self.base_n)
        return [first] + [lay_grid(surface, self.base_n * 2 ** level,
                                   first.side_kinds, first.side_slopes)
                          for level in range(1, self.levels)]


@dataclass
class EigenResult:
    """Low eigenpairs of one reduced operator of a kind, mode nu and grid.

    vectors[j] is pair j's eigenvector on its block, block_index[j].
    section(j) lays it out as a Section of the operator, built when called.
    The result keeps none of the operator's arrays.
    """

    eigenvalues: np.ndarray
    vectors: list
    residuals: np.ndarray  # normwise backward error of each pair
    block_index: np.ndarray
    block_values: list  # each block's solved values, ascending
    kind: str
    nu: float
    grid: Grid

    def section(self, j: int) -> Section:
        """Pair j's eigenvector as a Section (block_section)."""
        return block_section(self.kind, self.nu, self.grid,
                             int(self.block_index[j]), self.vectors[j])


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
    flags: list = field(default_factory=list)  # UNCERTIFIED, as a tone's


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# The scratch vectors of a block of order n: diag, rhs and tx hold n
# entries, dl, du and tmp n - 1.
_Scratch = namedtuple("_Scratch", "diag rhs tx dl du tmp")


class _Workspace(threading.local):
    """One thread's scratch vectors: bufs maps each _Scratch name to its
    float64 array, and views holds the _Scratch views of the last order n
    asked for."""

    def __init__(self):
        self.bufs = {}
        self.n = 0
        self.views = None


_workspace = _Workspace()


def _scratch(n: int) -> _Scratch:
    """This thread's scratch vectors for a block of order n, as views.

    Every vector grows to the largest size asked of it and is never freed,
    so the solves of a ladder write into pages that stay mapped instead of
    fresh arrays that the allocator hands back to the system between
    modes.  The views of the last n are kept, so the kernels of one block
    take them without a lookup or a slice.  Views never leave the kernels
    below.
    """
    ws = _workspace
    if ws.n != n:
        ws.n, ws.views = 0, None  # the old views let go of a vector that grows
        views = []
        for i, name in enumerate(_Scratch._fields):
            size = n - (i >= 3)
            buf = ws.bufs.get(name)
            if buf is None or buf.size < size:
                buf = ws.bufs[name] = np.empty(size)
            views.append(buf[:size])
        ws.views, ws.n = _Scratch(*views), n
    return ws.views


def _congruence(block):
    """Scale M^(-1/2) and the diagonals of M^(-1/2) S M^(-1/2) of a block."""
    scale = 1.0 / np.sqrt(block.mass)
    return (scale, block.diag * scale * scale,
            block.off * scale[:-1] * scale[1:])


def _norm1(d, e) -> float:
    """||T||_1 of the symmetric tridiagonal T = (d, e)."""
    ws = _scratch(d.size)
    row = np.abs(d, out=ws.diag)
    off = np.abs(e, out=ws.dl)
    row[1:] += off
    row[:-1] += off
    return float(row.max())


def _count_below(d, e, hi: float) -> int:
    """Eigenvalues <= hi of T = (d, e): the nonpositive pivots of
    LDL^T(T - hi I), by Sylvester's law of inertia (Parlett, 1998, ch. 3).

    dpttrf factors in place and stops at the first pivot <= 0.  That pivot
    is counted, replaced by min(pivot, -pivmin) as in dstebz's Sturm count
    (pivmin = tiny * max(1, max e^2)), eliminated from the next diagonal
    entry, and the factorization restarts there: one pass over n, plus one
    call per counted value.
    """
    n = d.size
    ws = _scratch(n)
    q = np.subtract(d, hi, out=ws.diag)
    w = ws.dl
    w[:] = e
    e2 = np.multiply(e, e, out=ws.tmp)
    pivmin = _TINY * max(1.0, float(e2.max(initial=0.0)))
    count = start = 0
    while start < n - 1:  # dpttrf takes no matrix of order 1
        *_, info = dpttrf(q[start:], w[start:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            return count
        if info < 0:
            raise ConvergenceError(f"dpttrf count failed (info {info})")
        k = start + info - 1
        count += 1
        if k == n - 1:
            return count
        q[k + 1] -= e[k] * e[k] / min(q[k], -pivmin)
        start = k + 1
    return count + int(q[-1] <= 0.0)


def _dot(x, y) -> float:
    """x . y by numpy's own single-threaded loop, not a BLAS kernel, so
    the sum does not depend on the BLAS thread count and takes no second
    core."""
    return float(np.einsum("i,i->", x, y))


def _norm2(x) -> float:
    """||x||_2, summed as _dot."""
    return math.sqrt(_dot(x, x))


def _shifted_solve(d, e, shift: float, x):
    """(T - shift I)^(-1) x by dgtsv, normalized; None if the solve fails.

    dgtsv overwrites its four arguments, scratch copies of e, e, d - shift
    and x, in place.
    """
    ws = _scratch(d.size)
    dl, du, b = ws.dl, ws.du, ws.rhs
    dl[:] = e
    du[:] = e
    b[:] = x
    *_, y, info = dgtsv(dl, np.subtract(d, shift, out=ws.diag), du,
                        b[:, None], 1, 1, 1, 1)
    y = y[:, 0]
    norm = _norm2(y) if info == 0 else math.nan
    return y / norm if 0.0 < norm < math.inf else None


def _matvec(d, e, v):
    """T v for T = (d, e), into scratch."""
    ws = _scratch(d.size)
    out = np.multiply(d, v, out=ws.tx)
    tmp = np.multiply(e, v[1:], out=ws.tmp)
    out[:-1] += tmp
    out[1:] += np.multiply(e, v[:-1], out=tmp)
    return out


def _refine(d, e, count, near):
    """Certified vectors of the `count` lowest eigenpairs of T = (d, e), or
    None.

    near[j] estimates lambda_(j+1).  Pair j starts from
    cos(j pi (i + 1/2) / n), earlier pairs projected out, takes one
    inverse-iteration step shifted at near[j], then Rayleigh-quotient steps
    until a quotient agrees within `slack` with the one before (the first
    with near[j]), at most RQI_STEPS of them; a failed solve (a shift on a
    value to working precision) ends the iteration at the last vector.  Its
    quotient rq_j and residual r_j put an eigenvalue in
    [rq_j - r_j, rq_j + r_j] (Parlett, 1998, ch. 4), padded by
    slack = BRACKET_SLACK * eps * ||T||_1 for rounding.  When the intervals
    are disjoint and one pivot count finds exactly `count` values up to the
    top one, interval j holds lambda_(j+1), and x_j is its vector.
    Where the first solve fails, the start vector itself is judged; where
    its interval is not above the one before, or a pivot count finds other
    than j + 1 values up to its top, pair j starts once more, shifted at
    near[j] - slack: a seed bisected on the same block can sit on its value
    to the last bit.
    A step cap reached or a failed certificate returns None.
    """
    n = d.size
    slack = BRACKET_SLACK * _EPS * _norm1(d, e)
    if count > 1:
        phase = (np.arange(n) + 0.5) * (math.pi / n)
    X = np.empty((n, count))
    top = -math.inf
    for j in range(count):
        start = np.cos(j * phase) if j else np.ones(n)  # cos(0) is exactly 1
        if j:
            start -= np.einsum("ij,j->i", X[:, :j], np.einsum(
                "ij,i->j", X[:, :j], start))
        for first in (float(near[j]), float(near[j]) - slack):
            x, shift, rq, tx = start, first, first, None
            for _ in range(RQI_STEPS):
                y = _shifted_solve(d, e, shift, x)
                if y is None:
                    break
                x, tx, prev = y, _matvec(d, e, y), rq
                rq = shift = _dot(x, tx)
                if abs(rq - prev) <= slack:
                    break
            else:
                return None
            judged = tx is None
            if judged:  # the first solve failed: judge the start vector
                x = x / _norm2(x)
                tx = _matvec(d, e, x)
                rq = _dot(x, tx)
            res = np.multiply(x, rq, out=_scratch(n).rhs)
            r = _norm2(np.subtract(tx, res, out=res)) + slack
            if not judged or (rq - r > top
                              and _count_below(d, e, rq + r) == j + 1):
                break
        if not rq - r > top:
            return None
        top = rq + r
        X[:, j] = x
    return X if _count_below(d, e, top) == count else None


def _bisect(d, e, count):
    """The `count` lowest eigenvalues of T = (d, e), ascending, by dstebz
    bisection of the index range from the Gershgorin interval."""
    m, w, _, _, info = dstebz(d, e, _RANGE_INDEX, 0.0, 1.0, 1, count, 0.0,
                              b"E")
    if info != 0 or m < count:
        raise ConvergenceError(
            f"dstebz found {m} of {count} eigenvalues (info {info})")
    return w[:count]


def _solve_block(block, count, near=None):
    """Eigenvectors of the `count` lowest pairs of a block, M-scaled back.

    _refine starts from the values in `near` when it has one for every
    pair; without them (a direct caller's solve), or when that fails, from
    the block's bisected values.  A block that does not certify raises
    ConvergenceError.
    """
    scale, d, e = _congruence(block)
    X = None
    if near is not None and len(near) >= count:
        X = _refine(d, e, count, near)
    if X is None:
        X = _refine(d, e, count, _bisect(d, e, count))
    if X is None:
        raise ConvergenceError(f"no certified eigenvectors for the {count} "
                               f"lowest pairs of a block of n = {d.size}")
    return X * scale[:, None]


def _backward_error(block, lam: float, v: np.ndarray) -> float:
    """||S v - lam M v||_2 / ((||S||_1 + |lam| ||M||_1) ||v||_2)."""
    w = block.mass
    norm_s = _norm1(block.diag, block.off)
    r = _matvec(block.diag, block.off, v) - lam * w * v
    return _norm2(r) / ((norm_s + abs(lam) * float(w.max())) * _norm2(v))


def _own_blocks(op: ReducedOperator) -> list:
    """The indices of the blocks whose own pairs are solved, bisected or
    counted, in that order: a Dirac operator's -|nu| block first, whichever
    place it has, so that modes nu and -nu give the same values bit for
    bit, and its twin (op.twin) left out."""
    first = int(op.kind == KIND_DIRAC and op.nu < 0)
    if op.twin is not None:
        return [first]
    return [first] + [bi for bi in range(len(op.blocks)) if bi != first]


def smallest_eigenpairs(op: ReducedOperator, count: int,
                        near=None) -> EigenResult:
    """The `count` lowest generalized eigenpairs of (stiffness, mass).

    near, if given, is the block_values of the same operator at a coarser
    level; each block that has a value there for every pair it solves then
    refines its pairs from them and certifies their index (_solve_block).
    The twin of the first block solved (op.twin) takes that block's
    values and its vectors read through op.twin; block_values keeps one
    array per block, and the merged pairs of all blocks sort by (value,
    block).  Raises ConvergenceError when a pair's backward error, on its
    own block, is above n * eps.
    """
    if count < 1 or count > op.size - 2:
        raise AssemblyError(
            f"count must be in [1, {op.size - 2}], got {count}")
    per_block = min(count, min(b.n for b in op.blocks) - 2)
    per_block = max(per_block, 1)
    solved = _own_blocks(op)
    pairs = [None] * len(op.blocks)  # (values, vectors) of each block
    for bi in solved:
        block = op.blocks[bi]
        V = _solve_block(block, per_block, None if near is None else near[bi])
        vecs = [V[:, j] / math.sqrt(block.mass_form(V[:, j]))
                for j in range(V.shape[1])]
        pairs[bi] = ([block.energy(vec) for vec in vecs], vecs)
    for bi, pair in enumerate(pairs):
        if pair is None:  # the twin of the first block solved
            values, vecs = pairs[solved[0]]
            pairs[bi] = (values, [vec[op.twin] for vec in vecs])
    merged = sorted(((value, bi, vec)
                     for bi, (values, vecs) in enumerate(pairs)
                     for value, vec in zip(values, vecs)),
                    key=lambda rec: (rec[0], rec[1]))
    block_values = [np.sort(values) for values, _ in pairs]
    merged = merged[:count]

    eigenvalues = np.array([rec[0] for rec in merged])
    block_index = np.array([rec[1] for rec in merged])
    residuals = []
    for lam, bi, vec in merged:
        block = op.blocks[bi]
        residuals.append(_backward_error(block, lam, vec))
        bound = block.n * _EPS
        if residuals[-1] > bound:
            raise ConvergenceError(
                f"eigenpair backward error {residuals[-1]:.2e} above "
                f"n * eps = {bound:.2e}")
    return EigenResult(eigenvalues, [rec[2] for rec in merged],
                       np.array(residuals), block_index, block_values,
                       op.kind, op.nu, op.grid)


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


def _add_mode(tone: ToneResult, surface, spin, nu, ladder) -> None:
    """Fold mode nu into tone: its ground pair (the next one, past the
    kernel, where tone.kernel_skipped and nu == 0), extrapolated over the
    ladder, goes into tone.per_mode and tone.table, and where it is below
    tone.lambda_star, it and its level-0 section and operator become the
    tone's.  That section is the one Section the mode builds.

    ladder is (levels, seed) as sample_ladder returns it.  Level 0 refines
    its solve from the values each block bisects on the seed grid (a twin's
    -|nu| block alone), and each level after it from the values of the
    level before.  Where the seed is level 0 itself, its one operator is
    both bisected and solved.
    """
    levels, seed = ladder
    kind, pick = tone.kind, int(tone.kernel_skipped and nu == 0)
    seq = []
    op = assemble(surface, kind, spin, nu, *seed)
    near = [None] * len(op.blocks)
    for bi in _own_blocks(op):
        near[bi] = _bisect(*_congruence(op.blocks[bi])[1:], pick + 1)
    for level, (grid, samples) in enumerate(levels):
        if levels[level] is not seed:
            op = assemble(surface, kind, spin, nu, grid, samples)
        res = smallest_eigenpairs(op, pick + 1, near)
        near = res.block_values
        value = float(res.eigenvalues[pick])
        if level == 0:
            ground, ground_op = res.section(pick), op
        seq.append(value)
        tone.table.append({"nu": nu, "level": level, "n": grid.n,
                           "h": grid.h, "delta": grid.delta, "value": value})
    val, bar, order = richardson(seq)
    tone.per_mode[nu] = {"value": val, "error_bar": bar, "order": order}
    if val < tone.lambda_star:
        tone.lambda_star, tone.nu_star, tone.error_bar = val, nu, bar
        tone.ground, tone.ground_op = ground, ground_op


def sample_ladder(surface, grids) -> tuple:
    """(levels, seed): a (grid, sample_grid samples) pair for each grid of
    the ladder grids, coarsest first (GridPolicy.grids), and such a pair on
    the seed grid: min(SEED_N, max(16, n0 // 16)) nodes, n0 the node count
    of grids[0], laid for the end kinds of grids[0].  Where that is n0
    (n0 = 16), the seed is levels[0] itself, laid and sampled once."""
    levels = [(grid, sample_grid(surface, grid)) for grid in grids]
    first = grids[0]
    seed_n = min(SEED_N, max(16, first.n // 16))
    if seed_n == first.n:
        return levels, levels[0]
    seed_grid = lay_grid(surface, seed_n, first.side_kinds,
                         first.side_slopes)
    return levels, (seed_grid, sample_grid(surface, seed_grid))


def _mode_walk(surface, kind: str, spin, samples, level, visit,
               flags: list) -> dict:
    """visit(nu) for a kind's circle modes in ascending |nu| up to the first
    whose floor mode_lower_bound_term(nu, samples.f_nodes) is above level(),
    read again at each step; returns {nu: {"pruned_at": floor}} for that
    mode.  A walk exhausted after MAX_MODE_CUTOFF modes returns {} and puts
    UNCERTIFIED in flags, once.

    The floor is proven for the scalar form only; a Dirac block's cross
    term nu f' / f^2 can be negative (ROADMAP item 8).
    """
    for nu in kind_modes(kind, spin, surface.period, MAX_MODE_CUTOFF):
        floor = mode_lower_bound_term(nu, samples.f_nodes)
        if floor > level():
            return {nu: {"pruned_at": floor}}
        visit(nu)
    if UNCERTIFIED not in flags:
        flags.append(UNCERTIFIED)
    return {}


def fundamental_tone(surface, kind: str, spin, ladder) -> ToneResult:
    """min over circle modes of the extrapolated ground eigenvalue.

    For the scalar Laplacian on surfaces with no honest boundary circle
    (all ends singular or cusps) the constants survive in the form domain,
    so the nu = 0 ground is the kernel surrogate and the sweep reports the
    first nonzero eigenvalue instead; with a Dirichlet boundary present the
    kernel is empty and the plain minimum is returned.

    The modes are those _mode_walk visits below the best value so far, and
    per_mode records the one it prunes at.  An exhausted walk is flagged,
    and so is the tone, an upper estimate, of a surface with a complete end
    (complete_ends).

    ladder is the sampled ladder (levels, seed) of sample_ladder, and
    nothing is laid or sampled here: every mode assembles on those samples,
    level 0 seeds from the seed grid, and the floors read the level-0 node
    values.  The result's ground is the attaining mode's level-0 section,
    and ground_op the operator it solves.
    """
    grid, samples = ladder[0][0]  # the coarsest level
    flags = (["cusp-truncated-upper-estimate"]
             if any(surface.complete_ends) else [])
    tone = ToneResult(kind=kind, lambda_star=math.inf, nu_star=math.nan,
                      error_bar=math.inf, per_mode={}, table=[], flags=flags,
                      kernel_skipped=(kind == KIND_LAPLACIAN
                                      and not grid.boundary_circle))
    tone.per_mode.update(_mode_walk(
        surface, kind, spin, samples, lambda: tone.lambda_star,
        lambda nu: _add_mode(tone, surface, spin, nu, ladder), tone.flags))
    return tone


def check_probe_windows(surface, windows) -> list:
    """The probe windows as sized (a, b, n): SEED_N nodes on the first
    window and its spacing on the rest.  Each window must lie inside the
    surface and contain the one before it (1e-12 slack), and none may need
    more than MAX_GRID_NODES nodes; AssemblyError otherwise, before any
    grid is laid."""
    windows = [(float(a), float(b)) for a, b in windows]
    for a, b in windows:
        if not surface.t_min <= a < b <= surface.t_max:
            raise AssemblyError(
                f"probe window [{a}, {b}] must have t_min <= a < b <= t_max "
                f"on [{surface.t_min}, {surface.t_max}]")
    for (a0, b0), (a1, b1) in zip(windows, windows[1:]):
        if a1 > a0 + 1e-12 or b1 < b0 - 1e-12:
            raise AssemblyError("probe windows must be nested and growing")
    h = (windows[0][1] - windows[0][0]) / (SEED_N + 1)
    sized = [(a, b, max(16, int(round((b - a) / h)) - 1)) for a, b in windows]
    for a, b, n in sized:
        if n > MAX_GRID_NODES:
            raise AssemblyError(
                f"probe window [{a}, {b}] at the first window's spacing "
                f"needs {n} nodes, above the cap of {MAX_GRID_NODES}")
    return sized


def truncation_probe(surface, kind: str, spin, windows,
                     threshold: float) -> ProbeResult:
    """Count eigenvalues below `threshold` on a nested window sequence.

    Stabilizing counts indicate purely discrete spectrum below the
    threshold (compact perturbations do not move the essential spectrum);
    counts that keep growing signal spectrum accumulating below it.
    All probe windows use Dirichlet walls and share one node spacing so the
    discrete spaces are genuinely nested: check_probe_windows sizes them,
    SEED_N nodes on the first, whatever ladder the tones refine on.  Each
    window is sampled once, and counts the modes _mode_walk visits below
    the threshold, all assembled on those samples (the floors read the same
    samples), a twin's -|nu| block once for both blocks; an exhausted walk
    flags the result.
    """
    sized = check_probe_windows(surface, windows)
    counts, flags = [], []
    for a, b, n in sized:
        grid = Grid(a=a, b=b, n=n)
        samples = sample_grid(surface, grid)
        per_mode = []

        def count(nu):
            op = assemble(surface, kind, spin, nu, grid, samples)
            c = sum(_count_below(*_congruence(op.blocks[bi])[1:], threshold)
                    for bi in _own_blocks(op))
            if op.twin is not None:
                c *= 2  # the twin block has the same spectrum
            if nu != 0:
                c *= 2  # modes +-nu carry identical spectra
            per_mode.append(c)
        _mode_walk(surface, kind, spin, samples, lambda: threshold, count,
                   flags)
        counts.append(sum(per_mode))
    stable = len(counts) >= 2 and counts[-1] == counts[-2]
    return ProbeResult(threshold=threshold,
                       windows=[(a, b) for a, b, _ in sized], counts=counts,
                       stable=stable, flags=flags)

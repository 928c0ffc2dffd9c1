"""Warped-product surfaces dt^2 + f(t)^2 dphi^2: warps, curvature, area.

All built-in geometry is a surface of revolution over an interval
(t_min, t_max) with circle period P.  Gauss curvature is K = -f''/f, the
scalar curvature is 2K, the curvature term acting on spinors is scal/4 and
the one acting on 1-forms is K itself.

A warp is the profile f.  It has one evaluator, derivatives(t, orders),
which returns the list of f^(k)(t) for each k of orders (0, 1 or 2), in
that order; a call that groups orders shares the work they have in common
(one cos, one exp, one segment lookup) and returns the same bits as one
call per order.  The geometry functions here and operators.sample_grid
are its only callers.  A warp also has integral(a, b), the closed-form
integral of f, to_json() and a variant name.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError

END_BOUNDARY = "incomplete-boundary"
END_CUSP = "cusp-complete"

# f values below this (relative to the warp maximum) mark an end as singular:
# the rotation circle degenerates there (a pole or cone point).
_SINGULAR_REL = 1e-8


def is_finite_number(x) -> bool:
    """Whether x is a number other than a boolean, NaN and +-Infinity, and
    inside the float range: a JSON integer such as 10**400 is not."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _finite(doc: dict, key: str) -> float:
    """doc[key] of a JSON document, which must be a finite number."""
    if not is_finite_number(doc[key]):
        raise GeometryError(f"key {key!r} must be a finite number, got "
                            f"{doc[key]!r}")
    return float(doc[key])


class CosineWarp:
    """f(t) = cos t, the round-sphere profile on (-pi/2, pi/2)."""

    variant = "cosine"

    def derivatives(self, t, orders):
        """cos t, -sin t and -cos t for orders 0, 1 and 2, from one cos."""
        cos = np.cos(t)
        return [-np.sin(t) if k == 1 else -cos if k == 2 else cos
                for k in orders]

    def integral(self, a, b):
        return math.sin(b) - math.sin(a)

    def to_json(self):
        return {"variant": self.variant}


class ConstantWarp:
    """f(t) = c > 0, a flat cylinder of circumference P*c."""

    variant = "constant"

    def __init__(self, c: float = 1.0):
        if not c > 0:
            raise GeometryError(f"constant warp needs c > 0, got {c}")
        self.c = float(c)

    def derivatives(self, t, orders):
        """c for order 0, zeros for orders 1 and 2."""
        t = np.asarray(t, dtype=float)
        return [np.full_like(t, self.c) if k == 0 else np.zeros_like(t)
                for k in orders]

    def integral(self, a, b):
        return self.c * (b - a)

    def to_json(self):
        return {"variant": self.variant, "c": self.c}


class ExpCuspWarp:
    """f(t) = c * exp(-t), a finite-area cusp opening toward t -> infinity."""

    variant = "exp_cusp"

    def __init__(self, c: float = 1.0):
        if not c > 0:
            raise GeometryError(f"cusp warp needs c > 0, got {c}")
        self.c = float(c)

    def derivatives(self, t, orders):
        """c e^-t for orders 0 and 2, and -(c e^-t) for order 1, from one
        exp: -c * e^-t rounds as -(c * e^-t)."""
        f = self.c * np.exp(-np.asarray(t, dtype=float))
        return [-f if k == 1 else f for k in orders]

    def integral(self, a, b):
        # finite for b = inf; area() reports a = -inf as diverging
        with np.errstate(over="ignore"):
            return self.c * float(np.exp(-a) - np.exp(-b))

    def to_json(self):
        return {"variant": self.variant, "c": self.c}


class TabulatedWarp:
    """Natural cubic-spline warp through sample points.

    Lets callers inject custom metrics without symbolic machinery; first and
    second derivatives and the integral come from the spline, which is built
    on first use, and derivatives looks up each point's segment once for
    every order it is asked.  Its knot second derivatives (moments) solve the
    tridiagonal system with diagonal 2 (h_i + h_(i+1)) and zero end moments
    (de Boor, A Practical Guide to Splines, ch. 4) by the eigensolver's
    LAPACK dgtsv.  Outside the samples the end pieces extrapolate.  Samples
    must be finite, strictly increasing in t and strictly positive in f.
    """

    variant = "tabulated"

    def __init__(self, ts, fs):
        try:
            ts = np.asarray(ts, dtype=float)
            fs = np.asarray(fs, dtype=float)
        except OverflowError as exc:  # an integer beyond the float range
            raise GeometryError("tabulated warp samples must be finite") \
                from exc
        if ts.ndim != 1 or ts.size < 4 or ts.shape != fs.shape:
            raise GeometryError("tabulated warp needs >= 4 matched samples")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(fs))):
            raise GeometryError("tabulated warp samples must be finite")
        if np.any(np.diff(ts) <= 0):
            raise GeometryError("tabulated warp samples must increase in t")
        if np.any(fs <= 0):
            raise GeometryError("tabulated warp samples must be positive")
        self.ts = ts
        self.fs = fs

    @functools.cached_property
    def _coef(self):
        """Taylor coefficients (c0, c1, c2, c3) of each segment's cubic
        about its left knot.
        """
        from .eigensolve import dgtsv  # eigensolve imports this module

        h = np.diff(self.ts)
        slope = np.diff(self.fs) / h
        # strictly diagonally dominant, so the solve cannot break down
        *_, inner, _ = dgtsv(h[1:-1], 2.0 * (h[:-1] + h[1:]), h[1:-1],
                             6.0 * np.diff(slope)[:, None])
        moments = np.concatenate([[0.0], inner[:, 0], [0.0]])
        return (self.fs[:-1],
                slope - h * (2.0 * moments[:-1] + moments[1:]) / 6.0,
                moments[:-1] / 2.0,
                np.diff(moments) / (6.0 * h))

    def _segment(self, t):
        """The segment index of each t (the end pieces beyond the samples)
        and its offset from the segment's left knot.
        """
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.ts, t, side="right") - 1,
                    0, self.ts.size - 2)
        return i, t - self.ts[i]

    def derivatives(self, t, orders):
        """The derivatives of the given orders at t, by Horner's rule on one
        segment lookup; each coefficient is gathered once, for every order
        that reads it."""
        i, x = self._segment(t)
        outs = [np.zeros_like(x) for _ in orders]
        for k in range(3, min(orders) - 1, -1):
            c = self._coef[k][i]
            for j, order in enumerate(orders):
                if k >= order:
                    outs[j] = outs[j] * x + math.perm(k, order) * c
        return outs

    def minimum_candidates(self, a: float, b: float) -> np.ndarray:
        """The knots inside (a, b), and the points there where f' = 0: the
        only places inside where the spline can take a minimum.  Segment
        i's f' is the quadratic c1 + 2 c2 x + 3 c3 x^2 in the offset x from
        its left knot, and its roots are the pair q/(3 c3), c1/q with
        q = -(c2 + sign(c2) sqrt(c2^2 - 3 c1 c3)), which stays accurate
        when one root is tiny and gives -c1/(2 c2) where c3 = 0."""
        _, c1, c2, c3 = self._coef
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * c1 * c3), c2))
            offsets = np.concatenate([q / (3.0 * c3), c1 / q])
        left = np.tile(np.arange(c1.size), 2)
        t = self.ts[left] + offsets
        keep = np.isfinite(t)
        t, left = t[keep], left[keep]
        # a root counts on the piece its segment's cubic governs
        roots = t[self._segment(t)[0] == left]
        points = np.concatenate([self.ts, roots])
        return np.sort(points[(points > a) & (points < b)])

    def _primitive(self, i, x):
        """Integral of segment i's cubic from its left knot to offset x."""
        c0, c1, c2, c3 = self._coef
        return x * (c0[i] + x * (c1[i] / 2 + x * (c2[i] / 3 + x * c3[i] / 4)))

    def integral(self, a, b):
        if b < a:
            return -self.integral(b, a)
        # summed segment by segment, so a short span keeps its relative
        # accuracy instead of cancelling two long running totals
        (i, j), (xa, xb) = self._segment([a, b])
        whole = self._primitive(np.arange(i, j), np.diff(self.ts)[i:j])
        return float(np.sum(whole) + self._primitive(j, xb)
                     - self._primitive(i, xa))

    def to_json(self):
        return {
            "variant": self.variant,
            "ts": [float(x) for x in self.ts],
            "fs": [float(x) for x in self.fs],
        }


_WARP_VARIANTS = {
    "cosine": lambda d: CosineWarp(),
    "constant": lambda d: ConstantWarp(_finite(d, "c")),
    "exp_cusp": lambda d: ExpCuspWarp(_finite(d, "c")),
    "tabulated": lambda d: TabulatedWarp(d["ts"], d["fs"]),
}


def warp_from_json(doc: dict):
    try:
        return _WARP_VARIANTS[doc["variant"]](doc)
    except KeyError as exc:
        raise GeometryError(f"unknown warp document: {doc!r}") from exc


@dataclass(frozen=True)
class WarpedSurface:
    """Metric dt^2 + f(t)^2 dphi^2 on (t_min, t_max) x R/(P Z).

    t_max may be math.inf only when the upper end is labeled cusp-complete
    (the profile then must decay fast enough for finite area).
    end_labels tags the lower and upper end, in that order.  The profile f
    is read through warp.derivatives; the surface adds no evaluator of its
    own.
    """

    warp: object
    t_min: float
    t_max: float
    period: float
    end_labels: tuple = (END_BOUNDARY, END_BOUNDARY)

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise GeometryError("need t_min < t_max")
        # the mode lattice steps by 2 pi/P, which a tiny P overflows
        if not (self.period > 0
                and math.isfinite(2.0 * math.pi / self.period)):
            raise GeometryError(f"need circle period P > 0 with a finite "
                                f"lattice step 2 pi/P, got {self.period}")
        if len(self.end_labels) != 2:
            raise GeometryError(f"'end_labels' must name the lower and upper "
                                f"end, got {list(self.end_labels)!r}")
        for lab in self.end_labels:
            if lab not in (END_BOUNDARY, END_CUSP):
                raise GeometryError(f"unknown end label {lab!r}")
        if math.isinf(self.t_min) and self.end_labels[0] != END_CUSP:
            raise GeometryError("infinite lower end must be cusp-complete")
        if math.isinf(self.t_max) and self.end_labels[1] != END_CUSP:
            raise GeometryError("infinite upper end must be cusp-complete")

    @property
    def complete_ends(self) -> tuple:
        """Whether the lower and upper end are complete: labeled
        cusp-complete, the one label end_kind reads as 'cusp'.  Only such
        an end can carry essential spectrum (Persson, 1960)."""
        return tuple(label == END_CUSP for label in self.end_labels)

    @functools.cached_property
    def mirrored(self) -> bool:
        """mirror_symmetric(self), decided once for the surface: its fields
        are frozen, and the answer lives as long as it does."""
        return mirror_symmetric(self)

    def to_json(self):
        return {
            "schema_version": 1,
            "warp": self.warp.to_json(),
            "t_min": self.t_min,
            "t_max": self.t_max,
            "period": self.period,
            "end_labels": list(self.end_labels),
        }


def warp_positive(surface: WarpedSurface) -> bool:
    """Whether the warp is positive on the open interval (t_min, t_max),
    from its exact minimum there.  A constant or cusp warp always is (its
    c > 0); a cosine where the interval lies in one lobe
    [2 pi k - pi/2, 2 pi k + pi/2]; a tabulated warp where its spline is
    positive at its minimum candidates inside the interval, and not
    negative at the two ends, where a singular end may sit."""
    lo, hi = surface.t_min, surface.t_max
    warp = surface.warp
    if isinstance(warp, CosineWarp):
        centre = 2.0 * math.pi * round((lo + hi) / (4.0 * math.pi))
        return centre - math.pi / 2.0 <= lo and hi <= centre + math.pi / 2.0
    if isinstance(warp, TabulatedWarp):
        (inside,) = warp.derivatives(warp.minimum_candidates(lo, hi), (0,))
        (ends,) = warp.derivatives([lo, hi], (0,))
        return bool(np.all(inside > 0) and np.all(ends >= 0))
    return True


def surface_from_json(doc: dict) -> WarpedSurface:
    """The surface of a document; GeometryError where its values do not
    describe one: a warp that is not positive on the open interval
    (warp_positive), or an area that does not come out positive."""
    if doc.get("schema_version") != 1:
        raise GeometryError(
            f"unsupported surface schema_version {doc.get('schema_version')!r}"
        )
    surface = WarpedSurface(
        warp=warp_from_json(doc["warp"]),
        t_min=_finite(doc, "t_min"),
        t_max=_finite(doc, "t_max"),
        period=_finite(doc, "period"),
        end_labels=tuple(doc["end_labels"]),
    )
    if not warp_positive(surface):
        raise GeometryError(f"the {surface.warp.variant} warp is not "
                            f"positive on ({surface.t_min}, {surface.t_max})")
    area(surface)
    return surface


def mirror_symmetric(surface: WarpedSurface) -> bool:
    """Whether the interval is finite and the warp even about its middle
    m = (t_min + t_max) / 2, so that R: t -> t_min + t_max - t maps the
    surface onto itself.

    f even makes f' odd: f(R t) = f(t) and f'(R t) = -f'(t).  With
    (R u)(t) = u(R t), the Dirac factor A_mu = d/dt + f'/(2f) + mu/f gives

        (A_(-mu) R u)(t) = -u'(R t) + (f'(t)/(2f(t)) - mu/f(t)) u(R t)
                         = -(u' + f'/(2f) u + mu/f u)(R t)
                         = -(R A_mu u)(t) ,

    so A_(-mu) R = -R A_mu, and the half-spinor block A_mu* A_mu is the
    R-mirror of A_(-mu)* A_(-mu), with the same spectrum.  A constant warp
    is always even, a cosine warp when t_min == -t_max, and a tabulated
    warp when its knots mirror exactly about m and its samples read the
    same backwards; an exponential cusp never is.
    """
    lo, hi = surface.t_min, surface.t_max
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return False
    warp = surface.warp
    if isinstance(warp, ConstantWarp):
        return True
    if isinstance(warp, CosineWarp):
        return lo == -hi
    if isinstance(warp, TabulatedWarp):
        m = (lo + hi) / 2.0
        return bool(np.array_equal(warp.ts - m, -(warp.ts[::-1] - m))
                    and np.array_equal(warp.fs, warp.fs[::-1]))
    return False


def _warp_scale(surface: WarpedSurface) -> float:
    a = surface.t_min if math.isfinite(surface.t_min) else 0.0
    b = surface.t_max if math.isfinite(surface.t_max) else a + 1.0
    probe = np.linspace(a + 1e-9 * (b - a), b - 1e-9 * (b - a), 33)
    return float(np.max(surface.warp.derivatives(probe, (0,))[0]))


def end_kind(surface: WarpedSurface, side: str) -> str:
    """Classify one end: 'cusp', 'singular' (f -> 0) or 'regular'.

    Singular ends are rotation axes (sphere poles, cone tips); the circle
    degenerates and the truncated problem needs the singular-end treatment
    in the operators module.  Regular ends are honest boundary circles.
    """
    if surface.complete_ends[0 if side == "lower" else 1]:
        return "cusp"
    t_end = surface.t_min if side == "lower" else surface.t_max
    span = min(surface.t_max - surface.t_min, 1.0)
    probe = t_end + 1e-12 * span if side == "lower" else t_end - 1e-12 * span
    f_end = surface.warp.derivatives(probe, (0,))[0]
    return "singular" if f_end <= _SINGULAR_REL * _warp_scale(surface) else "regular"


def edge_slope(surface: WarpedSurface, side: str) -> float:
    """|f'| at a singular end; sets the local cone rate f ~ c1 * r."""
    t_end = surface.t_min if side == "lower" else surface.t_max
    c1 = abs(float(surface.warp.derivatives(t_end, (1,))[0]))
    if not (math.isfinite(c1) and c1 > 0):
        raise GeometryError(f"degenerate edge slope at {side} end")
    return c1


def gauss_curvature(surface: WarpedSurface, t):
    """K(t) = -f''(t)/f(t); t must lie strictly inside the interval."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= surface.t_min) or np.any(arr >= surface.t_max):
        raise DomainError(
            f"t outside ({surface.t_min}, {surface.t_max})"
        )
    f, f2 = surface.warp.derivatives(arr, (0, 2))
    out = -f2 / f
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def area(surface: WarpedSurface) -> float:
    """P * integral of f over the interval, in closed form for each warp.

    math.inf where the integral diverges: an infinite interval with any warp
    but an exponential cusp decaying toward it.  A result that is NaN or not
    positive raises GeometryError.
    """
    lo, hi = surface.t_min, surface.t_max
    # c*exp(-t) has finite mass only toward +infinity
    if math.isinf(lo) or (math.isinf(hi)
                          and not isinstance(surface.warp, ExpCuspWarp)):
        return math.inf
    result = surface.period * surface.warp.integral(lo, hi)
    if not result > 0:
        raise GeometryError(f"area came out {result}")
    return result


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature lower bounds from samples on a grid.

    kappa_spinor is the infimum of scal/4 (the spinor curvature term),
    kappa_oneform the infimum of K (the Ricci bound on a surface).  The
    infima include refined samples near the interval ends so boundary
    behavior on incomplete surfaces is not missed.
    """

    kappa_spinor: float
    kappa_oneform: float
    tail_kappa: tuple  # per-end infimum of scal/4 over the outer windows


def curvature_profile(surface: WarpedSurface, grid) -> CurvatureProfile:
    """Sample K and scal on the grid and extract curvature lower bounds.

    grid is any object with a `nodes` array lying inside the open interval
    (the operators.Grid type qualifies).
    """
    nodes = np.asarray(grid.nodes, dtype=float)
    if np.any(nodes <= surface.t_min) or np.any(nodes >= surface.t_max):
        raise DomainError("grid nodes outside the open interval")
    K = gauss_curvature(surface, nodes)

    # refine the infimum near both ends of the sampled span: monotone tails
    # toward an end can dip below every interior node value
    t0, t1 = nodes[0], nodes[-1]
    h = (t1 - t0) / max(len(nodes) - 1, 1)
    extras = []
    for anchor, direction in ((t0, -1.0), (t1, +1.0)):
        for frac in (0.875, 0.5, 0.125):
            probe = anchor + direction * frac * h
            if surface.t_min < probe < surface.t_max:
                extras.append(probe)
    K_all = np.concatenate([K, gauss_curvature(surface, np.asarray(extras))]) \
        if extras else K

    # outermost 10% windows at each end drive the liminf-at-infinity
    # stand-in, the infimum of scal/4 = K/2 there
    w = max(2, len(nodes) // 10)
    return CurvatureProfile(
        kappa_spinor=float(np.min(K_all) / 2.0),  # inf scal/4 = inf K/2
        kappa_oneform=float(np.min(K_all)),
        tail_kappa=(float(np.min(K[:w]) / 2.0), float(np.min(K[-w:]) / 2.0)),
    )

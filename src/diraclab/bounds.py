"""Bound formulas, hypothesis checklists, verdicts, and reports.

Two closed-form lower bounds are evaluated against computed tones:

  * curvature bound   n*kappa/(n-1)   for D^2 when the curvature term is
    bounded below by kappa > 0 (and, through the function Laplacian, the
    classical first-eigenvalue bound with the Ricci constant);
  * area bound        4*pi/area(M)    for D^2 on finite-area genus-zero
    surfaces whose spin structure is bounding at infinity.

A verdict records the bound value, the hypothesis checklist, the computed
statistic with its error bar, and one of: holds, violated-as-predicted,
inapplicable, or violated-unexpected.  The last one should never appear
for a built-in scenario; it flags a numerical failure.  The
violated-as-predicted verdict is only emitted when a hypothesis actually
fails and the scenario is a tracked counterexample family (non-bounding
spin structures for the area bound, the covering surfaces for the
first-eigenvalue bound).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .eigensolve import ToneResult, truncation_probe
from .errors import AssemblyError, InfiniteAreaError, SchemaError
from .operators import (
    KIND_DIRAC,
    Section,
    _check_positive,
    bochner_gradient_energy,
    dirac_energy,
    product_rule_defect,
)
from .spin import SpinStructure, mode_in_structure

REPORT_SCHEMA_VERSION = 2

HOLDS = "holds"
VIOLATED_PREDICTED = "violated-as-predicted"
INAPPLICABLE = "inapplicable"
VIOLATED_UNEXPECTED = "violated-unexpected"

SOURCE_TONE = "extrapolated-tone"
SOURCE_UPPER = "rayleigh-upper-bound"

MARGIN_BAR_FACTOR = 3.0
MARGIN_ABS_FLOOR = 1e-9

DIM = 2  # the dimension n of every surface checked here
# equality-case diagnostics apply when alpha^2 is this close to the bound
EQUALITY_REL_TOL = 0.05
# the essential probe counts below this fraction of the floor, on windows
# that are these fractions of the solve window
ESSENTIAL_PROBE_MARGIN = 0.95
ESSENTIAL_WINDOW_FRACTIONS = (0.8, 0.9, 1.0)


def friedrich_bound(n: int, kappa: float) -> float:
    """n*kappa/(n-1); applicable as a lower bound only for kappa > 0."""
    if n < 2:
        raise AssemblyError(f"dimension must be >= 2, got {n}")
    return n * kappa / (n - 1)


def _curvature_floor(kappa: float) -> float:
    """The bound value DIM*kappa/(DIM-1) for kappa > 0, else 0 (degenerate)."""
    return friedrich_bound(DIM, kappa) if kappa > 0 else 0.0


def json_num(x):
    """x as a JSON number: a float, or None (null) when it is not finite."""
    return float(x) if math.isfinite(x) else None


def area_bound(surface_area: float) -> float:
    """4*pi/area; returns 0 (degenerate) for infinite area."""
    if math.isinf(surface_area):
        return 0.0
    if not surface_area > 0:
        raise AssemblyError(f"area must be positive, got {surface_area}")
    return 4.0 * math.pi / surface_area


@dataclass
class BoundVerdict:
    bound: str
    value: float
    hypotheses: list  # [(name, passed)]
    lambda_star: float
    error_bar: float
    margin: float
    verdict: str
    statistic_source: str = SOURCE_TONE
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "bound": self.bound,
            "value": json_num(self.value),
            "hypotheses": [{"name": n, "passed": bool(p)}
                           for n, p in self.hypotheses],
            "lambda_star": json_num(self.lambda_star),
            "error_bar": json_num(self.error_bar),
            "margin": json_num(self.margin),
            "verdict": self.verdict,
            "statistic_source": self.statistic_source,
            "notes": list(self.notes),
        }


def _decide(value, hyp_ok, margin, tol, predicted, source, notes):
    if value <= 0.0:
        notes.append("bound value is degenerate; nothing to test")
        return INAPPLICABLE
    if margin >= -tol:
        if source == SOURCE_UPPER:
            notes.append("statistic is an upper bound: consistency check "
                         "only, not a certificate")
        if not hyp_ok:
            notes.append("holds numerically although a hypothesis fails")
        return HOLDS
    if hyp_ok:
        notes.append("violation beyond tolerance with all hypotheses met")
        return VIOLATED_UNEXPECTED
    if predicted:
        return VIOLATED_PREDICTED
    notes.append("violated outside the theorem's scope; not a tracked case")
    return INAPPLICABLE


def _verdict(bound, value, hyps, statistic, error_bar, predicted,
             source) -> BoundVerdict:
    """Margin of a statistic over a bound value, decided within
    MARGIN_BAR_FACTOR error bars plus MARGIN_ABS_FLOOR."""
    notes = []
    margin = statistic - value
    verdict = _decide(value, all(p for _, p in hyps), margin,
                      MARGIN_BAR_FACTOR * error_bar + MARGIN_ABS_FLOOR,
                      predicted, source, notes)
    return BoundVerdict(bound=bound, value=value, hypotheses=hyps,
                        lambda_star=statistic, error_bar=error_bar,
                        margin=margin, verdict=verdict,
                        statistic_source=source, notes=notes)


def friedrich_check(surface, profile, tone: ToneResult) -> BoundVerdict:
    """Compare the D^2 tone against n*kappa/(n-1)."""
    kappa = profile.kappa_spinor
    value = _curvature_floor(kappa)
    hyps = [("curvature term bounded below by a positive constant",
             kappa > 0)]
    return _verdict("friedrich", value, hyps, tone.lambda_star,
                    tone.error_bar, False, SOURCE_TONE)


def area_bound_check(surface, spin, statistic: float, error_bar: float,
                     statistic_source: str = SOURCE_TONE) -> BoundVerdict:
    """Compare a D^2 statistic against 4*pi/area.

    statistic may be the extrapolated tone or a certified Rayleigh upper
    bound; only the latter can exhibit a violation on surfaces whose tone
    is not desk-computable.
    """
    try:
        value = area_bound(geometry.area(surface))
    except InfiniteAreaError:
        value = 0.0
    bounding = spin is SpinStructure.BOUNDING
    hyps = [
        ("genus zero (surface of revolution over an interval)", True),
        ("finite area", value > 0),
        ("spin structure bounding at infinity", bounding),
    ]
    # dropping the spin hypothesis is the tracked case
    return _verdict("area", value, hyps, statistic, error_bar,
                    not bounding, statistic_source)


def lichnerowicz_check(surface, profile, statistic: float, error_bar: float,
                       complete: bool = False, predicted: bool = False,
                       statistic_source: str = SOURCE_TONE) -> BoundVerdict:
    """First nonzero Laplace eigenvalue against n*kappa_ric/(n-1).

    The Ricci constant on a surface is the Gauss curvature infimum.  The
    statistic is either a computed first nonzero eigenvalue or the Rayleigh
    quotient of a mean-zero test function, which upper-bounds it.
    """
    kappa = profile.kappa_oneform
    value = _curvature_floor(kappa)
    hyps = [
        ("Ricci curvature bounded below by a positive constant", kappa > 0),
        ("complete (hence compact) surface", complete),
    ]
    # a mean-zero Rayleigh quotient IS a certificate against a lower bound
    # for the first nonzero eigenvalue, so the upper-bound source may both
    # certify violations and (when above the bound) leave it open
    return _verdict("lichnerowicz", value, hyps, statistic, error_bar,
                    predicted, statistic_source)


@dataclass
class KillingDiagnostics:
    """Computable consequences of the first-order equality case.

    When the tone attains the curvature bound the minimizing section obeys
    an overdetermined first-order equation; two scalar consequences are
    testable without a spin connection: the pointwise norm is constant, and
    the connection energy is exactly 1/n of the operator energy.
    """

    applicable: bool
    norm_variation: float = math.nan
    bochner_ratio_deviation: float = math.nan
    alpha: float = math.nan
    note: str = ""

    def to_json(self):
        return {
            "applicable": self.applicable,
            "norm_variation": json_num(self.norm_variation),
            "bochner_ratio_deviation": json_num(self.bochner_ratio_deviation),
            "alpha": json_num(self.alpha),
            "note": self.note,
        }


def killing_equality_check(surface, op, profile, phi: Section,
                           alpha: float) -> KillingDiagnostics:
    """Norm-constancy and energy-ratio diagnostics for an equality case;
    op is the Dirac square phi was solved on, and profile the surface's
    curvature profile on phi's grid."""
    if phi.kind != KIND_DIRAC:
        raise AssemblyError("killing check needs a spinor section")
    if op.kind != KIND_DIRAC or op.nu != phi.nu or op.grid != phi.grid:
        raise AssemblyError("killing check needs the operator phi solves")
    bound = _curvature_floor(profile.kappa_spinor)
    if bound <= 0 or abs(alpha * alpha - bound) > EQUALITY_REL_TOL * bound:
        return KillingDiagnostics(
            applicable=False, alpha=alpha,
            note="tone does not attain the curvature bound; equality-case "
                 "diagnostics are not applicable")
    comps = phi.components()
    norms = [float(np.sum(b.mass.weights * np.abs(c) ** 2))
             for b, c in zip(op.blocks, comps)]
    total = sum(norms)
    if total <= 0:
        raise AssemblyError("zero section")
    # pointwise |phi|^2 on element midpoints; a one-sided (single-block)
    # eigenvector gets its partner component from the first-order factor
    mids_avg = [0.5 * (c[1:] + c[:-1]) for c in comps]
    populated = [i for i, nrm in enumerate(norms) if nrm > 1e-12 * total]
    if len(populated) == 1:
        c = populated[0]
        au = op.blocks[c].factor(comps[c])[1:-1]
        dens = np.abs(mids_avg[c]) ** 2 + np.abs(au / alpha) ** 2
    else:
        dens = sum(np.abs(v) ** 2 for v in mids_avg)
    mean = float(np.mean(dens))
    variation = float((np.max(dens) - np.min(dens)) / mean)
    energy = dirac_energy(op, phi)
    ratio_dev = abs(bochner_gradient_energy(surface, op, phi) / energy
                    - 1.0 / DIM)
    return KillingDiagnostics(applicable=True, norm_variation=variation,
                              bochner_ratio_deviation=float(ratio_dev),
                              alpha=alpha)


@dataclass
class CutoffReport:
    """Cutoff-stability data along a sequence of radii."""

    rhos: list
    defects: list  # ||D(f_rho phi) - D phi||
    rhs_bounds: list  # ||phi||/rho + ||(f_rho - 1) D phi|| + product defect
    max_slopes: list
    inequality_ok: bool
    slopes_ok: bool
    monotone: bool


def _cutoff_profile(grid, rho: float, center: float) -> np.ndarray:
    t = grid.nodes
    raw = np.clip(2.0 - np.abs(t - center) / rho, 0.0, 1.0)
    # two smoothing passes; averaging slopes cannot raise their maximum
    out = raw
    for _ in range(2):
        padded = np.concatenate([[out[0]], out, [out[-1]]])
        out = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
    return out


def cutoff_stability_check(surface, spin, phi: Section, rhos,
                           center: float | None = None) -> CutoffReport:
    """Build cutoffs f_rho and audit the first-order truncation estimate.

    f_rho is 1 on the ball of radius rho about the center, ramps linearly
    (slope 1/rho) to 0 at radius 2 rho, and is smoothed; the audit checks
    max |grad f_rho| <= 1/rho and

        ||D(f_rho phi) - D phi||
            <= ||phi||/rho + ||(f_rho - 1) D phi|| + product-rule defect,

    and that the left side decreases along an increasing rho sequence.
    """
    if phi.kind != KIND_DIRAC:
        raise AssemblyError("cutoff check needs a spinor section")
    if not mode_in_structure(phi.nu, spin, surface.period):
        raise AssemblyError(f"mode {phi.nu} is off the {spin} lattice")
    grid = phi.grid
    if center is None:
        center = 0.5 * (grid.a + grid.b)
    radius = 0.5 * (grid.b - grid.a)
    rhos = [float(r) for r in rhos]
    if any(r <= 0 or r > radius * (1 + 1e-12) for r in rhos):
        raise AssemblyError(f"rho values must lie in (0, {radius}]")
    f = np.asarray(surface.f(grid.nodes), dtype=float)
    _check_positive(f, "grid nodes")
    half_log = np.asarray(surface.fprime(grid.nodes), dtype=float) / (2.0 * f)
    coefs = [half_log + mu / f for mu in (-float(phi.nu), float(phi.nu))]
    w = surface.period * f * grid.h

    def d_apply(values):
        # first-order node factor (A_mu u)_i = (u_{i+1} - u_i)/h + a_mu u_i,
        # a_mu = f'/(2f) + mu/f, with a ghost zero past the upper end
        return [np.diff(u, append=0.0) / grid.h + a * u
                for a, u in zip(coefs, values)]

    def l2(vectors):
        return math.sqrt(sum(float(np.sum(w * np.abs(v) ** 2))
                             for v in vectors))

    comps = phi.components()
    phi_norm = l2(comps)
    d_phi = d_apply(comps)
    defects, rhs_bounds, slopes = [], [], []
    for rho in rhos:
        f_rho = _cutoff_profile(grid, rho, center)
        lhs_vecs = [a - b for a, b in
                    zip(d_apply([f_rho * c for c in comps]), d_phi)]
        lhs = l2(lhs_vecs)
        prod_defect = product_rule_defect(f_rho, comps, w, grid.h)
        tail = l2([(f_rho - 1.0) * v for v in d_phi])
        rhs = phi_norm / rho + tail + prod_defect + 1e-10
        slope = float(np.max(np.abs(np.diff(f_rho))) / grid.h)
        defects.append(lhs)
        rhs_bounds.append(rhs)
        slopes.append(slope)
    order = np.argsort(rhos)
    mono = all(defects[order[i]] >= defects[order[i + 1]] - 1e-12
               for i in range(len(rhos) - 1))
    return CutoffReport(
        rhos=rhos, defects=defects, rhs_bounds=rhs_bounds, max_slopes=slopes,
        inequality_ok=all(l <= r for l, r in zip(defects, rhs_bounds)),
        slopes_ok=all(s <= 1.0 / r + 1e-12 for s, r in zip(slopes, rhos)),
        monotone=bool(mono))


def essential_bound_check(surface, spin, profile, grid) -> BoundVerdict:
    """Essential-spectrum floor n*kappa_inf/(n-1) via window stability.

    kappa_inf is the curvature-term infimum over the outermost windows of
    the ends.  With no complete end and positive kappa_inf the essential
    spectrum is empty and the verdict holds trivially.  Otherwise the
    check counts eigenvalues below a threshold just under the floor on
    growing windows: a stabilizing count means only discrete spectrum
    lives below the floor.  The windows are fractions of `grid`, the grid
    `profile` was sampled on.
    """
    kappa_inf = min(profile.tail_kappa)
    value = _curvature_floor(kappa_inf)
    probe_worthy = "cusp" in grid.side_kinds or profile.kappa_growing_ends
    hyps = [("curvature term bounded below at infinity by a positive "
             "constant", kappa_inf > 0)]
    if value <= 0 or not probe_worthy:
        verdict, note = (
            (INAPPLICABLE, "bound value is degenerate; nothing to test")
            if value <= 0 else
            (HOLDS, "no end can carry essential spectrum; holds trivially"))
        return BoundVerdict(bound="essential", value=value, hypotheses=hyps,
                            lambda_star=math.nan, error_bar=math.nan,
                            margin=math.nan, verdict=verdict, notes=[note])
    center = 0.5 * (grid.a + grid.b)
    span = grid.b - grid.a
    windows = [(center - 0.5 * f * span, center + 0.5 * f * span)
               for f in ESSENTIAL_WINDOW_FRACTIONS]
    threshold = ESSENTIAL_PROBE_MARGIN * value
    probe = truncation_probe(surface, KIND_DIRAC, spin, windows, threshold,
                             n_base=grid.n)
    notes = [f"counts below {threshold:.6g}: {probe.counts}"]
    verdict = HOLDS if probe.stable else VIOLATED_UNEXPECTED
    if not probe.stable:
        notes.append("window counts kept growing below the floor")
    return BoundVerdict(bound="essential", value=value, hypotheses=hyps,
                        lambda_star=threshold, error_bar=0.0,
                        margin=math.nan, verdict=verdict, notes=notes)


@dataclass
class SpectralReport:
    """Everything one scenario run produced, in serializable form."""

    scenario_id: str
    geometry_summary: dict
    verdicts: list
    diagnostics: dict
    checks: list  # expected-value comparisons: name, passed, detail
    provenance: dict

    @property
    def all_expected_match(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario_id,
            "geometry": self.geometry_summary,
            "verdicts": [v.to_json() for v in self.verdicts],
            "diagnostics": self.diagnostics,
            "checks": self.checks,
            "provenance": self.provenance,
            "all_expected_match": self.all_expected_match,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


CSV_COLUMNS = ["scenario", "bound", "value", "lambda_star", "error_bar",
               "margin", "verdict", "statistic_source"]


def report_rows(doc: dict) -> list:
    """Flatten a report JSON dict into CSV rows (one per verdict)."""
    return [{"scenario": doc["scenario"],
             **{col: v[col] for col in CSV_COLUMNS[1:]}}
            for v in doc.get("verdicts", [])]


def reports_to_csv(docs: list) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for doc in docs:
        for row in report_rows(doc):
            writer.writerow(row)
    return out.getvalue()


def load_report(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(
            f"report must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise SchemaError(
            f"report schema_version {doc.get('schema_version')!r} is not "
            f"{REPORT_SCHEMA_VERSION}")
    return doc

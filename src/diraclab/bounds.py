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
fails and the caller marks the case `predicted`, a tracked counterexample
family (non-bounding spin structures for the area bound, the covering
surfaces for the first-eigenvalue bound).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, is_dataclass

import numpy as np

from .eigensolve import truncation_probe
from .errors import AssemblyError, SchemaError
from .operators import (
    KIND_DIRAC,
    KIND_LAPLACIAN,
    Section,
    bochner_gradient_energy,
    check_pairing,
    product_rule_defect,
    section_energy,
)
from .spin import SpinStructure

REPORT_SCHEMA_VERSION = 2

HOLDS = "holds"
VIOLATED_PREDICTED = "violated-as-predicted"
INAPPLICABLE = "inapplicable"
VIOLATED_UNEXPECTED = "violated-unexpected"

SOURCE_TONE = "extrapolated-tone"
SOURCE_UPPER = "rayleigh-upper-bound"
SOURCE_PROBE = "probe-threshold"  # an essential verdict that probes
SOURCE_NONE = "none"  # an essential verdict without a statistic (NaN)

MARGIN_BAR_FACTOR = 3.0
MARGIN_ABS_FLOOR = 1e-9

DIM = 2  # the dimension n of every surface checked here
# equality-case diagnostics apply when alpha^2 is this close to the bound
EQUALITY_REL_TOL = 0.05
# the essential probe counts below this fraction of the floor, on windows
# that are these fractions of the solve window
ESSENTIAL_PROBE_MARGIN = 0.95
ESSENTIAL_WINDOW_FRACTIONS = (0.8, 0.9, 1.0)

# bound name -> the operator whose spectrum it bounds
BOUND_OPERATORS = {"friedrich": KIND_DIRAC, "area": KIND_DIRAC,
                   "essential": KIND_DIRAC, "lichnerowicz": KIND_LAPLACIAN}


def friedrich_bound(n: int, kappa: float) -> float:
    """n*kappa/(n-1); applicable as a lower bound only for kappa > 0."""
    if n < 2:
        raise AssemblyError(f"dimension must be >= 2, got {n}")
    return n * kappa / (n - 1)


def _curvature_floor(kappa: float) -> float:
    """The bound value DIM*kappa/(DIM-1) for kappa > 0, else 0 (degenerate)."""
    return friedrich_bound(DIM, kappa) if kappa > 0 else 0.0


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
    hypotheses: list  # [{"name", "passed"}]
    lambda_star: float
    error_bar: float
    margin: float
    verdict: str
    statistic_source: str
    notes: list = field(default_factory=list)


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
    verdict = _decide(value, all(h["passed"] for h in hyps), margin,
                      MARGIN_BAR_FACTOR * error_bar + MARGIN_ABS_FLOOR,
                      predicted, source, notes)
    return BoundVerdict(bound=bound, value=value, hypotheses=hyps,
                        lambda_star=statistic, error_bar=error_bar,
                        margin=margin, verdict=verdict,
                        statistic_source=source, notes=notes)


def friedrich_check(profile, statistic: float, error_bar: float,
                    statistic_source: str, predicted: bool) -> BoundVerdict:
    """Compare a D^2 statistic against n*kappa/(n-1)."""
    kappa = profile.kappa_spinor
    value = _curvature_floor(kappa)
    hyps = [{"name": "curvature term bounded below by a positive constant",
             "passed": kappa > 0}]
    return _verdict("friedrich", value, hyps, statistic, error_bar,
                    predicted, statistic_source)


def area_bound_check(spin, surface_area: float, statistic: float,
                     error_bar: float, statistic_source: str,
                     predicted: bool) -> BoundVerdict:
    """Compare a D^2 statistic against 4*pi/area; surface_area is math.inf
    where the area diverges.

    statistic may be the extrapolated tone or a certified Rayleigh upper
    bound; only the latter can exhibit a violation on surfaces whose tone
    is not desk-computable.
    """
    value = area_bound(surface_area)
    hyps = [
        {"name": "genus zero (surface of revolution over an interval)",
         "passed": True},
        {"name": "finite area", "passed": value > 0},
        {"name": "spin structure bounding at infinity",
         "passed": spin is SpinStructure.BOUNDING},
    ]
    return _verdict("area", value, hyps, statistic, error_bar, predicted,
                    statistic_source)


def lichnerowicz_check(profile, complete: bool, statistic: float,
                       error_bar: float, statistic_source: str,
                       predicted: bool) -> BoundVerdict:
    """First nonzero Laplace eigenvalue against n*kappa_ric/(n-1).

    The Ricci constant on a surface is the Gauss curvature infimum.  The
    statistic is either a computed first nonzero eigenvalue or the Rayleigh
    quotient of a mean-zero test function, which upper-bounds it.
    """
    kappa = profile.kappa_oneform
    value = _curvature_floor(kappa)
    hyps = [
        {"name": "Ricci curvature bounded below by a positive constant",
         "passed": kappa > 0},
        {"name": "complete (hence compact) surface", "passed": complete},
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


def killing_equality_check(surface, op, profile, phi: Section,
                           alpha: float) -> KillingDiagnostics:
    """Norm-constancy and energy-ratio diagnostics for an equality case;
    op is the Dirac square phi was solved on, and profile the surface's
    curvature profile on phi's grid."""
    check_pairing(op, phi, KIND_DIRAC)
    bound = _curvature_floor(profile.kappa_spinor)
    if bound <= 0 or abs(alpha * alpha - bound) > EQUALITY_REL_TOL * bound:
        return KillingDiagnostics(
            applicable=False, alpha=alpha,
            note="tone does not attain the curvature bound; equality-case "
                 "diagnostics are not applicable")
    comps = phi.components()
    norms = [b.mass_form(c) for b, c in zip(op.blocks, comps)]
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
    ratio_dev = abs(bochner_gradient_energy(surface, op, phi)
                    / section_energy(op, phi) - 1.0 / DIM)
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


def _cutoff_profile(grid, rho: float) -> np.ndarray:
    t = grid.nodes
    center = 0.5 * (grid.a + grid.b)
    raw = np.clip(2.0 - np.abs(t - center) / rho, 0.0, 1.0)
    # two smoothing passes; averaging slopes cannot raise their maximum
    out = raw
    for _ in range(2):
        padded = np.concatenate([[out[0]], out, [out[-1]]])
        out = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
    return out


def cutoff_stability_check(op, phi: Section, rhos) -> CutoffReport:
    """Build cutoffs f_rho and audit the first-order truncation estimate.

    f_rho is 1 on the ball of radius rho about the middle of phi's grid
    window, ramps linearly (slope 1/rho) to 0 at radius 2 rho, and is
    smoothed; the audit checks max |grad f_rho| <= 1/rho and

        ||D(f_rho phi) - D phi||
            <= ||phi||/rho + ||(f_rho - 1) D phi|| + product-rule defect,

    and that the left side decreases along an increasing rho sequence.
    D is Block.factor of op, phi's Dirac square; the norms sum over its
    n + 1 elements with each block's w_e, ||phi|| over phi's element means.
    """
    check_pairing(op, phi, KIND_DIRAC)
    grid, blocks = phi.grid, op.blocks
    radius = 0.5 * (grid.b - grid.a)
    rhos = [float(r) for r in rhos]
    if any(r <= 0 or r > radius * (1 + 1e-12) for r in rhos):
        raise AssemblyError(f"rho values must lie in (0, {radius}]")

    def l2(vectors):
        return math.sqrt(sum(float(np.sum(b.w_e * np.abs(v) ** 2))
                             for b, v in zip(blocks, vectors)))

    def means(x, ends):
        x = np.pad(x, 1, mode=ends)
        return 0.5 * (x[:-1] + x[1:])

    comps = phi.components()
    phi_norm = l2([means(c, "constant") for c in comps])
    d_phi = [b.factor(c) for b, c in zip(blocks, comps)]
    defects, rhs_bounds, slopes = [], [], []
    for rho in rhos:
        f_rho = _cutoff_profile(grid, rho)
        lhs = l2([b.factor(f_rho * c) - d
                  for b, c, d in zip(blocks, comps, d_phi)])
        prod_defect = product_rule_defect(blocks, f_rho, comps)
        tail = l2([(means(f_rho, "edge") - 1.0) * d for d in d_phi])
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


def essential_bound_check(surface, spin, profile, grid,
                          read=None) -> BoundVerdict:
    """Essential-spectrum floor n*kappa_inf/(n-1) via window stability.

    kappa_inf is the curvature-term infimum over the outermost windows of
    the ends.  Only a complete end (WarpedSurface.complete_ends) can carry
    essential spectrum, so with none and positive kappa_inf the verdict
    holds trivially.  Otherwise the check counts eigenvalues below a
    threshold just under the floor on growing windows: a stabilizing count
    means only discrete spectrum lives below the floor.  The windows are
    fractions of `grid`, the grid `profile` was sampled on.  The probe
    result goes into the list `read`, when given, for its flags.
    """
    kappa_inf = min(profile.tail_kappa)
    value = _curvature_floor(kappa_inf)
    hyps = [{"name": "curvature term bounded below at infinity by a "
                     "positive constant", "passed": kappa_inf > 0}]
    if value <= 0 or not any(surface.complete_ends):
        verdict, note = (
            (INAPPLICABLE, "bound value is degenerate; nothing to test")
            if value <= 0 else
            (HOLDS, "no end can carry essential spectrum; holds trivially"))
        return BoundVerdict(bound="essential", value=value, hypotheses=hyps,
                            lambda_star=math.nan, error_bar=math.nan,
                            margin=math.nan, verdict=verdict,
                            statistic_source=SOURCE_NONE, notes=[note])
    # centred windows whose widest one is the grid's own (a, b), so none
    # crosses the surface's ends by a rounding
    insets = [0.5 * (1.0 - f) * (grid.b - grid.a)
              for f in ESSENTIAL_WINDOW_FRACTIONS]
    windows = [(grid.a + d, grid.b - d) for d in insets]
    threshold = ESSENTIAL_PROBE_MARGIN * value
    probe = truncation_probe(surface, BOUND_OPERATORS["essential"], spin,
                             windows, threshold)
    if read is not None:
        read.append(probe)
    notes = [f"counts below {threshold:.6g}: {probe.counts}"]
    verdict = HOLDS if probe.stable else VIOLATED_UNEXPECTED
    if not probe.stable:
        notes.append("window counts kept growing below the floor")
    return BoundVerdict(bound="essential", value=value, hypotheses=hyps,
                        lambda_star=threshold, error_bar=0.0,
                        margin=math.nan, verdict=verdict,
                        statistic_source=SOURCE_PROBE, notes=notes)


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

    def _fields(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario_id,
            "geometry": self.geometry_summary,
            "verdicts": self.verdicts,
            "diagnostics": self.diagnostics,
            "checks": self.checks,
            "provenance": self.provenance,
            "all_expected_match": self.all_expected_match,
        }

    def to_json(self) -> str:
        return dumps(self._fields())


def dumps(doc) -> str:
    """The one writer of the JSON documents diraclab emits: doc in JSON
    values, keys sorted, indented by two.  A number that is not finite is
    written as null, a numpy scalar as its Python number, a tuple as a list
    and a dataclass as the dict of its fields, at every depth; a float dict
    key that is not finite is an error, never a NaN or Infinity token.

    The text is exactly that of json.dumps(sort_keys=True, indent=2,
    allow_nan=False) + "\\n" over the converted copy of doc (the tests
    keep that conversion as the reference), written in one pass over doc:
    the standard library has no C encoder for an indented document, so it
    would walk the copy in Python generators once more.
    """
    out = []
    _write(doc, out.append, "\n")
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii
_float_text = float.__repr__
_int_text = int.__repr__


def _write(x, emit, newline: str) -> None:
    """emit the JSON text of x as dumps writes it, nested inside the indent
    that `newline` (a newline and its spaces) opens: the conversion's tests
    in its order, then the json module's on what it leaves."""
    cls = type(x)
    if cls is float:
        emit(_float_text(x) if math.isfinite(x) else "null")
    elif cls is str:
        emit(_escape(x))
    elif cls is dict or cls is list or cls is tuple:
        _write_container(x, emit, newline)
    elif cls is int:
        emit(_int_text(x))
    elif cls is bool or x is None:
        emit("true" if x is True else "false" if x is False else "null")
    elif isinstance(x, float):  # a numpy float64 among them
        emit(_float_text(x) if math.isfinite(x) else "null")
    elif isinstance(x, np.generic):
        _write(x.item(), emit, newline)
    elif isinstance(x, (dict, list, tuple)):
        _write_container(x, emit, newline)
    elif is_dataclass(x):
        _write(vars(x), emit, newline)
    elif isinstance(x, str):
        emit(_escape(x))
    elif isinstance(x, int):
        emit(_int_text(x))
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON "
                        f"serializable")


def _write_container(x, emit, newline: str) -> None:
    """A dict with its keys sorted, or a list or tuple, as _write."""
    inner = newline + "  "
    if isinstance(x, dict):
        if not x:
            emit("{}")
            return
        start = "{" + inner
        for key, value in sorted(x.items()):
            emit(start + (_escape(key) if type(key) is str
                          else _key_text(key)) + ": ")
            _write(value, emit, inner)
            start = "," + inner
        emit(newline + "}")
        return
    if not x:
        emit("[]")
        return
    start = "[" + inner
    for value in x:
        emit(start)
        _write(value, emit, inner)
        start = "," + inner
    emit(newline + "]")


def _key_text(key) -> str:
    """A dict key as the json module writes it; dumps converts no key, so a
    float key that is not finite is a ValueError."""
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, float):
        if not math.isfinite(key):
            raise ValueError(f"Out of range float values are not JSON "
                             f"compliant: {key!r}")
        return _escape(_float_text(key))
    if key is True or key is False or key is None:
        return '"true"' if key is True else '"false"' if key is False \
            else '"null"'
    if isinstance(key, int):
        return _escape(_int_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{type(key).__name__}")


CSV_COLUMNS = ["scenario", "bound", "value", "lambda_star", "error_bar",
               "margin", "verdict", "statistic_source"]

# The keys a merged report's csv and pretty formats read; verdicts need
# CSV_COLUMNS[1:].
REPORT_KEYS = ["scenario", "geometry", "verdicts", "checks",
               "all_expected_match"]
GEOMETRY_KEYS = ["area", "kappa_spinor", "spin"]
CHECK_KEYS = ["name", "passed"]


def report_rows(doc: dict) -> list:
    """Flatten a report JSON dict into CSV rows (one per verdict)."""
    return [{"scenario": doc["scenario"],
             **{col: v[col] for col in CSV_COLUMNS[1:]}}
            for v in doc.get("verdicts", [])]


def csv_text(rows: list, columns: list) -> str:
    """The one CSV writer: a header of columns, then one line per row."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def reports_to_csv(docs: list) -> str:
    return csv_text([row for doc in docs for row in report_rows(doc)],
                    CSV_COLUMNS)


def _reject_constant(token: str):
    raise SchemaError(f"report holds the non-standard JSON constant "
                      f"{token!r}")


def load_report(text) -> dict:
    """The report in text (str, or bytes decoded as UTF-8), its keys
    checked; any malformed report is a SchemaError."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(
            f"report must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise SchemaError(
            f"report schema_version {doc.get('schema_version')!r} is not "
            f"{REPORT_SCHEMA_VERSION}")
    _require_keys(doc, REPORT_KEYS, "report")
    _require_keys(doc["geometry"], GEOMETRY_KEYS, "report geometry")
    for part, keys in (("verdicts", CSV_COLUMNS[1:]), ("checks", CHECK_KEYS)):
        if not isinstance(doc[part], list):
            raise SchemaError(f"report {part} must be a JSON list")
        for i, item in enumerate(doc[part]):
            _require_keys(item, keys, f"report {part}[{i}]")
    return doc


def _require_keys(part, keys, where: str):
    """SchemaError naming the first of `keys` that `part` lacks."""
    if not isinstance(part, dict):
        raise SchemaError(f"{where} must be a JSON object, got "
                          f"{type(part).__name__}")
    missing = [key for key in keys if key not in part]
    if missing:
        raise SchemaError(f"{where} has no key {missing[0]!r}")

"""Command-line front end: verify scenarios, sweep parameters, merge reports.

Exit codes: 0 all expected checks matched, 2 verdict/value mismatch,
1 internal error, 64 usage error (unknown scenario, bad flags, malformed
scenario document, unreadable input file, unwritable output path).
Identical configuration yields byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from collections import namedtuple

from . import __version__, bounds, geometry, operators, scenarios
from .eigensolve import (UNCERTIFIED, GridPolicy, check_probe_windows,
                         fundamental_tone, sample_ladder, truncation_probe)
from .errors import AssemblyError, CatalogError, DiraclabError, SchemaError
from .operators import (KIND_DIRAC, KIND_LAPLACIAN, assemble, mass_norm2,
                        rayleigh_quotient)
from .spin import SpinStructure

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64

# Row cap of a sweep; each row is a scenario run.
MAX_SWEEP_VALUES = 10_000
# Base grid size of a sweep's L and k rows when --grid-n is not given.
SWEEP_GRID_N = 256


def _read_input(path: str, what: str) -> bytes:
    """The bytes of an input file, which json.loads decodes as UTF-8."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise CatalogError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise CatalogError(
            f"cannot read {what} file {path}: {exc.strerror}") from exc


def _resolve_scenario(selector: str) -> scenarios.Scenario:
    if selector.endswith(".json"):
        data = _read_input(selector, "scenario")
        try:
            doc = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CatalogError(
                f"scenario file {selector} is not valid JSON: {exc}") from exc
        return scenarios.scenario_from_json(doc)
    return scenarios.find_scenario(selector)


class _ScenarioRun:
    """Lazy per-scenario computation cache, and the one source of the
    tones, quotients and area that every check, verdict and sweep row
    reads; the grid ladder is laid once and sampled once, on first use: the
    tones refine on it, and the section checks read its coarsest grid.
    Each tone it computes goes into diagnostics under its tone check's
    name; read lists the tones and probes read since an entry started
    (_evaluate).

    A section whose Rayleigh quotient an entry reads must have a mass norm
    on the coarsest grid, the norm the quotient divides by: one that comes
    out 0 (the section vanishes at every node, or its squares underflow) is
    a CatalogError, raised once the grids are laid and before any solve.
    """

    def __init__(self, scenario, policy: GridPolicy, tol_scale: float = 1.0):
        self.scenario = scenario
        self.policy = policy
        self.tol_scale = tol_scale
        self.grids = policy.grids(scenario.surface)
        self.grid = self.grids[0]
        self.profile = geometry.curvature_profile(scenario.surface, self.grid)
        self.diagnostics = {}
        self.verdicts = []
        self.read = []
        self._cache = {}
        for name in _rayleigh_sections(scenario):
            if not mass_norm2(self.section_operator(name),
                              self.section(name)) > 0:
                raise CatalogError(
                    f"scenario {scenario.id!r}: section {name!r} has mass "
                    f"norm 0 on the n = {self.grid.n} base grid, the norm "
                    f"its Rayleigh quotient divides by")

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def ladder(self) -> tuple:
        """The sampled ladder (levels, seed) of sample_ladder."""
        return self._memo("ladder", lambda: sample_ladder(
            self.scenario.surface, self.grids))

    def samples(self):
        """The Samples of the coarsest grid, from the sampled ladder."""
        return self.ladder()[0][0][1]

    def tone(self, kind: str):
        def compute():
            tone = fundamental_tone(self.scenario.surface, kind,
                                    self.scenario.spin, self.ladder())
            self.diagnostics[_TONE_CHECKS[kind]] = _tone_json(tone)
            return tone
        tone = self._memo(("tone", kind), compute)
        self.read.append(tone)
        return tone

    def section(self, name: str):
        """A named section sampled on the coarsest grid."""
        return self._memo(("section", name), lambda: (
            scenarios.eval_test_section(self.scenario, name, self.grid)))

    def section_operator(self, name: str):
        """The operator of a named section's own field kind and mode, on
        the coarsest grid."""
        def compute():
            sc, sec = self.scenario, self.section(name)
            return assemble(sc.surface, sec.kind, sc.spin, sec.nu, self.grid,
                            self.samples())
        return self._memo(("op", name), compute)

    def section_rayleigh(self, name: str) -> float:
        """Rayleigh quotient of a named section for its own field kind."""
        return self._memo(("rq", name), lambda: rayleigh_quotient(
            self.section_operator(name), self.section(name)))

    def area(self) -> float:
        """The surface's area, math.inf where it diverges."""
        return self._memo("area",
                          lambda: geometry.area(self.scenario.surface))


def _rayleigh_sections(scenario) -> list:
    """The sections whose Rayleigh quotient an expected entry reads: a
    section_rayleigh check's, and a bound's with "statistic": "section"."""
    return [exp["section"] for exp in scenario.expected
            if exp["check"] == "section_rayleigh"
            or exp["check"] == "bound_verdict"
            and exp.get("statistic") == "section"]


# operator kind -> the check, and diagnostics key, of its tone
_TONE_CHECKS = {KIND_LAPLACIAN: "laplace_tone", KIND_DIRAC: "dirac_tone"}


def _tone_json(tone) -> dict:
    return {
        "kind": tone.kind,
        "lambda_star": tone.lambda_star,
        "nu_star": tone.nu_star,
        "error_bar": tone.error_bar,
        "kernel_skipped": tone.kernel_skipped,
        "flags": tone.flags,
        "per_mode": [{"nu": nu, **rec}
                     for nu, rec in sorted(tone.per_mode.items())],
        "table": [{k: float(v) for k, v in row.items()}
                  for row in tone.table],
    }


def _bound_statistic(run: _ScenarioRun, exp: dict):
    """(statistic, error bar, source, predicted) of a bound entry: the tone
    of the operator it bounds or, with "statistic": "section", its
    section's Rayleigh quotient."""
    predicted = exp["predicted"]
    if exp["statistic"] == "tone":
        tone = run.tone(bounds.BOUND_OPERATORS[exp["bound"]])
        return tone.lambda_star, tone.error_bar, bounds.SOURCE_TONE, predicted
    rq = run.section_rayleigh(exp["section"])
    return rq, 1e-6 * abs(rq) + 1e-12, bounds.SOURCE_UPPER, predicted


# bound name -> evaluator (run, expected entry) -> BoundVerdict
BOUNDS = {
    "friedrich": lambda run, exp: bounds.friedrich_check(
        run.profile, *_bound_statistic(run, exp)),
    "area": lambda run, exp: bounds.area_bound_check(
        run.scenario.spin, run.area(), *_bound_statistic(run, exp)),
    "lichnerowicz": lambda run, exp: bounds.lichnerowicz_check(
        run.profile, all(run.scenario.surface.complete_ends),
        *_bound_statistic(run, exp)),
    "essential": lambda run, exp: bounds.essential_bound_check(
        run.scenario.surface, run.scenario.spin, run.profile, run.grid,
        run.read),
}

# keys: entry keys the evaluator needs; evaluate: (run, entry) ->
# (passed, detail), where the entry holds its _DEFAULTS and its limits
# scaled by --tol (_evaluate); name: report name, formatted with the entry;
# optional: the other keys it reads.  An entry carries no key outside these
# two but "check" and "provenance".
_Check = namedtuple("_Check", "keys evaluate name optional", defaults=((),))


def _value_check(name, detail, keys=("value", "tol")) -> _Check:
    """|computed - value| <= tol; detail(run, entry) gives the "computed"
    value (and extra detail), and tol is rel_tol * |value| when the check
    takes no tol key.  A check takes one of tol and rel_tol, never both.
    The detail writes a computed value that is not finite as null
    (bounds.dumps)."""
    def evaluate(run, exp):
        out = detail(run, exp)
        tol = (exp["tol"] if "tol" in keys
               else exp["rel_tol"] * abs(exp["value"]))
        passed = abs(out["computed"] - exp["value"]) <= tol
        out.update(expected=exp["value"], tol=tol)
        return passed, out
    return _Check(keys, evaluate, name, () if "tol" in keys else ("rel_tol",))


def _tone_value(kind: str) -> _Check:
    def detail(run, exp):
        tone = run.tone(kind)
        return {"computed": tone.lambda_star, "error_bar": tone.error_bar}
    return _value_check(_TONE_CHECKS[kind], detail)


def _orthogonality(run, exp):
    value = scenarios.mk_orthogonality(run.scenario, run.grid,
                                       run.samples().w, exp["section"])
    return (abs(value) <= exp["max_abs"],
            {"computed": value, "max_abs": exp["max_abs"]})


def _bound_verdict(run, exp):
    """The verdict, and with a "value" key the bound value too, within
    rel_tol * |value|."""
    verdict = BOUNDS[exp["bound"]](run, exp)
    run.verdicts.append(verdict)
    passed = verdict.verdict == exp["verdict"]
    detail = {"computed": verdict.verdict, "expected": exp["verdict"],
              "margin": verdict.margin}
    if "value" in exp:
        tol = exp["rel_tol"] * abs(exp["value"])
        passed = passed and abs(verdict.value - exp["value"]) <= tol
        detail.update(value=verdict.value, expected_value=exp["value"],
                      value_tol=tol)
    return passed, detail


def _killing(run, exp):
    sc, tone = run.scenario, run.tone(KIND_DIRAC)
    diag = bounds.killing_equality_check(
        sc.surface, tone.ground_op, run.profile, tone.ground,
        math.sqrt(max(tone.lambda_star, 0.0)))
    run.diagnostics["killing"] = detail = diag
    if not exp["applicable"]:
        return not diag.applicable, detail
    return (diag.applicable
            and diag.norm_variation <= exp["max_norm_variation"]
            and diag.bochner_ratio_deviation
            <= exp["max_bochner_ratio"]), detail


def _probe(run, exp):
    probe = truncation_probe(
        run.scenario.surface, exp["operator"],
        run.scenario.spin, exp["windows"], exp["threshold"])
    run.diagnostics["probe"] = detail = probe
    run.read.append(probe)
    counts = probe.counts
    if exp.get("counts", counts) != counts:
        return False, detail
    if exp["behavior"] == "stable":
        return probe.stable, detail
    return (not probe.stable
            and all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))
            and counts[-1] > counts[0]), detail


_SECTION_VALUE = ("section", "value", "tol")

# check name -> _Check; killing also needs max_norm_variation and
# max_bochner_ratio unless "applicable": false
CHECKS = {
    "area": _value_check(
        "area", lambda run, exp: {"computed": run.area()}, ("value",)),
    "kappa_spinor": _value_check(
        "kappa_spinor",
        lambda run, exp: {"computed": run.profile.kappa_spinor}),
    "laplace_tone": _tone_value(KIND_LAPLACIAN),
    "dirac_tone": _tone_value(KIND_DIRAC),
    "tone_attaining_mode": _value_check(
        "tone_attaining_mode",
        lambda run, exp: {"computed": run.tone(KIND_DIRAC).nu_star}),
    "section_norm2": _value_check(
        "section_norm2:{section}",
        lambda run, exp: {"computed": scenarios.section_norm2(
            run.scenario, exp["section"], run.grid, run.samples().w)},
        _SECTION_VALUE),
    "section_rayleigh": _value_check(
        "section_rayleigh:{section}",
        lambda run, exp: {"computed": run.section_rayleigh(exp["section"])},
        _SECTION_VALUE),
    "orthogonality": _Check(("section", "max_abs"), _orthogonality,
                            "orthogonality:{section}"),
    "bound_verdict": _Check(("bound", "verdict"), _bound_verdict,
                            "bound:{bound}",
                            ("statistic", "predicted", "value")),
    "killing": _Check((), _killing, "killing", ("applicable",)),
    "probe": _Check(("windows", "threshold", "behavior"), _probe, "probe",
                    ("operator", "counts")),
}


def _evaluate(run: _ScenarioRun, exp: dict) -> dict:
    """The report record {name, passed, detail} of an expected entry, read
    with its _DEFAULTS and with its limits scaled by --tol.  The entry fails
    wherever a tone or probe it reads carries UNCERTIFIED: its mode walk
    ended without a pruning certificate, so a tone's minimum over the modes,
    or a probe's counts, are not certified.  The failing detail names the
    flag."""
    check = CHECKS[exp["check"]]
    exp = {**_DEFAULTS, **exp}
    exp.update((k, exp[k] * run.tol_scale) for k in _LIMIT_KEYS if k in exp)
    run.read = []
    passed, detail = check.evaluate(run, exp)
    if any(UNCERTIFIED in result.flags for result in run.read):
        plain = detail if isinstance(detail, dict) else vars(detail)
        passed, detail = False, {**plain, "flag": UNCERTIFIED}
    return {"name": check.name.format(**exp), "passed": passed,
            "detail": detail}


# the numeric keys that bound a distance, which --tol scales
_LIMIT_KEYS = ("tol", "rel_tol", "max_abs", "max_norm_variation",
               "max_bochner_ratio")
# optional key -> its value in an entry that leaves it out
_DEFAULTS = {"rel_tol": 1e-9, "operator": KIND_DIRAC, "statistic": "tone",
             "predicted": False, "applicable": True}
# enumerated key -> the values it may take, all of one JSON type
_CHOICES = {
    "bound": tuple(BOUNDS),
    "operator": operators.KINDS,
    "statistic": ("tone", "section"),
    "behavior": ("stable", "growing"),
    "verdict": (bounds.HOLDS, bounds.VIOLATED_PREDICTED, bounds.INAPPLICABLE,
                bounds.VIOLATED_UNEXPECTED),
    "applicable": (True, False),
    "predicted": (True, False),
}
# entry key -> (what its value must be, test); a limit below 0 admits no
# value, and a probe threshold at or below 0 no eigenvalue
_RULES = {
    "value": ("a finite number", geometry.is_finite_number),
    **dict.fromkeys(_LIMIT_KEYS, (
        "a finite number >= 0",
        lambda x: geometry.is_finite_number(x) and x >= 0)),
    "threshold": ("a finite number > 0",
                  lambda x: geometry.is_finite_number(x) and x > 0),
    **{key: (f"one of {list(c)}", lambda x, c=c: type(x) is type(c[0])
             and x in c) for key, c in _CHOICES.items()},
    "section": ("a string", lambda x: isinstance(x, str)),
    "windows": ("one or more [start, stop] pairs",
                lambda x: isinstance(x, list) and x != [] and all(
                    isinstance(w, list) and len(w) == 2
                    and all(map(geometry.is_finite_number, w)) for w in x)),
    "counts": ("a list of integers >= 0", lambda x: isinstance(x, list)
               and all(type(c) is int and c >= 0 for c in x)),
}


def _runs_dirac(scenario, exp) -> bool:
    """Whether a well-formed expected entry with its _DEFAULTS runs a Dirac
    operator; a bound runs the operator it bounds, whatever its statistic
    or its surface."""
    kind = exp["check"]
    if kind == "probe":
        return exp["operator"] == KIND_DIRAC
    if kind == "section_rayleigh":
        return scenario.section_spec(exp["section"]).field_kind == KIND_DIRAC
    if kind == "bound_verdict":
        return bounds.BOUND_OPERATORS[exp["bound"]] == KIND_DIRAC
    return kind in ("dirac_tone", "tone_attaining_mode", "killing")


def _validate_expected(scenario) -> None:
    """Reject a malformed expected list before anything is solved: a value
    that breaks its key's _RULES rule, and entries whose keys do not fit
    each other or the scenario, Dirac entries without spin among them."""
    for i, exp in enumerate(scenario.expected):
        where = f"scenario {scenario.id!r} expected[{i}]"
        kind = exp.get("check")
        if not (isinstance(kind, str) and kind in CHECKS):
            raise CatalogError(f"{where}: unknown expected check {kind!r}"
                               if "check" in exp
                               else f"{where}: missing key 'check'")
        for key, value in exp.items():
            if key in _RULES and not _RULES[key][1](value):
                raise CatalogError(f"{where}: key {key!r} must be "
                                   f"{_RULES[key][0]}, got {value!r}")
        full = {**_DEFAULTS, **exp}
        keys = list(CHECKS[kind].keys)
        if kind == "killing" and full["applicable"]:
            keys += ["max_norm_variation", "max_bochner_ratio"]
        if full["statistic"] == "section":
            keys.append("section")
        # the essential bound probes window counts and reads no option
        optional, owner = CHECKS[kind].optional, f"check {kind!r}"
        if kind == "bound_verdict" and exp.get("bound") == "essential":
            optional, owner = (), "bound 'essential'"
        allowed = {"check", "provenance", *keys, *optional}
        for key in exp:
            if key not in allowed:
                raise CatalogError(f"{where}: {owner} takes no key {key!r}")
        for key in keys:
            if key not in exp:
                raise CatalogError(f"{where}: missing key {key!r}")
        if "windows" in exp:
            try:
                check_probe_windows(scenario.surface, exp["windows"])
            except AssemblyError as exc:
                raise CatalogError(f"{where}: key 'windows': {exc}") from exc
        if "counts" in exp and len(exp["counts"]) != len(exp["windows"]):
            raise CatalogError(f"{where}: key 'counts' must hold one count "
                               f"per window, got {exp['counts']!r}")
        if "section" in keys:
            field_kind = scenario.section_spec(exp["section"]).field_kind
            operator = bounds.BOUND_OPERATORS.get(exp.get("bound"))
            if kind == "bound_verdict" and field_kind != operator:
                raise CatalogError(
                    f"{where}: bound {exp['bound']!r} bounds {operator}, "
                    f"but section {exp['section']!r} is {field_kind}")
        if scenario.spin is None and _runs_dirac(scenario, full):
            raise CatalogError(f"{where}: check {kind!r} runs the Dirac "
                               f"operator, which needs a spin structure")


def run_scenario(scenario, policy: GridPolicy = GridPolicy(),
                 tol_scale: float = 1.0) -> bounds.SpectralReport:
    """Evaluate every expected check of a scenario into a SpectralReport."""
    _validate_expected(scenario)
    run = _ScenarioRun(scenario, policy, tol_scale)
    checks = [_evaluate(run, exp) for exp in scenario.expected]

    geometry_summary = {
        "area": run.area(),
        "kappa_spinor": run.profile.kappa_spinor,
        "kappa_oneform": run.profile.kappa_oneform,
        "period": scenario.surface.period,
        "window": [run.grid.a, run.grid.b],
        "spin": None if scenario.spin is None else scenario.spin.to_json(),
    }
    provenance = {
        "package_version": __version__,
        "policy": run.policy.to_json(),
        "tol_scale": tol_scale,
        "margin_bar_factor": bounds.MARGIN_BAR_FACTOR,
    }
    return bounds.SpectralReport(
        scenario_id=scenario.id, geometry_summary=geometry_summary,
        verdicts=run.verdicts, diagnostics=run.diagnostics, checks=checks,
        provenance=provenance)


def _format_pretty(doc: dict) -> str:
    def num(x):
        return "n/a" if x is None else f"{x:.6g}"

    lines = [f"scenario: {doc['scenario']}"]
    geo = doc["geometry"]
    area = "n/a" if geo["area"] is None else geo["area"]
    lines.append(f"  area={area}  kappa_spinor={num(geo['kappa_spinor'])}  "
                 f"spin={geo['spin']}")
    for v in doc["verdicts"]:
        lines.append(
            f"  bound {v['bound']:<13} value={num(v['value']):<12} "
            f"stat={num(v['lambda_star']):<12} "
            f"margin={num(v['margin']):<12} -> {v['verdict']}")
    for c in doc["checks"]:
        mark = "pass" if c["passed"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}")
    lines.append(f"  all_expected_match: {doc['all_expected_match']}")
    return "\n".join(lines) + "\n"


def _check_out(out_path: str | None):
    """Reject an --out that cannot be written before any work: a directory,
    a path whose parent is missing or not a writable directory, or a file
    that is not writable.  _emit still turns a failed write into a usage
    error."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK) or (
            os.path.exists(out_path) and not os.access(out_path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise CatalogError(f"cannot write {out_path}: {os.strerror(code)}")


def _emit(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CatalogError(
            f"cannot write {out_path}: {exc.strerror}") from exc


def _render(docs: list, out_format: str) -> str:
    """The csv or pretty text of loaded reports (bounds.load_report)."""
    if out_format == "csv":
        return bounds.reports_to_csv(docs)
    return "".join(_format_pretty(d) for d in docs)


def cmd_verify(selector: str, policy: GridPolicy, tol_scale: float,
               out_format: str, out_path: str | None) -> int:
    """Emit the report's JSON text, or its csv or pretty rendering, which
    `report` gives over that text."""
    report = run_scenario(_resolve_scenario(selector), policy, tol_scale)
    text = report.to_json()
    _emit(text if out_format == "json"
          else _render([bounds.load_report(text)], out_format), out_path)
    return EXIT_OK if report.all_expected_match else EXIT_MISMATCH


def _sweep_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CatalogError(f"sweep value {text!r} is not a finite number")
    return value


def _parse_range(spec: str):
    """The values of "start:stop:step" or of a comma list, at most
    MAX_SWEEP_VALUES of them; a range is counted before it is built."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CatalogError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (_sweep_number(p) for p in parts)
        if step <= 0 or stop < start:
            raise CatalogError(f"empty range {spec!r}")
        steps = (stop - start) / step + 1e-9  # inf when the span overflows
        if not steps < MAX_SWEEP_VALUES:
            raise CatalogError(f"range {spec!r} has more than "
                               f"{MAX_SWEEP_VALUES} values")
        return [start + i * step for i in range(int(math.floor(steps)) + 1)]
    values = [_sweep_number(p) for p in spec.split(",") if p]
    if not values:
        raise CatalogError("empty sweep range")
    if len(values) > MAX_SWEEP_VALUES:
        raise CatalogError(f"sweep lists more than {MAX_SWEEP_VALUES} values")
    return values


def _sweep_rows(param: str, values, spin: SpinStructure, grid_n, levels):
    """(rows, flagged): one row per value, of numbers `verify` reports on
    the same ladder, and the rows whose tone is flagged UNCERTIFIED, which
    fail as the check they come from would in `verify` (_evaluate).  A row
    is the area verdict of the flat cylinder of length L, the lichnerowicz
    verdict of the k-fold cover, or the round-sphere Laplace tone on base
    grids of N nodes, which replace grid_n (None when not given); k and N
    are whole numbers.  Every value and ladder is checked before the first
    solve."""
    least = min(values)
    if param not in ("L", "k", "N"):
        raise CatalogError(f"unknown sweep parameter {param!r}")
    if param == "N" and grid_n is not None:
        raise CatalogError("an N= sweep takes no --grid-n: N is the base grid")
    fractional = [v for v in values
                  if param != "L" and not float(v).is_integer()]
    if fractional:
        raise CatalogError(f"sweep {param} takes whole numbers, got "
                           f"{fractional[0]!r}")
    if param == "L" and not least > 0 or param == "k" and least < 1:
        raise CatalogError(f"sweep needs L > 0 and k >= 1, got {param} from "
                           f"{least} to {max(values)}")
    base_n = SWEEP_GRID_N if grid_n is None else grid_n
    policies = [_grid_policy(int(v) if param == "N" else base_n,
                             levels) for v in values]

    def one(value, policy):
        sc, key, wanted = (
            (scenarios.round_sphere_scenario(), "check", "laplace_tone")
            if param == "N" else
            (scenarios.flat_cylinder_scenario(float(value), spin), "bound",
             "area")
            if param == "L" else
            (scenarios.cover_scenario(int(value)), "bound", "lichnerowicz"))
        run = _ScenarioRun(sc, policy)
        detail = _evaluate(run, next(
            e for e in sc.expected if e.get(key) == wanted))["detail"]
        flagged = "flag" in detail
        if param == "N":
            return {"N": policy.base_n, "lambda_star": detail["computed"],
                    "abs_error": abs(detail["computed"]
                                     - detail["expected"])}, flagged
        v = run.verdicts[-1]
        if param == "L":
            return {"L": float(value), "lambda_star": v.lambda_star,
                    "error_bar": v.error_bar, "area_bound": v.value,
                    "margin": v.margin}, flagged
        return {"k": int(value), "rayleigh": v.lambda_star,
                "lichnerowicz_bound": v.value, "margin": v.margin}, flagged

    done = [one(v, policy) for v, policy in zip(values, policies)]
    return [row for row, _ in done], [row for row, bad in done if bad]


def cmd_sweep(param: str, values, spin: SpinStructure, grid_n, levels: int,
              out_format: str, out_path: str | None) -> int:
    """Emit the rows; EXIT_MISMATCH, naming each flagged row on stderr."""
    rows, flagged = _sweep_rows(param, values, spin, grid_n, levels)
    _emit(bounds.dumps({"sweep": param, "rows": rows}) if out_format == "json"
          else bounds.csv_text(rows, list(rows[0])), out_path)
    for row in flagged:
        print(f"sweep row {param}={row[param]}: its tone is flagged "
              f"{UNCERTIFIED}", file=sys.stderr)
    return EXIT_MISMATCH if flagged else EXIT_OK


def cmd_report(paths, out_format: str, out_path: str | None) -> int:
    merged = {}
    for path in paths:
        doc = bounds.load_report(_read_input(path, "report"))
        if doc["scenario"] in merged:
            print(f"warning: duplicate scenario {doc['scenario']!r}, "
                  f"keeping the later file {path}", file=sys.stderr)
        merged[doc["scenario"]] = doc
    docs = [merged[k] for k in sorted(merged)]
    _emit(bounds.dumps({"schema_version": bounds.REPORT_SCHEMA_VERSION,
                        "reports": docs}) if out_format == "json"
          else _render(docs, out_format), out_path)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Spectral bounds laboratory for surfaces of revolution. "
                    "Grid and tolerance settings come from CLI flags, else "
                    "built-in defaults; a scenario file only supplies the "
                    "scenario and its expected checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    default = GridPolicy()
    pv = sub.add_parser("verify", help="run one scenario's expected checks")
    pv.add_argument("--scenario", required=True,
                    help="catalog id or path to a scenario JSON file")
    pv.add_argument("--grid-n", type=int, default=default.base_n,
                    help="base grid size (doubles per refinement level)")
    pv.add_argument("--levels", type=int, default=default.levels,
                    help="refinement levels for extrapolation")
    pv.add_argument("--tol", type=float, default=1.0,
                    help="scale factor applied to every expected tolerance")
    pv.add_argument("--format", choices=("json", "csv", "pretty"),
                    default="json")
    pv.add_argument("--out", default=None, help="output path (default stdout)")

    ps = sub.add_parser("sweep", help="sweep a parameter and tabulate")
    ps.add_argument("--sweep", required=True,
                    help="param=a:b:step or param=v1,v2,... "
                         "(param in {L, k, N})")
    ps.add_argument("--spin", choices=("bounding", "non-bounding"),
                    default="non-bounding",
                    help="spin structure for the L sweep")
    ps.add_argument("--grid-n", type=int, default=None,
                    help=f"base grid size of L and k rows (default "
                         f"{SWEEP_GRID_N}); an N row's base grid is N")
    ps.add_argument("--levels", type=int, default=2)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default=None)

    pr = sub.add_parser("report", help="merge report files")
    pr.add_argument("paths", nargs="+")
    pr.add_argument("--format", choices=("pretty", "csv", "json"),
                    default="pretty")
    pr.add_argument("--out", default=None)
    return parser


def _grid_policy(base_n: int, levels: int) -> GridPolicy:
    """The GridPolicy of --grid-n (or a sweep's N) and --levels; a ladder
    it rejects is a usage error."""
    try:
        return GridPolicy(base_n=base_n, levels=levels)
    except AssemblyError as exc:
        raise CatalogError(str(exc)) from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        _check_out(args.out)
        if args.command == "verify":
            if not 0 < args.tol < math.inf:
                raise CatalogError(f"a finite tol > 0 required, got "
                                   f"{args.tol}")
            return cmd_verify(args.scenario,
                              _grid_policy(args.grid_n, args.levels),
                              args.tol, args.format, args.out)
        if args.command == "sweep":
            if "=" not in args.sweep:
                raise CatalogError("--sweep needs param=range")
            param, spec = args.sweep.split("=", 1)
            return cmd_sweep(param, _parse_range(spec),
                             SpinStructure(args.spin), args.grid_n,
                             args.levels, args.format, args.out)
        if args.command == "report":
            return cmd_report(args.paths, args.format, args.out)
        raise CatalogError(f"unknown command {args.command!r}")
    except (CatalogError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DiraclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: verify scenarios, sweep parameters, merge reports.

Exit codes: 0 all expected checks matched, 2 verdict/value mismatch,
1 internal error, 64 usage error (unknown scenario, bad flags, malformed
scenario document, missing report file).
Identical configuration yields byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import replace

from . import __version__, bounds, geometry, scenarios
from .bounds import json_num
from .eigensolve import GridPolicy, fundamental_tone, truncation_probe
from .errors import CatalogError, DiraclabError, SchemaError
from .operators import KIND_DIRAC, KIND_LAPLACIAN, assemble, rayleigh_quotient
from .spin import SpinStructure

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


def _read_input(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise CatalogError(f"{what} file not found: {path}") from exc


def _resolve_scenario(selector: str) -> scenarios.Scenario:
    if selector.endswith(".json"):
        text = _read_input(selector, "scenario")
        try:
            return scenarios.scenario_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise CatalogError(
                f"scenario file {selector} is not valid JSON: {exc}") from exc
    return scenarios.find_scenario(selector)


class _ScenarioRun:
    """Lazy per-scenario computation cache used by the check evaluators;
    the tones share one grid ladder, the rest its coarsest grid."""

    def __init__(self, scenario, policy: GridPolicy, tol_scale: float = 1.0):
        self.scenario = scenario
        self.policy = policy
        self.tol_scale = tol_scale
        self.grids = policy.grids(scenario.surface)
        self.grid = self.grids[0]
        self.profile = geometry.curvature_profile(scenario.surface, self.grid)
        self.diagnostics = {}
        self.verdicts = []
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def tone(self, kind: str):
        return self._memo(("tone", kind), lambda: fundamental_tone(
            self.scenario.surface, kind, self.scenario.spin, self.policy,
            self.grids))

    def section_rayleigh(self, name: str) -> float:
        """Rayleigh quotient of a named section for its own field kind."""
        def compute():
            sc, grid = self.scenario, self.grid
            sec = scenarios.eval_test_section(sc, name, grid)
            op = assemble(sc.surface, sc.section_spec(name).field_kind,
                          sc.spin, sec.nu, grid)
            return rayleigh_quotient(op, sec)
        return self._memo(("rq", name), compute)

    def area(self) -> float:
        return self._memo("area", lambda: geometry.area(self.scenario.surface))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _tone_json(tone) -> dict:
    return {
        "kind": tone.kind,
        "lambda_star": json_num(tone.lambda_star),
        "nu_star": json_num(tone.nu_star),
        "error_bar": json_num(tone.error_bar),
        "kernel_skipped": tone.kernel_skipped,
        "flags": list(tone.flags),
        "per_mode": [
            {"nu": float(nu),
             **{k: json_num(v) for k, v in rec.items()}}
            for nu, rec in sorted(tone.per_mode.items())
        ],
        "table": [{k: json_num(v) for k, v in row.items()}
                  for row in tone.table],
    }


def _bound_statistic(run: _ScenarioRun, exp: dict):
    if exp.get("statistic", "tone") == "tone":
        tone = run.tone(KIND_LAPLACIAN if exp["bound"] == "lichnerowicz"
                        else KIND_DIRAC)
        return tone.lambda_star, tone.error_bar, bounds.SOURCE_TONE
    rq = run.section_rayleigh(exp["section"])
    return rq, 1e-6 * abs(rq) + 1e-12, bounds.SOURCE_UPPER


def _lichnerowicz(run: _ScenarioRun, exp: dict) -> bounds.BoundVerdict:
    stat, bar, source = _bound_statistic(run, exp)
    complete = all(k == "cusp" for k in run.grid.side_kinds)
    return bounds.lichnerowicz_check(
        run.scenario.surface, run.profile, stat, bar, complete=complete,
        predicted=bool(exp.get("predicted", False)), statistic_source=source)


# bound name -> evaluator (run, expected entry) -> BoundVerdict
BOUNDS = {
    "friedrich": lambda run, exp: bounds.friedrich_check(
        run.scenario.surface, run.profile, run.tone(KIND_DIRAC)),
    "area": lambda run, exp: bounds.area_bound_check(
        run.scenario.surface, run.scenario.spin, *_bound_statistic(run, exp)),
    "lichnerowicz": _lichnerowicz,
    "essential": lambda run, exp: bounds.essential_bound_check(
        run.scenario.surface, run.scenario.spin, run.profile, run.grid),
}

# keys: entry keys the evaluator needs; evaluate: (run, entry) ->
# (passed, detail); name: report name, formatted with the entry
_Check = namedtuple("_Check", "keys evaluate name")


def _value_check(name, detail, keys=("value", "tol")) -> _Check:
    """|computed - value| <= tol * tol_scale; detail(run, entry) gives the
    "computed" value (and extra detail), and tol is relative to the value
    (rel_tol, default 1e-9) when the check takes no tol key."""
    def evaluate(run, exp):
        out = detail(run, exp)
        tol = exp["tol"] if "tol" in keys \
            else exp.get("rel_tol", 1e-9) * abs(exp["value"])
        out.update(expected=exp["value"], tol=tol * run.tol_scale)
        return abs(out["computed"] - exp["value"]) <= out["tol"], out
    return _Check(keys, evaluate, name)


def _tone_value(check: str, kind: str) -> _Check:
    def detail(run, exp):
        tone = run.tone(kind)
        run.diagnostics[check] = _tone_json(tone)
        return {"computed": tone.lambda_star, "error_bar": tone.error_bar}
    return _value_check(check, detail)


def _orthogonality(run, exp):
    value = scenarios.mk_orthogonality(run.scenario, run.grid, exp["section"])
    return (abs(value) <= exp["max_abs"] * run.tol_scale,
            {"computed": value, "max_abs": exp["max_abs"]})


def _bound_verdict(run, exp):
    verdict = BOUNDS[exp["bound"]](run, exp)
    run.verdicts.append(verdict)
    return (verdict.verdict == exp["verdict"],
            {"computed": verdict.verdict, "expected": exp["verdict"],
             "margin": json_num(verdict.margin)})


def _killing(run, exp):
    sc, tone = run.scenario, run.tone(KIND_DIRAC)
    diag = bounds.killing_equality_check(
        sc.surface, tone.ground_op, run.profile, tone.ground,
        math.sqrt(max(tone.lambda_star, 0.0)))
    run.diagnostics["killing"] = detail = diag.to_json()
    if not exp.get("applicable", True):
        return not diag.applicable, detail
    scale = run.tol_scale
    return (diag.applicable
            and diag.norm_variation <= exp["max_norm_variation"] * scale
            and diag.bochner_ratio_deviation
            <= exp["max_bochner_ratio"] * scale), detail


def _probe(run, exp):
    probe = truncation_probe(
        run.scenario.surface, exp.get("operator", KIND_DIRAC),
        run.scenario.spin, [tuple(w) for w in exp["windows"]],
        exp["threshold"], n_base=run.policy.base_n)
    run.diagnostics["probe"] = detail = {
        "threshold": probe.threshold,
        "windows": [list(w) for w in probe.windows],
        "counts": probe.counts,
        "stable": probe.stable,
    }
    if exp["behavior"] == "stable":
        return probe.stable, detail
    counts = probe.counts
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
    "laplace_tone": _tone_value("laplace_tone", KIND_LAPLACIAN),
    "dirac_tone": _tone_value("dirac_tone", KIND_DIRAC),
    "tone_attaining_mode": _value_check(
        "tone_attaining_mode",
        lambda run, exp: {"computed": run.tone(KIND_DIRAC).nu_star}),
    "section_norm2": _value_check(
        "section_norm2:{section}",
        lambda run, exp: {"computed": scenarios.section_norm2(
            run.scenario, exp["section"], run.grid)}, _SECTION_VALUE),
    "section_rayleigh": _value_check(
        "section_rayleigh:{section}",
        lambda run, exp: {"computed": run.section_rayleigh(exp["section"])},
        _SECTION_VALUE),
    "orthogonality": _Check(("section", "max_abs"), _orthogonality,
                            "orthogonality:{section}"),
    "bound_verdict": _Check(("bound", "verdict"), _bound_verdict,
                            "bound:{bound}"),
    "killing": _Check((), _killing, "killing"),
    "probe": _Check(("windows", "threshold", "behavior"), _probe, "probe"),
}

_NUMERIC_KEYS = ("value", "tol", "rel_tol", "max_abs", "threshold",
                 "max_norm_variation", "max_bochner_ratio")


def _validate_expected(scenario) -> None:
    """Reject a malformed expected list before anything is solved."""
    for i, exp in enumerate(scenario.expected):
        where = f"scenario {scenario.id!r} expected[{i}]"
        kind = exp.get("check")
        if not (isinstance(kind, str) and kind in CHECKS):
            raise CatalogError(f"{where}: unknown expected check {kind!r}"
                               if "check" in exp
                               else f"{where}: missing key 'check'")
        keys = list(CHECKS[kind].keys)
        if kind == "killing" and exp.get("applicable", True):
            keys += ["max_norm_variation", "max_bochner_ratio"]
        if exp.get("statistic", "tone") != "tone":
            keys.append("section")
        for key in keys:
            if key not in exp:
                raise CatalogError(f"{where}: missing key {key!r}")
        for key in _NUMERIC_KEYS:
            if key in exp and not _is_number(exp[key]):
                raise CatalogError(f"{where}: key {key!r} must be a number, "
                                   f"got {exp[key]!r}")
        windows = exp.get("windows", [])
        if not (isinstance(windows, list) and all(
                isinstance(w, list) and len(w) == 2
                and all(_is_number(x) for x in w) for w in windows)):
            raise CatalogError(
                f"{where}: key 'windows' must list [start, stop] pairs")
        if "bound" in keys and not (isinstance(exp["bound"], str)
                                    and exp["bound"] in BOUNDS):
            raise CatalogError(f"{where}: unknown bound {exp['bound']!r}")
        if "section" in keys:
            scenario.section_spec(exp["section"])


def run_scenario(scenario, policy: GridPolicy = GridPolicy(),
                 tol_scale: float = 1.0) -> bounds.SpectralReport:
    """Evaluate every expected check of a scenario into a SpectralReport."""
    _validate_expected(scenario)
    run = _ScenarioRun(scenario, policy, tol_scale)
    checks = []
    for exp in scenario.expected:
        check = CHECKS[exp["check"]]
        passed, detail = check.evaluate(run, exp)
        checks.append({"name": check.name.format(**exp),
                       "passed": bool(passed), "detail": detail})

    try:
        area_json = float(run.area())
    except DiraclabError:
        area_json = None
    geometry_summary = {
        "area": area_json,
        "kappa_spinor": float(run.profile.kappa_spinor),
        "kappa_oneform": float(run.profile.kappa_oneform),
        "period": float(scenario.surface.period),
        "window": [float(run.grid.a), float(run.grid.b)],
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
    lines.append(
        f"  area={geo['area']}  kappa_spinor={geo['kappa_spinor']:.6g}  "
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


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(selector: str, policy: GridPolicy, tol_scale: float,
               out_format: str, out_path: str | None) -> int:
    report = run_scenario(_resolve_scenario(selector), policy, tol_scale)
    doc = report.to_json_dict()
    if out_format == "json":
        _emit(report.to_json(), out_path)
    elif out_format == "csv":
        _emit(bounds.reports_to_csv([doc]), out_path)
    else:
        _emit(_format_pretty(doc), out_path)
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
    # "a:b:step" or comma list
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CatalogError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (_sweep_number(p) for p in parts)
        if step <= 0 or stop < start:
            raise CatalogError(f"empty range {spec!r}")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    values = [_sweep_number(p) for p in spec.split(",") if p]
    if not values:
        raise CatalogError("empty sweep range")
    return values


def _sweep_rows(param: str, values, spin: SpinStructure,
                policy: GridPolicy):
    """One row per value; every value is checked before the first solve."""
    least = min(values)  # each range is bounded below only
    in_range = {"L": least > 0, "k": round(least) >= 1,
                "N": round(least) >= 16}
    if param not in in_range:
        raise CatalogError(f"unknown sweep parameter {param!r}")
    if not in_range[param]:
        raise CatalogError(f"sweep needs L > 0, k >= 1 and N >= 16, got "
                           f"{param}={least}")

    def one(value):
        if param == "L":
            run = _ScenarioRun(
                scenarios.flat_cylinder_scenario(float(value), spin), policy)
            tone = run.tone(KIND_DIRAC)
            bound = bounds.area_bound(run.area())
            return {
                "L": float(value),
                "lambda_star": tone.lambda_star,
                "error_bar": tone.error_bar,
                "area_bound": bound,
                "margin": tone.lambda_star - bound,
            }
        if param == "k":
            k = int(round(value))
            run = _ScenarioRun(scenarios.cover_scenario(k), policy)
            rq = run.section_rayleigh("f_k")
            bound = bounds.friedrich_bound(bounds.DIM,
                                           run.profile.kappa_oneform)
            return {
                "k": k,
                "rayleigh": rq,
                "lichnerowicz_bound": bound,
                "margin": rq - bound,
            }
        sc = scenarios.round_sphere_scenario()
        n = int(round(value))
        pol = replace(policy, base_n=n, levels=1)
        tone = fundamental_tone(sc.surface, KIND_LAPLACIAN, None, pol)
        return {
            "N": n,
            "lambda_star": tone.lambda_star,
            "abs_error": abs(tone.lambda_star - 2.0),
        }

    return [one(v) for v in values]


def cmd_sweep(param: str, values, spin: SpinStructure, policy: GridPolicy,
              out_format: str, out_path: str | None) -> int:
    rows = _sweep_rows(param, values, spin, policy)
    if out_format == "json":
        _emit(json.dumps({"sweep": param, "rows": rows}, sort_keys=True,
                         indent=2) + "\n", out_path)
        return EXIT_OK
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    _emit("\n".join(lines) + "\n", out_path)
    return EXIT_OK


def cmd_report(paths, out_format: str, out_path: str | None) -> int:
    merged = {}
    for path in paths:
        doc = bounds.load_report(_read_input(path, "report"))
        if doc["scenario"] in merged:
            print(f"warning: duplicate scenario {doc['scenario']!r}, "
                  f"keeping the later file {path}", file=sys.stderr)
        merged[doc["scenario"]] = doc
    docs = [merged[k] for k in sorted(merged)]
    if out_format == "csv":
        _emit(bounds.reports_to_csv(docs), out_path)
    elif out_format == "json":
        _emit(json.dumps({"schema_version": bounds.REPORT_SCHEMA_VERSION,
                          "reports": docs}, sort_keys=True, indent=2) + "\n",
              out_path)
    else:
        _emit("".join(_format_pretty(d) for d in docs), out_path)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Spectral bounds laboratory for surfaces of revolution. "
                    "Grid and tolerance settings come from CLI flags, else "
                    "built-in defaults; a scenario file only supplies the "
                    "scenario and its expected checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one scenario's expected checks")
    pv.add_argument("--scenario", required=True,
                    help="catalog id or path to a scenario JSON file")
    pv.add_argument("--grid-n", type=int, default=512,
                    help="base grid size (doubles per refinement level)")
    pv.add_argument("--levels", type=int, default=3,
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
    ps.add_argument("--grid-n", type=int, default=256)
    ps.add_argument("--levels", type=int, default=2)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default=None)

    pr = sub.add_parser("report", help="merge report files")
    pr.add_argument("paths", nargs="+")
    pr.add_argument("--format", choices=("pretty", "csv", "json"),
                    default="pretty")
    pr.add_argument("--out", default=None)
    return parser


def _grid_policy(args) -> GridPolicy:
    """The GridPolicy of --grid-n and --levels, which both commands take."""
    if args.grid_n < 16 or args.levels < 1:
        raise CatalogError("grid-n >= 16 and levels >= 1 required")
    return GridPolicy(base_n=args.grid_n, levels=args.levels)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.command == "verify":
            if args.tol <= 0:
                raise CatalogError("tol > 0 required")
            return cmd_verify(args.scenario, _grid_policy(args), args.tol,
                              args.format, args.out)
        if args.command == "sweep":
            if "=" not in args.sweep:
                raise CatalogError("--sweep needs param=range")
            param, spec = args.sweep.split("=", 1)
            return cmd_sweep(param, _parse_range(spec),
                             SpinStructure(args.spin), _grid_policy(args),
                             args.format, args.out)
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

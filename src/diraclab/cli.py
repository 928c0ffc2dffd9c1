"""Command-line front end: verify scenarios, sweep parameters, merge reports.

Exit codes: 0 all expected checks matched, 2 verdict/value mismatch,
1 internal error, 64 usage error (unknown scenario, bad flags).
Identical configuration yields byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

from . import __version__, bounds, geometry, scenarios
from .eigensolve import (
    GridPolicy,
    fundamental_tone,
    smallest_eigenpairs,
    truncation_probe,
)
from .errors import CatalogError, DiraclabError, SchemaError
from .operators import (
    KIND_DIRAC,
    KIND_LAPLACIAN,
    assemble_dirac_square,
    assemble_laplacian,
    make_grid,
    rayleigh_quotient,
)
from .spin import SpinStructure

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one verify run.

    Precedence: CLI flags override built-in defaults; scenario documents
    only contribute the scenario itself and its expected checks.
    """

    scenario: str
    policy: GridPolicy = GridPolicy()
    tol_scale: float = 1.0
    out_format: str = "json"  # json | csv | pretty
    out_path: str | None = None


def _resolve_scenario(selector: str) -> scenarios.Scenario:
    if selector.endswith(".json"):
        try:
            with open(selector) as fh:
                return scenarios.scenario_from_json(json.load(fh))
        except FileNotFoundError as exc:
            raise CatalogError(f"scenario file not found: {selector}") from exc
        except json.JSONDecodeError as exc:
            raise CatalogError(
                f"scenario file {selector} is not valid JSON: {exc}") from exc
    return scenarios.find_scenario(selector)


class _ScenarioRun:
    """Lazy per-scenario computation cache used by the check dispatcher."""

    def __init__(self, scenario, policy: GridPolicy, tol_scale: float = 1.0):
        self.scenario = scenario
        self.policy = policy
        self.tol_scale = tol_scale
        self.grid = make_grid(scenario.surface, policy.base_n,
                              delta_ratio=policy.delta_ratio,
                              cusp_tail_rel=policy.cusp_tail_rel)
        self.profile = geometry.curvature_profile(scenario.surface, self.grid)
        self._cache = {}

    def tone(self, kind: str):
        key = ("tone", kind)
        if key not in self._cache:
            self._cache[key] = fundamental_tone(
                self.scenario.surface, kind, self.scenario.spin, self.policy)
        return self._cache[key]

    def section(self, name: str):
        key = ("section", name)
        if key not in self._cache:
            self._cache[key] = scenarios.eval_test_section(
                self.scenario, name, self.grid)
        return self._cache[key]

    def section_rayleigh(self, name: str, kind: str) -> float:
        key = ("rq", name, kind)
        if key not in self._cache:
            sec = self.section(name)
            if kind == KIND_LAPLACIAN:
                op = assemble_laplacian(self.scenario.surface, sec.nu,
                                        self.grid)
            else:
                op = assemble_dirac_square(self.scenario.surface,
                                           self.scenario.spin, sec.nu,
                                           self.grid)
            self._cache[key] = rayleigh_quotient(op, sec)
        return self._cache[key]

    def ground_section(self, nu: float):
        key = ("ground", nu)
        if key not in self._cache:
            op = assemble_dirac_square(self.scenario.surface,
                                       self.scenario.spin, nu, self.grid)
            res = smallest_eigenpairs(op, 1)
            self._cache[key] = res.sections[0]
        return self._cache[key]

    def area(self) -> float:
        if "area" not in self._cache:
            self._cache["area"] = geometry.area(self.scenario.surface)
        return self._cache["area"]


def _json_num(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) if math.isfinite(value) else None
    return value


def _tone_json(tone) -> dict:
    return {
        "kind": tone.kind,
        "lambda_star": _json_num(tone.lambda_star),
        "nu_star": _json_num(tone.nu_star),
        "error_bar": _json_num(tone.error_bar),
        "kernel_skipped": tone.kernel_skipped,
        "flags": list(tone.flags),
        "per_mode": [
            {"nu": float(nu),
             **{k: _json_num(v) for k, v in rec.items()}}
            for nu, rec in sorted(tone.per_mode.items())
        ],
        "table": [{k: _json_num(v) for k, v in row.items()}
                  for row in tone.table],
    }


def _bound_statistic(run: _ScenarioRun, exp: dict):
    which = exp.get("statistic", "tone")
    if which == "tone":
        kind = KIND_LAPLACIAN if exp["bound"] == "lichnerowicz" \
            else KIND_DIRAC
        tone = run.tone(kind)
        return tone.lambda_star, tone.error_bar, bounds.SOURCE_TONE
    name = exp["section"]
    spec = run.scenario.section_spec(name)
    rq = run.section_rayleigh(name, spec.field_kind)
    return rq, 1e-6 * abs(rq) + 1e-12, bounds.SOURCE_UPPER


def _evaluate_bound(run: _ScenarioRun, exp: dict) -> bounds.BoundVerdict:
    name = exp["bound"]
    if name == "friedrich":
        return bounds.friedrich_check(run.scenario.surface, run.profile,
                                      run.tone(KIND_DIRAC))
    if name == "area":
        stat, bar, source = _bound_statistic(run, exp)
        return bounds.area_bound_check(run.scenario.surface,
                                       run.scenario.spin, stat, bar,
                                       statistic_source=source)
    if name == "lichnerowicz":
        stat, bar, source = _bound_statistic(run, exp)
        complete = all(
            geometry.end_kind(run.scenario.surface, s) == "cusp"
            for s in ("lower", "upper"))
        return bounds.lichnerowicz_check(
            run.scenario.surface, run.profile, stat, bar,
            complete=complete, predicted=bool(exp.get("predicted", False)),
            statistic_source=source)
    if name == "essential":
        return bounds.essential_bound_check(
            run.scenario.surface, run.scenario.spin, run.profile, run.policy)
    raise CatalogError(f"unknown bound {name!r}")


def run_scenario(scenario, policy: GridPolicy = GridPolicy(),
                 tol_scale: float = 1.0) -> bounds.SpectralReport:
    """Evaluate every expected check of a scenario into a SpectralReport."""
    run = _ScenarioRun(scenario, policy, tol_scale)
    checks = []
    verdicts = []
    diagnostics = {}

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed),
                       "detail": detail})

    for exp in scenario.expected:
        kind = exp["check"]
        if kind == "area":
            value = run.area()
            tol = exp.get("rel_tol", 1e-9) * abs(exp["value"]) * tol_scale
            record("area", abs(value - exp["value"]) <= tol,
                   {"computed": value, "expected": exp["value"], "tol": tol})
        elif kind == "kappa_spinor":
            value = run.profile.kappa_spinor
            tol = exp["tol"] * tol_scale
            record("kappa_spinor", abs(value - exp["value"]) <= tol,
                   {"computed": value, "expected": exp["value"], "tol": tol})
        elif kind in ("laplace_tone", "dirac_tone"):
            tone = run.tone(KIND_LAPLACIAN if kind == "laplace_tone"
                            else KIND_DIRAC)
            diagnostics[kind] = _tone_json(tone)
            tol = exp["tol"] * tol_scale
            record(kind, abs(tone.lambda_star - exp["value"]) <= tol,
                   {"computed": tone.lambda_star, "expected": exp["value"],
                    "tol": tol, "error_bar": tone.error_bar})
        elif kind == "tone_attaining_mode":
            tone = run.tone(KIND_DIRAC)
            tol = exp["tol"] * tol_scale
            record(kind, abs(tone.nu_star - exp["value"]) <= tol,
                   {"computed": tone.nu_star, "expected": exp["value"]})
        elif kind == "section_norm2":
            value = scenarios.section_norm2(scenario, exp["section"],
                                            run.grid)
            tol = exp["tol"] * tol_scale
            record(f"section_norm2:{exp['section']}",
                   abs(value - exp["value"]) <= tol,
                   {"computed": value, "expected": exp["value"], "tol": tol})
        elif kind == "section_rayleigh":
            spec = scenario.section_spec(exp["section"])
            value = run.section_rayleigh(exp["section"], spec.field_kind)
            tol = exp["tol"] * tol_scale
            record(f"section_rayleigh:{exp['section']}",
                   abs(value - exp["value"]) <= tol,
                   {"computed": value, "expected": exp["value"], "tol": tol})
        elif kind == "orthogonality":
            value = scenarios.mk_orthogonality(scenario, run.grid,
                                               exp["section"])
            record(f"orthogonality:{exp['section']}",
                   abs(value) <= exp["max_abs"] * tol_scale,
                   {"computed": value, "max_abs": exp["max_abs"]})
        elif kind == "bound_verdict":
            verdict = _evaluate_bound(run, exp)
            verdicts.append(verdict)
            margin = float(verdict.margin) \
                if math.isfinite(verdict.margin) else None
            record(f"bound:{exp['bound']}",
                   verdict.verdict == exp["verdict"],
                   {"computed": verdict.verdict,
                    "expected": exp["verdict"], "margin": margin})
        elif kind == "killing":
            tone = run.tone(KIND_DIRAC)
            phi = run.ground_section(tone.nu_star)
            diag = bounds.killing_equality_check(
                scenario.surface, scenario.spin, phi,
                math.sqrt(max(tone.lambda_star, 0.0)))
            diagnostics["killing"] = diag.to_json()
            if exp.get("applicable", True):
                ok = (diag.applicable
                      and diag.norm_variation
                      <= exp["max_norm_variation"] * tol_scale
                      and diag.bochner_ratio_deviation
                      <= exp["max_bochner_ratio"] * tol_scale)
            else:
                ok = not diag.applicable
            record("killing", ok, diag.to_json())
        elif kind == "probe":
            op_kind = exp.get("operator", KIND_DIRAC)
            probe = truncation_probe(
                scenario.surface, op_kind, scenario.spin,
                [tuple(w) for w in exp["windows"]], exp["threshold"],
                n_base=min(run.policy.base_n, 800))
            diagnostics["probe"] = {
                "threshold": probe.threshold,
                "windows": [list(w) for w in probe.windows],
                "counts": probe.counts,
                "stable": probe.stable,
            }
            if exp["behavior"] == "stable":
                ok = probe.stable
            else:
                ok = (not probe.stable
                      and all(c1 <= c2 for c1, c2 in
                              zip(probe.counts, probe.counts[1:]))
                      and probe.counts[-1] > probe.counts[0])
            record("probe", ok, diagnostics["probe"])
        else:
            raise CatalogError(f"unknown expected check {kind!r}")

    try:
        area_val = run.area()
        area_json = float(area_val)
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
        "policy": asdict(run.policy),
        "tol_scale": tol_scale,
        "margin_bar_factor": bounds.MARGIN_BAR_FACTOR,
    }
    return bounds.SpectralReport(
        scenario_id=scenario.id, geometry_summary=geometry_summary,
        verdicts=verdicts, diagnostics=diagnostics, checks=checks,
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


def cmd_verify(config: RunConfig) -> int:
    scenario = _resolve_scenario(config.scenario)
    report = run_scenario(scenario, config.policy, config.tol_scale)
    doc = report.to_json_dict()
    if config.out_format == "json":
        _emit(report.to_json(), config.out_path)
    elif config.out_format == "csv":
        _emit(bounds.reports_to_csv([doc]), config.out_path)
    else:
        _emit(_format_pretty(doc), config.out_path)
    return EXIT_OK if report.all_expected_match else EXIT_MISMATCH


def _parse_range(spec: str):
    # "a:b:step" or comma list
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CatalogError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise CatalogError(f"empty range {spec!r}")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    values = [float(p) for p in spec.split(",") if p]
    if not values:
        raise CatalogError("empty sweep range")
    return values


def _sweep_rows(param: str, values, spin: SpinStructure,
                policy: GridPolicy):
    def one(value):
        if param == "L":
            sc = scenarios.flat_cylinder_scenario(float(value), spin)
            tone = fundamental_tone(sc.surface, KIND_DIRAC, sc.spin, policy)
            bound = bounds.area_bound(geometry.area(sc.surface))
            return {
                "L": float(value),
                "lambda_star": tone.lambda_star,
                "error_bar": tone.error_bar,
                "area_bound": bound,
                "margin": tone.lambda_star - bound,
            }
        if param == "k":
            k = int(round(value))
            sc = scenarios.cover_scenario(k)
            grid = make_grid(sc.surface, policy.base_n,
                             delta_ratio=policy.delta_ratio)
            sec = scenarios.eval_test_section(sc, "f_k", grid)
            op = assemble_laplacian(sc.surface, sec.nu, grid)
            rq = rayleigh_quotient(op, sec)
            profile = geometry.curvature_profile(sc.surface, grid)
            bound = bounds.friedrich_bound(2, profile.kappa_oneform)
            return {
                "k": k,
                "rayleigh": rq,
                "lichnerowicz_bound": bound,
                "margin": rq - bound,
            }
        if param == "N":
            sc = scenarios.round_sphere_scenario()
            n = int(round(value))
            pol = replace(policy, base_n=n, levels=1)
            tone = fundamental_tone(sc.surface, KIND_LAPLACIAN, None, pol)
            return {
                "N": n,
                "lambda_star": tone.lambda_star,
                "abs_error": abs(tone.lambda_star - 2.0),
            }
        raise CatalogError(f"unknown sweep parameter {param!r}")

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
        with open(path) as fh:
            doc = bounds.load_report(fh.read())
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
    pv.add_argument("--modes", type=int, default=8,
                    help="initial mode cutoff of the sweep")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.command == "verify":
            if args.grid_n < 16 or args.levels < 1 or args.modes < 1 \
                    or args.tol <= 0:
                raise CatalogError("grid-n >= 16, levels >= 1, modes >= 1 "
                                   "and tol > 0 required")
            policy = GridPolicy(base_n=args.grid_n, levels=args.levels,
                                mode_cutoff=args.modes)
            config = RunConfig(scenario=args.scenario, policy=policy,
                               tol_scale=args.tol, out_format=args.format,
                               out_path=args.out)
            return cmd_verify(config)
        if args.command == "sweep":
            if "=" not in args.sweep:
                raise CatalogError("--sweep needs param=range")
            param, spec = args.sweep.split("=", 1)
            values = _parse_range(spec)
            policy = GridPolicy(base_n=args.grid_n, levels=args.levels)
            return cmd_sweep(param, values, SpinStructure(args.spin),
                             policy, args.format, args.out)
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

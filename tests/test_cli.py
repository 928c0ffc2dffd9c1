import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diraclab.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_round_sphere_exit_zero(tmp_path, capsys):
    out = tmp_path / "sphere.json"
    code, _, _ = run(["verify", "--scenario", "round-sphere",
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_expected_match"] is True
    lap = next(c for c in doc["checks"] if c["name"] == "laplace_tone")
    assert abs(lap["detail"]["computed"] - 2.0) <= 1e-3


def test_verify_unknown_scenario_is_usage_error(capsys):
    code, _, err = run(["verify", "--scenario", "no-such-id"], capsys)
    assert code == 64
    assert "unknown scenario" in err


def test_verify_bad_flags_usage_error(capsys):
    for flags in (["--grid-n", "4"], ["--tol", "inf"], ["--tol", "nan"]):
        code, _, err = run(["verify", "--scenario", "round-sphere", *flags],
                           capsys)
        assert (code, err.startswith("usage error")) == (64, True), flags
    # flags argparse itself rejects exit 64 too; --help exits 0
    for argv in (["--scenario", "round-sphere", "--format", "xml"],
                 ["--scenario", "round-sphere", "--grid-n", "abc"],
                 ["--scenario", "round-sphere", "--no-such-flag"], []):
        code, _, err = run(["verify", *argv], capsys)
        assert (code, "usage: diraclab" in err) == (64, True), argv
    code, out, _ = run(["verify", "--help"], capsys)
    assert code == 0 and "--grid-n" in out


def test_main_builds_its_parser_once(capsys):
    # every main() call of a process shares one parser, and a usage error
    # exits 64 with the same text whatever calls came before it
    from diraclab import cli
    cli._build_parser.cache_clear()
    bad_format = ["verify", "--scenario", "round-sphere", "--format", "xml"]
    first = run(bad_format, capsys)
    other = run(["sweep", "--no-such-flag"], capsys)
    again = run(bad_format, capsys)
    assert cli._build_parser.cache_info()[:2] == (2, 1)  # hits, misses
    assert first == again and first[0] == other[0] == 64
    assert first[2] != other[2]
    assert "usage: diraclab verify" in first[2]
    assert "invalid choice: 'xml'" in first[2]


def test_grid_ladder_above_the_node_cap_is_usage_error(capsys, monkeypatch):
    # the cap is checked before any grid is laid out or solved; ladders
    # whose finest grid has exactly MAX_GRID_NODES reach the solver
    from diraclab import cli, eigensolve

    class Reached(Exception):
        pass

    def no_solve(*args, **kwargs):
        raise Reached("reached the solver")
    monkeypatch.setattr(cli, "fundamental_tone", no_solve)
    monkeypatch.setattr(cli, "_ScenarioRun", no_solve)
    cap = eigensolve.MAX_GRID_NODES
    verify = ["verify", "--scenario", "round-sphere"]
    for argv, code in (
            ([*verify, "--grid-n", "1000000000000", "--levels", "1"], 64),
            ([*verify, "--levels", "40"], 64),
            ([*verify, "--grid-n", str(cap // 2 + 1), "--levels", "2"], 64),
            ([*verify, "--grid-n", str(cap // 2), "--levels", "2"], 1),
            ([*verify, "--grid-n", "16", "--levels", "17"], 1),
            (["sweep", "--sweep", f"N=64,{cap + 1}"], 64),
            (["sweep", "--sweep", f"N={cap}"], 64),
            (["sweep", "--sweep", f"N={cap}", "--levels", "1"], 1)):
        got, _, err = run(argv, capsys)
        assert got == code, argv
        if code == 1:
            assert "reached the solver" in err
        else:
            assert err.startswith("usage error"), err


def test_verify_refined_grid_exits_zero(capsys):
    code, _, err = run(["verify", "--scenario", "flat-cylinder-l5-bounding",
                        "--grid-n", "8192"], capsys)
    assert code == 0, err


def test_sweep_refinement_to_2_17_decreases_error(capsys):
    code, out, err = run(["sweep", "--sweep", "N=2048,8192,32768,131072",
                          "--levels", "1", "--format", "json"], capsys)
    assert code == 0, err
    errors = [row["abs_error"] for row in json.loads(out)["rows"]]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:])), errors


def test_verify_nonbounding_cylinder_reports_predicted_violation(
        tmp_path, capsys):
    out = tmp_path / "c5.json"
    code, _, _ = run(["verify", "--scenario",
                      "flat-cylinder-l5-nonbounding", "--out", str(out)],
                     capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    area_verdict = next(v for v in doc["verdicts"] if v["bound"] == "area")
    assert area_verdict["verdict"] == "violated-as-predicted"


def test_area_verdict_reads_the_entry_predicted_key(tmp_path, capsys):
    # the tracked-counterexample marker is the entry's, not the spin
    # structure's: unmarked, the same violation is out of the theorem's
    # scope, and the expected verdict mismatches
    from diraclab.scenarios import find_scenario
    doc = find_scenario("flat-cylinder-l5-nonbounding").to_json()
    entry = next(e for e in doc["expected"] if e.get("bound") == "area")
    entry["predicted"] = False
    path = tmp_path / "unmarked.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code, _, err = run(["verify", "--scenario", str(path), "--grid-n", "64",
                        "--levels", "2", "--out", str(out)], capsys)
    assert code == 2, err
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["bound:area"]
    area = next(c for c in checks if c["name"] == "bound:area")
    assert area["detail"]["computed"] == "inapplicable"


def test_uncertified_tone_fails_every_check_that_reads_it(tmp_path, capsys):
    # a radius-1000 cylinder keeps every centrifugal floor below the tone,
    # so the walk ends without a pruning certificate: the tone is right
    # to 1e-3, yet no check may pass on it
    from diraclab.eigensolve import UNCERTIFIED
    from diraclab.scenarios import flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    doc = flat_cylinder_scenario(5.0, SpinStructure.NON_BOUNDING).to_json()
    doc["surface"]["warp"]["c"] = 1000.0
    doc["expected"] = [
        {"check": "dirac_tone", "value": math.pi ** 2 / 25, "tol": 1e-3},
        {"check": "tone_attaining_mode", "value": 0.0, "tol": 1e-9},
        {"check": "killing", "applicable": False},
        {"check": "bound_verdict", "bound": "friedrich",
         "verdict": "inapplicable"},
        {"check": "area", "value": 2.0 * math.pi * 5000.0}]
    path = tmp_path / "fat.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code, _, err = run(["verify", "--scenario", str(path), "--grid-n", "64",
                        "--levels", "2", "--out", str(out)], capsys)
    assert code == 2, err
    report = json.loads(out.read_text())
    assert UNCERTIFIED in report["diagnostics"]["dirac_tone"]["flags"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks.pop("area")["passed"]
    for name, check in checks.items():
        assert not check["passed"], name
        assert check["detail"]["flag"] == UNCERTIFIED, name
    tone = checks["dirac_tone"]["detail"]
    assert abs(tone["computed"] - tone["expected"]) <= tone["tol"]


def test_bound_verdict_pins_its_value(tmp_path, capsys):
    # an optional value is compared with the verdict's bound value within
    # 1e-9 relative, scaled by --tol
    from diraclab.scenarios import find_scenario
    doc = find_scenario("round-sphere").to_json()
    friedrich = next(e for e in doc["expected"]
                     if e.get("bound") == "friedrich")
    assert friedrich["value"] == 1.0
    friedrich["value"] = 1.0 + 1e-6
    path = tmp_path / "pinned.json"
    out = tmp_path / "report.json"
    argv = ["verify", "--scenario", str(path), "--grid-n", "64", "--levels",
            "2", "--out", str(out)]
    path.write_text(json.dumps(doc))
    for tol, code in (("1", 2), ("1e4", 0)):
        got, _, err = run([*argv, "--tol", tol], capsys)
        assert got == code, (tol, err)
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    detail = checks["bound:friedrich"]["detail"]
    assert (detail["value"], detail["expected_value"]) == (1.0, 1.0 + 1e-6)
    assert detail["value_tol"] == pytest.approx(1e-5 * (1.0 + 1e-6))
    assert "value" not in checks["bound:lichnerowicz"]["detail"]


def test_friedrich_entry_reads_a_section_statistic():
    from dataclasses import replace

    from diraclab.bounds import SOURCE_UPPER
    from diraclab.cli import run_scenario
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario
    sc = find_scenario("flat-cylinder-l5-nonbounding")
    quotient = next(e for e in sc.expected
                    if e["check"] == "section_rayleigh")
    friedrich = {"check": "bound_verdict", "bound": "friedrich",
                 "verdict": "inapplicable", "statistic": "section",
                 "section": quotient["section"]}
    report = run_scenario(replace(sc, expected=(quotient, friedrich)),
                          GridPolicy(base_n=64, levels=2))
    (verdict,) = report.verdicts
    assert verdict.statistic_source == SOURCE_UPPER
    assert verdict.lambda_star == report.checks[0]["detail"]["computed"]
    assert report.all_expected_match


def test_infinite_area_reads_null_in_every_part_of_a_report(monkeypatch):
    # a diverging area is inf: the geometry summary and the area check
    # write null, and the area bound degenerates
    from dataclasses import replace

    from diraclab import cli, geometry
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario

    def diverges(surface):
        return math.inf
    monkeypatch.setattr(geometry, "area", diverges)
    sc = find_scenario("flat-cylinder-l5-bounding")
    entries = tuple(e for e in sc.expected if e["check"] == "area"
                    or e.get("bound") == "area")
    text = cli.run_scenario(replace(sc, expected=entries),
                            GridPolicy(base_n=64, levels=1)).to_json()
    assert "Infinity" not in text
    doc = json.loads(text)
    assert doc["geometry"]["area"] is None
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["area"]["detail"]["computed"] is None
    assert not checks["area"]["passed"]
    (verdict,) = doc["verdicts"]
    assert (verdict["value"], verdict["verdict"]) == (0.0, "inapplicable")


def test_sweep_rows_are_the_numbers_verify_reports(tmp_path, capsys):
    # at the same --grid-n and --levels, an L row is the area verdict, a k
    # row the lichnerowicz verdict and an N row the laplace_tone of verify
    def verify(sid, *grid):
        out = tmp_path / f"{sid}.json"
        main(["verify", "--scenario", sid, *grid, "--out", str(out)])
        return json.loads(out.read_text())

    def sweep(spec, *grid):
        code, out, err = run(["sweep", "--sweep", spec, *grid,
                              "--format", "json"], capsys)
        assert code == 0, err
        (row,) = json.loads(out)["rows"]
        return row

    grid = ("--grid-n", "128", "--levels", "2")
    area = next(v for v in verify("flat-cylinder-l5-nonbounding",
                                  *grid)["verdicts"] if v["bound"] == "area")
    assert sweep("L=5", *grid) == {
        "L": 5.0, "lambda_star": area["lambda_star"],
        "error_bar": area["error_bar"], "area_bound": area["value"],
        "margin": area["margin"]}
    lich = next(v for v in verify("cover-m2", *grid)["verdicts"]
                if v["bound"] == "lichnerowicz")
    assert sweep("k=2", *grid) == {
        "k": 2, "rayleigh": lich["lambda_star"],
        "lichnerowicz_bound": lich["value"], "margin": lich["margin"]}
    checks = verify("round-sphere", "--grid-n", "64", "--levels", "3")[
        "checks"]
    tone = next(c for c in checks if c["name"] == "laplace_tone")["detail"]
    assert sweep("N=64", "--levels", "3") == {
        "N": 64, "lambda_star": tone["computed"],
        "abs_error": abs(tone["computed"] - tone["expected"])}


def test_a_sweep_row_whose_tone_is_uncertified_exits_two(capsys):
    # (pi/0.04)^2 = 6168 lies above every floor nu^2 up to nu = 63, so the
    # L = 0.04 tone walk ends without a pruning certificate; verify fails
    # every check that reads such a tone, and so does the sweep row.  The
    # rows print as before, and the L = 2 row is not named
    from diraclab.eigensolve import UNCERTIFIED
    grid = ("--grid-n", "64", "--levels", "2")
    code, out, err = run(["sweep", "--sweep", "L=0.04", *grid], capsys)
    assert code == 2, err
    assert out.splitlines()[0] == "L,lambda_star,error_bar,area_bound,margin"
    assert out.splitlines()[1].startswith("0.04,6168.19")
    assert err == f"sweep row L=0.04: its tone is flagged {UNCERTIFIED}\n"
    code, out, err = run(["sweep", "--sweep", "L=2,0.04", *grid,
                          "--format", "json"], capsys)
    assert code == 2
    assert [row["L"] for row in json.loads(out)["rows"]] == [2.0, 0.04]
    assert err.splitlines() == [
        f"sweep row L=0.04: its tone is flagged {UNCERTIFIED}"]
    code, _, err = run(["sweep", "--sweep", "L=2", *grid], capsys)
    assert (code, err) == (0, "")


def test_cli_reaches_tones_and_bounds_only_through_the_scenario_run():
    # every number a verdict or a sweep row prints comes from _ScenarioRun:
    # cli.py solves tones and integrates the area nowhere else, and never
    # evaluates a bound formula itself
    import ast
    path = Path(__file__).resolve().parents[1] / "src" / "diraclab" / "cli.py"
    calls = {}  # callee -> the top-level definitions that call it
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                calls.setdefault(ast.unparse(node.func), set()).add(
                    getattr(top, "name", None))
    assert calls["fundamental_tone"] == {"_ScenarioRun"}
    assert calls["geometry.area"] == {"_ScenarioRun"}
    assert "bounds.area_bound" not in calls
    assert "bounds.friedrich_bound" not in calls


def test_verify_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--scenario", "flat-cylinder-l2-bounding",
            "--grid-n", "64", "--levels", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_user_scenario_file(tmp_path, capsys):
    from diraclab.scenarios import flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    sc = flat_cylinder_scenario(3.0, SpinStructure.BOUNDING)
    path = tmp_path / "user.json"
    path.write_text(json.dumps(sc.to_json()))
    code, _, _ = run(["verify", "--scenario", str(path),
                      "--grid-n", "128", "--levels", "2"], capsys)
    assert code == 0


def test_verify_mismatch_exit_two(tmp_path, capsys):
    from diraclab.scenarios import flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    sc = flat_cylinder_scenario(3.0, SpinStructure.BOUNDING)
    doc = sc.to_json()
    # sabotage one expected value: exit must be 2 (mismatch), not an error
    for e in doc["expected"]:
        if e["check"] == "dirac_tone":
            e["value"] = 99.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(["verify", "--scenario", str(path),
                      "--grid-n", "64", "--levels", "2"], capsys)
    assert code == 2


def test_sweep_length_margin_crossover(capsys):
    code, out, _ = run(["sweep", "--sweep", "L=4.5:5.5:0.25",
                        "--spin", "non-bounding", "--grid-n", "128",
                        "--levels", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    icol = header.index("margin")
    margins = [float(line.split(",")[icol]) for line in lines[1:]]
    signs = [m > 0 for m in margins]
    assert signs[0] and not signs[-1]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1  # single crossover, within one sweep step


def test_sweep_cover_margins(capsys):
    code, out, _ = run(["sweep", "--sweep", "k=1,2,3", "--grid-n", "256"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    margins = [float(r[-1]) for r in rows]
    assert margins[0] == pytest.approx(0.0, abs=5e-4)
    assert margins[1] == pytest.approx(-1.125, abs=1e-3)
    assert margins[2] == pytest.approx(-4.0 / 3.0, abs=1e-3)


def test_sweep_grid_refinement_errors_decrease(capsys):
    code, out, _ = run(["sweep", "--sweep", "N=64,128,256"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    errs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]
    # second-order refinement: each halving shrinks the error ~4x
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_sweep_empty_range_usage_error(capsys, monkeypatch):
    # every value is checked before a row is computed
    from diraclab import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the range check")
    monkeypatch.setattr(cli, "fundamental_tone", no_solve)
    monkeypatch.setattr(cli, "_ScenarioRun", no_solve)
    code, _, _ = run(["sweep", "--sweep", "L="], capsys)
    assert code == 64
    code, _, _ = run(["sweep", "--sweep", "L=5:4:1"], capsys)
    assert code == 64
    # non-numbers, non-finite values, out-of-range rows and grid flags
    for argv in (["--sweep", "L=a:b:c"], ["--sweep", "k=1,x"],
                 ["--sweep", "k=nan"], ["--sweep", "N=nan"],
                 ["--sweep", "L=0"], ["--sweep", "L=-1"],
                 ["--sweep", "L=nan"], ["--sweep", "L=inf"],
                 ["--sweep", "N=8"], ["--sweep", "L=5", "--grid-n", "8"],
                 ["--sweep", "L=5", "--levels", "0"],
                 ["--sweep", "N=256,8"], ["--sweep", "L=5,-1"],
                 ["--sweep", "k=1,0"], ["--sweep", "N=64", "--grid-n", "128"],
                 ["--sweep", "k=1.5"], ["--sweep", "k=1:3:0.5"],
                 ["--sweep", "N=100.5"], ["--sweep", "L=1:2:1e-12"],
                 ["--sweep", "L=-1e308:1e308:1"]):
        code, _, err = run(["sweep", *argv], capsys)
        assert (code, err.startswith("usage error")) == (64, True), argv


def test_report_merge_union_and_duplicate_warning(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["verify", "--scenario", "flat-cylinder-l2-bounding",
          "--grid-n", "64", "--levels", "2", "--out", str(a)])
    main(["verify", "--scenario", "flat-cylinder-l2-nonbounding",
          "--grid-n", "64", "--levels", "2", "--out", str(b)])
    capsys.readouterr()
    code, out, err = run(["report", str(a), str(b), "--format", "csv"],
                         capsys)
    assert code == 0
    assert "flat-cylinder-l2-bounding" in out
    assert "flat-cylinder-l2-nonbounding" in out
    # later duplicate wins with a warning
    code, out, err = run(["report", str(a), str(a), "--format", "csv"],
                         capsys)
    assert code == 0
    assert "duplicate scenario" in err


def test_report_schema_version_mismatch(tmp_path, capsys):
    # a wrong version, invalid JSON, a non-object and a missing key are all
    # schema errors
    bad = tmp_path / "bad.json"
    for text in (json.dumps({"schema_version": 99}), "{not json",
                 json.dumps([1, 2]), json.dumps({"schema_version": 2})):
        bad.write_text(text)
        code, _, err = run(["report", str(bad)], capsys)
        assert code == 1, text
        assert err.startswith("schema error:"), err
    assert "'scenario'" in err  # the missing key is named


def test_report_with_nan_or_infinity_tokens_is_schema_error(tmp_path,
                                                           capsys):
    # NaN and Infinity are not JSON: a report that carries them is refused
    # with the token named, never merged and written back
    good = tmp_path / "good.json"
    main(["verify", "--scenario", "flat-cylinder-l2-bounding",
          "--grid-n", "64", "--levels", "2", "--out", str(good)])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    for part, key, value, token in (
            ("verdicts", "margin", float("nan"), "NaN"),
            ("geometry", "area", float("inf"), "Infinity"),
            ("geometry", "area", -float("inf"), "-Infinity")):
        doc = json.loads(good.read_text())
        (doc[part] if part == "geometry" else doc[part][0])[key] = value
        bad.write_text(json.dumps(doc))
        code, out, err = run(["report", str(bad), "--format", "json"],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith("schema error:") and repr(token) in err, err


def test_report_missing_nested_key_is_schema_error(tmp_path, capsys):
    # each key the merge, csv and pretty formats read is checked on load
    good = tmp_path / "good.json"
    main(["verify", "--scenario", "flat-cylinder-l2-bounding",
          "--grid-n", "64", "--levels", "2", "--out", str(good)])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    for part, key in (("geometry", "spin"), ("verdicts", "margin"),
                      ("checks", "passed")):
        doc = json.loads(good.read_text())
        del (doc[part] if part == "geometry" else doc[part][0])[key]
        bad.write_text(json.dumps(doc))
        code, _, err = run(["report", str(bad), "--format", "csv"], capsys)
        assert code == 1 and err.startswith("schema error:"), err
        assert f"report {part}" in err and repr(key) in err, err


def test_verify_csv_and_pretty_formats(tmp_path, capsys):
    from diraclab.bounds import reports_to_csv
    outs = {}
    for fmt in ("json", "csv", "pretty"):
        code, outs[fmt], _ = run(["verify", "--scenario", "round-sphere",
                                  "--format", fmt], capsys)
        assert code == 0, fmt
    doc = json.loads(outs["json"])
    assert outs["csv"] == reports_to_csv([doc])
    assert outs["csv"].splitlines()[1].startswith("round-sphere,")
    lines = outs["pretty"].splitlines()
    assert lines[0] == "scenario: round-sphere"
    assert lines[1] == (f"  area={doc['geometry']['area']}  "
                        f"kappa_spinor=0.5  spin=bounding")
    assert lines[-1] == "  all_expected_match: True"
    assert len(lines) == 3 + len(doc["verdicts"]) + len(doc["checks"])


def test_verify_renders_what_report_renders_for_its_json(tmp_path, capsys):
    # verify's csv and pretty formats are report's over verify's own JSON
    # text, for every built-in, whatever its exit code
    from diraclab.scenarios import builtin_catalog
    for sc in builtin_catalog():
        ladder = ["--scenario", sc.id, "--grid-n", "64", "--levels", "2"]
        code, text, _ = run(["verify", *ladder], capsys)
        path = tmp_path / f"{sc.id}.json"
        path.write_text(text)
        for fmt in ("csv", "pretty"):
            got = run(["verify", *ladder, "--format", fmt], capsys)
            want = run(["report", str(path), "--format", fmt], capsys)
            assert got == (code, want[1], ""), (sc.id, fmt)


def test_report_pretty_prints_null_numbers_as_na(tmp_path, capsys):
    # any number in a report may be null (the one null rule)
    path = tmp_path / "nulls.json"
    main(["verify", "--scenario", "flat-cylinder-l2-bounding",
          "--grid-n", "64", "--levels", "2", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["geometry"].update(area=None, kappa_spinor=None)
    path.write_text(json.dumps(doc))
    code, out, err = run(["report", str(path), "--format", "pretty"], capsys)
    assert code == 0, err
    assert "  area=n/a  kappa_spinor=n/a  spin=" in out


def test_report_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(["report", str(tmp_path / "absent.json")], capsys)
    assert code == 64
    assert "report file not found" in err


def test_unreadable_paths_are_usage_errors(tmp_path, capsys):
    # a directory to read, a non-UTF-8 file and an output path in a missing
    # directory each exit 64 naming the path; a non-UTF-8 report is a
    # report that is not valid JSON
    folder = tmp_path / "folder.json"
    folder.mkdir()
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"id": "caf\u00e9"}'.encode("latin-1"))
    out = tmp_path / "missing" / "x.json"
    for argv, path in ((["report", str(tmp_path)], tmp_path),
                       (["verify", "--scenario", str(folder)], folder),
                       (["verify", "--scenario", str(latin)], latin),
                       (["verify", "--scenario", "round-sphere", "--grid-n",
                         "64", "--levels", "2", "--out", str(out)], out)):
        code, _, err = run(argv, capsys)
        assert (code, err.startswith("usage error")) == (64, True), argv
        assert str(path) in err, err
    code, _, err = run(["report", str(latin)], capsys)
    assert code == 1
    assert err.startswith("schema error: report is not valid JSON"), err


def test_unwritable_out_exits_before_any_work(tmp_path, capsys, monkeypatch):
    # verify, sweep and report check --out before they solve or read:
    # a missing parent, a parent that is a file, a directory, and (where
    # permission bits bind the caller) a read-only parent each exit 64
    # naming the path
    from diraclab import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    for name in ("run_scenario", "_ScenarioRun", "_read_input"):
        monkeypatch.setattr(cli, name, no_work)
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    outs = [tmp_path / "missing" / "x.json", plain / "x.json", tmp_path]
    if not os.access(locked, os.W_OK):
        outs.append(locked / "x.json")
    commands = (["verify", "--scenario", "round-sphere", "--grid-n", "32768",
                 "--levels", "4"],
                ["sweep", "--sweep", "N=64,128"],
                ["report", str(plain)])
    try:
        for argv in commands:
            for out in outs:
                code, _, err = run(argv + ["--out", str(out)], capsys)
                assert code == 64, (argv, out)
                want = f"usage error: cannot write {out}: "
                assert err.startswith(want), err
    finally:
        locked.chmod(0o700)


def test_cover_m1_passes_at_128_nodes(capsys):
    # the section norm and the Rayleigh quotient share one node quadrature
    code, _, _ = run(["verify", "--scenario", "cover-m1", "--grid-n", "128"],
                     capsys)
    assert code == 0


# one valid entry per check kind, and the keys each one cannot do without
VALID_ENTRIES = {
    "area": {"value": 1.0},
    "kappa_spinor": {"value": 0.0, "tol": 1e-9},
    "laplace_tone": {"value": 1.0, "tol": 1e-3},
    "dirac_tone": {"value": 1.0, "tol": 1e-3},
    "tone_attaining_mode": {"value": 0.0, "tol": 1e-9},
    "section_norm2": {"section": "dirichlet_sine", "value": 1.0,
                      "tol": 1e-6},
    "section_rayleigh": {"section": "dirichlet_sine", "value": 1.0,
                         "tol": 1e-3},
    "orthogonality": {"section": "dirichlet_sine", "max_abs": 1e-12},
    "bound_verdict": {"bound": "area", "verdict": "holds"},
    "killing": {"max_norm_variation": 1e-2, "max_bochner_ratio": 1e-2},
    "probe": {"windows": [[0.0, 1.0], [0.0, 2.0]], "threshold": 0.1,
              "behavior": "stable"},
}
MISSING_KEY_CASES = [
    pytest.param({"check": check, **{k: v for k, v in entry.items()
                                     if k != key}}, key,
                 id=f"{check}-without-{key}")
    for check, entry in VALID_ENTRIES.items() for key in entry
]
OTHER_CASES = [
    pytest.param({"value": 1.0}, "check", id="no-check"),
    pytest.param({"check": "dirac_tone", "value": "x", "tol": 1e-3},
                 "value", id="non-numeric-value"),
    pytest.param({"check": "probe", "windows": "x", "threshold": 0.1,
                  "behavior": "stable"}, "windows", id="bad-windows"),
    pytest.param({"check": "no_such_check"}, "no_such_check",
                 id="unknown-check"),
    pytest.param({"check": ["area"]}, "area", id="list-as-check"),
    pytest.param({"check": "bound_verdict", "bound": "no_such_bound",
                  "verdict": "holds"}, "no_such_bound", id="unknown-bound"),
    pytest.param({"check": "bound_verdict", "bound": ["area"],
                  "verdict": "holds"}, "area", id="list-as-bound"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "holds", "statistic": "section"}, "section",
                 id="section-statistic-without-section"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "holds", "statistic": "tone",
                  "section": "dirichlet_sine"}, "section",
                 id="tone-statistic-with-section"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "holds", "section": "dirichlet_sine"},
                 "section", id="section-without-statistic"),
    pytest.param({"check": "section_norm2", "section": "undeclared",
                  "value": 1.0, "tol": 1e-6}, "undeclared",
                 id="undeclared-section"),
    pytest.param({"check": "probe", "operator": "dirac", "windows": [[0, 1]],
                  "threshold": 0.1, "behavior": "stable"}, "operator",
                 id="unknown-operator"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "holds", "statistic": "mean"}, "statistic",
                 id="unknown-statistic"),
    pytest.param({"check": "probe", "windows": [[0, 1]], "threshold": 0.1,
                  "behavior": "shrinking"}, "behavior",
                 id="unknown-behavior"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "fails"}, "verdict", id="unknown-verdict"),
    pytest.param({"check": "killing", "applicable": "false"}, "applicable",
                 id="string-as-applicable"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "holds", "predicted": "false"}, "predicted",
                 id="string-as-predicted"),
    pytest.param({"check": "dirac_tone", "value": float("nan"), "tol": 1e-3},
                 "value", id="nan-value"),
    pytest.param({"check": "dirac_tone", "value": 1.0, "tol": float("inf")},
                 "tol", id="infinite-tol"),
    pytest.param({"check": "probe", "windows": [], "threshold": 0.1,
                  "behavior": "stable"}, "windows", id="empty-windows"),
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"],
                  "counts": [0]}, "counts", id="one-count-for-two-windows"),
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"],
                  "counts": [0, -1]}, "counts", id="negative-count"),
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"],
                  "counts": [0, 2.0]}, "counts", id="fractional-count"),
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"],
                  "counts": [0, True]}, "counts", id="boolean-count"),
    pytest.param({"check": "bound_verdict", "bound": "essential",
                  "verdict": "holds", "statistic": "tone",
                  "predicted": True}, "statistic",
                 id="essential-with-statistic"),
    pytest.param({"check": "area", "value": 1.0, "tol": 1e9}, "tol",
                 id="area-with-tol"),
    # a limit below 0 admits no value
    pytest.param({"check": "laplace_tone", "value": 2.4674, "tol": -1e-3},
                 "tol", id="negative-tol"),
    pytest.param({"check": "area", "value": 1.0, "rel_tol": -1e-9},
                 "rel_tol", id="negative-rel-tol"),
    pytest.param({"check": "orthogonality", "section": "dirichlet_sine",
                  "max_abs": -1e-12}, "max_abs", id="negative-max-abs"),
    pytest.param({"check": "killing", "max_norm_variation": -1e-2,
                  "max_bochner_ratio": 1e-2}, "max_norm_variation",
                 id="negative-max-norm-variation"),
    pytest.param({"check": "killing", "max_norm_variation": 1e-2,
                  "max_bochner_ratio": -1e-2}, "max_bochner_ratio",
                 id="negative-max-bochner-ratio"),
    pytest.param({"check": "dirac_tone", "value": 1.0, "tol": 1e-3,
                  "rel_tol": 1e9}, "rel_tol", id="tone-with-rel-tol"),
    # no eigenvalue lies at or below 0, so every count would be 0 and
    # stable
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"],
                  "threshold": -1.0}, "threshold", id="negative-threshold"),
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"],
                  "threshold": 0}, "threshold", id="zero-threshold"),
    pytest.param({"check": "bound_verdict", "bound": "lichnerowicz",
                  "verdict": "violated-as-predicted", "statistic": "section",
                  "section": "dirichlet_sine", "predicated": True},
                 "predicated", id="misspelled-predicted"),
    pytest.param({"check": "bound_verdict", "bound": "lichnerowicz",
                  "verdict": "holds", "statistc": "section",
                  "section": "dirichlet_sine"}, "statistc",
                 id="misspelled-statistic"),
    pytest.param({"check": "probe", "operater": "laplacian_scalar",
                  "windows": [[0, 1]], "threshold": 0.1,
                  "behavior": "growing"}, "operater",
                 id="misspelled-operator"),
    pytest.param({"check": "killing", "applicable": False,
                  "max_norm_variation": 1e-2}, "max_norm_variation",
                 id="inapplicable-killing-with-a-limit"),
    # the probe window rule, on the flat cylinder t in [0, 3]
    pytest.param({"check": "probe", "windows": [[2, 0], [0, 3]],
                  "threshold": 0.1, "behavior": "stable"}, "windows",
                 id="reversed-window"),
    pytest.param({"check": "probe", "windows": [[0, 3], [0, 2]],
                  "threshold": 0.1, "behavior": "stable"}, "windows",
                 id="shrinking-windows"),
    pytest.param({"check": "probe", "windows": [[0, 2], [0, 4]],
                  "threshold": 0.1, "behavior": "growing"}, "windows",
                 id="window-past-the-surface"),
    # at the first window's spacing the second would need 1538999999 nodes
    pytest.param({"check": "probe", "windows": [[0, 1e-6], [0, 3]],
                  "threshold": 0.1, "behavior": "growing"}, "windows",
                 id="window-above-the-node-cap"),
]


def _edit(path, value):
    """A document edit: set the item at `path` of the document to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


# defects outside the expected list, given as document edits
DOCUMENT_CASES = [
    pytest.param(_edit(("surface", "t_min"), 5.0), "surface",
                 id="t-min-above-t-max"),
    pytest.param(_edit(("sections", 0, "profile"), "nope"), "nope",
                 id="unknown-section-profile"),
    pytest.param(_edit(("sections", 0, "field_kind"), "nope"), "nope",
                 id="unknown-field-kind"),
    pytest.param(_edit(("sections", 0, "params"), {"length": 3.0}), "t0",
                 id="boxed-sine-without-t0"),
    pytest.param(_edit(("sections", 0, "params"),
                       {"t0": 0.0, "length": "x"}), "length",
                 id="boxed-sine-non-numeric-length"),
    pytest.param(_edit(("surface", "warp"),
                       {"variant": "tabulated", "ts": [0.0, 1.0, 2.0, 3.0],
                        "fs": [1.0, float("nan"), 1.0, 1.0]}), "surface",
                 id="tabulated-warp-with-nan"),
    pytest.param(_edit(("spin",), "sideways"), "spin",
                 id="unknown-spin-structure"),
    pytest.param(_edit(("sections", 0, "angular"), "quarter_period"),
                 "angular", id="unknown-section-angular"),
    pytest.param(_edit(("sections", 0, "mode"), float("nan")), "mode",
                 id="nan-section-mode"),
    pytest.param(_edit(("sections", 0, "params"),
                       {"t0": float("nan"), "length": 3.0}), "t0",
                 id="boxed-sine-nan-t0"),
    pytest.param(_edit(("sections", 0, "params"),
                       {"t0": 0.0, "length": float("inf")}), "length",
                 id="boxed-sine-infinite-length"),
    pytest.param(_edit(("sections", 0, "params"),
                       {"t0": 0.0, "length": 0.0}), "length",
                 id="boxed-sine-zero-length"),
    pytest.param(_edit(("surface", "end_labels"), ["boundary"]),
                 "end_labels", id="one-end-label"),
    pytest.param(_edit(("surface", "period"), float("inf")), "period",
                 id="infinite-period"),
    pytest.param(_edit(("surface", "warp", "c"), float("inf")), "c",
                 id="infinite-warp-c"),
    pytest.param(_edit(("surface",), {
        "schema_version": 1, "warp": {"variant": "constant", "c": 1.0},
        "t_min": 0.0, "t_max": float("inf"), "period": 1.0,
        "end_labels": ["incomplete-boundary", "cusp-complete"]}), "t_max",
                 id="infinite-t-max-at-a-cusp"),
    pytest.param(_edit(("surface", "period"), "7"), "period",
                 id="string-period"),
    # the round sphere's cosine warp is negative on [2, 4]
    pytest.param(_edit(("surface",), {
        "schema_version": 1, "warp": {"variant": "cosine"}, "t_min": 2.0,
        "t_max": 4.0, "period": 2 * math.pi,
        "end_labels": ["incomplete-boundary", "incomplete-boundary"]}),
                 "surface", id="warp-negative-on-the-interval"),
    pytest.param(_edit(("surface",), {
        "schema_version": 1, "warp": {"variant": "cosine"}, "t_min": -1.5,
        "t_max": 2.0, "period": 2 * math.pi,
        "end_labels": ["incomplete-boundary", "incomplete-boundary"]}),
                 "surface", id="cosine-warp-past-its-lobe"),
    # every sample is positive, yet the spline dips to -1.19 near t = 1.39
    pytest.param(_edit(("surface", "warp"), {
        "variant": "tabulated", "ts": [0.0, 1.0, 1.1, 2.0, 3.0, 4.0],
        "fs": [1.0, 1.0, 0.001, 1.0, 1.0, 1.0]}), "surface",
                 id="tabulated-warp-dipping-below-zero"),
    # 0.3 is off the non-bounding spinor lattice Z of period 2 pi
    pytest.param(_edit(("sections", 0, "mode"), 0.3), "dirichlet_sine",
                 id="section-mode-off-the-spinor-lattice"),
    pytest.param(_edit(("sections", 0, "mode"), "0"), "mode",
                 id="string-section-mode"),
    pytest.param(_edit(("sections", 0, "mode"), True), "mode",
                 id="boolean-section-mode"),
    pytest.param(_edit(("id",), 5), "id", id="numeric-id"),
    pytest.param(_edit(("sections", 0, "name"), 7), "name",
                 id="numeric-section-name"),
    pytest.param(_edit(("expected",), [{
        "check": "section_norm2", "section": 7, "value": 1.0,
        "tol": 1e-6}]), "section", id="numeric-entry-section"),
    pytest.param(_edit(("description",), ["a", "list"]), "description",
                 id="list-description"),
    # a boxed sine whose support misses the cylinder's (0, 3) is the zero
    # section, whose norm and orthogonality checks would pass vacuously
    pytest.param(_edit(("sections", 0, "params"),
                       {"t0": 100.0, "length": 1.0}), "dirichlet_sine",
                 id="section-outside-its-surface"),
    pytest.param(_edit(("sections", 0, "params"),
                       {"t0": -1.0, "length": 1.0}), "dirichlet_sine",
                 id="section-ending-at-t-min"),
]


def _nothing_solved(monkeypatch):
    import diraclab.cli as cli

    def boom(*args, **kwargs):
        raise AssertionError("a tone was solved before validation")
    monkeypatch.setattr(cli, "fundamental_tone", boom)


@pytest.mark.parametrize("entry,key",
                         MISSING_KEY_CASES + OTHER_CASES + DOCUMENT_CASES)
def test_malformed_scenario_is_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch, entry, key):
    from diraclab.scenarios import flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    _nothing_solved(monkeypatch)
    doc = flat_cylinder_scenario(3.0, SpinStructure.NON_BOUNDING).to_json()
    # a valid tone check first: skipping validation would solve it
    doc["expected"] = [{"check": "dirac_tone", "value": 1.0, "tol": 1e-3}]
    if callable(entry):
        entry(doc)
    else:
        doc["expected"].append(entry)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path)], capsys)
    assert code == 64, err
    assert err.startswith("usage error:")
    assert repr(key) in err


@pytest.mark.parametrize("entry", [
    {"check": "section_rayleigh", "section": "dirichlet_sine", "value": 1.0,
     "tol": 1e-3},
    {"check": "bound_verdict", "bound": "area", "verdict": "holds",
     "statistic": "section", "section": "dirichlet_sine"},
], ids=["section-rayleigh", "bound-statistic"])
def test_a_section_zero_at_every_node_is_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch, entry):
    # the support (2.999, 3.999) meets the cylinder's (0, 3), but no node of
    # the 64-node grid (h = 3/65) lies in it: a Rayleigh quotient without a
    # norm, which exited 1 mid-run
    from diraclab.scenarios import flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    _nothing_solved(monkeypatch)
    doc = flat_cylinder_scenario(3.0, SpinStructure.NON_BOUNDING).to_json()
    doc["expected"] = [{"check": "dirac_tone", "value": 1.0, "tol": 1e-3},
                       entry]
    doc["sections"][0]["params"] = {"t0": 2.999, "length": 1.0}
    path = tmp_path / "zero-section.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path), "--grid-n", "64",
                        "--levels", "2"], capsys)
    assert code == 64, err
    assert err.startswith("usage error:")
    assert "'dirichlet_sine'" in err and "n = 64" in err


def _edit_section(name, key, value):
    """A document edit: set key of the named section, or of its params."""
    def edit(doc):
        spec = next(s for s in doc["sections"] if s["name"] == name)
        (spec["params"] if key in spec["params"] else spec)[key] = value
    return edit


# finite documents whose numbers overflow or underflow downstream, and
# exited 1: a period whose lattice step 2 pi/P is inf (its lattice modes
# came out NaN), a mode whose square is inf in the Laplacian's
# centrifugal term, and a boxed sine so long that its node values (about
# 1e-299) square to 0, so the Rayleigh quotient divided by a zero norm
OUT_OF_RANGE_CASES = [
    pytest.param("cover-m2", _edit(("surface", "period"), 1e-308),
                 "'surface'", id="period-with-an-infinite-lattice-step"),
    pytest.param("cover-m2", _edit_section("f_k", "mode", 1e300), "'f_k'",
                 id="section-mode-with-an-infinite-square"),
    pytest.param("cusp-cylinder-l10",
                 _edit_section("dirichlet_sine", "length", 1e300),
                 "'dirichlet_sine'", id="section-whose-squares-underflow"),
    # a JSON integer beyond the float range, which float() cannot convert
    pytest.param("cover-m2", _edit(("surface", "period"), 10 ** 400),
                 "'period'", id="period-beyond-the-float-range"),
    pytest.param("cover-m2", _edit_section("f_k", "mode", 10 ** 400),
                 "'mode'", id="section-mode-beyond-the-float-range"),
    pytest.param("cover-m2", _edit(("expected", 0, "value"), 10 ** 400),
                 "'value'", id="expected-value-beyond-the-float-range"),
    pytest.param("cusp-cylinder-l10",
                 _edit(("surface", "warp", "fs", 1), -10 ** 400),
                 "'surface'", id="tabulated-sample-beyond-the-float-range"),
    # a warp whose square or reciprocal square leaves the float range,
    # where the spinor floor reads nu^2 / f^2 (overflow and divide by zero
    # warnings, then exit 1)
    pytest.param("flat-cylinder-l2-bounding",
                 _edit(("surface", "warp", "c"), 1e300), "'surface'",
                 id="constant-warp-whose-square-overflows"),
    pytest.param("long-cylinder-probe",
                 _edit(("surface", "warp", "c"), 1e-308), "'surface'",
                 id="constant-warp-whose-square-underflows"),
    pytest.param("growing-curvature",
                 _edit(("surface", "warp", "fs", 1), 1e300), "'surface'",
                 id="tabulated-sample-whose-spline-overflows"),
    pytest.param("cusp-cylinder-l10", _edit(("surface", "t_max"), 1e300),
                 "'surface'", id="tabulated-warp-extrapolated-to-overflow"),
    # a boxed sine whose phase overflows off its short support
    pytest.param("flat-cylinder-l2-nonbounding",
                 _edit_section("dirichlet_sine", "length", 1e-308),
                 "'dirichlet_sine'", id="boxed-sine-of-subnormal-length"),
    # a first probe window so short that the next needs infinitely many
    # nodes at its spacing
    pytest.param("long-cylinder-probe",
                 _edit(("expected", 0, "windows", 0, 1), 1e-308),
                 "'windows'", id="probe-window-of-subnormal-length"),
]


@pytest.mark.parametrize("sid,edit,named", OUT_OF_RANGE_CASES)
def test_a_document_out_of_floating_range_is_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch, sid, edit, named):
    from diraclab.scenarios import find_scenario
    _nothing_solved(monkeypatch)
    # a deep copy: to_json shares the built-in's nested lists
    doc = json.loads(json.dumps(find_scenario(sid).to_json()))
    edit(doc)
    path = tmp_path / "out-of-range.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path), "--grid-n", "64",
                        "--levels", "2"], capsys)
    assert code == 64, err
    assert err.startswith("usage error:")
    assert named in err


def test_a_json_integer_past_the_digit_limit_is_not_valid_json(tmp_path,
                                                                capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal of more than 4300 digits: a scenario document exited
    # 1 with an internal error, and so did a report
    from diraclab.scenarios import find_scenario
    huge = "1" + "0" * 5000
    doc = find_scenario("cover-m2").to_json()
    doc["surface"]["period"] = "PERIOD"
    scenario = tmp_path / "huge-period.json"
    scenario.write_text(json.dumps(doc).replace('"PERIOD"', huge))
    code, _, err = run(["verify", "--scenario", str(scenario), "--grid-n",
                        "16", "--levels", "1"], capsys)
    assert code == 64, err
    assert err.startswith("usage error:") and str(scenario) in err
    report = tmp_path / "huge-version.json"
    report.write_text('{"schema_version": %s}' % huge)
    code, _, err = run(["report", str(report)], capsys)
    assert code == 1
    assert err.startswith("schema error: report is not valid JSON"), err


# A single-field fuzzer: each leaf of a built-in document, and the first
# two items of each list, set to one of these values or deleted (_DELETE)
FUZZ_VALUES = [None, True, "x", [], {}, 0, -1, 0.0, -0.0, 1e-308, 1e300,
               10 ** 400, -10 ** 400, 2 ** 63, 1.5]
_DELETE = object()


def _fuzz_targets(doc, path=()):
    """The paths of every leaf of doc and of the first two items of each
    list, depth first."""
    items = doc.items() if isinstance(doc, dict) else list(enumerate(doc))[:2]
    for key, value in items:
        nested = isinstance(value, (dict, list))
        if isinstance(doc, list) or not nested:
            yield path + (key,)
        if nested:
            yield from _fuzz_targets(value, path + (key,))


def _mutated(doc, path, value):
    """A copy of doc with the item at path set to value, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_no_single_field_mutation_of_a_document_is_an_internal_error(
        tmp_path, capsys):
    # every mutation of one built-in per warp variant, section profile and
    # probe kind (cosine and cos_cap, constant and boxed_sine, tabulated and
    # a Dirac probe), and a seeded draw of 16 mutations of each other
    # built-in, at 16 x 1 and with warnings as errors: each exits 0, 2 or
    # 64, or 1 with a solver error (flat bounding cylinders of t_max 1e300,
    # 2^63 or 1e-308 keep that), never an internal error
    import random

    from diraclab.scenarios import builtin_catalog
    full = {"cover-m2", "flat-cylinder-l2-nonbounding", "growing-curvature"}
    draw = random.Random(22)
    path = tmp_path / "mutated.json"
    bad, runs = [], 0
    for sc in builtin_catalog():
        doc = sc.to_json()
        cases = [(target, value) for target in _fuzz_targets(doc)
                 for value in FUZZ_VALUES + [_DELETE]]
        if sc.id not in full:
            cases = draw.sample(cases, 16)
        for target, value in cases:
            path.write_text(json.dumps(_mutated(doc, target, value)))
            code, _, err = run(["verify", "--scenario", str(path),
                                "--grid-n", "16", "--levels", "1"], capsys)
            runs += 1
            if code not in (0, 2, 64) and not (
                    code == 1 and err.startswith("error: ")):
                bad.append((sc.id, target, value, code, err))
    assert runs == 432 + 464 + 384 + 11 * 16
    assert bad == []


@pytest.mark.parametrize("sid,edge", [("cover-m2", ("t_min", 0.0)),
                                      ("cover-m3", ("t_max", -1.0))],
                         ids=["hemisphere", "cap"])
@pytest.mark.parametrize("levels", ["1", "2", "3"])
def test_a_16_node_ladder_certifies_a_hemisphere_and_a_cap(
        tmp_path, capsys, sid, edge, levels):
    # legal surfaces whose 16-node level 0 bisects a value on one of its
    # eigenvalues to the last bit; they mismatch (exit 2), since their
    # expected values are the whole sphere's
    from diraclab.scenarios import find_scenario
    doc = find_scenario(sid).to_json()
    doc["surface"][edge[0]] = edge[1]
    path = tmp_path / "part.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", "--scenario", str(path), "--grid-n",
                          "16", "--levels", levels], capsys)
    assert (code, err) == (2, "")
    assert json.loads(out)["all_expected_match"] is False


# entries of a scenario without spin: the Dirac operator runs (True) or
# not (False); scalar_sine is a laplacian_scalar section, dirichlet_sine
# a dirac_square one
SPIN_FREE_CASES = [
    pytest.param({"check": "dirac_tone", "value": 1.0, "tol": 1e-3}, True,
                 id="dirac-tone"),
    pytest.param({"check": "tone_attaining_mode", "value": 0.0,
                  "tol": 1e-9}, True, id="tone-attaining-mode"),
    pytest.param({"check": "killing", "applicable": False}, True,
                 id="killing"),
    pytest.param({"check": "probe", **VALID_ENTRIES["probe"]}, True,
                 id="default-probe"),
    pytest.param({"check": "probe", "operator": "dirac_square",
                  **VALID_ENTRIES["probe"]}, True, id="dirac-probe"),
    pytest.param({"check": "bound_verdict", "bound": "friedrich",
                  "verdict": "holds"}, True, id="friedrich-tone"),
    pytest.param({"check": "bound_verdict", "bound": "area",
                  "verdict": "holds", "statistic": "tone"}, True,
                 id="area-tone"),
    pytest.param({"check": "section_rayleigh", "section": "dirichlet_sine",
                  "value": 1.0, "tol": 1e-3}, True, id="dirac-rayleigh"),
    pytest.param({"check": "laplace_tone", "value": 1.0, "tol": 1e-3}, False,
                 id="laplace-tone"),
    pytest.param({"check": "probe", "operator": "laplacian_scalar",
                  **VALID_ENTRIES["probe"]}, False, id="laplace-probe"),
    pytest.param({"check": "bound_verdict", "bound": "lichnerowicz",
                  "verdict": "holds"}, False, id="lichnerowicz-tone"),
    pytest.param({"check": "bound_verdict", "bound": "essential",
                  "verdict": "holds"}, True, id="essential"),
    pytest.param({"check": "section_rayleigh", "section": "scalar_sine",
                  "value": 1.0, "tol": 1e-3}, False, id="scalar-rayleigh"),
    pytest.param({"check": "section_norm2", "section": "dirichlet_sine",
                  "value": 1.0, "tol": 1e-6}, False, id="dirac-norm"),
]


@pytest.mark.parametrize("entry,runs_dirac", SPIN_FREE_CASES)
def test_a_dirac_entry_without_spin_is_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch, entry, runs_dirac):
    from diraclab import cli
    from diraclab.scenarios import flat_cylinder_scenario, scenario_from_json
    from diraclab.spin import SpinStructure
    _nothing_solved(monkeypatch)
    doc = flat_cylinder_scenario(3.0, SpinStructure.NON_BOUNDING).to_json()
    del doc["spin"]
    doc["sections"].append({**doc["sections"][0], "name": "scalar_sine",
                            "field_kind": "laplacian_scalar"})
    doc["expected"] = [{"check": "area", "value": 1.0}, entry]
    if not runs_dirac:
        cli._validate_expected(scenario_from_json(doc))
        return
    path = tmp_path / "spinless.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path)], capsys)
    assert code == 64, err
    assert err.startswith("usage error:")
    assert "expected[1]" in err and "needs a spin structure" in err


# bound entries whose section is not one of the operator the bound is
# about: on the spinless cylinder of SPIN_FREE_CASES (sid None), and on
# built-ins whose verdict would otherwise read the wrong operator
WRONG_OPERATOR_CASES = [
    pytest.param(None, "area", "scalar_sine", id="area-scalar-section"),
    pytest.param(None, "lichnerowicz", "dirichlet_sine",
                 id="lichnerowicz-dirac-section"),
    pytest.param("cover-m2", "friedrich", "f_k", id="cover-m2-friedrich"),
    pytest.param("cover-m2", "area", "f_k", id="cover-m2-area"),
    pytest.param("flat-cylinder-l5-nonbounding", "lichnerowicz",
                 "dirichlet_sine", id="nonbounding-cylinder-lichnerowicz"),
]


@pytest.mark.parametrize("sid,bound,section", WRONG_OPERATOR_CASES)
def test_a_bound_reads_only_a_section_of_its_operator(
        tmp_path, capsys, monkeypatch, sid, bound, section):
    # friedrich, area and essential bound D^2 and lichnerowicz the function
    # Laplacian: a section of the other operator is no statistic for them
    from diraclab import bounds
    from diraclab.scenarios import find_scenario, flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    _nothing_solved(monkeypatch)
    if sid is None:
        doc = flat_cylinder_scenario(3.0,
                                     SpinStructure.NON_BOUNDING).to_json()
        del doc["spin"]
        doc["sections"].append({**doc["sections"][0], "name": "scalar_sine",
                                "field_kind": "laplacian_scalar"})
    else:
        doc = find_scenario(sid).to_json()
    doc["expected"] = [{"check": "area", "value": 1.0}, {
        "check": "bound_verdict", "bound": bound, "verdict": "holds",
        "statistic": "section", "section": section}]
    path = tmp_path / "wrong-operator.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path)], capsys)
    assert code == 64, err
    kind = next(s["field_kind"] for s in doc["sections"]
                if s["name"] == section)
    assert err.startswith("usage error:") and "expected[1]" in err
    for word in (repr(bound), bounds.BOUND_OPERATORS[bound], repr(section),
                 kind):
        assert word in err


def test_each_bound_names_the_operator_it_bounds():
    from diraclab import bounds, cli
    from diraclab.operators import KIND_DIRAC, KIND_LAPLACIAN
    assert set(bounds.BOUND_OPERATORS) == set(cli.BOUNDS)
    assert set(bounds.BOUND_OPERATORS.values()) == {KIND_DIRAC,
                                                     KIND_LAPLACIAN}


def test_the_essential_bound_probes_the_operator_of_its_table_entry(
        monkeypatch):
    # on the growing-curvature profile with both ends labeled complete, so
    # that the check probes
    from dataclasses import replace

    from diraclab import bounds, cli
    from diraclab.eigensolve import GridPolicy, ProbeResult
    from diraclab.geometry import END_CUSP
    from diraclab.operators import KIND_LAPLACIAN
    from diraclab.scenarios import find_scenario
    kinds = []

    def probe(surface, kind, spin, windows, threshold):
        kinds.append(kind)
        return ProbeResult(threshold=threshold, windows=windows,
                           counts=[1, 1, 1], stable=True)
    monkeypatch.setattr(bounds, "truncation_probe", probe)
    monkeypatch.setitem(bounds.BOUND_OPERATORS, "essential", KIND_LAPLACIAN)
    sc = find_scenario("growing-curvature")
    sc = replace(sc, surface=replace(sc.surface,
                                     end_labels=(END_CUSP,) * 2))
    entry = next(e for e in sc.expected if e.get("bound") == "essential")
    verdict = cli.BOUNDS["essential"](
        cli._ScenarioRun(sc, GridPolicy(base_n=64, levels=2)), entry)
    assert (kinds, verdict.verdict) == ([KIND_LAPLACIAN], "holds")


def test_an_essential_probe_that_finds_no_floor_fails_with_the_flag(
        monkeypatch):
    # with every floor at 0 the window probe of a complete end walks all
    # MAX_MODE_CUTOFF modes: its counts are uncertified, so the verdict
    # that reads them fails and names the flag
    from dataclasses import replace

    from diraclab import cli, eigensolve
    from diraclab.eigensolve import UNCERTIFIED, GridPolicy
    from diraclab.geometry import END_CUSP
    from diraclab.scenarios import find_scenario
    sc = find_scenario("growing-curvature")
    sc = replace(sc, surface=replace(sc.surface,
                                     end_labels=(END_CUSP,) * 2))
    entry = next(e for e in sc.expected if e.get("bound") == "essential")
    policy = GridPolicy(base_n=64, levels=2)
    record = cli._evaluate(cli._ScenarioRun(sc, policy), entry)
    assert record["passed"] and "flag" not in record["detail"]
    monkeypatch.setattr(eigensolve, "mode_lower_bound_term",
                        lambda nu, f: 0.0)
    record = cli._evaluate(cli._ScenarioRun(sc, policy), entry)
    assert record["name"] == "bound:essential"
    assert not record["passed"]
    assert record["detail"]["flag"] == UNCERTIFIED


@pytest.mark.parametrize("threshold,exit_code", [(1e9, 2), (0, 64)])
def test_a_probe_threshold_above_every_floor_is_flagged_not_raised(
        tmp_path, capsys, threshold, exit_code):
    # at 1e9 no mode within MAX_MODE_CUTOFF has its floor above the
    # threshold: the probe check fails with the flag (exit 2), where an
    # exhausted probe used to be an internal error (exit 1); a threshold
    # of 0 counts nothing and is a usage error
    from diraclab.eigensolve import UNCERTIFIED
    from diraclab.scenarios import find_scenario
    doc = find_scenario("growing-curvature").to_json()
    doc["expected"] = [{**e, "threshold": threshold}
                       for e in doc["expected"] if e["check"] == "probe"]
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", "--scenario", str(path), "--grid-n",
                          "64", "--levels", "2"], capsys)
    assert code == exit_code, err
    if exit_code == 64:
        assert "'threshold'" in err and "> 0" in err
        return
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "probe" and not check["passed"]
    assert check["detail"]["flag"] == UNCERTIFIED
    assert check["detail"]["flags"] == [UNCERTIFIED]


def test_one_function_owns_each_check_layer_rule():
    # the operator of a bound is read from bounds.BOUND_OPERATORS, never
    # from a bound name, and every entry runs through cli._evaluate, for
    # a scenario run and for a sweep row alike
    import ast

    from diraclab import bounds
    path = Path(__file__).resolve().parents[1] / "src" / "diraclab" / "cli.py"
    tree = ast.parse(path.read_text())
    tops = {getattr(node, "name", None): node for node in tree.body}
    for name in ("_bound_statistic", "_runs_dirac"):
        constants = {node.value for node in ast.walk(tops[name])
                     if isinstance(node, ast.Constant)}
        assert not constants & set(bounds.BOUND_OPERATORS), name
    bindings = [node for node in tree.body if isinstance(node, ast.Assign)
                and any(ast.unparse(t) == "CHECKS" for t in node.targets)]
    assert len(bindings) == 1
    calls = {}  # callee -> the top-level definitions that call it
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                calls.setdefault(ast.unparse(node.func), set()).add(
                    getattr(top, "name", None))
    assert calls["_evaluate"] == {"run_scenario", "_sweep_rows"}
    # a sweep row reads the record of its entry: no tone, bound or
    # closed form of its own
    sweep = ast.unparse(tops["_sweep_rows"])
    assert "BOUNDS" not in sweep and ".tone(" not in sweep
    assert 2.0 not in {node.value for node in ast.walk(tops["_sweep_rows"])
                       if isinstance(node, ast.Constant)}
    assert "_certified" not in tops


def test_tol_scales_limits_once_and_defaults_are_spelled_once():
    # only _evaluate reads the run's --tol scale, and no .get in cli
    # passes a default of its own for a key that _DEFAULTS fills in
    import ast

    from diraclab import cli
    path = Path(__file__).resolve().parents[1] / "src" / "diraclab" / "cli.py"
    readers, gets = set(), []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "tol_scale" \
                    and isinstance(node.ctx, ast.Load):
                readers.add(getattr(top, "name", None))
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" and len(node.args) == 2 \
                    and isinstance(node.args[0], ast.Constant) \
                    and node.args[0].value in cli._DEFAULTS:
                gets.append(ast.unparse(node))
    assert readers == {"_evaluate"}
    assert gets == []


def test_the_zero_mode_is_tested_exactly():
    # every walked mode is exactly base * (m + eps), so no comparison on
    # nu holds a nonzero constant, which would be a tolerance
    import ast

    def number(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return None
        return value if type(value) in (int, float) else None
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if any(isinstance(name, ast.Name) and name.id == "nu"
                   for side in sides for name in ast.walk(side)) \
                    and any(number(side) for side in sides):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_operators_and_geometry_spell_the_end_kinds():
    # every other module asks a Grid or a WarpedSurface about its ends
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    for path in sorted(src.glob("*.py")):
        if path.stem in ("operators", "geometry"):
            continue
        spelled = [node.lineno for node in ast.walk(ast.parse(
            path.read_text())) if isinstance(node, ast.Constant)
            and node.value in ("regular", "singular", "cusp")]
        assert spelled == [], path.name


def test_a_scalar_section_off_its_lattice_is_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # cover-m2's scalar lattice is 0.5 Z: f_k at mode 0.3 would not be
    # single-valued on the circle
    from diraclab.scenarios import find_scenario, scenario_from_json
    _nothing_solved(monkeypatch)
    doc = find_scenario("cover-m2").to_json()
    doc["sections"][0]["mode"] = 0.3
    path = tmp_path / "off-lattice.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path)], capsys)
    assert code == 64, err
    assert err.startswith("usage error:") and "'f_k'" in err
    # a spinor section of a document without spin has no lattice to be off
    doc = find_scenario("flat-cylinder-l5-nonbounding").to_json()
    doc["sections"][0]["mode"] = 0.3
    del doc["spin"]
    scenario_from_json(doc)


@pytest.mark.parametrize("sid", ["growing-curvature",
                                 "flat-cylinder-l5-nonbounding"])
def test_an_essential_bound_without_spin_is_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch, sid):
    # the essential floor is a statement about D^2, whether or not the
    # surface has an end that the bound probes
    from diraclab import bounds
    from diraclab.scenarios import find_scenario
    _nothing_solved(monkeypatch)

    def boom(*args, **kwargs):
        raise AssertionError("a probe ran before validation")
    monkeypatch.setattr(bounds, "truncation_probe", boom)
    doc = find_scenario(sid).to_json()
    del doc["spin"]
    doc["expected"] = [e for e in doc["expected"]
                       if e.get("bound") == "essential"]
    assert len(doc["expected"]) == 1
    path = tmp_path / "spinless.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path)], capsys)
    assert code == 64, err
    assert "expected[0]" in err and "'bound_verdict'" in err
    assert "needs a spin structure" in err


@pytest.mark.parametrize("doc", [[{"id": "x"}], {"id": "x", "surface": []}],
                         ids=["list-document", "list-surface"])
def test_non_object_scenario_document_is_usage_error(tmp_path, capsys,
                                                      monkeypatch, doc):
    _nothing_solved(monkeypatch)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--scenario", str(path)], capsys)
    assert code == 64
    assert "malformed scenario document" in err


def test_valid_entries_and_inapplicable_killing_pass_validation():
    from dataclasses import replace

    from diraclab import cli
    from diraclab.scenarios import flat_cylinder_scenario
    from diraclab.spin import SpinStructure
    sc = flat_cylinder_scenario(3.0, SpinStructure.NON_BOUNDING)
    entries = [{"check": c, **e} for c, e in VALID_ENTRIES.items()]
    entries.append({"check": "killing", "applicable": False})
    # 0 is a legal limit
    entries.append({"check": "orthogonality", "section": "dirichlet_sine",
                    "max_abs": 0.0})
    cli._validate_expected(replace(sc, expected=tuple(entries)))


def test_check_tables_match_the_catalog():
    # no dead table entry, and no catalog kind without an entry
    from diraclab import cli
    from diraclab.scenarios import builtin_catalog
    entries = [e for sc in builtin_catalog() for e in sc.expected]
    assert set(cli.CHECKS) == {e["check"] for e in entries}
    assert set(cli.CHECKS) == set(VALID_ENTRIES)
    assert set(cli.BOUNDS) == {e["bound"] for e in entries
                               if e["check"] == "bound_verdict"}


def test_orthogonality_reports_the_limit_it_applied(tmp_path, capsys):
    # like every check, the detail writes the scaled limit: max_abs * --tol
    from diraclab.scenarios import find_scenario
    doc = find_scenario("cover-m2").to_json()
    doc["expected"] = [e for e in doc["expected"]
                       if e["check"] == "orthogonality"]
    (entry,) = doc["expected"]
    path = tmp_path / "orthogonality.json"
    path.write_text(json.dumps(doc))
    for tol in ("1", "10"):
        code, out, err = run(["verify", "--scenario", str(path), "--grid-n",
                              "64", "--levels", "2", "--tol", tol], capsys)
        assert code == 0, err
        (check,) = json.loads(out)["checks"]
        assert check["detail"]["max_abs"] == entry["max_abs"] * float(tol)


def test_tone_attaining_mode_detail_carries_tol():
    from dataclasses import replace

    from diraclab.cli import run_scenario
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario
    sc = find_scenario("round-sphere")
    entry = next(e for e in sc.expected
                 if e["check"] == "tone_attaining_mode")
    report = run_scenario(replace(sc, expected=(entry,)),
                          GridPolicy(base_n=64, levels=2), tol_scale=2.0)
    (check,) = report.checks
    assert check["name"] == "tone_attaining_mode"
    assert check["detail"]["tol"] == entry["tol"] * 2.0
    assert check["detail"]["computed"] == pytest.approx(0.5)


def test_a_report_holds_every_tone_its_run_computes():
    # the friedrich verdicts of growing-curvature and of the cusp read a
    # Dirac tone that no tone check of theirs asks for
    from diraclab.cli import run_scenario
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario
    for sid in ("growing-curvature", "cusp-cylinder-l10"):
        sc = find_scenario(sid)
        assert "dirac_tone" not in {e["check"] for e in sc.expected}
        doc = json.loads(run_scenario(sc, GridPolicy(base_n=64,
                                                     levels=2)).to_json())
        tone = doc["diagnostics"]["dirac_tone"]
        friedrich = next(v for v in doc["verdicts"]
                         if v["bound"] == "friedrich")
        assert tone["lambda_star"] == friedrich["lambda_star"]
        assert "laplace_tone" not in doc["diagnostics"]
    assert "cusp-truncated-upper-estimate" in tone["flags"]


def test_probe_counts_match_exactly_whatever_the_tol(tmp_path, capsys):
    # the string spectrum (pi j/L)^2 of long-cylinder-probe has closed-form
    # counts below its threshold, and --tol scales no count
    from diraclab.scenarios import find_scenario
    doc = find_scenario("long-cylinder-probe").to_json()
    (probe,) = doc["expected"]
    assert probe["counts"] == [0, 2, 6, 12]
    path = tmp_path / "probe.json"
    for counts, tol, code in (([0, 2, 6, 12], "1", 0),
                              ([0, 2, 6, 13], "1e9", 2)):
        probe["counts"] = counts
        path.write_text(json.dumps(doc))
        got, out, err = run(["verify", "--scenario", str(path), "--tol", tol],
                            capsys)
        assert got == code, err
        (check,) = json.loads(out)["checks"]
        assert check["detail"]["counts"] == [0, 2, 6, 12]


def test_import_and_catalog_load_stay_lean():
    # the CLI import path, catalog load and every built-in scenario's run
    # must not pull in scipy modules beyond the LAPACK extension, nor
    # scipy.linalg, whose import loads numpy.f2py and numpy.testing: the
    # eigensolver loads its LAPACK routines directly, and tabulated warps
    # solve their spline on its dptsv
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys\n"
        "import diraclab.cli\n"
        "lean = ('scipy.integrate', 'scipy.interpolate', 'scipy.io',\n"
        "        'scipy.sparse', 'scipy.sparse.linalg', 'scipy.linalg',\n"
        "        'numpy.f2py', 'numpy.testing')\n"
        "print(sorted(m for m in lean if m in sys.modules))\n"
        "diraclab.cli.scenarios.builtin_catalog()\n"
        "print(sorted(m for m in lean if m in sys.modules))\n"
        "from diraclab import cli\n"
        "from diraclab.eigensolve import GridPolicy\n"
        "for sc in diraclab.cli.scenarios.builtin_catalog():\n"
        "    cli.run_scenario(sc, GridPolicy()).to_json()\n"
        "    print(sc.id, sorted(m for m in lean if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    from diraclab.scenarios import builtin_catalog
    assert proc.stdout.splitlines() == (
        ["[]", "[]"] + [f"{sc.id} []" for sc in builtin_catalog()])


def test_every_name_the_bench_tracer_patches_resolves(monkeypatch):
    # bench/tracer.py wraps each target of its LAYERS by name; a name the
    # package no longer has stops every `--trace 1` run with an
    # AttributeError.  The tracer is loaded from its file, unchanged, and
    # leaves no bytecode beside it
    import importlib
    import importlib.util
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [target for names, _ in tracer.LAYERS.values()
               for target in names]
    assert targets
    for target in targets:
        importlib.import_module(target.partition(":")[0])
        owner, attr = tracer._resolve(target)
        assert callable(getattr(owner, attr, None)), target


def test_every_src_module_reads_each_name_it_imports():
    # an import nothing reads is dead code that every cold start compiles
    # and runs; __init__ imports to export, and __future__ sets a mode
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(
                    node, ast.ImportFrom) and node.module != "__future__":
                unread += [f"{path.name}:{node.lineno} {bound}"
                           for alias in node.names
                           if (bound := alias.asname
                               or alias.name.split(".")[0]) not in read]
    assert unread == []


def test_only_eigensolve_imports_scipy():
    # scipy is a LAPACK provider only, reached through eigensolve._lapack(),
    # and the package reads four routines from it
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    importers = set()
    routines = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "_flapack":
                routines.add(node.attr)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == {"eigensolve.py"}
    assert routines == {"dpttrf", "dpttrs", "dptsv", "dstebz"}


def _called_name(call):
    """The name a call calls: f of f(...) and of x.f(...)."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def test_only_the_assembly_decides_which_blocks_are_twins():
    # operators.assemble_dirac_square owns the twin relation: only
    # operators.py reads a surface's mirror symmetry and sets twin=, which
    # WarpedSurface.mirrored, the one caller of geometry.mirror_symmetric,
    # decides once per surface; and the solver reads ReducedOperator.twin
    # instead of comparing block arrays
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    askers, readers, setters, compares = [], set(), set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                askers += [(path.name, node.name) for call in ast.walk(node)
                           if isinstance(call, ast.Call)
                           and _called_name(call) == "mirror_symmetric"]
            if isinstance(node, ast.Attribute) and node.attr == "mirrored":
                readers.add(path.name)
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name == "array_equal" and path.name == "eigensolve.py":
                compares.append(node.lineno)
            if any(kw.arg == "twin" for kw in node.keywords):
                setters.add(path.name)
    assert askers == [("geometry.py", "mirrored")]
    assert readers == {"operators.py"}
    assert setters == {"operators.py"}
    assert compares == []


def test_a_run_samples_grids_only_through_its_ladder():
    # eigensolve.sample_ladder samples the grids of a scenario run, and
    # operators.sample_grid owns the node rule: the run front end and the
    # section checks evaluate no warp and sample no grid of their own
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    found = []
    for name in ("cli.py", "scenarios.py"):
        path = src / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            called = ast.unparse(node.func)
            if called.split(".")[-1] in ("sample_grid", "node_weights",
                                         "derivatives"):
                found.append(f"{name}:{node.lineno} {called}")
    assert found == []


def test_no_module_calls_a_blas_kernel():
    # reductions over grid vectors are numpy's own single-threaded loops:
    # a threaded BLAS kernel (matmul, dot, inner, vdot, the norms of
    # numpy.linalg) would make the bytes of a report depend on the BLAS
    # thread count and take a second core from other processes
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    banned = {"dot", "inner", "vdot", "matmul", "linalg"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Attribute) and node.attr in banned \
                    and (node.attr == "dot" or isinstance(node.value, ast.Name)
                         and node.value.id in ("np", "numpy")):
                found.append(f"{where} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("numpy") and (
                        "linalg" in node.module
                        or any(a.name in banned for a in node.names)):
                found.append(f"{where} from {node.module}")
            elif isinstance(node, ast.Import) and any(
                    a.name.startswith("numpy.linalg") for a in node.names):
                found.append(f"{where} import numpy.linalg")
    assert found == []


def test_verify_bytes_do_not_depend_on_the_blas_thread_count():
    src = Path(__file__).resolve().parents[1] / "src"
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "diraclab.cli", "verify", "--scenario",
             "cover-m5", "--grid-n", "8192", "--levels", "4"],
            env=env, capture_output=True, text=True, check=True)
        out.append(proc.stdout)
    assert out[0] == out[1] and '"all_expected_match": true' in out[0]


def test_json_is_written_by_one_function():
    # no module but bounds writes JSON: every document goes through
    # bounds.dumps, which writes a number that is not finite as null, and no
    # module converts numbers on its own; json is read elsewhere only to
    # parse (load, loads, JSONDecodeError)
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    readers = {"load", "loads", "JSONDecodeError"}
    writers, converters = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "json_num":
                converters.append(path.stem)
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "json" and node.attr not in readers:
                writers.add(path.stem)
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "json":
                writers.add(path.stem)
    assert writers == {"bounds"}
    assert converters == []


def test_operators_alone_lists_the_kinds_and_lays_out_spinors():
    # outside operators, no module spells both operator kinds in one
    # tuple, list or set (operators.KINDS), nor allocates a (2, n) spinor
    # array (operators.block_section)
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "diraclab"
    kind_of = {"KIND_LAPLACIAN": "laplacian", "laplacian_scalar": "laplacian",
               "KIND_DIRAC": "dirac", "dirac_square": "dirac"}

    def spelled(node):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant) else None)
        return kind_of.get(name) if isinstance(name, str) else None

    def spinor_shape(node):
        return (isinstance(node, ast.Tuple) and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value == 2)

    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "operators":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and {
                    "laplacian", "dirac"} <= {spelled(e) for e in node.elts}:
                found.append((path.stem, node.lineno, "kinds"))
            if isinstance(node, ast.Call) and any(
                    spinor_shape(arg) for arg in node.args[:1]
                    + [k.value for k in node.keywords if k.arg == "shape"]):
                found.append((path.stem, node.lineno, "spinor"))
    assert found == []


def _count_calls(monkeypatch, counts, key, module, attr):
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)


def test_only_make_grid_classifies_ends(monkeypatch):
    # every end_kind call comes from make_grid, two per grid: the tone and
    # bound code read Grid.side_kinds instead, and the completeness code
    # WarpedSurface.complete_ends
    from diraclab import cli, eigensolve, geometry
    from diraclab.scenarios import find_scenario
    counts = {"end_kind": 0, "make_grid": 0}
    _count_calls(monkeypatch, counts, "end_kind", geometry, "end_kind")
    _count_calls(monkeypatch, counts, "make_grid", eigensolve, "make_grid")
    for sid in ("round-sphere", "cusp-cylinder-l10", "growing-curvature"):
        cli.run_scenario(find_scenario(sid))
    assert counts["make_grid"] > 0
    assert counts["end_kind"] == 2 * counts["make_grid"]


def _patch_bindings(monkeypatch, fn, wrapper):
    """Replace fn by wrapper wherever a diraclab module binds it."""
    for name, module in list(sys.modules.items()):
        if name == "diraclab" or name.startswith("diraclab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def test_probes_lay_seed_n_nodes_on_every_ladder(monkeypatch):
    # a probe's first window has SEED_N nodes whatever ladder the tones
    # refine on
    from diraclab import cli, eigensolve, operators
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario
    built, first = [], []
    real_probe = eigensolve.truncation_probe

    def grid(*args, **kwargs):
        built.append(operators.Grid(*args, **kwargs))
        return built[-1]

    def probe(*args, **kwargs):
        built.clear()
        result = real_probe(*args, **kwargs)
        first.append(built[0].n)
        return result
    monkeypatch.setattr(eigensolve, "Grid", grid)
    _patch_bindings(monkeypatch, real_probe, probe)
    for policy in (GridPolicy(base_n=64, levels=2), GridPolicy(),
                   GridPolicy(base_n=8192, levels=4)):
        for sid in ("growing-curvature", "long-cylinder-probe"):
            first.clear()
            cli.run_scenario(find_scenario(sid), policy)
            assert first and set(first) == {eigensolve.SEED_N}, (policy, sid)


def test_verify_reads_its_default_ladder_from_grid_policy(monkeypatch):
    # read when the parser is built: a fresh build, past the cached parser
    # that main() shares, sees the patched policy and leaves the cache
    from diraclab import cli
    from diraclab.eigensolve import GridPolicy

    def defaults(build=cli._build_parser.__wrapped__):
        args = build().parse_args(["verify", "--scenario", "x"])
        return args.grid_n, args.levels
    assert defaults() == defaults(cli._build_parser) == (
        GridPolicy().base_n, GridPolicy().levels)
    monkeypatch.setattr(cli, "GridPolicy",
                        lambda: GridPolicy(base_n=256, levels=4))
    assert defaults() == (256, 4)


def test_scenario_run_lays_one_grid_ladder(monkeypatch):
    # the tones, sections, profile and bound checks share one ladder, whose
    # ends are classified once, on its coarsest grid; its seed grid, 512 //
    # 16 nodes, is laid once beside the levels
    from diraclab import cli, geometry, operators
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario
    sizes, ends = [], {"end_kind": 0}
    real = operators.lay_grid

    def counted(surface, n, kinds, slopes):
        sizes.append(n)
        return real(surface, n, kinds, slopes)
    _patch_bindings(monkeypatch, real, counted)
    _count_calls(monkeypatch, ends, "end_kind", geometry, "end_kind")
    cli.run_scenario(find_scenario("round-sphere"))
    assert sizes == [512, 1024, 2048, 32]
    assert len(sizes) == GridPolicy().levels + 1
    assert ends["end_kind"] == 2


def test_only_tones_solve_during_a_scenario_run(monkeypatch):
    # the equality-case check reads the tone's ground section instead of
    # solving the level-0 problem again
    from diraclab import cli, eigensolve
    from diraclab.scenarios import find_scenario
    depth = [0]
    calls = {"inside": 0, "outside": 0}
    real_tone = cli.fundamental_tone
    real_solve = eigensolve.smallest_eigenpairs

    def tone(*args, **kwargs):
        depth[0] += 1
        try:
            return real_tone(*args, **kwargs)
        finally:
            depth[0] -= 1

    def solve(*args, **kwargs):
        calls["inside" if depth[0] else "outside"] += 1
        return real_solve(*args, **kwargs)
    monkeypatch.setattr(cli, "fundamental_tone", tone)
    _patch_bindings(monkeypatch, real_solve, solve)
    report = cli.run_scenario(find_scenario("round-sphere"))
    assert "killing" in report.diagnostics
    assert calls["inside"] > 0 and calls["outside"] == 0


def test_killing_check_reuses_the_tone_operator(monkeypatch):
    # the equality-case check reads the level-0 operator the tone solved
    # instead of assembling it again
    from diraclab import bounds, cli, operators
    from diraclab.scenarios import find_scenario
    inside = [False]
    calls = {"check": 0, "assemble_inside": 0}
    real_check = bounds.killing_equality_check
    real_assemble = operators.assemble_dirac_square

    def check(*args, **kwargs):
        calls["check"] += 1
        inside[0] = True
        try:
            return real_check(*args, **kwargs)
        finally:
            inside[0] = False

    def assemble(*args, **kwargs):
        calls["assemble_inside"] += inside[0]
        return real_assemble(*args, **kwargs)
    monkeypatch.setattr(bounds, "killing_equality_check", check)
    _patch_bindings(monkeypatch, real_assemble, assemble)
    report = cli.run_scenario(find_scenario("round-sphere"))
    assert report.diagnostics["killing"].applicable
    assert calls == {"check": 1, "assemble_inside": 0}


def test_default_report_records_the_grid_constants():
    from dataclasses import replace

    from diraclab.cli import run_scenario
    from diraclab.scenarios import find_scenario
    sc = find_scenario("round-sphere")
    area = next(e for e in sc.expected if e["check"] == "area")
    doc = json.loads(run_scenario(replace(sc, expected=(area,))).to_json())
    assert doc["provenance"]["policy"] == {
        "base_n": 512, "levels": 3, "delta_ratio": 0.5,
        "cusp_tail_rel": 1e-6, "max_mode_cutoff": 64}


def test_bench_tracer_targets_resolve():
    # bench/tracer.py patches these functions by name; a rename in the
    # package would otherwise surface only in a traced benchmark run
    import importlib.util

    import diraclab.cli  # noqa: F401  (loads every module the tracer lists)
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("diraclab_bench_tracer",
                                                  path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, (targets, _) in tracer.LAYERS.items():
        for target in targets:
            owner, attr = tracer._resolve(target)
            assert callable(getattr(owner, attr, None)), (layer, target)


def test_bench_scripts_name_only_what_the_package_has():
    # bench/run.py and bench/traced_verify.py reach the package by name:
    # imports, attributes of the imported modules (also through run.py's
    # mods["..."] table) and code in strings; each such name must resolve
    import ast
    import importlib
    import re

    def lookup(dotted):
        parts = dotted.split(".")
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], 2):
            if not hasattr(obj, part):
                importlib.import_module(".".join(parts[:i]))
            obj = getattr(obj, part)

    bench = Path(__file__).resolve().parents[1] / "bench"
    names = set()
    for script in ("run.py", "traced_verify.py"):
        tree = ast.parse((bench / script).read_text())
        bound = {}  # local name -> the dotted package name it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[0] == "diraclab":
                for alias in node.names:
                    bound[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names
                             if a.name.split(".")[0] == "diraclab")
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.update(re.findall(r"\bdiraclab(?:\.\w+)+",
                                        node.value))
        names.update(bound.values())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base, root = node.value, node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "diraclab":
                names.add(ast.unparse(node))
            elif isinstance(base, ast.Name) and base.id in bound:
                names.add(f"{bound[base.id]}.{node.attr}")
            elif (isinstance(base, ast.Subscript)
                  and isinstance(base.slice, ast.Constant)
                  and base.slice.value in bound):
                names.add(f"{bound[base.slice.value]}.{node.attr}")
    # one name of each kind, so that a parse that finds nothing fails
    assert {"diraclab.cli.run_scenario", "diraclab.cli.main",
            "diraclab.scenarios.builtin_catalog",
            "diraclab.builtin_catalog"} <= names, sorted(names)
    for name in sorted(names):
        lookup(name)

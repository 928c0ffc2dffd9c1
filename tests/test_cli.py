import json
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
    code, _, _ = run(["verify", "--scenario", "round-sphere",
                      "--grid-n", "4"], capsys)
    assert code == 64


def test_verify_refined_grid_exits_zero(capsys):
    code, _, err = run(["verify", "--scenario", "flat-cylinder-l5-bounding",
                        "--grid-n", "8192"], capsys)
    assert code == 0, err


def test_sweep_refinement_to_2_17_decreases_error(capsys):
    code, out, err = run(["sweep", "--sweep", "N=2048,8192,32768,131072",
                          "--format", "json"], capsys)
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
                 ["--sweep", "k=1,0"]):
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
    # a wrong version, invalid JSON and a non-object are all schema errors
    bad = tmp_path / "bad.json"
    for text in (json.dumps({"schema_version": 99}), "{not json",
                 json.dumps([1, 2])):
        bad.write_text(text)
        code, _, err = run(["report", str(bad)], capsys)
        assert code == 1, text
        assert err.startswith("schema error:"), err


def test_report_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(["report", str(tmp_path / "absent.json")], capsys)
    assert code == 64
    assert "report file not found" in err


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
    pytest.param({"check": "section_norm2", "section": "undeclared",
                  "value": 1.0, "tol": 1e-6}, "undeclared",
                 id="undeclared-section"),
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


def test_import_and_catalog_load_stay_lean():
    # the CLI import path, catalog load and a solve must not pull in scipy
    # modules that only quadrature, spline warps or MatrixMarket dumps
    # need, nor scipy.linalg, whose import loads numpy.f2py and
    # numpy.testing: the eigensolver loads its LAPACK routines directly
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
        "from diraclab.scenarios import find_scenario\n"
        "cli.run_scenario(find_scenario('cover-m1'), GridPolicy()).to_json()\n"
        "print(sorted(m for m in lean if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


def _count_calls(monkeypatch, counts, key, module, attr):
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)


def test_only_make_grid_classifies_ends(monkeypatch):
    # every end_kind call comes from make_grid, two per grid: the tone,
    # bound and completeness code read Grid.side_kinds instead
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


def test_scenario_run_lays_one_grid_ladder(monkeypatch):
    # the tones, sections, profile and bound checks share one ladder
    from diraclab import cli, operators
    from diraclab.eigensolve import GridPolicy
    from diraclab.scenarios import find_scenario
    sizes = []
    real = operators.make_grid

    def counted(surface, n):
        sizes.append(n)
        return real(surface, n)
    _patch_bindings(monkeypatch, real, counted)
    cli.run_scenario(find_scenario("round-sphere"))
    assert sizes == [512, 1024, 2048]
    assert len(sizes) == GridPolicy().levels


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
    assert report.diagnostics["killing"]["applicable"]
    assert calls == {"check": 1, "assemble_inside": 0}


def test_default_report_records_the_grid_constants():
    from dataclasses import replace

    from diraclab.cli import run_scenario
    from diraclab.scenarios import find_scenario
    sc = find_scenario("round-sphere")
    area = next(e for e in sc.expected if e["check"] == "area")
    doc = run_scenario(replace(sc, expected=(area,))).to_json_dict()
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

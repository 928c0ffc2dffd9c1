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


def test_sweep_empty_range_usage_error(capsys):
    code, _, _ = run(["sweep", "--sweep", "L="], capsys)
    assert code == 64
    code, _, _ = run(["sweep", "--sweep", "L=5:4:1"], capsys)
    assert code == 64


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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    code, _, err = run(["report", str(bad)], capsys)
    assert code == 1
    assert "schema" in err


def test_import_and_catalog_load_stay_lean():
    # the CLI import path and catalog load must not pull in scipy modules
    # that only quadrature, spline warps or MatrixMarket dumps need
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys\n"
        "import diraclab.cli\n"
        "lean = ('scipy.integrate', 'scipy.interpolate', 'scipy.io')\n"
        "print(sorted(m for m in lean if m in sys.modules))\n"
        "diraclab.cli.scenarios.builtin_catalog()\n"
        "print(sorted(m for m in lean if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[]"]

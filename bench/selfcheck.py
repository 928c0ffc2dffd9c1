"""Self-check of the benchmark.  Run from the repository root:

    python3 bench/selfcheck.py

Checks that BENCHMARK.json names exactly the metrics ``bench/run.py``
prints, that every metric appears in the result with its unit, that the
counters of two traced runs with different seeds are identical, and that
the benchmark exits non-zero, printing no result, where the package is
missing.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

WORKLOAD = "catalog-default"


def bench(seed, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         WORKLOAD, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"bench failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    assert doc["correct"] is True, doc
    assert doc["attempted"] >= 1 and doc["failed"] == 0, doc
    return doc, lines[:-1]


def check_units(doc, expected):
    assert set(doc["metrics"]) == set(expected), \
        set(doc["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        metric = doc["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs"
    assert layer == dict(run.PER_LAYER), "BENCHMARK.json per_layer differs"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    doc, table = result(bench(1, 0))
    check_units(doc, e2e)
    printed = " ".join(table)
    for name in ("setup_s", "ok_per_s", "scenario_s.p50", "scenario_s.tail",
                 "fail_frac", "peak_rss_mb", "tone_err_max", "bar_miss"):
        assert name in printed, f"{name} missing from the table"

    first, _ = result(bench(1, 1))
    second, _ = result(bench(2, 1))
    check_units(first, layer)
    counters = [n for n, u in run.PER_LAYER if u == "count"]
    for name in counters:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        assert a == b, f"{name} differs between traced runs: {a} != {b}"

    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "bench succeeded without the package"
    assert "correct" not in proc.stdout, proc.stdout

    print(f"selfcheck ok: {len(e2e)} end-to-end and {len(layer)} per-layer "
          f"metrics with units; {len(counters)} counters repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())

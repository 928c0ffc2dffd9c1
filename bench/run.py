"""diraclab benchmark: catalog throughput, cold verify latency, layer self time.

Run from the repository root (the package is not installed; the benchmark
puts ``src`` on the path itself):

    python3 bench/run.py --workload catalog-default --seed 1 --seconds 22 --trace 0

Workloads:

  catalog-default  all built-in scenarios through
                   ``cli.run_scenario(sc, policy).to_json()`` in this
                   process, at ``GridPolicy()`` (512 nodes x 3 levels)
  catalog-heavy    the same catalog at ``GridPolicy(base_n=8192, levels=4)``
  verify-cold      one fresh ``python -m diraclab.cli verify --scenario <id>``
                   process per request, cycling through the catalog ids

The load is a single client in a closed loop: one scenario, or one child
process, at a time.  No thread knob is set.  The seed only shuffles the
order in which the scenarios of each pass run.  A pass runs every catalog
scenario once; passes start until ``--seconds`` have gone by, so every run
measures whole passes and its counts are exact multiples of a pass.  One
untimed pass first lets lazy set-up finish.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, in which traced and untraced passes
alternate so the tracing overhead is measured in the same run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table.  A fuller record (environment, tail ranks, sample
counts, errors) and, for traced runs, the spans go to ``bench/out/``.
See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402

WORKLOADS = ("catalog-default", "catalog-heavy", "verify-cold")
HEAVY_POLICY = {"base_n": 8192, "levels": 4}

SETUP_RUNS = 5  # fresh interpreters per run for setup_s
IMPORT_RUNS = 5  # fresh `-X importtime` interpreters per traced run
CHILD_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it
TAIL_LADDER = (50.0, 60.0, 75.0, 90.0, 95.0, 99.0, 99.9)

SETUP_CODE = ("import time, diraclab; t = time.perf_counter(); "
              "diraclab.builtin_catalog(); print(time.perf_counter() - t)")
IMPORT_MODULES = ("numpy", "scipy.integrate", "scipy.sparse.linalg",
                  "scipy.interpolate", "scipy.io")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "DIRACLAB_THREADS")
TONE_CHECKS = ("laplace_tone", "dirac_tone")

END_TO_END = (
    ("setup_s", "s"),
    ("ok_per_s", "scenarios/s"),
    ("ok_frac", "ratio"),
    ("request_s.p50", "s"),
    ("request_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("eigensolve.smallest_eigenpairs.self_s", "s"),
    ("eigensolve.smallest_eigenpairs.calls", "count"),
    ("eigensolve.solves_gt512", "count"),
    ("eigensolve.nodes", "count"),
    ("eigensolve.failures", "count"),
    ("eigensolve.truncation_probe.self_s", "s"),
    ("eigensolve.fundamental_tone.self_s", "s"),
    ("eigensolve.modes_solved", "count"),
    ("eigensolve.modes_pruned", "count"),
    ("operators.assemble.self_s", "s"),
    ("operators.assemble.calls", "count"),
    ("operators.make_grid.calls", "count"),
    ("geometry.area.self_s", "s"),
    ("geometry.area.calls", "count"),
    ("geometry.curvature_profile.self_s", "s"),
    ("geometry.end_kind.self_s", "s"),
    ("geometry.end_kind.calls", "count"),
    ("spin.mode_lower_bound_term.self_s", "s"),
    ("spin.mode_lower_bound_term.calls", "count"),
    ("bounds.checks.self_s", "s"),
    ("bounds.serialize.self_s", "s"),
    ("scenarios.sections.self_s", "s"),
    ("scenarios.catalog_load_s", "s"),
    ("cli.run_scenario.self_s", "s"),
    ("import.total_s", "s"),
    ("import.scipy.integrate_s", "s"),
    ("import.scipy.sparse.linalg_s", "s"),
    ("import.scipy.interpolate_s", "s"),
    ("import.scipy.io_s", "s"),
    ("import.numpy_s", "s"),
    ("import.modules", "count"),
    ("trace.ok_per_s_delta", "scenarios/s"),
    ("trace.spans", "count"),
)

# Self times (seconds per pass) and counters (per pass) from the spans.
SELF_TIME_LAYERS = tuple(tracer.LAYERS)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    """One request: a run_scenario+to_json call or one verify process."""

    scenario: str
    seconds: float
    ok: bool = False  # ended with all_expected_match (and exit 0, same bytes)
    wrong: bool = False  # produced output that is not the expected output
    error: str | None = None
    tones: list = field(default_factory=list)  # (check, |err|, error_bar)


@dataclass
class Pass:
    traced: bool
    wall: float
    calls: list
    counts: dict | None = None
    self_s: dict | None = None
    spans: list | None = None


# -- children ---------------------------------------------------------------

def child_env(src: str) -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not old else src + os.pathsep + old)


def run_child(cmd, env, cwd):
    """Run one child to completion: (stdout, stderr, code, wall_s, rss_mb).

    The child is reaped with ``wait4`` so its own peak resident set is read.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=cwd) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return out, err[0], proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(src, root):
    """Fresh interpreter to ``import diraclab`` plus ``builtin_catalog()``."""
    walls, loads = [], []
    for _ in range(SETUP_RUNS):
        out, err, code, wall, _ = run_child(
            [sys.executable, "-c", SETUP_CODE], child_env(src), root)
        if code != 0:
            raise BenchError("set-up child failed: "
                             + err.decode(errors="replace")[-2000:])
        walls.append(wall)
        loads.append(float(out.decode().strip()))
    return walls, loads


IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def parse_importtime(text: str) -> dict:
    """Layer figures from one ``-X importtime -c 'import diraclab.cli'``.

    Cumulative times are charged to the first importer: a module's
    cumulative time holds the nested modules it was first to load.
    ``total_s`` is the cumulative time of the top-level ``diraclab.cli``
    line and ``modules`` the number of modules loaded under it.
    """
    rows = []
    for line in text.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            rows.append((int(m.group(1)), int(m.group(2)), len(m.group(3)),
                         m.group(4)))
    top = [i for i, r in enumerate(rows) if r[3] == "diraclab.cli" and r[2] == 1]
    if not top:
        raise BenchError("no top-level diraclab.cli line in -X importtime")
    end = top[-1]
    start = end
    while start > 0 and rows[start - 1][2] > 1:
        start -= 1
    block = rows[start:end + 1]
    out = {"import.total_s": rows[end][1] * 1e-6,
           "import.modules": float(len(block))}
    for mod in IMPORT_MODULES:
        cum = [r[1] for r in block if r[3] == mod]
        out[f"import.{mod}_s"] = cum[0] * 1e-6 if cum else 0.0
    return out


def measure_imports(src, root) -> dict:
    runs = []
    for _ in range(IMPORT_RUNS):
        _, err, code, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import diraclab.cli"],
            child_env(src), root)
        if code != 0:
            raise BenchError("import child failed: "
                             + err.decode(errors="replace")[-2000:])
        runs.append(parse_importtime(err.decode()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- workloads --------------------------------------------------------------

def tone_checks(checks) -> list:
    return [(c["name"],
             abs(c["detail"]["computed"] - c["detail"]["expected"]),
             c["detail"]["error_bar"])
            for c in checks if c["name"] in TONE_CHECKS]


def catalog_pass(cli, catalog, order, policy, tr):
    calls, texts = [], {}
    t_pass = time.perf_counter()
    for sid in order:
        if tr is not None:
            tr.scenario = sid
        t0 = time.perf_counter()
        try:
            report = cli.run_scenario(catalog[sid], policy)
            text = report.to_json()
        except Exception as exc:  # a failing scenario is counted, not fatal
            calls.append(Call(sid, time.perf_counter() - t0,
                              error=f"{type(exc).__name__}: {exc}"))
            continue
        dt = time.perf_counter() - t0
        match = report.all_expected_match
        calls.append(Call(sid, dt, ok=match, wrong=not match,
                          tones=tone_checks(report.checks)))
        texts[sid] = text
    return calls, time.perf_counter() - t_pass, texts


def verify_request(sid, ref, src, root, traced):
    if traced:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_verify.py")]
    else:
        cmd = [sys.executable, "-m", "diraclab.cli"]
    out, err, code, wall, rss = run_child(
        cmd + ["verify", "--scenario", sid], child_env(src), root)
    call = Call(sid, wall)
    trace = None
    lines = err.decode(errors="replace").splitlines()
    if traced and lines and lines[-1].startswith(tracer.TRACE_PREFIX):
        trace = json.loads(lines.pop()[len(tracer.TRACE_PREFIX):])
    if code in (0, 2):
        same = out == ref.encode()
        call.ok = code == 0 and same
        call.wrong = not call.ok
        if not same:
            call.error = "verify stdout differs from the in-process report"
        try:
            call.tones = tone_checks(json.loads(out)["checks"])
        except (ValueError, KeyError) as exc:
            call.error = f"verify stdout is not a report: {exc}"
    else:
        call.error = f"exit {code}: " + "\n".join(lines[-3:])
    return call, rss, trace


def pass_trace(tr, start, traced):
    if not traced:
        return None, None, None
    spans = tr.span_dicts(start)
    counts = dict(tr.counts)
    tr.counts.clear()
    return counts, tracer.self_times(spans), spans


def run_catalog(args, mods, catalog, ids, rng):
    cli = mods["cli"]
    policy = mods["GridPolicy"]() if args.workload == "catalog-default" \
        else mods["GridPolicy"](**HEAVY_POLICY)
    catalog_pass(cli, catalog, ids, mods["GridPolicy"](), None)  # warm-up
    tr = tracer.Tracer(args.workload) if args.trace else None
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds \
            or (tr is not None and len(passes) < 2):
        order = list(ids)
        rng.shuffle(order)
        traced = tr is not None and len(passes) % 2 == 1
        if traced:
            tr.install()
        start = len(tr.spans) if tr is not None else 0
        try:
            calls, wall, _ = catalog_pass(cli, catalog, order, policy,
                                          tr if traced else None)
        finally:
            if traced:
                tr.uninstall()
        counts, self_s, spans = pass_trace(tr, start, traced)
        passes.append(Pass(traced, wall, calls, counts, self_s, spans))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, rss


def run_verify_cold(args, mods, catalog, ids, rng, src, root):
    # The in-process reports are the reference bytes; computing them is
    # also the warm-up (file cache, bytecode) for the children.
    _, _, refs = catalog_pass(mods["cli"], catalog, ids, mods["GridPolicy"](),
                              None)
    missing = [sid for sid in ids if sid not in refs]
    if missing:
        raise BenchError(f"no in-process reference report for {missing}")
    passes, peak = [], 0.0
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds \
            or (args.trace and len(passes) < 2):
        order = list(ids)
        rng.shuffle(order)
        traced = bool(args.trace) and len(passes) % 2 == 1
        calls, counts, spans = [], collections.Counter(), []
        t_pass = time.perf_counter()
        for sid in order:
            call, rss, trace = verify_request(sid, refs[sid], src, root,
                                              traced)
            calls.append(call)
            peak = max(peak, rss)
            if trace is not None:
                counts.update(trace["counts"])
                base = len(spans)
                for span in trace["spans"]:
                    if span["parent"] is not None:
                        span["parent"] += base
                    spans.append(span)
        wall = time.perf_counter() - t_pass
        if traced:
            passes.append(Pass(True, wall, calls, dict(counts),
                               tracer.self_times(spans), spans))
        else:
            passes.append(Pass(False, wall, calls))
    return passes, peak


# -- metrics ----------------------------------------------------------------

def tail(values):
    """Highest TAIL_LADDER percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count), by nearest rank.  The rungs
    are coarse so that a few more or fewer passes in a run keep the same
    rung: the catalog mixes 14 scenarios of very different cost, and a
    rank that moved with the sample count would hop between them.
    """
    xs = sorted(values)
    n = len(xs)
    value, rank = statistics.median(xs), 50.0
    for p in TAIL_LADDER:
        k = math.ceil(p / 100.0 * n)
        if n - k >= TAIL_BEYOND:
            value, rank = xs[k - 1], p
    return value, rank, n


def end_to_end(passes, setup_walls, rss):
    calls = [c for p in passes for c in p.calls]
    attempted = len(calls)
    ok = sum(c.ok for c in calls)
    lat = [c.seconds for c in calls]
    tail_v, tail_rank, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "ok_per_s": statistics.median(
            sum(c.ok for c in p.calls) / p.wall for p in passes),
        "ok_frac": ok / attempted,
        "request_s.p50": statistics.median(lat),
        "request_s.tail": tail_v,
        "peak_rss_mb": rss,
    }
    return metrics, {"tail_rank": tail_rank, "samples": n,
                     "passes": len(passes)}


def closed_form(calls) -> dict:
    """Largest closed-form tone error and error bars that miss it."""
    last = {}
    for c in calls:
        for check, err, bar in c.tones:
            last[(c.scenario, check)] = (err, bar)
    if not last:
        return {"tones": 0, "tone_err_max": None, "bar_miss": None}
    return {"tones": len(last),
            "tone_err_max": max(e for e, _ in last.values()),
            "bar_miss": sum(e > b for e, b in last.values())}


def per_layer(passes, setup_loads, imports) -> tuple:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    counts = traced[0].counts
    repeat = all(p.counts == counts for p in traced)
    metrics = {}
    for name in SELF_TIME_LAYERS:
        metrics[name + ".self_s"] = statistics.fmean(
            p.self_s.get(name, 0.0) for p in traced)
        metrics[name + ".calls"] = float(counts.get(name + ".calls", 0))
    for name in tracer.HOOK_COUNTERS:
        metrics[name] = float(counts.get(name, 0))
    metrics["scenarios.catalog_load_s"] = statistics.median(setup_loads)
    metrics.update(imports)

    def ok_rate(ps):
        return statistics.median(sum(c.ok for c in p.calls) / p.wall
                                 for p in ps)

    metrics["trace.ok_per_s_delta"] = ok_rate(traced) - ok_rate(plain)
    metrics["trace.spans"] = float(len(traced[0].spans))
    return metrics, {"counts_repeat": repeat, "traced_passes": len(traced),
                     "untraced_passes": len(plain),
                     "ok_per_s_traced": ok_rate(traced),
                     "ok_per_s_untraced": ok_rate(plain)}


# -- driver -----------------------------------------------------------------

def environment(mods) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "diraclab": mods["version"],
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def load_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "diraclab", "__init__.py")):
        raise BenchError(f"no diraclab package under {src}")
    sys.path.insert(0, src)
    import diraclab
    from diraclab import cli, scenarios
    from diraclab.eigensolve import GridPolicy
    if not os.path.abspath(diraclab.__file__).startswith(src + os.sep):
        raise BenchError(f"imported diraclab from {diraclab.__file__}, "
                         f"not from {src}")
    return src, {"cli": cli, "scenarios": scenarios,
                 "GridPolicy": GridPolicy, "version": diraclab.__version__}


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    try:
        src, mods = load_package(root)
        rng = random.Random(args.seed)
        catalog = {sc.id: sc for sc in mods["scenarios"].builtin_catalog()}
        ids = sorted(catalog)
        setup_walls, setup_loads = measure_setup(src, root)
        if args.workload == "verify-cold":
            passes, rss = run_verify_cold(args, mods, catalog, ids, rng,
                                          src, root)
        else:
            passes, rss = run_catalog(args, mods, catalog, ids, rng)
        imports = measure_imports(src, root) if args.trace else {}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    calls = [c for p in passes for c in p.calls]
    attempted = len(calls)
    failed = sum(not c.ok for c in calls)
    tones = closed_form(calls)
    correct = not any(c.wrong for c in calls) and not tones["bar_miss"]
    e2e, e2e_info = end_to_end(passes, setup_walls, rss)
    by_scenario = collections.defaultdict(list)
    for c in calls:
        by_scenario[c.scenario].append(c.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(mods), "end_to_end": e2e,
              **e2e_info, "closed_form": tones,
              "scenario_median_s": {k: statistics.median(v)
                                    for k, v in sorted(by_scenario.items())},
              "errors": sorted({f"{c.scenario}: {c.error}"
                                for c in calls if c.error})}
    request = "verify_s" if args.workload == "verify-cold" else "scenario_s"
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"thread_vars={json.dumps(env['thread_vars'])}")
    print(f"# {e2e_info['passes']} passes, {attempted} requests, "
          f"{failed} failed")
    if not args.trace:
        units = dict(END_TO_END)
        rows = [
            ("setup_s", e2e["setup_s"], "s", f"median of {SETUP_RUNS}"),
            ("ok_per_s", e2e["ok_per_s"], units["ok_per_s"],
             "median over passes"),
            (f"{request}.p50", e2e["request_s.p50"], "s",
             f"JSON request_s.p50; {attempted} samples"),
            (f"{request}.tail", e2e["request_s.tail"], "s",
             f"JSON request_s.tail; p{e2e_info['tail_rank']:g} of "
             f"{e2e_info['samples']} samples"),
            ("fail_frac", failed / attempted, "ratio",
             f"{failed}/{attempted}; JSON ok_frac = 1 - fail_frac"),
            ("peak_rss_mb", rss, "MB", "largest child" if
             args.workload == "verify-cold" else "this process"),
            ("tone_err_max", tones["tone_err_max"], "1",
             f"over {tones['tones']} closed-form tones"),
            ("bar_miss", tones["bar_miss"], "count",
             f"of {tones['tones']} closed-form tones"),
        ]
        for name, value, unit, note in rows:
            print(f"{name:<22} {fmt(value):>14} {unit:<12} {note}")
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    else:
        layer, layer_info = per_layer(passes, setup_loads, imports)
        record["per_layer"] = layer
        record.update(layer_info)
        if not layer_info["counts_repeat"]:
            correct = False
            print("# counters differ between traced passes")
        total_self = sum(layer[n + ".self_s"] for n in SELF_TIME_LAYERS)
        print("# self time per traced pass; import times are cumulative "
              "and charged to the first importer, so import.total_s "
              "carries the end-to-end effect")
        for name, unit in PER_LAYER:
            note = ""
            if name.endswith(".self_s") and total_self > 0:
                note = f"{100 * layer[name] / total_self:.1f}% of self time"
            print(f"{name:<40} {fmt(layer[name]):>14} {unit:<12} {note}")
        print(f"# tracing overhead: ok_per_s traced "
              f"{layer_info['ok_per_s_traced']:.4g} - untraced "
              f"{layer_info['ok_per_s_untraced']:.4g}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER}

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-trace{args.trace}")
    if args.trace:
        spans = []
        for p in passes:
            base = len(spans)
            spans.extend(
                dict(s, parent=None if s["parent"] is None
                     else s["parent"] + base) for s in p.spans or ())
        tracer.write_spans(stem + ".spans.jsonl", spans)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

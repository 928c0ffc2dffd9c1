"""Outside-in span tracer for the diraclab benchmark.

The package is not edited.  ``Tracer.install`` replaces each listed public
function by a timing wrapper wherever it is bound: every attribute of a
loaded ``diraclab`` module that *is* the original function is patched, so
names rebound by ``from .operators import make_grid`` inside ``eigensolve``,
``cli`` or ``bounds`` are caught as well as calls made inside the defining
module.  ``Tracer.uninstall`` puts the originals back.

Spans stay in memory as ``[name, start, end, parent, scenario, workload]``
and are written out once, when the run ends.  A layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

# Prefix of the stderr line that carries a traced child's spans.
TRACE_PREFIX = "bench-trace "

# The ARPACK path of the parent commit starts above this grid size.
LARGE_SOLVE_N = 512


def _count_solve(counts, args, kwargs, result, exc):
    op = args[0] if args else kwargs["op"]
    counts["eigensolve.nodes"] += op.size
    if op.grid.n > LARGE_SOLVE_N:
        counts["eigensolve.solves_gt512"] += 1
    if exc is not None:
        counts["eigensolve.failures"] += 1


def _count_modes(counts, args, kwargs, result, exc):
    if result is None:
        return
    for rec in result.per_mode.values():
        if "pruned_at" in rec:
            counts["eigensolve.modes_pruned"] += 1
        else:
            counts["eigensolve.modes_solved"] += 1


# span name -> (functions it covers as "module:attribute", counter hook)
LAYERS = {
    "eigensolve.smallest_eigenpairs": (
        ["diraclab.eigensolve:smallest_eigenpairs"], _count_solve),
    "eigensolve.truncation_probe": (
        ["diraclab.eigensolve:truncation_probe"], None),
    "eigensolve.fundamental_tone": (
        ["diraclab.eigensolve:fundamental_tone"], _count_modes),
    "operators.assemble": (
        ["diraclab.operators:assemble_laplacian",
         "diraclab.operators:assemble_dirac_square"], None),
    "operators.make_grid": (["diraclab.operators:make_grid"], None),
    "geometry.area": (["diraclab.geometry:area"], None),
    "geometry.curvature_profile": (
        ["diraclab.geometry:curvature_profile"], None),
    "geometry.end_kind": (["diraclab.geometry:end_kind"], None),
    "spin.mode_lower_bound_term": (
        ["diraclab.spin:mode_lower_bound_term"], None),
    "bounds.checks": (
        ["diraclab.bounds:friedrich_check",
         "diraclab.bounds:area_bound_check",
         "diraclab.bounds:lichnerowicz_check",
         "diraclab.bounds:killing_equality_check",
         "diraclab.bounds:essential_bound_check",
         "diraclab.bounds:cutoff_stability_check"], None),
    "bounds.serialize": (["diraclab.bounds:SpectralReport.to_json"], None),
    "scenarios.sections": (
        ["diraclab.scenarios:eval_test_section",
         "diraclab.scenarios:section_norm2",
         "diraclab.scenarios:mk_orthogonality"], None),
    "cli.run_scenario": (["diraclab.cli:run_scenario"], None),
}

# Counters a hook may leave at zero; listed so every run reports them.
HOOK_COUNTERS = ("eigensolve.nodes", "eigensolve.solves_gt512",
                 "eigensolve.failures", "eigensolve.modes_solved",
                 "eigensolve.modes_pruned")


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; patches the diraclab modules while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.scenario = None
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    tracer.scenario, tracer.workload]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.counts[calls] += 1
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)

        return wrapper

    def install(self):
        """Patch every binding of the listed functions in diraclab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == "diraclab" or n.startswith("diraclab."))]
        for name, (targets, hook) in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hook)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def span_dicts(self, start: int = 0):
        """Spans from index ``start`` on, parents re-based to that index."""
        keys = ("name", "start", "end", "parent", "scenario", "workload")
        out = []
        for span in self.spans[start:]:
            rec = dict(zip(keys, span))
            if rec["parent"] is not None:
                rec["parent"] -= start
            out.append(rec)
        return out


def self_times(spans) -> dict:
    """Per-name self time: span duration minus its direct children's.

    ``spans`` is a list of dicts as written by ``Tracer.span_dicts``; a
    ``parent`` index refers to the position in the same list.
    """
    out = collections.defaultdict(float)
    for span in spans:
        dur = span["end"] - span["start"]
        out[span["name"]] += dur
        if span["parent"] is not None:
            out[spans[span["parent"]]["name"]] -= dur
    return dict(out)


def write_spans(path, spans):
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")

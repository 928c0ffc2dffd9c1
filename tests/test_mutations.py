"""Mutation audit of the built-in catalog.

Each row of DEFECTS plants one plausible defect by monkeypatch, runs every
expected check of the 14 built-in scenarios at the default ladder
(512 x 3), and asserts the exact set of (scenario, check) pairs that fail
or raise.  A check earns trust only if some defect makes it fail (DeMillo,
Lipton & Sayward, *Hints on test data selection*, IEEE Computer 11(4),
1978); a defect that no built-in check catches is recorded as a gap, with
the reason it slips through.
"""

import contextlib
import dataclasses
import sys

import numpy as np
import pytest

from diraclab import bounds, cli, eigensolve, geometry, operators, scenarios
from diraclab.eigensolve import GridPolicy
from diraclab.errors import DiraclabError

FAILS = "fails"


def _outcomes() -> dict:
    """(scenario id, check name) -> FAILS or the name of the exception it
    raised, for every expected check of the built-ins that does not pass."""
    out = {}
    for sc in scenarios.builtin_catalog():
        run = cli._ScenarioRun(sc, GridPolicy())
        for exp in sc.expected:
            key = (sc.id, cli.CHECKS[exp["check"]].name.format(**exp))
            try:
                passed = cli._evaluate(run, exp)["passed"]
            except DiraclabError as exc:
                out[key] = type(exc).__name__
                continue
            if not passed:
                out[key] = FAILS
    return out


def _bindings(fn) -> list:
    """(module, attribute) of every diraclab module that binds fn."""
    return [(module, attr) for name, module in list(sys.modules.items())
            if name == "diraclab" or name.startswith("diraclab.")
            for attr, value in list(vars(module).items()) if value is fn]


@contextlib.contextmanager
def _planted(replacements: dict):
    """Replace each function key of replacements wherever diraclab binds
    it, and each (module, name) key, by its value; restore all on exit."""
    patches = []
    for target, value in replacements.items():
        places = [target] if isinstance(target, tuple) else _bindings(target)
        patches += [(module, attr, value) for module, attr in places]
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in patches]
    try:
        for module, attr, value in patches:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


_richardson = eigensolve.richardson
_assemble_block = operators._assemble_block
_floor = eigensolve.mode_lower_bound_term
_area_bound = bounds.area_bound
_probe = eigensolve.truncation_probe
_section_energy = operators.section_energy


def _finest_level(seq):
    _, bar, order = _richardson(seq)
    return float(seq[-1]), bar, order


def _without_half_log(surface, grid, kind, coef, samples):
    if kind == operators.KIND_DIRAC:
        samples = samples._replace(half_log=np.zeros_like(samples.half_log))
    return _assemble_block(surface, grid, kind, coef, samples)


def _mass_halved_at_free_sides(surface, grid, kind, coef, samples):
    block = _assemble_block(surface, grid, kind, coef, samples)
    bc = operators.block_boundary_conditions(kind, coef, grid)
    mass = np.array(block.mass)
    for end, side in ((0, bc[0]), (-1, bc[1])):
        if side == operators.FREE:
            mass[end] *= 0.5
    return dataclasses.replace(block, mass=mass)


def _energy_without_end_elements(op, phi):
    total = _section_energy(op, phi)
    for block, comp in zip(op.blocks, phi.components()):
        au = block.factor(comp)
        total -= block.w_e[0] * au[0] ** 2 + block.w_e[-1] * au[-1] ** 2
    return float(total)


def _connection_energy_with_kappa_k(surface, op, phi):
    # K |phi|^2 in place of scal/4 |phi|^2 = (K/2) |phi|^2
    kap = geometry.gauss_curvature(surface, op.grid.nodes)
    return _section_energy(op, phi) - sum(
        float(np.sum(b.mass * kap * c ** 2))
        for b, c in zip(op.blocks, phi.components()))


def _probe_counts_halved(*args, **kwargs):
    probe = _probe(*args, **kwargs)
    counts = [c // 2 for c in probe.counts]
    return dataclasses.replace(
        probe, counts=counts,
        stable=len(counts) >= 2 and counts[-1] == counts[-2])


def _outcome_of(pairs, what=FAILS) -> dict:
    return {pair: what for pair in pairs}


_DIRAC_TONE_FAILS = [(sid, check) for sid in ("round-sphere", "cover-m1",
                                               "cover-m2", "cover-m3",
                                               "cover-m5")
                     for check in ("dirac_tone", "bound:friedrich")]

# With no floor above the tone or threshold no walk is pruned, and every
# check that reads an uncertified tone or probe fails: all of round-sphere's
# and each flat cylinder's, the Dirac tone and its verdicts elsewhere, and
# each probe check
_UNPRUNED_FAILS = (
    [("round-sphere", "tone_attaining_mode")]
    + [(sid, check)
       for sid in ["round-sphere"] + [
           f"flat-cylinder-l{length}-{spin}" for length in (2, 5, 10)
           for spin in ("bounding", "nonbounding")]
       for check in ("laplace_tone", "dirac_tone", "killing", "bound:area",
                     "bound:friedrich", "bound:lichnerowicz")]
    + [pair for pair in _DIRAC_TONE_FAILS if pair[0] != "round-sphere"]
    + [("growing-curvature", "bound:area"),
       ("growing-curvature", "bound:friedrich"),
       ("growing-curvature", "probe"), ("long-cylinder-probe", "probe")])

# id, replacements, the checks that fail or raise, and for a defect that no
# check catches the reason it slips through
DEFECTS = [
    ("richardson-returns-finest-level",
     {eigensolve.richardson: _finest_level}, {},
     "the finest level of every closed-form tone is within its 1e-3 "
     "tolerance, so no tone check needs the extrapolation"),
    ("dirac-factor-without-half-log",
     {_assemble_block: _without_half_log},
     _outcome_of(_DIRAC_TONE_FAILS + [
         ("round-sphere", "bound:area"), ("round-sphere", "killing"),
         ("growing-curvature", "bound:area"),
         ("growing-curvature", "bound:friedrich")]), None),
    ("curvature-bound-kappa",
     {bounds.friedrich_bound: lambda n, kappa: kappa},
     _outcome_of([("round-sphere", "killing")]
                 + [(sid, "bound:friedrich") for sid in (
                     "round-sphere", "cover-m1", "cover-m2", "cover-m3",
                     "cover-m5")]), None),
    ("every-mode-floor-zero",
     {eigensolve.mode_lower_bound_term: lambda nu, f: 0.0},
     {**_outcome_of(_UNPRUNED_FAILS),
      **_outcome_of([("cusp-cylinder-l10", "bound:friedrich")],
                    "ConvergenceError")},
     None),
    ("floor-prunes-every-mode-from-0.6",
     {eigensolve.mode_lower_bound_term:
      lambda nu, f: np.inf if nu >= 0.6 else _floor(nu, f)}, {},
     "every built-in tone is attained at nu = 0 or 1/2, below the cut, and "
     "no probe threshold reaches a mode above it"),
    ("dirichlet-at-every-end",
     {operators.block_boundary_conditions:
      lambda kind, coef, grid: (operators.DIRICHLET,) * 2},
     _outcome_of([("round-sphere", "dirac_tone"), ("round-sphere", "killing"),
                  ("cover-m1", "dirac_tone")]), None),
    ("area-bound-2pi-over-area",
     {bounds.area_bound: lambda area: _area_bound(area) / 2},
     _outcome_of([("cusp-cylinder-l10", "bound:area"),
                  ("flat-cylinder-l5-nonbounding", "bound:area"),
                  ("round-sphere", "bound:area")]), None),
    ("margin-bar-factor-300",
     {(bounds, "MARGIN_BAR_FACTOR"): 300.0}, {},
     "no built-in verdict has a margin between 3 and 300 error bars"),
    ("probe-counts-halved",
     {eigensolve.truncation_probe: _probe_counts_halved},
     _outcome_of([("long-cylinder-probe", "probe")]), None),
    ("block-mass-halved-at-a-free-side",
     {_assemble_block: _mass_halved_at_free_sides}, {},
     "it moves five closed-form tones by at most 4e-8, inside their 1e-3 "
     "tolerance; test_operators pins the node rule instead"),
    ("energy-over-interior-elements-only",
     {_section_energy: _energy_without_end_elements},
     _outcome_of([("cover-m1", "bound:lichnerowicz")]
                 + [(f"flat-cylinder-l{length}-nonbounding",
                     "section_rayleigh:dirichlet_sine")
                    for length in (2, 5)]), None),
    ("connection-energy-with-kappa-k",
     {operators.bochner_gradient_energy: _connection_energy_with_kappa_k},
     _outcome_of([("round-sphere", "killing")]), None),
]


@pytest.mark.parametrize("replacements,expected,gap",
                         [row[1:] for row in DEFECTS],
                         ids=[row[0] for row in DEFECTS])
def test_planted_defect(replacements, expected, gap):
    # a row is either caught by some built-in check or a gap with a reason
    assert bool(expected) != bool(gap)
    with _planted(replacements):
        outcomes = _outcomes()
    assert outcomes == expected

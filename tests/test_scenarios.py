import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from diraclab import scenarios
from diraclab.errors import CatalogError
from diraclab.operators import (KIND_DIRAC, KIND_LAPLACIAN,
                                assemble_laplacian, make_grid, sample_grid)
from diraclab.scenarios import (
    builtin_catalog,
    cover_scenario,
    eval_test_section,
    find_scenario,
    mk_orthogonality,
    scenario_from_json,
    section_norm2,
)


def test_catalog_ids_unique_and_expected_members():
    ids = [s.id for s in builtin_catalog()]
    assert len(set(ids)) == len(ids)
    for required in ("round-sphere", "cover-m2", "cover-m3", "cover-m5",
                     "flat-cylinder-l2-bounding",
                     "flat-cylinder-l5-nonbounding",
                     "flat-cylinder-l10-nonbounding",
                     "cusp-cylinder-l10", "growing-curvature"):
        assert required in ids


def test_builtins_roundtrip_as_scenario_documents():
    # every built-in is a valid user scenario document that reads back
    # into the same scenario
    for sc in builtin_catalog():
        doc = sc.to_json()
        back = scenario_from_json(json.loads(json.dumps(doc)))
        assert back.to_json() == doc, sc.id


def _edit_every_item(node):
    """Overwrite every leaf under a JSON container, in place, and add an
    item to every dict and list on the way."""
    for key, value in list(node.items() if isinstance(node, dict)
                           else enumerate(node)):
        if isinstance(value, (dict, list)):
            _edit_every_item(value)
        else:
            node[key] = "edited"
    if isinstance(node, dict):
        node["edited"] = "edited"
    else:
        node.append("edited")


def test_editing_a_document_leaves_the_built_in_unchanged():
    # to_json shares no container with the cached built-in at any depth:
    # a probe's windows, a section's params and every other nested item
    # of the document can be edited in place
    for sc in builtin_catalog():
        ref = json.loads(json.dumps(sc.to_json()))
        _edit_every_item(sc.to_json())
        assert sc.to_json() == ref, sc.id
        assert find_scenario(sc.id).to_json() == ref, sc.id


def test_catalog_has_one_source():
    # the generator functions are the only copy of the catalog: the
    # package ships Python modules only, and reads no packaged data
    package = Path(scenarios.__file__).parent
    shipped = {p.relative_to(package).as_posix()
               for p in package.rglob("*") if "__pycache__" not in p.parts}
    assert shipped == {p.name for p in package.glob("*.py")}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            else:
                continue
            assert "importlib.resources" not in names, path.name


def test_every_expected_value_carries_provenance():
    for sc in builtin_catalog():
        for exp in sc.expected:
            assert exp.get("provenance"), (sc.id, exp["check"])


def test_unknown_scenario_raises():
    with pytest.raises(CatalogError):
        find_scenario("no-such-scenario")


def test_find_scenario_builds_the_catalog_only_up_to_its_match(
        monkeypatch):
    # from an empty cache, resolving one id builds the built-ins before it
    # in catalog order and stops: round-sphere needs neither the cusp table
    # nor growing-curvature's integration, the two costly builds
    catalog = builtin_catalog()

    def costly(*args, **kwargs):
        raise AssertionError("a later built-in was built")
    monkeypatch.setattr(scenarios, "_CATALOG_CACHE", None)
    monkeypatch.setattr(scenarios, "_cusp_profile", costly)
    monkeypatch.setattr(scenarios, "_growing_profile", costly)
    for sc in catalog[:-3]:
        assert find_scenario(sc.id).to_json() == sc.to_json()
    assert scenarios._CATALOG_CACHE is None
    # with the cache built, every id resolves to the catalog's own object
    monkeypatch.setattr(scenarios, "_CATALOG_CACHE", catalog)
    assert all(find_scenario(sc.id) is sc for sc in catalog)
    with pytest.raises(CatalogError):
        find_scenario("no-such-scenario")


def test_cover_test_function_norm():
    # separated norm matches (P/2) * 4/3 = 4 k pi / 3, and is half the mass
    # form of the mode-1/k Laplace block section_rayleigh divides by
    for k in (1, 2, 3, 5):
        sc = cover_scenario(k)
        for n in (128, 512):
            grid = make_grid(sc.surface, n)
            val = section_norm2(sc, "f_k", grid,
                                sample_grid(sc.surface, grid).w)
            sec = eval_test_section(sc, "f_k", grid)
            block = assemble_laplacian(sc.surface, sec.nu, grid).blocks[0]
            assert val == pytest.approx(0.5 * block.mass_form(sec.values),
                                        rel=1e-13)
            if n == 512:
                assert abs(val - 4 * k * math.pi / 3) < 1e-6


def test_cover_orthogonality_to_constants():
    for k in (1, 2, 3):
        sc = cover_scenario(k)
        grid = make_grid(sc.surface, 256)
        w = sample_grid(sc.surface, grid).w
        assert abs(mk_orthogonality(sc, grid, w)) <= 1e-12


def test_eval_sections():
    m2 = cover_scenario(2)
    grid = make_grid(m2.surface, 128)
    sec = eval_test_section(m2, "f_k", grid)
    assert sec.kind == KIND_LAPLACIAN
    assert sec.nu == pytest.approx(0.5)
    assert np.allclose(sec.values, np.cos(grid.nodes))

    cyl = find_scenario("flat-cylinder-l5-nonbounding")
    grid = make_grid(cyl.surface, 128)
    sine = eval_test_section(cyl, "dirichlet_sine", grid)
    assert sine.kind == KIND_DIRAC
    assert sine.values.shape == (2, grid.n)
    assert np.allclose(sine.values[1], 0.0)

    with pytest.raises(CatalogError):
        eval_test_section(m2, "no-such-section", grid)


def test_cover_spin_parity_rule():
    # covering pullback: odd covers stay bounding, even become non-bounding
    from diraclab.spin import SpinStructure
    assert cover_scenario(1).spin is SpinStructure.BOUNDING
    assert cover_scenario(2).spin is SpinStructure.NON_BOUNDING
    assert cover_scenario(3).spin is SpinStructure.BOUNDING
    assert cover_scenario(5).spin is SpinStructure.BOUNDING
    with pytest.raises(CatalogError):
        cover_scenario(0)


def test_cusp_cylinder_geometry_numbers():
    from diraclab import geometry
    sc = find_scenario("cusp-cylinder-l10")
    target = 2 * math.pi * 10 + 2 * math.pi
    assert geometry.area(sc.surface) == pytest.approx(target, rel=1e-3)
    assert geometry.end_kind(sc.surface, "lower") == "cusp"
    assert geometry.end_kind(sc.surface, "upper") == "cusp"


def test_growing_curvature_profile_matches_target_curvature():
    from diraclab.geometry import gauss_curvature
    sc = find_scenario("growing-curvature")
    t = np.linspace(-0.9 * sc.surface.t_max, 0.9 * sc.surface.t_max, 101)
    K = gauss_curvature(sc.surface, t)
    assert np.max(np.abs(K - (1 + t ** 2))) < 1e-3

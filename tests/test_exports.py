"""The package's exports load their modules on first use."""

import importlib

import pytest

import dualgraphs

EXPORTS = [
    "QQ", "BettiProfile", "FieldSpec", "Graph", "HirschVerdict",
    "RegularityCertificate", "SimplicialComplex", "contains_forbidden_line_graph",
    "crosspolytope_boundary", "diameter", "dual_graph", "edge_connectivity", "full_simplex",
    "generate_complex", "generate_graph", "hirsch_verdict", "is_cohen_macaulay",
    "is_gorenstein", "is_homology_sphere", "is_k_connected", "is_normal",
    "menger_diameter_bounds", "non_revisiting_path", "prime_field", "rank",
    "reduced_betti_numbers", "regularity", "simplex_boundary", "tadpole_complex",
    "vertex_connectivity",
]


def test_all_is_unchanged():
    assert dualgraphs.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_owner_modules_object(name):
    owner = importlib.import_module(f"dualgraphs.{dualgraphs._OWNERS[name]}")
    assert getattr(dualgraphs, name) is getattr(owner, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dualgraphs import *", namespace)
    assert all(namespace[name] is getattr(dualgraphs, name) for name in EXPORTS)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        dualgraphs.nosuch
    assert not hasattr(dualgraphs, "_nosuch")
    with pytest.raises(ImportError):
        exec("from dualgraphs import nosuch", {})
    from dualgraphs import reports

    with pytest.raises(AttributeError, match="module 'dualgraphs.reports' has no attribute 'nosuch'"):
        reports.nosuch

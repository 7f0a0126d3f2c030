"""Dual graphs and homological invariants of squarefree monomial ideals,
rational subspace arrangements, and projective line arrangements.

The names below load their module on first use (PEP 562): importing the
package loads none of its modules.
"""

#: Each exported name and the module that defines it.
_OWNERS = {
    "QQ": "linalg",
    "BettiProfile": "homology",
    "FieldSpec": "linalg",
    "Graph": "graphs",
    "HirschVerdict": "graphs",
    "RegularityCertificate": "homology",
    "SimplicialComplex": "complexes",
    "contains_forbidden_line_graph": "graphs",
    "crosspolytope_boundary": "complexes",
    "diameter": "graphs",
    "dual_graph": "homology",
    "edge_connectivity": "graphs",
    "full_simplex": "complexes",
    "generate_complex": "complexes",
    "generate_graph": "graphs",
    "hirsch_verdict": "graphs",
    "is_cohen_macaulay": "homology",
    "is_gorenstein": "homology",
    "is_homology_sphere": "homology",
    "is_k_connected": "graphs",
    "is_normal": "homology",
    "menger_diameter_bounds": "graphs",
    "non_revisiting_path": "homology",
    "prime_field": "linalg",
    "rank": "linalg",
    "reduced_betti_numbers": "homology",
    "regularity": "homology",
    "simplex_boundary": "complexes",
    "tadpole_complex": "complexes",
    "vertex_connectivity": "graphs",
}

__all__ = list(_OWNERS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)

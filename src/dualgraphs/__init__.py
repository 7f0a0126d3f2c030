"""Dual graphs and homological invariants of squarefree monomial ideals,
rational subspace arrangements, and projective line arrangements."""

from .complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    full_simplex,
    generate_complex,
    simplex_boundary,
    tadpole_complex,
)
from .graphs import (
    Graph,
    HirschVerdict,
    contains_forbidden_line_graph,
    diameter,
    dual_graph,
    edge_connectivity,
    generate_graph,
    hirsch_verdict,
    is_k_connected,
    menger_diameter_bounds,
    non_revisiting_path,
    vertex_connectivity,
)
from .homology import (
    BettiProfile,
    RegularityCertificate,
    is_cohen_macaulay,
    is_gorenstein,
    is_homology_sphere,
    is_normal,
    reduced_betti_numbers,
    regularity,
)
from .linalg import QQ, FieldSpec, RationalMatrix, prime_field, rank

__all__ = [
    "QQ",
    "BettiProfile",
    "FieldSpec",
    "Graph",
    "HirschVerdict",
    "RationalMatrix",
    "RegularityCertificate",
    "SimplicialComplex",
    "contains_forbidden_line_graph",
    "crosspolytope_boundary",
    "diameter",
    "dual_graph",
    "edge_connectivity",
    "full_simplex",
    "generate_complex",
    "generate_graph",
    "hirsch_verdict",
    "is_cohen_macaulay",
    "is_gorenstein",
    "is_homology_sphere",
    "is_k_connected",
    "is_normal",
    "menger_diameter_bounds",
    "non_revisiting_path",
    "prime_field",
    "rank",
    "reduced_betti_numbers",
    "regularity",
    "simplex_boundary",
    "tadpole_complex",
    "vertex_connectivity",
]

__version__ = "0.1.0"

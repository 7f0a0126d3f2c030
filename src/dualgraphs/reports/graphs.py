"""The graph report: its checks and its builder."""

from __future__ import annotations

from .. import graphs as graph_mod
from ..errors import HypothesisError
from . import _MENGER, Check, _diam_value, _kappa, _lambda, _run_checks, _violated


def _verify_line_pattern(g, canonical):
    if graph_mod.contains_forbidden_line_graph(g) is None:
        return True, ("pattern absent: realizability unknown"
                      " (only the necessary condition is checked)")
    return False, ("contains the forbidden 6-vertex pattern: not realizable as the"
                   " dual graph of a line arrangement or of a pure simplicial complex")


#: Objects: the graph, and its ``CanonicalGraphCheck`` or the
#: ``HypothesisError`` that ``check_canonical_graph`` raised.
_GRAPH_CHECKS = (
    Check("forbidden_pattern_screen",
          "dual graphs of line arrangements never contain the forbidden"
          " 6-vertex pattern as an induced subgraph",
          lambda g, canonical: None,
          _verify_line_pattern),
    Check("canonical_graph_diameter",
          "3-edge-connected graphs on s >= 4 vertices modelling canonical"
          " curves satisfy diam <= t - s - 1",
          lambda g, canonical: _violated(canonical),
          lambda g, canonical: (
              canonical.passed,
              f"diameter {_diam_value(canonical.diameter)} vs t-s-1 = {canonical.height}"
              f" ({canonical.branch} branch)")),
    _MENGER,
)


def build_graph_report(g: Graph, descriptor: str = "graph") -> dict:
    witness = graph_mod.contains_forbidden_line_graph(g)
    try:
        canonical = graph_mod.check_canonical_graph(g)
    except HypothesisError as exc:
        canonical = exc
    return {
        "kind": "graph",
        "input": descriptor,
        "n_vertices": g.n,
        "n_edges": g.m,
        "min_degree": g.min_degree() if g.n else None,
        "diameter": _diam_value(graph_mod.diameter(g)) if g.n else None,
        "vertex_connectivity": _kappa(g),
        "edge_connectivity": _lambda(g),
        "forbidden_subgraph_witness":
            None if witness is None else {str(k): str(v) for k, v in witness.items()},
        "line_realizability": "unknown" if witness is None else "not_realizable",
        "checks": _run_checks(_GRAPH_CHECKS, (g, canonical)),
        "warnings": [],
    }

"""The line arrangement report: its checks and its builder."""

from __future__ import annotations

from .. import lines as lines_mod
from ..errors import HypothesisError
from ..graphs import HirschVerdict
from . import OMIT, Check, _diam_value, _graph_stats, _lambda, _run_checks, _unless, _violated


#: Objects: the dual graph, the line arrangement, and what
#: ``canonical_hirsch_verdict`` gave: the dual graph's ``CanonicalGraphCheck``,
#: None when it is not 3-edge-connected, or the ``HypothesisError`` it raised.
_LINES_CHECKS = (
    Check("canonical_hirsch",
          "canonically embedded triple-point-free line arrangements"
          " satisfy diam <= height = genus - 2",
          lambda g, arr, curve: _violated(curve) or _unless(
              curve, f"dual graph is only {_lambda(g)}-edge-connected:"
              " not canonically embeddable"),
          lambda g, arr, curve: (
              curve.passed,
              f"diameter {_diam_value(curve.diameter)} vs height {curve.height}"
              f" ({curve.branch} branch)")),
    Check("trivalent_three_connected", "3-edge-connected trivalent graphs are 3-connected",
          lambda g, arr, curve: _unless(getattr(curve, "branch", None) == "trivalent", OMIT),
          lambda g, arr, curve: (curve.trivalent_three_connected,
                                 f"3-connected = {curve.trivalent_three_connected}")),
)


def build_lines_report(arr, descriptor: str = "lines") -> dict:
    ok, pt = lines_mod.no_triple_points(arr)
    g = lines_mod.dual_graph(arr)
    genus = lines_mod.genus(arr) if ok else None
    out = {
        "kind": "lines",
        "input": descriptor,
        "ambient_dim": arr.ambient_dim,
        "n_lines": arr.n_lines,
        "n_intersections": g.m,
        "triple_point_free": ok,
        "offending_point": None if ok else list(pt),
        "genus": genus,
        "height": None if genus is None else genus - 2,
        "dual_graph": _graph_stats(g),
        "three_edge_connected": None,
        "verdict": None,
        "branch": None,
        "trivalent_three_connected": None,
        "checks": [],
        "warnings": [],
    }
    try:
        curve = lines_mod.canonical_hirsch_verdict(arr)
    except HypothesisError as exc:
        curve = exc
        out["warnings"].append(str(exc))
    else:
        out.update(three_edge_connected=curve is not None,
                   verdict=lines_mod.VERDICT_NOT_EMBEDDABLE)
        if curve is not None:
            out.update(
                verdict=(HirschVerdict.HIRSCH if curve.passed else HirschVerdict.NOT_HIRSCH).value,
                branch=curve.branch,
                trivalent_three_connected=curve.trivalent_three_connected,
            )
    out["checks"] = _run_checks(_LINES_CHECKS, (g, arr, curve))
    return out

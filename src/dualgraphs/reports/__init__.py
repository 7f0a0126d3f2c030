"""Analysis reports: JSON-ready dictionaries plus a text renderer.

Each analyzer builds one dict (stable key order, snake_case keys) and the
text format is rendered from that same dict, so both output formats always
carry identical numbers.

The checks list holds one entry per verifiable statement. Each report kind
declares its checks once, in a table of ``Check`` entries run in order by
``_run_checks``; a run of per-field checks is emitted field by field. A
check's ``applies`` rule returns None when the statement's hypotheses hold,
a reason string when they do not -- the entry is then ``not_applicable``
with the violated hypothesis named, never a failure -- or ``OMIT`` when the
report leaves the check out because the input has nothing it could be
about (no dual graph, the wrong height, another branch of the argument).
``verify`` runs only on applicable checks and returns (passed, detail).

Both read the analyzed objects, never the report dict: the dual graph
first, then the input and what the report derived from it. Invariants are
computed once and kept on the object that owns them (the ``Graph``, the
``LineArrangement``, the ``SubspaceArrangement``), and package functions are
looked up through their modules when a check runs.

This module holds what every kind shares: ``Check`` and ``_run_checks``,
the statuses, the dual-graph statistics, and the Menger and small-case
checks. A command builds one kind and renders text only under ``--format
text``, so each kind's table and builder live in a submodule of their own
(``complexes``, ``arrangements``, ``lines``, ``graphs``), each importing the
package modules of its kind, and the renderer lives in ``text``. The names
``build_*_report`` and ``render_text`` still resolve here, loading their
submodule on first use (PEP 562), because callers and the benchmark's
tracer import them from ``reports``.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Callable, NamedTuple

from .. import graphs as graph_mod
from ..errors import HypothesisError
from ..graphs import HirschVerdict

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NA = "not_applicable"

#: Applicability result for a check the report leaves out.
OMIT = object()


class Check(NamedTuple):
    """One check of one report kind, declared once (see the module docstring)."""

    id: str
    statement: str
    applies: Callable  # (*objects) -> None | reason | OMIT
    verify: Callable  # (*objects) -> (passed, detail)
    per_field: bool = False


def _run_checks(table, objects: tuple, fields=()) -> list[dict]:
    """Entries of ``table`` on ``objects``; per-field checks also get each of
    ``fields`` in turn."""
    entries = []
    for per_field, group in itertools.groupby(table, key=lambda c: c.per_field):
        group = list(group)
        for field in fields if per_field else (None,):
            args = objects + (field,) if per_field else objects
            for check in group:
                reason = check.applies(*args)
                if reason is OMIT:
                    continue
                if reason is None:
                    passed, detail = check.verify(*args)
                    status = STATUS_PASS if passed else STATUS_FAIL
                else:
                    status, detail = STATUS_NA, reason
                entries.append({"id": check.id, "statement": check.statement,
                                "field": field.name if per_field else None,
                                "status": status, "detail": detail})
    return entries


def _unless(holds, reason):
    """Applicability: None (the check applies) when ``holds``, else ``reason``."""
    return None if holds else reason


def _violated(outcome):
    """The message when a verifier refused its input, else None."""
    return str(outcome) if isinstance(outcome, HypothesisError) else None


def _diam_value(d):
    return "infinite" if d == inf else d


def _kappa(g: Graph):
    return graph_mod.vertex_connectivity(g)[0] if g.n >= 2 else None


def _lambda(g: Graph):
    return graph_mod.edge_connectivity(g)[0] if g.n >= 2 else None


def _graph_stats(g: Graph) -> dict:
    kappa, vcut = graph_mod.vertex_connectivity(g) if g.n >= 2 else (None, None)
    lam, ecut = graph_mod.edge_connectivity(g) if g.n >= 2 else (None, None)
    return {
        "vertices": [str(v) for v in g.vertices],
        "n_vertices": g.n,
        "n_edges": g.m,
        "edges": [[str(u), str(v)] for u, v in g.edges],
        "diameter": _diam_value(graph_mod.diameter(g)) if g.n else None,
        "vertex_connectivity": kappa,
        "edge_connectivity": lam,
        "min_vertex_cut": None if vcut is None else [str(v) for v in vcut],
        "min_edge_cut": None if ecut is None else [[str(u), str(v)] for u, v in ecut],
    }


def _verify_menger(g, *_objects):
    diam = graph_mod.diameter(g)
    bound_a = graph_mod.menger_diameter_bounds(g.n, g.m, _kappa(g))[0]
    bound_b = graph_mod.menger_diameter_bounds(g.n, g.m, _lambda(g))[1]
    ok = diam <= bound_a and diam <= bound_b
    return ok, f"diameter {_diam_value(diam)} <= {bound_a}, {bound_b}"


#: Declared as arrangements and graphs use it: left out unless the dual graph
#: has two vertices and is connected. Complexes call that not applicable.
_MENGER = Check(
    "connectivity_diameter_bounds",
    "connectivity bounds the diameter: floor((s-2)/k)+1 and floor(t/k)",
    lambda g, *_objects: _unless(g is not None and g.n >= 2 and _kappa(g) >= 1, OMIT),
    _verify_menger)

_SMALL_CASES = "small-case guarantees force the Hirsch bound"


def _small_case_verdict(g, height, cases):
    ok = graph_mod.hirsch_verdict(graph_mod.diameter(g), height) == HirschVerdict.HIRSCH
    return ok, "applicable: " + "; ".join(cases)


#: Each name defined in a submodule, and that submodule.
_OWNERS = {
    "build_complex_report": "complexes",
    "build_arrangement_report": "arrangements",
    "build_lines_report": "lines",
    "build_graph_report": "graphs",
    "render_text": "text",
}


def __getattr__(name):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)

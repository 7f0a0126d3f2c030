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
looked up through their modules when a check runs. Only ``graphs`` serves
every report kind; each builder imports the modules of its own kind.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Callable, NamedTuple

from . import graphs as graph_mod
from .errors import DEFAULT_MAX_HOCHSTER_VERTICES, HypothesisError, ResourceCapError
from .graphs import HirschVerdict

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


# -- complexes ----------------------------------------------------------------


class _FieldResult(NamedTuple):
    """What a complex report computes over one coefficient field."""

    name: str
    cohen_macaulay: bool
    gorenstein: bool
    sphere: bool | None
    regularity: int
    normal: bool | None  # field-free; read by the per-field check cm_normal


def _pure(cx):
    return _unless(cx.is_pure, "complex is not pure")


def _pure_cm(cx, f):
    return _pure(cx) or _unless(f.cohen_macaulay, f"not Cohen-Macaulay over {f.name}")


def _has_dual_graph(cx):
    return _unless(cx.is_pure, OMIT)


def _h_degree(cx):
    return max((j for j, v in enumerate(cx.h_vector) if v), default=0)


def _verify_nonrevisiting(g, cx, f):
    diam, height = graph_mod.diameter(g), cx.height()
    missing = graph_mod.first_pair_without_nonrevisiting_path(cx)
    if missing is not None:
        f1, f2 = missing
        return False, (f"no non-revisiting path between"
                       f" {','.join(map(str, f1))} and {','.join(map(str, f2))}")
    if diam > height:
        return False, f"diameter {_diam_value(diam)} > height {height}"
    return True, (f"paths found for all {g.n * (g.n - 1) // 2} facet pairs,"
                  f" diameter {_diam_value(diam)} <= height {height}")


def _verify_regularity_vertex(g, cx, f):
    bound = graph_mod.regularity_vertex_bound(cx.height(), f.regularity)
    return g.n <= bound, f"{g.n} facets <= bound {bound}"


def _larman_range(cx):
    n, c = cx.n_vertices, cx.height()
    return _unless(n - c - 3 >= 0, f"n-c-3 = {n - c - 3} < 0") or _unless(c >= 1, "height 0")


def _verify_larman(g, cx, f):
    bound = graph_mod.larman_diameter_bound(cx.n_vertices, cx.height())
    diam = graph_mod.diameter(g)
    return diam != inf and diam <= bound, f"diameter {_diam_value(diam)} <= bound {bound}"


def _complex_small_cases(cx, f) -> list[str]:
    height = cx.height()
    cases = [
        (cx.n_facets == 1, "prime ideal (single facet)"),
        (cx.dimension == 0, "finite set of points"),
        (height == 1, "hypersurface (height 1)"),
        (f.cohen_macaulay and f.regularity <= 1,
         f"Cohen-Macaulay of regularity <= 1 over {f.name}"),
        (cx.n_vertices <= 3, "at most 3 variables"),
        (height == 2 and cx.max_generator_degree() <= 2 and f.cohen_macaulay,
         f"height-2 quadratic Cohen-Macaulay over {f.name}"),
        (f.gorenstein and f.regularity == 2, f"Gorenstein of regularity 2 over {f.name}"),
    ]
    return [case for holds, case in cases if holds]


def _complete_intersection(cx):
    """Pairwise-disjoint minimal nonfaces."""
    nonfaces = [set(nf) for nf in cx.minimal_nonfaces]
    if not nonfaces:
        return "the nonface ideal is zero"
    disjoint = all(not (a & b) for a, b in itertools.combinations(nonfaces, 2))
    return _unless(disjoint, "nonface ideal is not a complete intersection")


def _verify_complete_intersection(g, cx):
    level = (min(len(nf) for nf in cx.minimal_nonfaces) - 1) * cx.height()
    ok = level == 0 or graph_mod.is_k_connected(g, level)
    return ok, f"(d-1)c = {level}, vertex connectivity {_kappa(g)}"


def _verify_degree_vertex(g, cx):
    k, c = cx.max_generator_degree(), cx.height()
    bound = graph_mod.degree_vertex_bound(k, c)
    return g.n <= bound, f"{g.n} facets <= bound {bound} (k={k}, c={c})"


def _verify_degree_diameter(g, cx):
    diam = graph_mod.diameter(g)
    bound = graph_mod.degree_diameter_bound(cx.max_generator_degree(), cx.height())
    return diam <= bound, f"diameter {diam} <= bound {bound}"


def _verify_no_pattern(g, cx):
    witness = graph_mod.contains_forbidden_line_graph(g)
    return witness is None, "pattern absent" if witness is None else f"witness {witness}"


#: Objects: the dual graph (None unless pure) and the complex; per-field
#: checks also get the field's ``_FieldResult``.
_COMPLEX_CHECKS = (
    Check("multiplicity_facet_count", "multiplicity equals the facet count for nonface ideals",
          lambda g, cx: _pure(cx),
          lambda g, cx: (cx.multiplicity() == cx.n_facets,
                         f"h(1) = {cx.multiplicity()}, facets = {cx.n_facets}")),
    Check("cm_connected_dual", "Cohen-Macaulay quotients have connected dual graphs",
          lambda g, cx, f: _pure_cm(cx, f),
          lambda g, cx, f: (graph_mod.diameter(g) != inf,
                            f"diameter = {_diam_value(graph_mod.diameter(g))}"),
          per_field=True),
    Check("gorenstein_regularity_connectivity",
          "Gorenstein quotients of regularity r have r-connected dual graphs",
          lambda g, cx, f: _pure(cx) or _unless(f.gorenstein, f"not Gorenstein over {f.name}"),
          lambda g, cx, f: (f.regularity == 0 or graph_mod.is_k_connected(g, f.regularity),
                            f"regularity {f.regularity}, vertex connectivity {_kappa(g)}"),
          per_field=True),
    Check("sphere_connectivity", "homology d-spheres have (d+1)-connected dual graphs",
          lambda g, cx, f: _pure(cx) or _unless(f.sphere, f"not a homology sphere over {f.name}"),
          lambda g, cx, f: (graph_mod.is_k_connected(g, cx.dimension + 1),
                            f"dimension {cx.dimension}, vertex connectivity {_kappa(g)}"),
          per_field=True),
    Check("cm_regularity_h_degree",
          "for Cohen-Macaulay quotients the regularity is the h-polynomial degree",
          lambda g, cx, f: _pure_cm(cx, f),
          lambda g, cx, f: (f.regularity == _h_degree(cx),
                            f"regularity {f.regularity}, h-degree {_h_degree(cx)}"),
          per_field=True),
    Check("cm_normal", "Cohen-Macaulay complexes are normal",
          lambda g, cx, f: _pure_cm(cx, f),
          lambda g, cx, f: (f.normal, f"normal = {f.normal}"),
          per_field=True),
    Check("flag_cm_nonrevisiting",
          "flag Cohen-Macaulay complexes join facets by non-revisiting paths"
          " and satisfy the Hirsch bound",
          lambda g, cx, f: _pure(cx) or _unless(
              cx.is_flag, "nonface ideal not generated in degree 2") or _pure_cm(cx, f),
          _verify_nonrevisiting,
          per_field=True),
    Check("cm_regularity_vertex_bound",
          "CM quotients of height c and regularity r have at most"
          " sum_i C(c+i-1, i) minimal primes",
          lambda g, cx, f: _pure_cm(cx, f) or _unless(cx.height() >= 1, "height 0"),
          _verify_regularity_vertex,
          per_field=True),
    Check("cm_larman_diameter_bound", "CM monomial quotients satisfy diam <= 2^(n-c-3) * n",
          lambda g, cx, f: _pure_cm(cx, f) or _larman_range(cx),
          _verify_larman,
          per_field=True),
    Check("small_case_hirsch", _SMALL_CASES,
          lambda g, cx, f: _pure(cx) or _unless(_complex_small_cases(cx, f),
                                                "no small case applies"),
          lambda g, cx, f: _small_case_verdict(g, cx.height(), _complex_small_cases(cx, f)),
          per_field=True),
    Check("complete_intersection_connectivity",
          "complete intersections of height c with minimal generator"
          " degree d have (d-1)c-connected dual graphs",
          lambda g, cx: _has_dual_graph(cx) or _complete_intersection(cx),
          _verify_complete_intersection),
    Check("generator_degree_vertex_bound",
          "height-c ideals generated in degree <= k have at most k^c minimal primes",
          lambda g, cx: _has_dual_graph(cx) or _unless(
              cx.max_generator_degree() >= 1 and cx.height() >= 1, "the nonface ideal is zero"),
          _verify_degree_vertex),
    _MENGER._replace(applies=lambda g, cx: _has_dual_graph(cx) or _unless(
        g.n >= 2 and _kappa(g) >= 1, "dual graph disconnected or trivial")),
    Check("degree_diameter_bound",
          "connected height-c ideals generated in degree <= d have diam <= d^c - 2",
          lambda g, cx: _has_dual_graph(cx) or _unless(
              cx.height() >= 2 and cx.max_generator_degree() >= 1
              and graph_mod.diameter(g) != inf, "needs height >= 2 and a connected dual graph"),
          _verify_degree_diameter),
    Check("forbidden_pattern_screen",
          "dual graphs of pure complexes never contain the forbidden"
          " 6-vertex pattern as an induced subgraph",
          lambda g, cx: _has_dual_graph(cx),
          _verify_no_pattern),
)


def build_complex_report(
    cx: SimplicialComplex,
    fields: tuple[FieldSpec, ...] | None = None,
    max_hochster_n: int = DEFAULT_MAX_HOCHSTER_VERTICES,
    descriptor: str = "complex",
) -> dict:
    """The complex report over each of ``fields`` (default: Q alone)."""
    from . import homology

    report = {
        "kind": "complex",
        "input": descriptor,
        "n_vertices": cx.n_vertices,
        "n_facets": cx.n_facets,
        "vertices": [str(v) for v in cx.vertices],
        "facets": [[str(v) for v in f] for f in cx.facet_labels()],
    }
    warnings: list[str] = []
    if cx.is_void:
        report.update(
            dimension=None, pure=None, flag=None, f_vector=None, h_vector=None,
            height=None, multiplicity=None, minimal_nonfaces=None,
            max_generator_degree=None, fields={}, normal=None, dual_graph=None,
            hirsch=None, checks=[],
            warnings=["void complex: nothing to analyze"],
        )
        return report

    if cx.n_vertices > max_hochster_n:
        raise ResourceCapError(
            f"{cx.n_vertices} vertices exceed the regularity sweep cap"
            f" {max_hochster_n} (2^n restrictions); raise --max-hochster-n"
        )

    pure = cx.is_pure
    report["dimension"] = cx.dimension
    report["pure"] = pure
    report["f_vector"] = list(cx.f_vector)
    report["minimal_nonfaces"] = [[str(v) for v in nf] for nf in cx.minimal_nonfaces]
    report["max_generator_degree"] = cx.max_generator_degree()
    report["flag"] = cx.is_flag
    if pure:
        report["h_vector"] = list(cx.h_vector)
        report["height"] = cx.height()
        report["multiplicity"] = cx.multiplicity()
    else:
        report["h_vector"] = None
        report["height"] = None
        report["multiplicity"] = None
        warnings.append("complex is not pure: h-vector, height, and dual graph skipped")

    normal = homology.is_normal(cx) if pure else None
    results = []
    report["fields"] = {}
    if fields is None:
        fields = (homology.QQ,)
    for field in dict.fromkeys(fields):  # a repeated field is analyzed once
        # the whole profile before regularity builds the core: a smaller peak
        betti = homology.reduced_betti_numbers(cx, field)
        cert = homology.regularity(cx, field, max_vertices=max_hochster_n)
        result = _FieldResult(
            str(field),
            homology.is_cohen_macaulay(cx, field),
            homology.is_gorenstein(cx, field),
            homology.is_homology_sphere(cx, field) if pure else None,
            cert.value,
            normal,
        )
        results.append(result)
        report["fields"][result.name] = {
            "cohen_macaulay": result.cohen_macaulay,
            "gorenstein": result.gorenstein,
            "homology_sphere": result.sphere,
            "regularity": cert.value,
            "regularity_witness": {
                "vertices": [str(v) for v in cert.witness_vertices],
                "index": cert.witness_index,
            },
            "reduced_betti": list(betti.reduced),
        }
    report["normal"] = normal

    g = dual = hirsch = None
    if pure:
        g = graph_mod.dual_graph(cx)
        diam = graph_mod.diameter(g)
        dual = _graph_stats(g)
        hirsch = {
            "diameter": _diam_value(diam),
            "height": cx.height(),
            "verdict": graph_mod.hirsch_verdict(diam, cx.height()).value,
        }
    report["dual_graph"] = dual
    report["hirsch"] = hirsch
    report["checks"] = _run_checks(_COMPLEX_CHECKS, (g, cx), results)
    report["warnings"] = warnings
    return report


# -- arrangements ---------------------------------------------------------------


def _verify_certificate(g, arr, rep):
    rc = rep.regularity_check
    cut = f"; cut {list(map(str, rc.cut))}" if rc.cut else ""
    return rc.passed, f"caller-certified regularity {rc.required}: {rc.note}{cut}"


def _verify_complete(g, *_objects):
    ok = g.is_complete()
    return ok, f"complete = {ok}"


def _arrangement_small_cases(arr, rep) -> list[str]:
    cases = [
        (arr.n_components == 1, "prime ideal"),
        (rep.common_height == 1, "hypersurface"),
        (rep.common_height == rep.n_vars - 1, "finite set of points"),
        (rep.n_vars <= 3, "at most 3 variables"),
    ]
    return [case for holds, case in cases if holds]


#: Objects: the dual graph (None when mixed), the arrangement and its
#: ``ArrangementReport``.
_ARRANGEMENT_CHECKS = (
    Check("multiplicity_component_count",
          "for subspace arrangements the multiplicity is the number of components",
          lambda g, arr, rep: _unless(rep.unmixed, OMIT),
          lambda g, arr, rep: (rep.multiplicity == arr.n_components,
                               f"{rep.multiplicity} = {arr.n_components}")),
    Check("regularity_connectivity",
          "Gorenstein arrangements of regularity r have r-connected dual graphs",
          lambda g, arr, rep: _unless(rep.unmixed, "arrangement is not height-unmixed")
          or _unless(rep.regularity_check is not None, "no regularity certificate supplied"
                     " (Gorensteinness of arrangements is not computed here)"),
          _verify_certificate),
    Check("height_one_complete", "height-1 ideals have complete dual graphs",
          lambda g, arr, rep: _unless(rep.common_height == 1, OMIT),
          _verify_complete),
    Check("points_complete", "ideals of finite point sets have complete dual graphs",
          lambda g, arr, rep: _unless(rep.common_height == rep.n_vars - 1, OMIT),
          _verify_complete),
    Check("small_case_hirsch", _SMALL_CASES,
          lambda g, arr, rep: _unless(rep.unmixed, OMIT) or _unless(
              _arrangement_small_cases(arr, rep), "no small case applies"),
          lambda g, arr, rep: _small_case_verdict(g, rep.common_height,
                                                  _arrangement_small_cases(arr, rep))),
    _MENGER,
)


def build_arrangement_report(
    arr,
    descriptor: str = "arrangement",
    regularity_certificate: int | None = None,
    ds_subset=None,
    sections_applied: int = 0,
) -> dict:
    from .arrangements import analyze_arrangement

    rep = analyze_arrangement(
        arr, regularity_certificate=regularity_certificate, ds_subset=ds_subset
    )
    g = rep.dual_graph
    return {
        "kind": "arrangement",
        "input": descriptor,
        "n_vars": rep.n_vars,
        "n_components": arr.n_components,
        "heights": list(rep.heights),
        "unmixed": rep.unmixed,
        "height": rep.common_height,
        "multiplicity": rep.multiplicity,
        "sections_applied": sections_applied,
        "dual_graph": None if g is None else _graph_stats(g),
        "hirsch": None if g is None else {
            "diameter": _diam_value(rep.diameter),
            "height": rep.common_height,
            "verdict": rep.verdict.value,
        },
        "derksen_sidman_bound": rep.derksen_sidman,
        "checks": _run_checks(_ARRANGEMENT_CHECKS, (g, arr, rep)),
        "warnings": [] if rep.unmixed else ["arrangement is mixed: dual graph undefined"],
    }


# -- lines ------------------------------------------------------------------------


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
    from . import lines as lines_mod

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


# -- graphs -------------------------------------------------------------------------


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


# -- text rendering ------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _render_checks(checks, lines):
    if not checks:
        return
    lines.append("checks:")
    for c in checks:
        tag = {"pass": "pass", "fail": "FAIL", "not_applicable": "not applicable"}[c["status"]]
        field = f" [{c['field']}]" if c["field"] else ""
        lines.append(f"  [{tag}] {c['id']}{field}: {c['detail']}")


def render_text(report: dict) -> str:
    kind = report["kind"]
    lines = [f"== {kind} analysis: {report['input']}"]
    if kind == "complex":
        lines.append(
            f"vertices: {report['n_vertices']}   facets: {report['n_facets']}"
            f"   dimension: {_fmt(report.get('dimension'))}"
            f"   pure: {_fmt(report.get('pure'))}   flag: {_fmt(report.get('flag'))}"
        )
        lines.append(f"f-vector: {_fmt(report.get('f_vector'))}")
        lines.append(f"h-vector: {_fmt(report.get('h_vector'))}")
        lines.append(
            f"height: {_fmt(report.get('height'))}"
            f"   multiplicity: {_fmt(report.get('multiplicity'))}"
            f"   max generator degree: {_fmt(report.get('max_generator_degree'))}"
        )
        nf = report.get("minimal_nonfaces")
        if nf is not None:
            lines.append("minimal nonfaces: " + (" ".join(",".join(f) for f in nf) or "-"))
        for fname, fr in (report.get("fields") or {}).items():
            lines.append(
                f"[{fname}] Cohen-Macaulay: {_fmt(fr['cohen_macaulay'])}"
                f"   Gorenstein: {_fmt(fr['gorenstein'])}"
                f"   homology sphere: {_fmt(fr['homology_sphere'])}"
            )
            wit = fr["regularity_witness"]
            lines.append(
                f"[{fname}] regularity: {fr['regularity']}"
                f"   witness: W={{{','.join(wit['vertices'])}}} index {wit['index']}"
                f"   reduced betti: {_fmt(fr['reduced_betti'])}"
            )
        lines.append(f"normal: {_fmt(report.get('normal'))}")
    elif kind == "arrangement":
        lines.append(
            f"variables: {report['n_vars']}   components: {report['n_components']}"
            f"   heights: {_fmt(report['heights'])}   unmixed: {_fmt(report['unmixed'])}"
        )
        lines.append(
            f"height: {_fmt(report['height'])}   multiplicity: {report['multiplicity']}"
            f"   derksen-sidman bound: {report['derksen_sidman_bound']}"
            f"   sections applied: {report['sections_applied']}"
        )
    elif kind == "lines":
        lines.append(
            f"ambient: P^{report['ambient_dim']}   lines: {report['n_lines']}"
            f"   intersections: {report['n_intersections']}"
            f"   triple-point free: {_fmt(report['triple_point_free'])}"
        )
        if report["offending_point"]:
            lines.append(f"offending point: {report['offending_point']}")
        lines.append(
            f"genus: {_fmt(report['genus'])}   height: {_fmt(report['height'])}"
            f"   3-edge-connected: {_fmt(report['three_edge_connected'])}"
            f"   verdict: {_fmt(report['verdict'])}"
        )
    elif kind == "graph":
        lines.append(
            f"vertices: {report['n_vertices']}   edges: {report['n_edges']}"
            f"   min degree: {_fmt(report['min_degree'])}"
        )
        lines.append(
            f"kappa: {_fmt(report['vertex_connectivity'])}"
            f"   lambda: {_fmt(report['edge_connectivity'])}"
            f"   diameter: {_fmt(report['diameter'])}"
        )
        lines.append(f"line realizability: {report['line_realizability']}")

    dual = report.get("dual_graph")
    if dual:
        lines.append(
            f"dual graph: {dual['n_vertices']} vertices, {dual['n_edges']} edges,"
            f" kappa={_fmt(dual['vertex_connectivity'])},"
            f" lambda={_fmt(dual['edge_connectivity'])},"
            f" diameter={_fmt(dual['diameter'])}"
        )
    hirsch = report.get("hirsch")
    if hirsch:
        lines.append(
            f"hirsch: diameter {hirsch['diameter']} vs height {hirsch['height']}"
            f" -> {hirsch['verdict']}"
        )
    for w in report.get("warnings", ()):
        lines.append(f"warning: {w}")
    _render_checks(report.get("checks", ()), lines)
    return "\n".join(lines) + "\n"

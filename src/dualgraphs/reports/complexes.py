"""The complex report: checks over each coefficient field, and its builder."""

from __future__ import annotations

import itertools
from math import inf
from typing import NamedTuple

from .. import graphs as graph_mod
from .. import homology
from ..errors import DEFAULT_MAX_HOCHSTER_VERTICES, ResourceCapError
from . import (OMIT, _MENGER, _SMALL_CASES, Check, _diam_value, _graph_stats, _kappa,
               _run_checks, _small_case_verdict, _unless)


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


def _omit_unless_pure(cx):
    return _unless(cx.is_pure, OMIT)


def _h_degree(cx):
    return max((j for j, v in enumerate(cx.h_vector) if v), default=0)


def _verify_nonrevisiting(g, cx, f):
    diam, height = graph_mod.diameter(g), cx.height()
    missing = homology.first_pair_without_nonrevisiting_path(cx)
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
          lambda g, cx: _omit_unless_pure(cx) or _complete_intersection(cx),
          _verify_complete_intersection),
    Check("generator_degree_vertex_bound",
          "height-c ideals generated in degree <= k have at most k^c minimal primes",
          lambda g, cx: _omit_unless_pure(cx) or _unless(
              cx.max_generator_degree() >= 1 and cx.height() >= 1, "the nonface ideal is zero"),
          _verify_degree_vertex),
    _MENGER._replace(applies=lambda g, cx: _omit_unless_pure(cx) or _unless(
        g.n >= 2 and _kappa(g) >= 1, "dual graph disconnected or trivial")),
    Check("degree_diameter_bound",
          "connected height-c ideals generated in degree <= d have diam <= d^c - 2",
          lambda g, cx: _omit_unless_pure(cx) or _unless(
              cx.height() >= 2 and cx.max_generator_degree() >= 1
              and graph_mod.diameter(g) != inf, "needs height >= 2 and a connected dual graph"),
          _verify_degree_diameter),
    Check("forbidden_pattern_screen",
          "dual graphs of pure complexes never contain the forbidden"
          " 6-vertex pattern as an induced subgraph",
          lambda g, cx: _omit_unless_pure(cx),
          _verify_no_pattern),
)


def build_complex_report(
    cx: SimplicialComplex,
    fields: tuple[FieldSpec, ...] | None = None,
    max_hochster_n: int = DEFAULT_MAX_HOCHSTER_VERTICES,
    descriptor: str = "complex",
) -> dict:
    """The complex report over each of ``fields`` (default: Q alone)."""
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

    core = cx.core()  # over the cap, only a nonempty core shelled as a sphere skips the sweep
    if cx.n_vertices > max_hochster_n and (not cx.is_pure or core.is_empty_complex or not (
            homology.greedy_shelling(core) and homology._every_ridge_in_two_facets(core))):
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
        g = homology.dual_graph(cx)
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

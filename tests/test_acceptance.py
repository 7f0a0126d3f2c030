"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria that sweep whole families document their desk-scale bounds inline;
the non-reproducible literature examples are named explicitly in criterion 9.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
import time
from functools import reduce
from math import inf

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from dualgraphs.cli import main as cli_main
from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.graphs import (
    HirschVerdict,
    complete_graph,
    contains_forbidden_line_graph,
    diameter,
    edge_connectivity,
    forbidden_pattern,
    hirsch_verdict,
    hypercube_graph,
    is_k_connected,
    vertex_connectivity,
)
from dualgraphs.homology import (
    dual_graph,
    is_cohen_macaulay,
    is_gorenstein,
    non_revisiting_path,
    regularity,
)
from dualgraphs.lines import LineArrangement, ProjectiveLine, canonical_hirsch_verdict, genus
from dualgraphs.lines import dual_graph as line_dual_graph
from dualgraphs.linalg import QQ, prime_field
from dualgraphs.reports import build_complex_report
from oracles import (
    all_antichain_complexes,
    bf_edge_connectivity,
    bf_vertex_connectivity,
    hilbert_h_vector,
    pure_families,
    reduced_euler_characteristic,
    to_networkx,
)

GF2 = prime_field(2)


def _verdict(num, description, started, budget):
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {num}: PASS  ({description}; {elapsed:.1f}s, budget {budget}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_crosspolytope_family():
    started = time.monotonic()
    for r in range(2, 6):
        c = crosspolytope_boundary(r)
        g = dual_graph(c)
        assert nx.is_isomorphic(to_networkx(g), to_networkx(hypercube_graph(r)))
        assert is_k_connected(g, r)
        assert not is_k_connected(g, r + 1)
        assert vertex_connectivity(g)[0] == r
        assert diameter(g) == r
        cert = regularity(c)
        assert cert.value == r
        assert is_gorenstein(c, QQ)
        assert c.height() == r
        assert hirsch_verdict(diameter(g), c.height()) is HirschVerdict.HIRSCH
    _verdict(1, "crosspolytope boundaries r=2..5: cube dual graphs, "
                "connectivity r, diameter r, regularity r, Gorenstein, Hirsch",
             started, 10)


def test_criterion_2_nonhirsch_arrangement():
    from dualgraphs.arrangements import analyze_arrangement, read_arrangement_file
    from pathlib import Path

    started = time.monotonic()
    path = Path(__file__).parent.parent / "sample_inputs" / "nonhirsch_arrangement.json"
    arr = read_arrangement_file(path)
    rep = analyze_arrangement(arr)
    g = rep.dual_graph
    assert g.n == 4 and g.m == 3
    degrees = sorted(g.degree(v) for v in g.vertices)
    assert degrees == [1, 1, 2, 2]  # a path of three edges
    assert rep.diameter == 3
    assert rep.common_height == 2
    assert rep.verdict is HirschVerdict.NOT_HIRSCH
    _verdict(2, "4-component arrangement: 3-edge path, diameter 3 > height 2, "
                "NotHirsch", started, 1)


def test_criterion_3_tadpole_complex():
    started = time.monotonic()
    c = tadpole_complex()
    assert is_cohen_macaulay(c, QQ)
    assert regularity(c).value == 2
    g = dual_graph(c)
    assert vertex_connectivity(g)[0] == 1
    assert is_k_connected(g, 1) and not is_k_connected(g, 2)
    report = build_complex_report(c, descriptor="tadpole")
    line = next(ch for ch in report["checks"]
                if ch["id"] == "gorenstein_regularity_connectivity")
    assert line["status"] == "not_applicable"
    assert "not Gorenstein" in line["detail"]
    _verdict(3, "triangle-with-tail: CM, regularity 2, connectivity exactly 1, "
                "Gorenstein check reported not applicable", started, 1)


def test_criterion_4_forbidden_pattern(tmp_path, capsys):
    started = time.monotonic()
    pattern = forbidden_pattern()
    witness = contains_forbidden_line_graph(pattern)
    assert witness == {v: v for v in pattern.vertices}
    assert contains_forbidden_line_graph(complete_graph(6)) is None
    path = tmp_path / "forbidden.graph"
    assert cli_main(["generate", "forbidden6", "--out", str(path)]) == 0
    assert cli_main(["check-graph", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["line_realizability"] == "not_realizable"
    capsys.disabled()
    _verdict(4, "forbidden 6-vertex pattern: identity witness, absent from K6, "
                "check-graph reports not realizable", started, 1)


def _sphere_join_multisets(max_vertices=12, max_facets=64):
    """Factor multisets (m = facet count of each simplex-boundary factor).

    Repeated 2s are joins of 0-spheres, i.e. crosspolytope boundaries, so
    the 64-facet flagship (2,2,2,2,2,2) is included. The vertex bound keeps
    every regularity sweep at <= 2^12 restrictions: the literal unbounded
    family contains members (e.g. two 8-facet factors twice over) whose
    chain complexes are far beyond desk scale.
    """
    out = []

    def extend(prefix, min_m, total, product):
        if prefix:
            out.append(tuple(prefix))
        for m in range(min_m, max_vertices + 1):
            if total + m > max_vertices or product * m > max_facets:
                continue
            extend(prefix + [m], m, total + m, product * m)

    extend([], 2, 0, 1)
    return out


def test_criterion_5_sphere_connectivity_sweep():
    started = time.monotonic()
    checked = 0
    failures = []
    multisets = _sphere_join_multisets()
    complexes = [
        reduce(SimplicialComplex.join,
               (simplex_boundary(m - 1) for m in ms))
        for ms in multisets
    ]
    complexes.extend(crosspolytope_boundary(r) for r in range(2, 7))
    for c in complexes:
        assert c.n_facets <= 64
        cert = regularity(c)
        h = c.h_vector
        h_degree = max(j for j, v in enumerate(h) if v)
        g = dual_graph(c)
        ok = cert.value == h_degree and is_k_connected(g, cert.value)
        checked += 1
        if not ok:
            failures.append((c, cert.value, h_degree))
    assert not failures
    _verdict(5, f"{checked} homology spheres from simplex/crosspolytope joins "
                "(<= 64 facets, <= 12 vertices): dual graph r-connected at "
                "r = restriction-sweep regularity, zero failures",
             started, 120)


def test_criterion_6_flag_cm_nonrevisiting_sweep():
    started = time.monotonic()
    atlas = graph_atlas_g()
    checked = 0
    path_checks = 0
    for G in atlas:
        if G.number_of_nodes() == 0:
            continue
        cliques = [tuple(sorted(q)) for q in nx.find_cliques(G)]
        c = SimplicialComplex.from_facets(sorted(cliques))
        if not c.is_pure:
            continue
        if not is_cohen_macaulay(c, QQ):
            continue
        assert c.is_flag  # clique complexes have quadratic nonface ideals
        g = dual_graph(c)
        diam = diameter(g)
        assert diam != inf and diam <= c.height()
        for f1, f2 in itertools.combinations(c.facet_labels(), 2):
            assert non_revisiting_path(c, f1, f2) is not None
            path_checks += 1
        checked += 1
    assert checked > 100  # the filter really let complexes through
    _verdict(6, f"every flag CM complex on <= 7 vertices ({checked} complexes "
                f"via the graph atlas, {path_checks} facet pairs): "
                "non-revisiting paths exist and diameter <= height",
             started, 600)


def test_criterion_7_lines_pipeline():
    started = time.monotonic()
    P = ProjectiveLine.through
    four = LineArrangement(2, [
        P(2, (0, 1, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 1, 0)),
        P(2, (1, -1, 0), (0, 1, -1)),
    ])
    rep = canonical_hirsch_verdict(four)
    assert (genus(four), rep.height, rep.diameter, rep.passed) == (3, 1, 1, True)

    def ruling_a(a, b):
        return P(3, (a, b, 0, 0), (0, 0, a, b))

    def ruling_b(c, d):
        return P(3, (c, 0, d, 0), (0, c, 0, d))

    grid = LineArrangement(3, [
        ruling_a(1, 0), ruling_a(0, 1), ruling_a(1, 1),
        ruling_b(1, 0), ruling_b(0, 1), ruling_b(1, 1),
    ])
    rep = canonical_hirsch_verdict(grid)
    assert (genus(grid), rep.height, rep.diameter, rep.passed) == (4, 2, 2, True)

    path_arr = LineArrangement(3, [
        P(3, (1, 0, 0, 0), (0, 1, 0, 0)),
        P(3, (0, 1, 0, 0), (0, 0, 1, 0)),
        P(3, (0, 0, 1, 0), (0, 0, 0, 1)),
        P(3, (0, 0, 0, 1), (1, 0, 1, 0)),
    ])
    assert edge_connectivity(line_dual_graph(path_arr))[0] == 1
    assert canonical_hirsch_verdict(path_arr) is None
    _verdict(7, "lines pipeline: 4 general lines (g=3, Hirsch), 3x3 grid "
                "(g=4, Hirsch), path arrangement flagged not embeddable",
             started, 3)


def test_criterion_8_oracle_equivalences():
    started = time.monotonic()
    # (a) flow-based connectivity vs exhaustive cut enumeration: every graph
    # on <= 7 vertices up to isomorphism (the atlas), plus a seeded random
    # sample of 8-vertex graphs (the labelled 8-vertex universe, 2^28
    # graphs, is beyond desk scale).
    graph_count = 0
    for G in graph_atlas_g():
        if G.number_of_nodes() < 2:
            continue
        g = _from_nx(G)
        assert vertex_connectivity(g)[0] == bf_vertex_connectivity(g)
        assert edge_connectivity(g)[0] == bf_edge_connectivity(g)
        graph_count += 1
    rng = random.Random(0)
    labels = [str(i) for i in range(8)]
    for _ in range(60):
        edges = [e for e in itertools.combinations(labels, 2)
                 if rng.random() < rng.choice((0.25, 0.5, 0.8))]
        from dualgraphs.graphs import Graph

        g = Graph(labels, edges)
        assert vertex_connectivity(g)[0] == bf_vertex_connectivity(g)
        assert edge_connectivity(g)[0] == bf_edge_connectivity(g)
        graph_count += 1

    # (b) Euler-Poincare over Q and GF(2) for every complex on <= 5 vertices
    complex_count = 0
    from dualgraphs.homology import reduced_betti_numbers

    for facets in all_antichain_complexes(5):
        c = SimplicialComplex.from_facets(facets)
        chi = reduced_euler_characteristic(c.f_vector)
        for field in (QQ, GF2):
            betti = reduced_betti_numbers(c, field).reduced
            assert sum((-1) ** (k + 1) * b for k, b in enumerate(betti)) == chi
        complex_count += 1

    # (c) f-to-h transform vs direct Hilbert-function expansion: every pure
    # complex on <= 5 vertices, plus a seeded sample on 6 vertices (the
    # 6-vertex stratum alone exceeds a million families).
    h_count = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for fam in pure_families(n, k):
                c = SimplicialComplex.from_facets(fam)
                assert c.h_vector == hilbert_h_vector(c)
                h_count += 1
    rng = random.Random(1)
    for _ in range(300):
        k = rng.randint(1, 6)
        ksubs = list(itertools.combinations(range(1, 7), k))
        fam = rng.sample(ksubs, rng.randint(1, min(8, len(ksubs))))
        c = SimplicialComplex.from_facets(fam)
        assert c.h_vector == hilbert_h_vector(c)
        h_count += 1
    _verdict(8, f"oracle equivalences: connectivity on {graph_count} graphs, "
                f"Euler-Poincare on {complex_count} complexes, "
                f"f/h vs Hilbert on {h_count} pure complexes, zero discrepancies",
             started, 300)


def _from_nx(G):
    from dualgraphs.graphs import Graph

    labels = [str(v) for v in sorted(G.nodes())]
    return Graph(labels, [(str(u), str(v)) for u, v in G.edges()])


def test_criterion_9_join_amplification():
    started = time.monotonic()
    print(
        "ACCEPTANCE 9 note: the 40-vertex non-Hirsch sphere with dual-graph "
        "diameter 21 and height 20 (and its k-fold amplifications to 21k/20k) "
        "is NOT reproduced here: its facet list is not available at desk "
        "scale. The computer-algebra-dependent examples (primary "
        "decompositions of non-monomial ideals, determinantal primes, "
        "set-theoretic complete intersections) are likewise out of scope. "
        "Verified substitute: the join construction doubles diameter and "
        "height simultaneously, which is the combinatorial engine of that "
        "amplification."
    )
    suite = [
        crosspolytope_boundary(1),
        crosspolytope_boundary(2),
        crosspolytope_boundary(3),
        simplex_boundary(2),
        simplex_boundary(3),
        simplex_boundary(4),
        tadpole_complex(),
    ]
    for c in suite:
        g = dual_graph(c)
        d = diameter(g)
        assert d != inf  # strongly connected inputs only
        joined = c.join(c)
        assert diameter(dual_graph(joined)) == 2 * d
        assert joined.height() == 2 * c.height()
    _verdict(9, "diameter and height both double under self-join on every "
                "pure strongly connected suite input", started, 60)

"""Seeded inputs of the three workloads, and the facts every report must show.

Each ``build_*`` function writes its workload's input files and returns one
``Case`` per CLI analysis. The facts (``Case.checks``) are closed forms in the
family parameters, or are re-derived by ``oracle`` from the input itself;
none is a stored copy of the program's output. Facts are computed lazily, so
the timed set-up covers only making and writing the inputs.

The same seed gives byte-identical files. Each input draws from its own
``random.Random`` stream, keyed by the seed and the input's name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from math import comb
from pathlib import Path
from typing import Callable

import oracle
from checks import (
    Check,
    check_status,
    edge_set,
    expect,
    no_failed_checks,
    pattern_witness,
)


class SetupError(RuntimeError):
    """An input could not be made, or a generated file is not what the
    benchmark expects it to be."""


@dataclass
class Case:
    name: str
    argv: list  # dualgraphs CLI arguments
    facts: Callable[[], list]
    n_fields: int = 0

    @cached_property
    def checks(self) -> list[Check]:
        return self.facts()


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


# -- reading what `dualgraphs generate` writes --------------------------------


def read_facets(path: Path) -> set:
    facets = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            facets.add(frozenset(line.split()))
    return facets


def read_graph(path: Path) -> dict:
    edges, vertices = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "v":
            vertices.append(tokens[1])
        else:
            edges.append((tokens[0], tokens[1]))
    vertices += [w for e in edges for w in e]
    return oracle.graph_from_edges(dict.fromkeys(vertices), edges)


def _require(ok: bool, what: str):
    if not ok:
        raise SetupError(what)


# -- complexes -------------------------------------------------------------------


def crosspolytope_facets(r: int) -> set:
    """Facets pick one vertex of each antipodal pair {2i-1, 2i}."""
    out = set()
    for choice in range(1 << r):
        out.add(frozenset(str(2 * i + 1 + (choice >> i & 1)) for i in range(r)))
    return out


def simplex_boundary_facets(d: int) -> set:
    vertices = [str(i) for i in range(1, d + 2)]
    return {frozenset(vertices) - {v} for v in vertices}


def join_facets(*parts) -> set:
    """Join of complexes with disjoint copies of their vertex sets."""
    out = {frozenset()}
    for c, facets in enumerate(parts):
        out = {f | {f"{c}.{v}" for v in g} for f in out for g in facets}
    return out


#: The 6-vertex real projective plane: each edge of K6 lies in two triangles.
RP2_FACETS = {
    frozenset(map(str, t)) for t in (
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    )
}

TADPOLE_FACETS = {frozenset(e) for e in (("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("4", "5"))}


def shuffled_complex(facets, rng: random.Random) -> list:
    """The complex under a seeded relabelling, in seeded facet order.

    Returns facets as lists of labels, each list in seeded order.
    """
    vertices = sorted({v for f in facets for v in f})
    labels = [str(x) for x in rng.sample(range(1, 10 * len(vertices)), len(vertices))]
    relabel = dict(zip(vertices, labels))
    out = []
    for f in sorted(sorted(f) for f in facets):
        face = [relabel[v] for v in f]
        rng.shuffle(face)
        out.append(face)
    rng.shuffle(out)
    return out


def write_facets(path: Path, facets: list):
    path.write_text("".join(" ".join(f) + "\n" for f in facets), encoding="utf-8")


def dual_edges(facets) -> set:
    """Pairs of facet indices whose symmetric difference has two vertices."""
    sets = [frozenset(f) for f in facets]
    return {
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if len(sets[i] ^ sets[j]) == 2
    }


def complex_checks(facets, fields, *, f_vector, h_vector, flag, per_field, dual):
    """Facts shared by every complex report.

    ``per_field`` maps a field name to {key: value} facts; ``dual`` holds
    the dual-graph facts: n_vertices, n_edges, diameter and the two
    connectivities.
    """
    sets = [frozenset(f) for f in facets]
    n = len(set().union(*sets))
    dim = len(sets[0]) - 1
    height = n - dim - 1
    checks = [
        expect("n_vertices", value=n),
        expect("n_facets", value=len(sets)),
        expect("f_vector", value=f_vector),
        expect("h_vector", value=h_vector),
        expect("height", value=height),
        expect("flag", value=flag),
        expect("multiplicity", value=len(sets)),
        edge_set("dual_graph", "edges",
                 edges={frozenset((sets[i], sets[j])) for i, j in dual_edges(facets)},
                 label=lambda s: frozenset(s.split(","))),
        no_failed_checks(),
    ]
    for key, value in dual.items():
        checks.append(expect("dual_graph", key, value=value))
    diam = dual["diameter"]
    verdict = "hirsch" if diam != "infinite" and diam <= height else "not_hirsch"
    checks += [
        expect("hirsch", "diameter", value=diam),
        expect("hirsch", "height", value=height),
        expect("hirsch", "verdict", value=verdict),
    ]
    for field in fields:
        for key, value in per_field[field].items():
            checks.append(expect("fields", field, key, value=value))
    return checks


def _oracle_dual(facets) -> dict:
    adj = oracle.graph_from_edges(range(len(facets)), dual_edges(facets))
    return {
        "n_vertices": len(adj),
        "n_edges": oracle.n_edges(adj),
        "diameter": oracle.diameter(adj),
        "vertex_connectivity": oracle.vertex_connectivity(adj),
        "edge_connectivity": oracle.edge_connectivity(adj),
    }


def _sphere(reg: int) -> dict:
    return {"cohen_macaulay": True, "gorenstein": True, "homology_sphere": True,
            "regularity": reg}


def build_complexes(prog, work: Path, seed: int, *, r=6, join=(3, 3)) -> list[Case]:
    """The boundary of the r-crosspolytope, the join of join[0] boundaries of
    the join[1]-simplex, RP^2 and the tadpole."""
    cases = []

    gen = work / "gen_crosspolytope.facets"
    prog.generate("crosspolytope", r, gen)
    _require(read_facets(gen) == crosspolytope_facets(r), "generate crosspolytope: wrong facets")
    facets = shuffled_complex(read_facets(gen), _rng(seed, "crosspolytope"))
    path = work / f"crosspolytope{r}.facets"
    write_facets(path, facets)
    cases.append(Case(
        f"crosspolytope{r}", ["analyze-complex", str(path), "--format", "json"],
        lambda facets=facets: complex_checks(
            facets, ["Q"],
            f_vector=[comb(r, i) * 2 ** i for i in range(r + 1)],
            h_vector=[comb(r, i) for i in range(r + 1)],
            flag=True,
            per_field={"Q": _sphere(r)},
            dual={"n_vertices": 2 ** r, "n_edges": r * 2 ** (r - 1), "diameter": r,
                  "vertex_connectivity": r, "edge_connectivity": r},
        ),
        n_fields=1,
    ))

    k, d = join
    gen = work / "gen_simplex.facets"
    prog.generate("simplex", d, gen)
    _require(read_facets(gen) == simplex_boundary_facets(d), "generate simplex: wrong facets")
    joined = join_facets(*[read_facets(gen)] * k)
    facets = shuffled_complex(joined, _rng(seed, "join"))
    path = work / f"join{k}x{d}.facets"
    write_facets(path, facets)
    face_poly = [comb(d + 1, i) for i in range(d + 1)]  # (1+t)^(d+1) - t^(d+1)
    cases.append(Case(
        f"join{k}x{d}",
        ["analyze-complex", str(path), "--format", "json", "--field", "q", "--field", "gf:2"],
        lambda facets=facets: complex_checks(
            facets, ["Q", "GF(2)"],
            f_vector=oracle.poly_power(face_poly, k),
            h_vector=oracle.poly_power([1] * (d + 1), k),
            flag=False,
            per_field={"Q": _sphere(k * d), "GF(2)": _sphere(k * d)},
            dual={"n_vertices": (d + 1) ** k, "n_edges": k * d * (d + 1) ** k // 2,
                  "diameter": k, "vertex_connectivity": k * d, "edge_connectivity": k * d},
        ),
        n_fields=2,
    ))

    facets = shuffled_complex(RP2_FACETS, _rng(seed, "rp2"))
    path = work / "rp2.facets"
    write_facets(path, facets)
    cases.append(Case(
        "rp2",
        ["analyze-complex", str(path), "--format", "json", "--field", "q", "--field", "gf:2"],
        lambda facets=facets: complex_checks(
            facets, ["Q", "GF(2)"],
            f_vector=[1, 6, 15, 10],
            h_vector=[1, 3, 6, 0],
            flag=False,
            per_field={
                "Q": {"cohen_macaulay": True, "gorenstein": False,
                      "homology_sphere": False, "regularity": 2},
                "GF(2)": {"cohen_macaulay": False, "gorenstein": False,
                          "homology_sphere": False, "regularity": 3},
            },
            # the Petersen graph
            dual={"n_vertices": 10, "n_edges": 15, "diameter": 2,
                  "vertex_connectivity": 3, "edge_connectivity": 3},
        ) + [expect("dual_graph", key, value=value)
             for key, value in _oracle_dual(facets).items()],
        n_fields=2,
    ))

    gen = work / "gen_tadpole.facets"
    prog.generate("tadpole", None, gen)
    _require(read_facets(gen) == TADPOLE_FACETS, "generate tadpole: wrong facets")
    facets = shuffled_complex(read_facets(gen), _rng(seed, "tadpole"))
    path = work / "tadpole.facets"
    write_facets(path, facets)
    cases.append(Case(
        "tadpole", ["analyze-complex", str(path), "--format", "json"],
        lambda facets=facets: complex_checks(
            facets, ["Q"],
            f_vector=[1, 5, 5],
            h_vector=[1, 3, 1],
            flag=False,
            per_field={"Q": {"cohen_macaulay": True, "regularity": 2}},
            dual=_oracle_dual(facets),
        ) + [expect("dual_graph", "vertex_connectivity", value=1)],
        n_fields=1,
    ))
    return cases


# -- arrangements ----------------------------------------------------------------


def unimodular_matrix(n: int, rng: random.Random) -> list:
    """L * U with unit triangular L, U of small seeded entries: determinant 1."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
             for i in range(n)]
    m = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)]
    _require(oracle.rank(m) == n, "change of coordinates is singular")
    return m


def coordinate_arrangement(facets: list, coords) -> dict:
    """One component per facet, cut out by the coordinate forms (rows of
    ``coords``) of the vertices outside it. Vertices are numbered in sorted
    label order."""
    vertices = sorted({v for f in facets for v in f}, key=int)
    index = {v: i for i, v in enumerate(vertices)}
    components = []
    for f in facets:
        inside = {index[v] for v in f}
        components.append([list(coords[i]) for i in range(len(vertices)) if i not in inside])
    return {"variables": len(vertices), "components": components}


def arrangement_checks(facets, *, sections, dual):
    """Facts of a coordinate arrangement after ``sections`` generic sections."""
    sets = [frozenset(f) for f in facets]
    n = len(set().union(*sets))
    c = n - len(sets[0])
    s = len(sets)
    checks = [
        expect("n_vars", value=n - sections),
        expect("n_components", value=s),
        expect("multiplicity", value=s),
        expect("heights", value=[c] * s),
        expect("height", value=c),
        expect("unmixed", value=True),
        expect("sections_applied", value=sections),
        edge_set("dual_graph", "edges",
                 edges={frozenset((str(i + 1), str(j + 1))) for i, j in dual_edges(facets)}),
        check_status("regularity_connectivity", "pass"),
        no_failed_checks(),
        expect("hirsch", "height", value=c),
        expect("hirsch", "verdict", value="hirsch" if dual["diameter"] <= c else "not_hirsch"),
    ]
    checks += [expect("dual_graph", key, value=value) for key, value in dual.items()]
    checks.append(expect("derksen_sidman_bound", value=s - 1))
    return checks


def _write_json(path: Path, data):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def build_arrangements(prog, work: Path, seed: int, repo: Path, *, r=6, join=(3, 2)) -> list[Case]:
    """Coordinate arrangements of the r-crosspolytope (0/1 forms; generic
    coordinates and one section) and of the join of join[0] boundaries of the
    join[1]-simplex (generic coordinates, two sections), and the non-Hirsch
    sample."""
    cases = []
    gen = work / "gen_crosspolytope.facets"
    prog.generate("crosspolytope", r, gen)
    _require(read_facets(gen) == crosspolytope_facets(r), "generate crosspolytope: wrong facets")
    cross_dual = {"n_vertices": 2 ** r, "n_edges": r * 2 ** (r - 1), "diameter": r,
                  "vertex_connectivity": r, "edge_connectivity": r}

    rng = _rng(seed, "coordinate")
    facets = shuffled_complex(read_facets(gen), rng)
    identity = [[int(i == j) for j in range(2 * r)] for i in range(2 * r)]
    path = work / f"crosspolytope{r}_coordinate.json"
    _write_json(path, coordinate_arrangement(facets, identity))
    cases.append(Case(
        f"crosspolytope{r}_coordinate",
        ["analyze-arrangement", str(path), "--format", "json",
         "--regularity-certificate", str(r)],
        lambda facets=facets: arrangement_checks(facets, sections=0, dual=cross_dual),
    ))

    rng = _rng(seed, "generic")
    facets = shuffled_complex(read_facets(gen), rng)
    path = work / f"crosspolytope{r}_generic.json"
    _write_json(path, coordinate_arrangement(facets, unimodular_matrix(2 * r, rng)))
    cases.append(Case(
        f"crosspolytope{r}_generic_section1",
        ["analyze-arrangement", str(path), "--format", "json",
         "--regularity-certificate", str(r), "--section", "1"],
        lambda facets=facets: arrangement_checks(facets, sections=1, dual=cross_dual),
    ))

    k, d = join
    gen = work / "gen_simplex.facets"
    prog.generate("simplex", d, gen)
    _require(read_facets(gen) == simplex_boundary_facets(d), "generate simplex: wrong facets")
    rng = _rng(seed, "triangles")
    facets = shuffled_complex(join_facets(*[read_facets(gen)] * k), rng)
    path = work / f"join{k}x{d}_generic.json"
    _write_json(path, coordinate_arrangement(facets, unimodular_matrix(k * (d + 1), rng)))
    hamming = {"n_vertices": (d + 1) ** k, "n_edges": k * d * (d + 1) ** k // 2,
               "diameter": k, "vertex_connectivity": k * d, "edge_connectivity": k * d}
    cases.append(Case(
        f"join{k}x{d}_generic_section2",
        ["analyze-arrangement", str(path), "--format", "json",
         "--regularity-certificate", str(k * d), "--section", "2"],
        lambda facets=facets: arrangement_checks(facets, sections=2, dual=hamming),
    ))

    source = repo / "sample_inputs" / "nonhirsch_arrangement.json"
    path = work / "nonhirsch_arrangement.json"
    data = json.loads(source.read_text(encoding="utf-8"))
    _write_json(path, data)
    cases.append(Case(
        "nonhirsch", ["analyze-arrangement", str(path), "--format", "json"],
        lambda data=data: nonhirsch_checks(data),
    ))
    return cases


def nonhirsch_checks(data) -> list[Check]:
    """Heights and dual edges by the oracle's own ranks: the sample is a path
    of three edges, so its diameter 3 exceeds its height 2."""
    comps = data["components"]
    heights = [oracle.rank(c) for c in comps]
    _require(len(set(heights)) == 1, "sample arrangement is not unmixed")
    c = heights[0]
    edges = {(i, j) for i in range(len(comps)) for j in range(i + 1, len(comps))
             if oracle.rank(comps[i] + comps[j]) == c + 1}
    adj = oracle.graph_from_edges(range(len(comps)), edges)
    diam = oracle.diameter(adj)
    _require((c, diam, len(edges)) == (2, 3, 3), "sample arrangement is not the 3-edge path")
    return [
        expect("n_vars", value=data["variables"]),
        expect("n_components", value=len(comps)),
        expect("heights", value=heights),
        expect("height", value=c),
        edge_set("dual_graph", "edges",
                 edges={frozenset((str(i + 1), str(j + 1))) for i, j in edges}),
        expect("dual_graph", "diameter", value=diam),
        expect("dual_graph", "vertex_connectivity", value=oracle.vertex_connectivity(adj)),
        expect("dual_graph", "edge_connectivity", value=oracle.edge_connectivity(adj)),
        expect("hirsch", "diameter", value=diam),
        expect("hirsch", "verdict", value="not_hirsch"),
        no_failed_checks(),
    ]


# -- curves: line arrangements and graphs ----------------------------------------


def quadric_grid(k: int, rng: random.Random) -> list:
    """k lines of each ruling of x0*x3 = x1*x2, in seeded order.

    Ruling A_b is spanned by (1,0,b,0), (0,1,0,b); ruling B_u by
    (1,u,0,0), (0,0,1,u). A_b meets B_u in (1,u,b,bu) and nothing else.
    """
    a_params = rng.sample(range(-4 * k, 4 * k + 1), k)
    b_params = rng.sample(range(-4 * k, 4 * k + 1), k)
    lines = [("A", [[1, 0, b, 0], [0, 1, 0, b]]) for b in a_params]
    lines += [("B", [[1, u, 0, 0], [0, 0, 1, u]]) for u in b_params]
    rng.shuffle(lines)
    return lines


def general_lines(s: int, rng: random.Random) -> list:
    """s lines of P^2 with no three concurrent, as (line coordinates, points).

    Each new line is redrawn until it is distinct from every earlier line
    and meets no earlier intersection point: every integer 3x3 determinant
    of line coordinates is nonzero.
    """
    chosen = []
    while len(chosen) < s:
        line = tuple(rng.randint(-30, 30) for _ in range(3))
        if line == (0, 0, 0):
            continue
        if any(oracle.cross(line, m) == (0, 0, 0) for m in chosen):
            continue
        if any(oracle.det3(line, a, b) == 0 for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            continue
        chosen.append(line)
    out = []
    for line in chosen:
        points = [oracle.cross(line, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        p, q = next((p, q) for i, p in enumerate(points) for q in points[i + 1:]
                    if oracle.cross(p, q) != (0, 0, 0))
        out.append((line, [list(p), list(q)]))
    return out


def _lines_json(ambient: int, point_pairs) -> dict:
    return {"ambient_dim": ambient, "lines": [{"points": pq} for pq in point_pairs]}


def lines_checks(s, edges, *, ambient, triple_free, diam, kappa, lam) -> list[Check]:
    """Facts of a line arrangement from its dual graph (``edges`` as 0-based
    index pairs) and its triple-point freedom."""
    t = len(edges)
    checks = [
        expect("ambient_dim", value=ambient),
        expect("n_lines", value=s),
        expect("n_intersections", value=t),
        expect("triple_point_free", value=triple_free),
        edge_set("dual_graph", "edges",
                 edges={frozenset((str(i + 1), str(j + 1))) for i, j in edges}),
        expect("dual_graph", "diameter", value=diam),
        expect("dual_graph", "vertex_connectivity", value=kappa),
        expect("dual_graph", "edge_connectivity", value=lam),
        no_failed_checks(),
    ]
    if triple_free:
        genus = t - s + 1
        checks += [expect("genus", value=genus), expect("height", value=genus - 2)]
        if s >= 4:
            if lam < 3:
                verdict, branch = "not_canonically_embeddable", None
            else:
                verdict = "hirsch" if diam != "infinite" and diam <= genus - 2 else "not_hirsch"
                branch = "trivalent" if 2 * t == 3 * s else "edge_bound"
            checks += [expect("verdict", value=verdict), expect("branch", value=branch)]
    return checks


def sample_lines_checks(data) -> list[Check]:
    """Facts of a sample line file, re-derived: two lines meet when their
    four spanning points have rank at most 3; in P^2 three lines share a
    point when their line coordinates have determinant zero, and in P^3 the
    samples have triangle-free dual graphs, so no point lies on three lines."""
    ambient = data["ambient_dim"]
    pts = [ln["points"] for ln in data["lines"]]
    s = len(pts)
    edges = {(i, j) for i in range(s) for j in range(i + 1, s)
             if oracle.rank(pts[i] + pts[j]) <= 3}
    adj = oracle.graph_from_edges(range(s), edges)
    if ambient == 2:
        coords = [oracle.cross(*p) for p in pts]
        triple_free = all(oracle.det3(coords[a], coords[b], coords[c]) != 0
                          for a, b, c in _triples(s))
    else:
        _require(ambient == 3, "sample lines outside P^2 and P^3")
        _require(not any(b in adj[a] and c in adj[a] and c in adj[b] for a, b, c in _triples(s)),
                 "sample lines in P^3 with a triangle of meeting lines")
        triple_free = True
    return lines_checks(s, edges, ambient=ambient, triple_free=triple_free,
                        diam=oracle.diameter(adj),
                        kappa=oracle.vertex_connectivity(adj),
                        lam=oracle.edge_connectivity(adj))


def _triples(s):
    return ((a, b, c) for a in range(s) for b in range(a + 1, s) for c in range(b + 1, s))


def graph_checks(adj, *, kappa, lam, diam, witness_exists) -> list[Check]:
    return [
        expect("n_vertices", value=len(adj)),
        expect("n_edges", value=oracle.n_edges(adj)),
        expect("min_degree", value=min(len(ns) for ns in adj.values())),
        expect("diameter", value=diam),
        expect("vertex_connectivity", value=kappa),
        expect("edge_connectivity", value=lam),
        pattern_witness(adj, witness_exists),
        check_status("forbidden_pattern_screen", "fail" if witness_exists else "pass"),
        expect("line_realizability", value="not_realizable" if witness_exists else "unknown"),
        no_failed_checks(allowed=("forbidden_pattern_screen",)),
    ]


def _oracle_graph_checks(adj) -> list[Check]:
    return graph_checks(adj, kappa=oracle.vertex_connectivity(adj),
                        lam=oracle.edge_connectivity(adj), diam=oracle.diameter(adj),
                        witness_exists=oracle.find_pattern(adj) is not None)


def random_graph(n: int, rng: random.Random) -> tuple[list, list]:
    """G(n, 1/2) on seeded labels, edges in seeded order."""
    labels = [f"g{x}" for x in rng.sample(range(10 * n), n)]
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:] if rng.random() < 0.5]
    rng.shuffle(edges)
    return labels, edges


def build_curves(prog, work: Path, seed: int, repo: Path, *,
                 grid=24, lines=40, cube=7, complete=16, gnp=30) -> list[Case]:
    """The grid x grid quadric grid, ``lines`` general lines in P^2, the three
    sample line files; the ``cube``-cube, K_complete, the pattern and
    G(gnp, 1/2)."""
    cases = []

    k = grid
    grid = quadric_grid(k, _rng(seed, "grid"))
    path = work / f"quadric_grid{k}.json"
    _write_json(path, _lines_json(3, [pq for _, pq in grid]))
    grid_edges = {(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k)
                  if grid[i][0] != grid[j][0]}
    cases.append(Case(
        f"quadric_grid{k}", ["analyze-lines", str(path), "--format", "json"],
        lambda: lines_checks(2 * k, grid_edges, ambient=3, triple_free=True,
                             diam=2, kappa=k, lam=k),
    ))

    s = lines
    general = general_lines(s, _rng(seed, "general"))
    coords = [line for line, _ in general]
    _require(all(oracle.det3(coords[a], coords[b], coords[c]) != 0 for a, b, c in _triples(s)),
             "general-position lines have three concurrent")
    path = work / f"general_lines{s}.json"
    _write_json(path, _lines_json(2, [pq for _, pq in general]))
    cases.append(Case(
        f"general_lines{s}", ["analyze-lines", str(path), "--format", "json"],
        lambda: lines_checks(s, {(i, j) for i in range(s) for j in range(i + 1, s)},
                             ambient=2, triple_free=True, diam=1, kappa=s - 1, lam=s - 1),
    ))

    for name in ("four_lines_p2", "grid_lines_p3", "path_lines_p3"):
        data = json.loads((repo / "sample_inputs" / f"{name}.json").read_text(encoding="utf-8"))
        path = work / f"{name}.json"
        _write_json(path, data)
        cases.append(Case(name, ["analyze-lines", str(path), "--format", "json"],
                          lambda data=data: sample_lines_checks(data)))

    dim = cube
    path = work / f"hypercube{dim}.edges"
    prog.generate("hypercube", dim, path)
    cube = read_graph(path)
    _require(len(cube) == 2 ** dim and oracle.n_edges(cube) == dim * 2 ** (dim - 1)
             and all(sum(a != b for a, b in zip(u, v)) == 1 for u in cube for v in cube[u]),
             "generate hypercube: not the hypercube")
    cases.append(Case(
        f"hypercube{dim}", ["check-graph", str(path), "--format", "json"],
        # triangle-free, so the pattern (which has triangles) cannot occur
        lambda: graph_checks(cube, kappa=dim, lam=dim, diam=dim, witness_exists=False),
    ))

    order = complete
    path = work / f"complete{order}.edges"
    prog.generate("complete", order, path)
    complete = read_graph(path)
    _require(len(complete) == order and oracle.n_edges(complete) == comb(order, 2),
             "generate complete: not the complete graph")
    cases.append(Case(
        f"complete{order}", ["check-graph", str(path), "--format", "json"],
        # no non-edges, so the pattern (which has two) cannot occur
        lambda: graph_checks(complete, kappa=order - 1, lam=order - 1, diam=1,
                             witness_exists=False),
    ))

    path = work / "forbidden6.edges"
    prog.generate("forbidden6", None, path)
    pattern = read_graph(path)
    _require(oracle.is_induced_pattern(pattern, {v: v for v in oracle.PATTERN_VERTICES}),
             "generate forbidden6: not the pattern")
    cases.append(Case("forbidden6", ["check-graph", str(path), "--format", "json"],
                      lambda: _oracle_graph_checks(pattern)))

    labels, edges = random_graph(gnp, _rng(seed, "gnp"))
    path = work / f"gnp{gnp}.edges"
    covered = {w for e in edges for w in e}
    path.write_text("".join(f"{u} {v}\n" for u, v in edges)
                    + "".join(f"v {w}\n" for w in labels if w not in covered), encoding="utf-8")
    host = oracle.graph_from_edges(labels, edges)
    cases.append(Case(f"gnp{gnp}", ["check-graph", str(path), "--format", "json"],
                      lambda: _oracle_graph_checks(host)))
    return cases

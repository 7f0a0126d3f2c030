"""Independent brute-force oracles for the test suite.

Nothing here shares code paths with the implementations under test: ranks
come from plain fraction Gaussian elimination or minor scans, connectivity
from exhaustive cut enumeration or networkx flows, h-vectors from literal
monomial counting, and so on. Oracles are only meant for desk-scale inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, inf, lcm

from dualgraphs.complexes import SimplicialComplex
from dualgraphs.graphs import Graph, _bits, diameter
from dualgraphs.homology import non_revisiting_path


def cx(facets) -> SimplicialComplex:
    return SimplicialComplex.from_facets(facets)


# -- linear algebra ------------------------------------------------------------


def gauss_rank(rows) -> int:
    """Rank over Q by plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pr[c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
    return rank


def det(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
        total += sign * term
    return total


def minor_scan_rank(rows) -> int:
    """Largest k with a nonvanishing k x k minor (tiny matrices only)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for ri in itertools.combinations(range(n_rows), k):
            for ci in itertools.combinations(range(n_cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub):
                    return k
    return 0


def rank_mod_p(rows, p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# -- line arrangements ----------------------------------------------------------


def _meeting_point(l1, l2):
    """The point two distinct lines share, as a primitive integer vector
    with a positive leading entry, or None when they are skew: from a
    nonzero (a, b, c, d) with a p1 + b q1 = c p2 + d q2, found by fraction
    Gauss-Jordan elimination on the columns p1, q1, -p2, -q2."""
    cols = [l1.p, l1.q, [-x for x in l2.p], [-x for x in l2.q]]
    m = [[Fraction(col[r]) for col in cols] for r in range(len(l1.p))]
    pivots = []
    for c in range(4):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    free = [c for c in range(4) if c not in pivots]
    if not free:
        return None
    assert len(free) == 1, "the lines coincide"
    x = [Fraction(0)] * 4
    x[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = -m[r][free[0]]
    point = [x[0] * a + x[1] * b for a, b in zip(l1.p, l1.q)]
    scale = lcm(*(v.denominator for v in point))
    ints = [int(v * scale) for v in point]
    g = gcd(*ints)
    sign = -1 if next(v for v in ints if v) < 0 else 1
    return tuple(sign * v // g for v in ints)


def bf_first_triple_point(arr):
    """The first point, in pair order, that lies on three lines: the
    meeting point of the first pair (i, j), i < j in lexicographic order,
    whose point an earlier pair already met at; None when there is none."""
    seen = []
    for i, j in itertools.combinations(range(len(arr.lines)), 2):
        point = _meeting_point(arr.lines[i], arr.lines[j])
        if point in seen:
            return point
        if point is not None:
            seen.append(point)
    return None


# -- graphs ---------------------------------------------------------------------


def connected_after_removal(g: Graph, removed: set) -> bool:
    verts = [v for v in g.vertices if v not in removed]
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def bf_vertex_connectivity(g: Graph) -> int:
    """Minimum vertex-cut size by subset enumeration; n-1 for complete."""
    if g.is_complete():
        return g.n - 1
    for size in range(g.n - 1):
        for cut in itertools.combinations(g.vertices, size):
            if not connected_after_removal(g, set(cut)):
                return size
    return g.n - 1


def bf_edge_connectivity(g: Graph) -> int:
    """Minimum over bipartitions of the crossing edge count."""
    if g.n < 2:
        raise ValueError("need two vertices")
    best = None
    verts = list(g.vertices)
    # side always contains verts[0]; the all-ones pick (empty complement)
    # is not a bipartition and is excluded
    for pick in range((1 << (g.n - 1)) - 1):
        side = {verts[0]} | {verts[i] for i in range(1, g.n) if pick >> (i - 1) & 1}
        crossing = sum(1 for u, v in g.edges if (u in side) != (v in side))
        if best is None or crossing < best:
            best = crossing
    return best


def _side_of(g: Graph, s, removed) -> set:
    """The vertices reachable from s in g without the removed vertices."""
    seen = {s}
    stack = [s]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _source_closest(cuts):
    """Of (s-side, cut) pairs of one least value, the cut whose s-side lies
    inside every other s-side; asserts that this one exists."""
    side, cut = min(cuts, key=lambda c: len(c[0]))
    assert all(side <= other for other, _ in cuts), "no inclusion-minimal s-side"
    return cut


def _vertex_schedule(g: Graph):
    """The pairs ``vertex_connectivity`` documents, in its order: a
    minimum-degree vertex (the first such) against its non-neighbours, then
    the nonadjacent pairs among its neighbours."""
    v = min(g.vertices, key=lambda u: (g.degree(u), g.vertices.index(u)))
    pairs = [(v, u) for u in g.vertices if u != v and not g.has_edge(u, v)]
    return pairs + [(a, b) for a, b in itertools.combinations(g.neighbors(v), 2)
                    if not g.has_edge(a, b)]


def bf_vertex_cut_witness(g: Graph):
    """(kappa, cut) as ``vertex_connectivity`` documents them, by subset
    enumeration: over the pairs of its schedule, the first pair of least
    local value, and of that pair's minimum separators the one whose
    s-side is inclusion-minimal; (n-1, None) for complete graphs."""
    if g.is_complete():
        return g.n - 1, None
    best = None
    for s, t in _vertex_schedule(g):
        others = [w for w in g.vertices if w not in (s, t)]
        for size in range(len(others) + 1):
            sides = [(_side_of(g, s, set(cut)), cut)
                     for cut in itertools.combinations(others, size)]
            cuts = [(side, cut) for side, cut in sides if t not in side]
            if cuts:
                break
        if best is None or size < best[0]:
            best = size, _source_closest(cuts)
    return best


def bf_edge_cut_witness(g: Graph):
    """(lambda, cut) as ``edge_connectivity`` documents them, by bipartition
    enumeration: over the pairs (first vertex, t), the first pair of least
    local value, and of its minimum cuts the one whose s-side is
    inclusion-minimal; the cut lists edges in ``g.edges`` order."""
    s = g.vertices[0]
    best = None
    for t in g.vertices[1:]:
        rest = [w for w in g.vertices if w not in (s, t)]
        cuts = []
        for size in range(len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                side = {s, *extra}
                cuts.append((side, tuple(e for e in g.edges
                                         if (e[0] in side) != (e[1] in side))))
        value = min(len(cut) for _, cut in cuts)
        if best is None or value < best[0]:
            best = value, _source_closest([c for c in cuts if len(c[1]) == value])
    return best


def _nx_least_cut(digraph, pairs, cut_of):
    """Over (s, t) ``pairs`` of the networkx ``digraph``, the first pair of
    least max-flow value (Edmonds-Karp) with ``cut_of`` applied to the
    residual reach set of s, the source-closest minimum cut."""
    from networkx.algorithms.flow import edmonds_karp

    best = None
    for s, t in pairs:
        residual = edmonds_karp(digraph, s, t)
        value = residual.graph["flow_value"]
        if best is None or value < best[0]:
            side, stack = {s}, [s]
            while stack:
                for w, arc in residual[stack.pop()].items():
                    if arc["capacity"] > arc["flow"] and w not in side:
                        side.add(w)
                        stack.append(w)
            best = value, cut_of(side)
    return best


def nx_vertex_cut_witness(g: Graph):
    """``bf_vertex_cut_witness`` by networkx max-flows instead of subset
    enumeration: the same schedule, each pair a flow from s_out to t_in on
    the split digraph (capacity 1 on w_in -> w_out, n + 1 on the edge
    arcs), so it scales past brute-force size."""
    import networkx as nx

    if g.is_complete():
        return g.n - 1, None
    split = nx.DiGraph()
    split.add_edges_from((((w, "in"), (w, "out")) for w in g.vertices), capacity=1)
    for a, b in g.edges:
        split.add_edge((a, "out"), (b, "in"), capacity=g.n + 1)
        split.add_edge((b, "out"), (a, "in"), capacity=g.n + 1)
    return _nx_least_cut(
        split, [((s, "out"), (t, "in")) for s, t in _vertex_schedule(g)],
        lambda side: tuple(w for w in g.vertices
                           if (w, "in") in side and (w, "out") not in side))


def nx_edge_cut_witness(g: Graph):
    """``bf_edge_cut_witness`` by networkx max-flows on the digraph with
    two opposite unit arcs per edge."""
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(g.vertices)
    digraph.add_edges_from(g.edges, capacity=1)
    digraph.add_edges_from(((b, a) for a, b in g.edges), capacity=1)
    s = g.vertices[0]
    return _nx_least_cut(digraph, [(s, t) for t in g.vertices[1:]],
                         lambda side: tuple(e for e in g.edges
                                            if (e[0] in side) != (e[1] in side)))


def bf_diameter(g: Graph):
    dist = {v: {v: 0} for v in g.vertices}
    for v in g.vertices:
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u):
                    if w not in dist[v]:
                        dist[v][w] = dist[v][u] + 1
                        nxt.append(w)
            frontier = nxt
    best = 0
    for v in g.vertices:
        if len(dist[v]) != g.n:
            return inf
        best = max(best, max(dist[v].values()))
    return best


def bf_find_induced(host: Graph, pattern: Graph):
    """Induced-subgraph search by brute force over vertex tuples."""
    pv = list(pattern.vertices)
    for combo in itertools.permutations(host.vertices, len(pv)):
        mapping = dict(zip(pv, combo))
        if all(
            pattern.has_edge(a, b) == host.has_edge(mapping[a], mapping[b])
            for a, b in itertools.combinations(pv, 2)
        ):
            return mapping
    return None


def first_induced_embedding(host: Graph, pattern: Graph, order):
    """The first induced copy of ``pattern`` in ``host`` in the order of
    ``itertools.permutations(host.vertices, len(order))``, read as the
    images of ``order``; a dict pattern label -> host label, or None.

    Only vertex sets with the pattern's edge count can hold a copy, so those
    are the ones whose orderings are tried; the lexicographically first
    qualifying tuple of host positions is the one permutations() yields
    first.
    """
    k = len(order)
    pairs = list(itertools.combinations(range(k), 2))
    wanted = {(i, j): pattern.has_edge(order[i], order[j]) for i, j in pairs}
    n_edges = sum(wanted.values())
    position = {v: i for i, v in enumerate(host.vertices)}
    best = None
    for combo in itertools.combinations(host.vertices, k):
        if sum(host.has_edge(a, b) for a, b in itertools.combinations(combo, 2)) != n_edges:
            continue
        for perm in itertools.permutations(combo):
            if all(host.has_edge(perm[i], perm[j]) == wanted[i, j] for i, j in pairs):
                key = tuple(position[v] for v in perm)
                if best is None or key < best[0]:
                    best = (key, perm)
    return None if best is None else dict(zip(order, best[1]))


def bf_nonrevisiting_exists(cxv: SimplicialComplex, f1, f2) -> bool:
    """Enumerate every simple dual path and test the non-revisiting rule."""
    facets = list(cxv.facets)
    m1 = cxv.mask_of(f1)
    m2 = cxv.mask_of(f2)
    i1, i2 = facets.index(m1), facets.index(m2)
    if i1 == i2:
        return True
    adj = {
        i: [j for j in range(len(facets))
            if j != i and bin(facets[i] ^ facets[j]).count("1") == 2]
        for i in range(len(facets))
    }

    def walk(node, visited, abandoned):
        if node == i2:
            return True
        for nxt in adj[node]:
            if nxt in visited or facets[nxt] & abandoned:
                continue
            if walk(nxt, visited | {nxt}, abandoned | (facets[node] & ~facets[nxt])):
                return True
        return False

    return walk(i1, {i1}, 0)


def monotone_starts(cxv: SimplicialComplex, goal: int) -> frozenset[int]:
    """Indices of the facets F joined to facet ``goal`` = G by a monotone
    dual path (each step drops a vertex outside G and adds one of G), G
    itself included; neighbours are the facets whose symmetric difference
    with F has two vertices.

    A step from F to a neighbour F' is monotone exactly when |F' \\ G| =
    |F \\ G| - 1, so one pass over the facets in increasing |F \\ G| marks
    F when one of its neighbours one step closer is marked.
    """
    facets = cxv.facets
    neighbors = [[j for j, h in enumerate(facets) if (f ^ h).bit_count() == 2]
                 for f in facets]
    away = [(f & ~facets[goal]).bit_count() for f in facets]
    marked = [False] * len(facets)
    marked[goal] = True
    for i in sorted(range(len(facets)), key=away.__getitem__):
        if not marked[i]:
            marked[i] = any(marked[j] and away[j] == away[i] - 1 for j in neighbors[i])
    return frozenset(i for i, m in enumerate(marked) if m)


def all_pairs_nonrevisiting_verdict(g: Graph, cxv: SimplicialComplex):
    """(passed, detail) of the report check ``flag_cm_nonrevisiting`` on the
    dual graph ``g`` of ``cxv``, by the exact search on every facet pair in
    ``itertools.combinations`` order."""
    for f1, f2 in itertools.combinations(cxv.facet_labels(), 2):
        if non_revisiting_path(cxv, f1, f2) is None:
            return False, (f"no non-revisiting path between"
                           f" {','.join(map(str, f1))} and {','.join(map(str, f2))}")
    diam, height = diameter(g), cxv.height()
    shown = "infinite" if diam == inf else diam
    if diam > height:
        return False, f"diameter {shown} > height {height}"
    return True, (f"paths found for all {g.n * (g.n - 1) // 2} facet pairs,"
                  f" diameter {shown} <= height {height}")


# -- complexes -----------------------------------------------------------------


def bf_is_normal(cxv: SimplicialComplex) -> bool:
    """Every star, the empty face's (the whole complex) included, stays
    connected when two facets are adjacent if they share all but one
    vertex; faces and stars from the facet label sets."""
    facets = [frozenset(f) for f in cxv.facet_labels()]
    d = len(facets[0]) - 1
    faces = {frozenset(face) for f in facets for size in range(len(f) + 1)
             for face in itertools.combinations(f, size)}
    for face in faces:
        star = [f for f in facets if face <= f]
        seen = {star[0]}
        stack = [star[0]]
        while stack:
            a = stack.pop()
            for b in star:
                if b not in seen and len(a & b) == d:
                    seen.add(b)
                    stack.append(b)
        if len(seen) != len(star):
            return False
    return True


def bf_minimal_nonfaces(cxv: SimplicialComplex):
    """All-subsets enumeration: minimal subsets that are not faces."""
    n = cxv.n_vertices
    nonfaces = [
        m for m in range(1, 1 << n) if not cxv.has_face_mask(m)
    ]
    minimal = [
        m for m in nonfaces
        if not any(o != m and o & m == o for o in nonfaces)
    ]
    return sorted(cxv.labels_of(m) for m in minimal)


def bf_faces(cxv: SimplicialComplex) -> list[list[tuple]]:
    """Faces by vertex count, the empty face first, from the facet label
    tuples alone: every face is a tuple in the order in which its labels
    first appear among the facets, and each group is sorted in that order."""
    facets = cxv.facet_labels()
    order = {v: i for i, v in enumerate(dict.fromkeys(v for f in facets for v in f))}
    top = max(len(f) for f in facets)
    return [
        sorted({sub for f in facets
                for sub in itertools.combinations(sorted(f, key=order.get), k)},
               key=lambda face: [order[v] for v in face])
        for k in range(top + 1)
    ]


def bf_boundary(faces, k: int) -> list[list[int]]:
    """Dense signed boundary matrix from ``faces[k]`` down to ``faces[k - 1]``
    (no rows for k = 0): deleting the label in position t has sign (-1)^t."""
    if k == 0:
        return []
    row_of = {face: r for r, face in enumerate(faces[k - 1])}
    d = [[0] * len(faces[k]) for _ in row_of]
    for c, face in enumerate(faces[k]):
        for t in range(k):
            d[row_of[face[:t] + face[t + 1:]]][c] = (-1) ** t
    return d


def bf_reduced_betti(cxv: SimplicialComplex, field) -> list:
    """b~_-1 .. b~_d from the ranks of the dense boundary matrices."""
    def field_rank(rows):
        return gauss_rank(rows) if field.is_rationals else rank_mod_p(rows, field.p)

    faces = bf_faces(cxv)
    ranks = [field_rank(bf_boundary(faces, k)) for k in range(len(faces))] + [0]
    return [len(group) - ranks[k] - ranks[k + 1] for k, group in enumerate(faces)]


def bf_link_bettis(cxv: SimplicialComplex, field) -> list[list]:
    """``bf_reduced_betti`` of the link of every face, the empty face
    included, each link rebuilt from the facets that contain the face."""
    facets = [frozenset(f) for f in cxv.facet_labels()]
    faces = {frozenset(sub) for f in facets
             for k in range(len(f) + 1) for sub in itertools.combinations(f, k)}
    profiles = []
    for face in faces:
        link = [f - face for f in facets if face <= f]
        if link == [frozenset()]:
            profiles.append([1])  # a facet's link is the empty complex
        else:
            profiles.append(bf_reduced_betti(SimplicialComplex.from_facets(link), field))
    return profiles


def bf_reisner(cxv: SimplicialComplex, field) -> tuple[bool, bool]:
    """(Cohen-Macaulay, homology sphere) over ``field`` by Reisner's
    criterion, from ``bf_link_bettis``."""
    profiles = bf_link_bettis(cxv, field)
    cm = all(not any(bt[:-1]) for bt in profiles)
    return cm, cm and all(bt[-1] == 1 for bt in profiles)


def bf_is_shelling(cxv: SimplicialComplex, order) -> bool:
    """Whether ``order``, a sequence of facet label tuples, lists every facet
    of ``cxv`` once and each F_k meets F_1 u ... u F_{k-1} in a complex
    whose maximal faces all have one vertex less than F_k."""
    placed = [frozenset(f) for f in order]
    if sorted(map(sorted, placed)) != sorted(map(sorted, cxv.facet_labels())):
        return False
    for k, fk in enumerate(placed):
        cuts = {fk & f for f in placed[:k]}
        maximal = [c for c in cuts if not any(c < o for o in cuts)]
        if any(len(c) != len(fk) - 1 for c in maximal):
            return False
    return True


def blocker_list_shelling(cxv: SimplicialComplex) -> tuple[int, ...] | None:
    """The greedy shelling order of ``homology.greedy_shelling``, as facet
    indices, or None when the pass gets stuck; the order reference.

    With R(G) the vertices v such that G - v lies in a placed dual
    neighbour of G, an unplaced facet G may come next when R(G) is nonempty
    and (G \\ P) meets R(G) for every placed facet P. The pass places the
    first facet, then always the lowest-indexed facet that may come next.
    Each candidate keeps its R(G) and the list of placed facets that still
    block it, and every facet is rescanned after each placement: O(d m^2)
    steps on m facets of d vertices.
    """
    facets = cxv.facets
    m = len(facets)
    placed = [False] * m
    restriction = [0] * m
    blockers: list[list[int]] = [[] for _ in range(m)]
    h = [0] * (cxv.dimension + 2)
    order: list[int] = []
    nxt: int | None = 0
    while nxt is not None:
        placed[nxt] = True
        order.append(nxt)
        h[restriction[nxt].bit_count()] += 1
        fp = facets[nxt]
        for j in _bits(cxv.ridge_neighbors[nxt]):
            v = facets[j] & ~fp
            if not placed[j] and not restriction[j] & v:
                restriction[j] |= v
                blockers[j] = [p for p in blockers[j]
                               if not facets[j] & ~facets[p] & restriction[j]]
        for j in range(m):
            if not placed[j] and not facets[j] & ~fp & restriction[j]:
                blockers[j].append(nxt)
        nxt = next((j for j in range(m) if not placed[j] and restriction[j]
                    and not blockers[j]), None)
    if len(order) < m:
        return None
    if tuple(h) != cxv.h_vector:
        raise AssertionError("shelling failed re-verification against the h-vector")
    return tuple(order)


def bf_regularity(cxv: SimplicialComplex, field):
    """(value, witness labels) of the restriction sweep with no skips.

    Every nonempty vertex set W, in Gray-code order, is restricted by
    rebuilding the complex from the facets cut down to W; the value is the
    largest i with b~_{i-1} != 0, and the witness the first W attaining it.
    """
    best, best_mask = 0, 0
    for k in range(1, 1 << cxv.n_vertices):
        w = k ^ (k >> 1)
        sub = SimplicialComplex.from_facets(
            [cxv.labels_of(f & w) for f in cxv.facets if f & w]
        )
        top = max((j for j, b in enumerate(bf_reduced_betti(sub, field)) if b), default=0)
        if top > best:
            best, best_mask = top, w
    return best, cxv.labels_of(best_mask)


def bf_hochster_regularity(cxv: SimplicialComplex, field) -> int:
    """Regularity of k[cxv] from local cohomology (Hochster 1977): the
    largest t + 1 with b~_t(lk F) != 0 over the faces F, the empty face
    included. It reads links, where ``bf_regularity`` reads restrictions;
    ``bf_link_bettis`` lists b~_-1 first, so t + 1 is the list index."""
    return max(max(k for k, b in enumerate(bt) if b)
               for bt in bf_link_bettis(cxv, field) if any(bt))


def bf_acyclic_by_cone(cxv: SimplicialComplex, w: int) -> bool:
    """Whether the restriction to W is a simplex or a cone: its maximal
    faces, the inclusion-maximal facet cuts, share a vertex."""
    cuts = {f & w for f in cxv.facets}
    maximal = [m for m in cuts if not any(m != o and m & o == m for o in cuts)]
    common = w
    for m in maximal:
        common &= m
    return common != 0


def reduced_euler_characteristic(f_vector) -> int:
    """sum (-1)^i f_i over i >= -1, i.e. -f_-1 + f_0 - f_1 + ..."""
    return sum((-1) ** (k + 1) * f_k for k, f_k in enumerate(f_vector))


def hilbert_h_vector(cxv: SimplicialComplex):
    """h-vector by literal monomial counting.

    Counts the monomials of each degree whose support is a face, then
    multiplies the Hilbert series by (1-t)^(d+1). Independent of the
    f-vector transform under test.
    """
    n = cxv.n_vertices
    d1 = cxv.dimension + 1
    hf = []
    for degree in range(d1 + 1):
        count = 0
        for expo in itertools.combinations_with_replacement(range(n), degree):
            support = 0
            for e in expo:
                support |= 1 << e
            if cxv.has_face_mask(support):
                count += 1
        hf.append(count)
    return tuple(
        sum((-1) ** (j - i) * comb(d1, j - i) * hf[i] for i in range(j + 1))
        for j in range(d1 + 1)
    )


def all_antichain_complexes(n: int):
    """Every simplicial complex on a subset of n labelled vertices,
    yielded as a facet family (antichains of nonempty subsets)."""
    subsets = [frozenset(c)
               for size in range(1, n + 1)
               for c in itertools.combinations(range(1, n + 1), size)]

    def extend(start: int, chosen: tuple):
        if chosen:
            yield chosen
        for i in range(start, len(subsets)):
            s = subsets[i]
            if all(not (s <= c or c <= s) for c in chosen):
                yield from extend(i + 1, chosen + (s,))

    yield from extend(0, ())


def pure_families(n: int, k: int):
    """Every nonempty family of k-subsets of {1..n} (automatically pure)."""
    ksubs = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    for pick in range(1, 1 << len(ksubs)):
        yield tuple(ksubs[i] for i in range(len(ksubs)) if pick >> i & 1)


def to_networkx(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out

"""Reduced simplicial homology over a field, and the predicates built on it.

Everything runs through the augmented chain complex (the empty face is a
generator in degree -1), so a nonempty complex has vanishing degree -1
homology and the empty complex {emptyset} has reduced Betti number 1 there.

The coefficient field is a first-class parameter: Cohen-Macaulayness,
Gorensteinness, and regularity genuinely depend on it (the 6-vertex real
projective plane separates Q from GF(2)).

Betti profiles come from boundary ranks in the face-mask basis of
``SimplicialComplex.faces_by_card``. One walk over each face's vertices,
lowest first with alternating signs, builds its boundary for every field:
over GF(2) a column packed into a Python int, one bit per lower face, the
columns reduced by XOR (``linalg.rank_gf2_columns``); over any other field
sparse +-1 rows ranked by ``linalg.rank``. A Q profile is read off the GF(2)
profile whenever that has at most one nonzero entry: by universal
coefficients b~_i(Q) <= b~_i(GF(2)) for every i, and both profiles
alternate-sum to the reduced Euler characteristic. Otherwise -- 2-torsion
may be present, as in the projective plane -- the Q ranks are computed
exactly over the integers.

The regularity sweep's cover rule: with U(W) the union of the minimal
nonfaces inside a vertex set W, W is a face exactly when U(W) is empty, and
its restriction is a cone with apex v exactly when v is in W but not in
U(W). Both are acyclic over every field, so only a W with U(W) = W is built.
A W holding a cone vertex (one in every facet) restricts to a cone, so no
restriction has homology above the dimension e of the core K (the complex
less its cone vertices): the sweep stops at the first W with b~_e != 0.
If K is a homology sphere no sweep runs: Alexander duality gives
b~_e(K_W) = b~_{-1}(K_{V(K)-W}), nonzero only at W = V(K), the witness.
A witness W = V(K), from that shortcut or from the sweep, re-verifies on K
itself (the complex, when it has no cone vertex).

Before any link is built, a pure complex is offered a shelling: an order
F_1, ..., F_m of its facets in which each F_k meets F_1 u ... u F_{k-1} in
a pure complex of one dimension less. A shellable d-complex is a wedge of
h_{d+1} d-spheres (Bjorner-Wachs 1996) and Cohen-Macaulay over every field,
hence normal (Hartshorne: its links are CM, so strongly connected); a
shellable pseudomanifold -- every ridge in exactly two facets -- is a PL
sphere (Danaraj-Klee 1974), hence a homology sphere over every field, and
a shellable complex with a ridge in one facet or in three or more has a
link of that ridge that is not a 0-sphere, so it is not one. The order is
found greedily on one mask of placed facets per vertex (``greedy_shelling``)
and re-verified against the h-vector (h_i counts the facets whose
restriction set has i vertices). Only when the greedy pass gets stuck --
always on a complex that is not Cohen-Macaulay, sometimes on one that is --
are links swept, boundary maps ranked and stars flooded.

Results are kept in the complex's ``memo``: by ``graphs.kept``, the
shelling, for every field at once, and per field the Cohen-Macaulay and
homology-sphere verdicts of the one link sweep that answers both; by
``_kept_profile``, per field, the Betti profile of each link under its
face mask and of each restriction the regularity sweep builds under its
vertex mask. A Q sweep reads the GF(2) link profiles, so a report over Q
and GF(2) builds each link once. Nothing is cached at module level: the
results die with the complex.

A pure complex's dual graph joins the facets that share a ridge: its edges
are the ridge adjacency ``cx.ridge_neighbors``. The non-revisiting verdict
reads dual distances: a facet pair at distance |F \\ G| is joined by a
monotone path, so only the other pairs are searched state by state.

Torsion is invisible by design -- every question this package asks
(vanishing below the top dimension, top Betti equal to one, Hochster-style
restriction sweeps) is a field question answered by ranks of boundary maps.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple

from .complexes import SimplicialComplex
from .errors import DEFAULT_MAX_HOCHSTER_VERTICES, ResourceCapError
from .errors import EmptyGraphError, InputError, VoidComplexError
from .graphs import Graph, _bits, _pairs, _spread, kept, reach
from .linalg import QQ, FieldSpec, rank, rank_gf2_columns

#: GF(2): every Betti profile over Q is first computed over it.
GF2 = FieldSpec(2)


class BettiProfile(NamedTuple):
    """Reduced Betti numbers b_-1 .. b_d of a complex over a field."""

    complex: SimplicialComplex
    field: FieldSpec
    reduced: tuple[int, ...]

    def betti(self, i: int) -> int:
        """b~_i; zero outside the stored range."""
        j = i + 1
        if 0 <= j < len(self.reduced):
            return self.reduced[j]
        return 0


class RegularityCertificate(NamedTuple):
    """A regularity value plus the restriction that attains it.

    The witness re-verifies: the induced subcomplex on ``witness_vertices``
    has nonzero reduced homology in degree ``witness_index - 1``.
    """

    value: int
    witness_vertices: tuple
    witness_index: int


def _ranks_profile(cx: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Reduced Betti numbers from the boundary ranks over ``field``: bit r
    of a GF(2) column, or entry r of a sparse row, is the r-th face one
    vertex smaller (module docstring)."""
    gf2 = field.p == 2
    groups = cx.faces_by_card
    ranks = [0] * (len(groups) + 1)
    row_of = {0: 0}
    for card in range(1, len(groups)):
        columns: list[int] = []
        rows: list[dict[int, int]] = [] if gf2 else [{} for _ in groups[card - 1]]
        for c, face in enumerate(groups[card]):
            col, sign, rest = 0, 1, face
            while rest:
                vertex = rest & -rest
                r = row_of[face ^ vertex]
                if gf2:
                    col |= 1 << r
                else:
                    rows[r][c] = sign
                    sign = -sign
                rest ^= vertex
            columns.append(col)
        ranks[card] = rank_gf2_columns(columns) if gf2 else rank(rows, field)
        row_of = {face: r for r, face in enumerate(groups[card])}
    return tuple(len(groups[k]) - ranks[k] - ranks[k + 1] for k in range(len(groups)))


def _certified_by_gf2(mod2: tuple[int, ...]) -> tuple[int, ...] | None:
    """The Q profile when the GF(2) profile alone determines it, else None.

    By universal coefficients b~_i(Q) <= b~_i(GF(2)) for every i, and both
    profiles alternate-sum to the reduced Euler characteristic. With at most
    one nonzero GF(2) entry the Q profile therefore equals it.
    """
    return mod2 if sum(1 for b in mod2 if b) <= 1 else None


def _kept_profile(cx: SimplicialComplex, table: str, mask: int, field: FieldSpec,
                  build) -> tuple[int, ...]:
    """Profile over ``field`` of the subcomplex ``build(cx, mask)``, kept on
    ``cx`` under (table, field) and ``mask``.

    A Q profile comes from the GF(2) profile of the same subcomplex when
    that certifies it, and from exact integer ranks otherwise. Either way
    the subcomplex is built at most once.
    """
    store = cx.memo.setdefault((table, field), {})
    bt = store.get(mask)
    if bt is None:
        sub = None
        if field.is_rationals:
            mod2 = cx.memo.setdefault((table, GF2), {})
            if mask not in mod2:
                sub = build(cx, mask)
                mod2[mask] = _ranks_profile(sub, GF2)
            bt = _certified_by_gf2(mod2[mask])
        if bt is None:
            bt = _ranks_profile(build(cx, mask) if sub is None else sub, field)
        store[mask] = bt
    return bt


def _link_of(cx: SimplicialComplex, mask: int) -> SimplicialComplex:
    return cx if mask == 0 else cx.link_mask(mask)


def _link_betti(cx: SimplicialComplex, mask: int, field: FieldSpec) -> tuple[int, ...]:
    return _kept_profile(cx, "link", mask, field, _link_of)


def reduced_betti_numbers(cx: SimplicialComplex, field: FieldSpec = QQ) -> BettiProfile:
    """Reduced Betti numbers b~_i = nullity(d_i) - rank(d_{i+1}); on a
    shellable pure d-complex, (0, ..., 0, h_{d+1}) over every field."""
    if cx.is_void:
        raise VoidComplexError("the void complex has no homology")
    if cx.is_pure and greedy_shelling(cx) is not None:
        return BettiProfile(cx, field, (0,) * (cx.dimension + 1) + cx.h_vector[-1:])
    # cx is the link of its own empty face
    return BettiProfile(cx, field, _link_betti(cx, 0, field))


@kept
def greedy_shelling(cx: SimplicialComplex) -> tuple[int, ...] | None:
    """A shelling order of the facets of the pure complex ``cx``, as facet
    indices, or None when the greedy pass gets stuck; kept on ``cx``.

    With R(G) the vertices v such that G - v lies in a placed dual
    neighbour of G, a facet G may come next when R(G) is nonempty and no
    placed facet contains it, as then every G n P lies in some G - v with v
    in R(G): when the AND over R(G) of ``holders[v]``, the mask of placed
    facets holding v, is 0. A placed facet never passes. The pass places
    the first facet, then always the lowest one that may come next, tested
    when popped from a heap that takes G whenever R(G) grows: ``holders``
    only grows, so a blocked G stays blocked until then.
    """
    facets, order, heap = cx.facets, [], [0]
    restriction, holders = [0] * len(facets), [0] * cx.n_vertices
    h = [0] * (cx.dimension + 2)
    while heap:
        g = heapq.heappop(heap)
        held = -1 if order else 0  # an empty R(G) blocks every facet but the first
        for v in _bits(restriction[g]):
            held &= holders[v]
        if held:
            continue
        order.append(g)
        h[restriction[g].bit_count()] += 1
        fg = facets[g]
        for v in _bits(fg):
            holders[v] |= 1 << g
        for j in _bits(cx.ridge_neighbors[g]):
            v = facets[j] & ~fg
            if not restriction[j] & v:
                restriction[j] |= v
                heapq.heappush(heap, j)
    if len(order) < len(facets):
        return None
    if tuple(h) != cx.h_vector:
        raise AssertionError("shelling failed re-verification against the h-vector")
    return tuple(order)


def _every_ridge_in_two_facets(cx: SimplicialComplex) -> bool:
    """Each facet has one dual neighbour across each of its ridges."""
    for f, neighbors in zip(cx.facets, cx.ridge_neighbors):
        dropped = 0
        for j in _bits(neighbors):
            dropped |= f & ~cx.facets[j]
        if neighbors.bit_count() != f.bit_count() or dropped != f:
            return False
    return True


@kept
def _reisner_sweep(cx: SimplicialComplex, field: FieldSpec) -> tuple[bool, bool]:
    """(Cohen-Macaulay, homology sphere) over ``field``, kept on ``cx``.

    A greedy shelling answers both for every field (module docstring).
    Without one, a pass over the links decides: each link profile bt lists
    b~_-1 .. b~_top; the entries below the top, bt[:-1], must vanish for
    Cohen-Macaulayness, and a sphere also needs bt[-1] == 1. The pass stops
    at the first link that is not acyclic below its top, which rules out
    both.
    """
    if cx.is_pure and greedy_shelling(cx) is not None:
        return True, _every_ridge_in_two_facets(cx)
    sphere = True
    for mask in sorted(cx.faces):
        bt = _link_betti(cx, mask, field)
        if any(bt[:-1]):
            return False, False
        sphere = sphere and bt[-1] == 1
    return True, sphere


def is_cohen_macaulay(cx: SimplicialComplex, field: FieldSpec = QQ) -> bool:
    """Reisner's criterion: every link (the empty face included) has
    vanishing reduced homology below its own dimension."""
    if cx.is_void:
        raise VoidComplexError("the void complex is not classified")
    return _reisner_sweep(cx, field)[0]


def is_homology_sphere(cx: SimplicialComplex, field: FieldSpec = QQ) -> bool:
    """Cohen-Macaulay with every link closing up to a homology sphere:
    top reduced Betti number one, everything below zero."""
    if cx.is_void:
        raise VoidComplexError("the void complex is not classified")
    cx.require_pure("homology-sphere test")
    return _reisner_sweep(cx, field)[1]


def is_gorenstein(cx: SimplicialComplex, field: FieldSpec = QQ) -> bool:
    """Gorenstein test via the core: drop the vertices lying in every facet;
    what remains must be a homology sphere (an empty core -- the complex is
    a simplex cone -- counts as Gorenstein: polynomial rings qualify)."""
    if cx.is_void:
        raise VoidComplexError("the void complex is not classified")
    core = cx.core()
    if core.is_empty_complex:
        return True
    if not core.is_pure:
        return False
    return is_homology_sphere(core, field)


def is_normal(cx: SimplicialComplex) -> bool:
    """Strong connectivity of the complex and of the stars of all its faces.

    Purely combinatorial: two facets are adjacent when they share a face of
    one dimension less -- on a pure complex, the ridge relation
    ``cx.ridge_neighbors`` -- and every star must stay connected that way.
    A shelling makes every link Cohen-Macaulay, so strongly connected by
    Hartshorne. Otherwise each star, a bitmask of facet indices, is the AND
    of its vertices' stars, and ``graphs.reach`` floods it from its lowest
    facet along the ridge masks.
    """
    if cx.is_void:
        raise VoidComplexError("the void complex is not classified")
    cx.require_pure("normality")
    if greedy_shelling(cx) is not None:
        return True
    facets = cx.facets
    vertex_stars = [sum(1 << i for i, f in enumerate(facets) if f >> v & 1)
                    for v in range(cx.n_vertices)]
    for mask in cx.faces:
        star = (1 << len(facets)) - 1
        rest = mask
        while rest:
            low = rest & -rest
            star &= vertex_stars[low.bit_length() - 1]
            rest ^= low
        if reach(cx.ridge_neighbors, star & -star, star) != star:
            return False
    return True


def regularity(
    cx: SimplicialComplex,
    field: FieldSpec = QQ,
    max_vertices: int = DEFAULT_MAX_HOCHSTER_VERTICES,
) -> RegularityCertificate:
    """Regularity by the restriction sweep: the maximum over vertex subsets
    W of max{ i : b~_{i-1}(cx|_W) != 0 }.

    The sweep visits 2^n subsets (Gray-code order); when it must run, it
    refuses past ``max_vertices`` -- raise the cap to accept the blowup.
    Simplices and cones -- the W not covered by the minimal nonfaces inside
    them (module docstring) -- are skipped; every other restriction's
    profile is kept on ``cx``, so a second field's sweep reuses the GF(2)
    profiles. The witness is the first subset in Gray-code order attaining
    the maximum; the sweep ends at the first W attaining dim(core) + 1,
    and a pure complex whose core is a homology sphere skips it (module
    docstring). A witness equal to V(core) re-verifies on the kept core,
    any other on a freshly built restriction, apart from the kept
    profiles. On Cohen-Macaulay input the result is cross-checked against
    the h-polynomial degree (the Reisner sweep this takes is kept on ``cx``
    and shared with ``is_cohen_macaulay``).
    """
    if cx.is_void:
        raise VoidComplexError("the void complex has no regularity")
    n = cx.n_vertices
    nonfaces = [cx.mask_of(nf) for nf in cx.minimal_nonfaces]
    core = cx.core()
    core_mask = (1 << n) - 1 & ~cx.cone_mask
    best, best_mask = 0, 0
    if cx.is_pure and not core.is_empty_complex and is_homology_sphere(core, field):
        best, best_mask = core.dimension + 1, core_mask
    if best <= core.dimension and n > max_vertices:
        raise ResourceCapError(
            f"regularity sweep needs 2^{n} restrictions; cap is {max_vertices}"
            " vertices (raise max_vertices / --max-hochster-n to override)"
        )
    for k in range(1, 1 << n):
        if best > core.dimension:
            break  # nothing above the core's dimension: no later W can do better
        w = k ^ (k >> 1)
        cover = 0
        for nf in nonfaces:
            if nf & w == nf:
                cover |= nf
        if cover != w:
            continue  # a simplex or a cone: acyclic over every field
        bt = _kept_profile(cx, "restriction", w, field, SimplicialComplex.restrict_mask)
        top = max((i for i, b in enumerate(bt) if b), default=0)
        if top > best:
            best = top
            best_mask = w
    # The witness re-verifies by its own profile (on a shelled one, its h_{d+1}).
    witness = core if best_mask == core_mask else cx.restrict_mask(best_mask)
    if reduced_betti_numbers(witness, field).betti(best - 1) <= 0:
        raise AssertionError("regularity witness failed re-verification")
    if cx.is_pure and is_cohen_macaulay(cx, field):
        h = cx.h_vector
        h_degree = max((j for j, v in enumerate(h) if v), default=0)
        if best != h_degree:
            raise AssertionError(
                f"regularity {best} disagrees with h-degree {h_degree} on CM input"
            )
    return RegularityCertificate(best, cx.labels_of(best_mask), best)


def dual_adjacency(cx: SimplicialComplex) -> frozenset[tuple[int, int]]:
    """Dual edges as facet-index pairs: facets sharing a ridge."""
    if cx.is_void:
        raise EmptyGraphError("the void complex has no dual graph")
    cx.require_pure("the dual graph")
    return frozenset(_pairs(cx.ridge_neighbors))


@kept
def dual_graph(cx: SimplicialComplex) -> Graph:
    """Graph on the facets; edges join facets sharing a codimension-1 face."""
    edges_idx = dual_adjacency(cx)
    labels = [",".join(map(str, f)) for f in cx.facet_labels()]
    if len(set(labels)) != len(labels):
        labels = [f"{i}:{lab}" for i, lab in enumerate(labels, start=1)]
    return Graph(labels, [(labels[i], labels[j]) for i, j in edges_idx])


def non_revisiting_path(cx: SimplicialComplex, start_facet, goal_facet):
    """A dual path that never reenters the star of an abandoned vertex.

    Breadth-first over (facet, abandoned-set) states, so the result is a
    shortest non-revisiting path and ``None`` is a proof that none exists.
    Returns the path as a tuple of facet label tuples.

    Most pairs never need this search. A *monotone* dual path from F to G
    drops only vertices outside G and adds only vertices of G, so a dropped
    vertex never comes back: the path is non-revisiting. Each step changes
    one vertex, so its length |F \\ G| is the least any dual path can have,
    and this search returns a path of exactly that length. So
    ``first_pair_without_nonrevisiting_path`` searches only the pairs whose
    dual distance exceeds |F \\ G|.
    """
    cx.require_pure("non-revisiting search")
    sm = cx.mask_of(start_facet)
    gm = cx.mask_of(goal_facet)
    facets = cx.facets
    try:
        si = facets.index(sm)
        gi = facets.index(gm)
    except ValueError:
        raise InputError("endpoints must be facets") from None
    if si == gi:
        return (cx.labels_of(facets[si]),)
    adj = cx.ridge_neighbors
    start = (si, 0)
    parent: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        fi, abandoned = state
        if fi == gi:
            path = []
            cur: tuple[int, int] | None = state
            while cur is not None:
                path.append(cx.labels_of(facets[cur[0]]))
                cur = parent[cur]
            return tuple(reversed(path))
        for j in _bits(adj[fi]):
            fj = facets[j]
            if fj & abandoned:
                continue
            nxt = (j, abandoned | (facets[fi] & ~fj))
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    return None


@kept
def first_pair_without_nonrevisiting_path(cx: SimplicialComplex):
    """The first facet pair, in ``itertools.combinations`` order of the
    facets, that no non-revisiting dual path joins, as two label tuples;
    None when every pair is joined.

    A dual step swaps one vertex for another, so a dual path from F to G
    has at least |F \\ G| steps, and has exactly that many only when it is
    monotone, hence non-revisiting (see ``non_revisiting_path``). One BFS
    from each goal G, level by level on ``cx.ridge_neighbors``, settles
    every start F on level |F \\ G|; only the other pairs, unreached starts
    included, go to ``non_revisiting_path``, in sorted order. The verdict
    does not depend on a field, so it is kept on ``cx``.
    """
    cx.require_pure("non-revisiting search")
    facets, adj = cx.facets, cx.ridge_neighbors
    open_pairs = []
    for j, goal in enumerate(facets):
        levels = [seen := 1 << j]
        while level := _spread(adj, levels[-1]) & ~seen:
            seen |= level
            levels.append(level)
        starts = (1 << j) - 1
        open_pairs += [(i, j) for i in _bits(starts & ~seen)]
        open_pairs += [(i, j) for k, level in enumerate(levels)
                       for i in _bits(level & starts)
                       if (facets[i] & ~goal).bit_count() < k]
    for i, j in sorted(open_pairs):
        pair = cx.labels_of(facets[i]), cx.labels_of(facets[j])
        if non_revisiting_path(cx, *pair) is None:
            return pair
    return None

"""Finite simple graphs and the graph side of the dual-graph toolkit.

Covers dual graphs of pure complexes, BFS diameters, Menger-style vertex and
edge connectivity, diameter bounds, Hirsch verdicts, the diameter check on
graphs that model canonical curves, non-revisiting dual paths, the 6-vertex
forbidden induced pattern for line-arrangement dual graphs, and the named
graph families used throughout the suite.

A graph keeps one adjacency, a bitmask per vertex (``Graph.adj``). Every
algorithm here runs on these masks and on vertex indices; labels are used
only for input and output.

Both connectivities run one max-flow routine (Dinic blocking flows) on
residual masks, pair after pair, and report the first least pair with the
source side of its flow as the cut, re-verified. Most pairs never run a
full flow: a vertex-connectivity pair starts from its paths through common
neighbours and is skipped when these already reach the least value so far,
any flow stops once it reaches that value, and edge connectivity stops
once it reaches the vertex connectivity. None of this changes the reported
value or cut (see ``_least_flow``).

Graphs, complexes and arrangements never change, so ``kept`` computes a
value derived from one once and keeps it in the owner's ``memo``: a graph's
diameter, connectivities with cuts and forbidden-pattern witness; a
complex's dual graph, shelling and verdicts; an arrangement's dual graph.
Disconnected diameters are the float infinity, never a sentinel integer.
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections import deque
from math import comb, inf
from typing import NamedTuple

from .errors import (
    GRAPH_FAMILIES,
    EmptyGraphError,
    HypothesisError,
    InputError,
    NonPureComplexError,
    ParseError,
    UnknownFamilyError,
)


def kept(compute):
    """Run ``compute(owner, *args)`` once per owner and arguments; keep the
    result in ``owner.memo`` under its name, or (name, *args) given args."""
    name = compute.__name__

    @functools.wraps(compute)
    def keeper(owner, *args):
        key = (name, *args) if args else name
        if key not in owner.memo:
            owner.memo[key] = compute(owner, *args)
        return owner.memo[key]

    return keeper


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(adj, frontier: int) -> int:
    """The neighbours of the vertices in ``frontier``, as one mask."""
    out = 0  # the loop of _bits, inlined: every flood and BFS level runs here
    while frontier:
        low = frontier & -frontier
        out |= adj[low.bit_length() - 1]
        frontier ^= low
    return out


def reach(adj, start: int, alive: int) -> int:
    """The vertices that paths inside ``alive`` reach from ``start``, as a
    mask; ``adj[i]`` is the neighbour mask of vertex i and ``start`` is a
    mask of vertices of ``alive``."""
    seen = frontier = start
    while frontier := _spread(adj, frontier) & alive & ~seen:
        seen |= frontier
    return seen


def _pairs(adj):
    """The edges (i, j), i < j, of the neighbour masks ``adj`` in index order."""
    return [(i, j) for i, mask in enumerate(adj) for j in _bits(mask) if j > i]


class Graph:
    """Simple graph: ordered vertex labels, symmetric edge set, no loops.

    The adjacency is a mask per vertex: bit j of ``adj[i]`` is set when
    vertices i and j are adjacent. Labels are used only for input (the
    constructor) and output (``edges``, ``neighbors``, cuts, witnesses).
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise InputError("duplicate vertex labels")
        adj = [0] * len(self.vertices)
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at {u!r} not allowed")
            if u not in self._index or v not in self._index:
                raise InputError(f"edge ({u!r}, {v!r}) uses an unlisted vertex")
            i, j = self._index[u], self._index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = tuple(adj)
        self.edges = tuple((self.vertices[i], self.vertices[j]) for i, j in _pairs(adj))
        self.memo: dict = {}

    @classmethod
    def from_edges(cls, edges, isolated=()) -> "Graph":
        """Vertices in order of first appearance: in the edges, then isolated."""
        edges = list(edges)
        return cls(dict.fromkeys([w for e in edges for w in e] + list(isolated)), edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v):
        return [self.vertices[j] for j in _bits(self.adj[self._index[v]])]

    def degree(self, v) -> int:
        return self.adj[self._index[v]].bit_count()

    def min_degree(self) -> int:
        if not self.vertices:
            raise EmptyGraphError("empty graph")
        return min(mask.bit_count() for mask in self.adj)

    def has_edge(self, u, v) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and bool(self.adj[i] >> j & 1)

    def is_complete(self) -> bool:
        return all(mask.bit_count() == self.n - 1 for mask in self.adj)

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.m} edges)"


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise EmptyGraphError("empty graph")
    return reach(g.adj, 1, (1 << g.n) - 1).bit_count() == g.n


@kept
def diameter(g: Graph) -> int | float:
    """Largest BFS eccentricity; infinity when disconnected, 0 for K1.

    Each BFS runs level by level on masks: the next level is the union of
    the neighbour masks of the current one, less the vertices seen. A level
    costs word operations over all n bits however few vertices it holds, so
    the run is fast when eccentricities are small (hypercubes, dense random
    graphs) and slower than a list BFS on long sparse graphs (paths, cycles).
    """
    if g.n == 0:
        raise EmptyGraphError("the empty graph has no diameter")
    best = 0
    for s in range(g.n):
        seen = frontier = 1 << s
        eccentricity = 0
        while frontier := _spread(g.adj, frontier) & ~seen:
            seen |= frontier
            eccentricity += 1
        if seen.bit_count() != g.n:
            return inf
        best = max(best, eccentricity)
    return best


# -- max-flow (Dinic blocking flows on residual masks) -------------------------


def _least_flow(arcs, unit, pairs, floor: int = 0):
    """The first least max-flow value over ``pairs``, with the source side
    of that flow's residual network as a mask.

    ``arcs[u]`` masks the heads of the arcs out of node u; those in
    ``unit[u]`` have capacity 1, the others are unbounded, and the callers
    never let an arc carry two units. ``pairs`` yields (s, t, seed):
    ``seed`` lists s-t paths, as node sequences, that together form a flow
    of value len(seed). Each pair starts from its seed with three mask
    lists -- ``used[u]``, the heads of u's arcs that carry flow; ``into[u]``,
    the tails of the arcs that carry flow into u; ``res[u]``, u's
    unsaturated arcs and the reverse of its ``into`` arcs -- and adds
    blocking flows (Dinic). Each phase layers ``res`` from s, a ``_spread``
    per level, and goes depth first to the lowest live node of the next
    level; a dead end leaves its level. On unit vertex capacities a pair
    needs O(sqrt(n)) phases (Even-Tarjan).

    No pair can win once it stops being strictly less than the least value
    so far, so a pair whose seed already reaches that value is skipped, and
    a flow stops as soon as it reaches it; the loop ends once the least
    value is at most ``floor``. The first pair, and any pair that becomes
    the new least, still runs to a maximum flow. The residual reach set of
    a maximum flow is the unique minimal minimum cut (Picard-Queyranne),
    whatever the capacities, so the witness -- the reach set of a final
    search from s, which misses t -- depends neither on the seed nor on
    which paths were found.
    """
    def push(path):  # one unit along the node sequence ``path``
        for u, v in zip(path, path[1:]):
            a, b = (v, u) if into[u] >> v & 1 else (u, v)  # cancel v -> u first
            used[a] ^= 1 << b
            into[b] ^= 1 << a
            for w in u, v:
                res[w] = arcs[w] & ~(used[w] & unit[w]) | into[w]

    best = None
    for s, t, seed in pairs:
        limit = inf if best is None else best[0]
        if limit <= floor:
            break
        value = len(seed)
        if value >= limit:
            continue
        res, used, into = list(arcs), [0] * len(arcs), [0] * len(arcs)
        for path in seed:
            push(path)
        while value < limit:
            layers = [seen := 1 << s]
            while not seen >> t & 1 and (level := _spread(res, layers[-1]) & ~seen):
                seen |= level
                layers.append(level)
            if not seen >> t & 1:
                break
            layers[-1] = 1 << t
            path = [s]  # path[k] lies in layers[k]
            while value < limit:
                u = path[-1]
                if u == t:
                    push(path)
                    value += 1
                    path = [s]
                elif live := res[u] & layers[len(path)]:
                    path.append((live & -live).bit_length() - 1)
                elif u == s:
                    break
                else:
                    path.pop()
                    layers[len(path)] ^= 1 << u
        if value < limit:
            best = value, reach(res, 1 << s, (1 << len(arcs)) - 1)
    return best


@kept
def vertex_connectivity(g: Graph):
    """Global vertex connectivity with a minimum vertex cut witness.

    Complete graphs have connectivity n-1 and no cut (witness None).
    Schedule (Esfahanian-Hakimi): a fixed minimum-degree vertex against all
    its non-neighbors, plus all nonadjacent pairs among its neighbors. Each
    pair is a flow from s_out to t_in on the split graph: w_in = w,
    w_out = n + w, a unit arc w_in -> w_out, and an unbounded arc i_out ->
    j_in per edge, so w_out has the arcs ``adj[w]``. Only unit arcs bind,
    so the minimal cut is the vertices whose in-node, not out-node, it
    holds; unit edge arcs would keep the value but could move the cut onto
    them. No edge arc carries two units: one unit at most enters i_out if
    i != s, one at most leaves j_in if j != t, and s, t are not adjacent.

    The pairs of the schedule are never adjacent, so each common neighbour
    w of s and t gives the path s_out -> w_in -> w_out -> t_in; these
    paths share no unit arc, so together they seed the pair's flow, and a
    pair with at least as many common neighbours as the least value so far
    needs no search (see ``_least_flow``). On a connected graph no pair has
    a flow below 1, so the loop ends at the first pair of value 1.
    """
    if g.n < 2:
        raise EmptyGraphError("vertex connectivity needs at least 2 vertices")
    if g.is_complete():
        return g.n - 1, None
    n, adj = g.n, g.adj
    v = min(range(n), key=lambda u: adj[u].bit_count())
    pairs = [(v, u) for u in range(n) if u != v and not adj[v] >> u & 1]
    pairs += [(a, b) for a, b in itertools.combinations(_bits(adj[v]), 2)
              if not adj[a] >> b & 1]
    splits = [1 << (n + w) for w in range(n)]
    seeded = ((n + s, t, [(n + s, w, n + w, t) for w in _bits(adj[s] & adj[t])])
              for s, t in pairs)
    best, side = _least_flow(splits + list(adj), splits + [0] * n, seeded,
                             floor=1 if is_connected(g) else 0)
    alive = (1 << n) - 1
    cut = side & ~(side >> n) & alive
    alive ^= cut
    if alive and reach(adj, alive & -alive, alive) == alive:
        raise AssertionError("vertex cut witness failed re-verification")
    return best, tuple(g.vertices[i] for i in _bits(cut))


@kept
def edge_connectivity(g: Graph):
    """Global edge connectivity with a minimum edge cut witness: the least
    flow from the first vertex to each other one, with two opposite unit
    arcs per edge, so ``g.adj`` is both ``arcs`` and ``unit``. The cut is
    the edges leaving the source side.

    By Whitney, kappa <= lambda, so the pair loop stops once the least
    value reaches the kept ``vertex_connectivity``: no later pair can be
    strictly smaller, and the first least pair, hence the cut, is the same
    as after the full loop.
    """
    if g.n < 2:
        raise EmptyGraphError("edge connectivity needs at least 2 vertices")
    kappa = vertex_connectivity(g)[0]
    best, side = _least_flow(g.adj, g.adj, ((0, t, ()) for t in range(1, g.n)), kappa)
    cut = [(i, j) for i, j in _pairs(g.adj) if (side >> i ^ side >> j) & 1]
    remaining = list(g.adj)
    for i, j in cut:
        remaining[i] &= ~(1 << j)
        remaining[j] &= ~(1 << i)
    everyone = (1 << g.n) - 1
    if best > 0 and reach(remaining, 1, everyone) == everyone:
        raise AssertionError("edge cut witness failed re-verification")
    return best, tuple((g.vertices[i], g.vertices[j]) for i, j in cut)


def is_k_connected(g: Graph, k: int) -> bool:
    """At least k+1 vertices and no vertex cut smaller than k.

    The vertex-count clause is enforced literally, so K_k is never
    k-connected.
    """
    if k < 0:
        raise InputError("connectivity level must be >= 0")
    if g.n < k + 1:
        return False
    if k == 0:
        return True
    return vertex_connectivity(g)[0] >= k


def menger_diameter_bounds(s: int, t: int, k: int) -> tuple[int, int]:
    """Diameter bounds from connectivity: a k-connected graph on s vertices
    has diameter at most floor((s-2)/k) + 1; a k-edge-connected graph with
    t edges has diameter at most floor(t/k)."""
    if k < 1:
        raise InputError("connectivity k must be >= 1")
    if s < k + 1:
        raise InputError("a k-connected graph needs at least k+1 vertices")
    if t < 0:
        raise InputError("edge count must be >= 0")
    return (s - 2) // k + 1, t // k


class HirschVerdict(enum.Enum):
    HIRSCH = "hirsch"
    NOT_HIRSCH = "not_hirsch"
    DISCONNECTED = "disconnected"


def hirsch_verdict(diam, height: int) -> HirschVerdict:
    """Hirsch when the diameter is finite and bounded by the height."""
    if height < 0:
        raise InputError("height must be >= 0")
    if diam == inf:
        return HirschVerdict.DISCONNECTED
    return HirschVerdict.HIRSCH if diam <= height else HirschVerdict.NOT_HIRSCH


class CanonicalGraphCheck(NamedTuple):
    """Graph-side diameter check for canonically embedded line arrangements."""

    vertex_count: int
    edge_count: int
    height: int
    diameter: float | int
    passed: bool
    branch: str
    trivalent_three_connected: bool | None


def check_canonical_graph(g: Graph) -> CanonicalGraphCheck:
    """For a 3-edge-connected graph on s >= 4 vertices with t edges, verify
    diam <= t - s - 1 (the height of the canonical curve it would model).

    Which argument applies is reported: the edge-connectivity bound when
    2t > 3s, the trivalent vertex-connectivity bound when 2t = 3s.
    """
    if g.n < 4:
        raise HypothesisError("need at least 4 vertices")
    lam, _ = edge_connectivity(g)
    if lam < 3:
        raise HypothesisError(f"graph is only {lam}-edge-connected, need 3")
    s, t = g.n, g.m
    height = t - s - 1
    diam = diameter(g)
    trivalent = 2 * t == 3 * s
    branch = "trivalent" if trivalent else "edge_bound"
    trivalent_three = is_k_connected(g, 3) if trivalent else None
    passed = diam != inf and diam <= height
    return CanonicalGraphCheck(s, t, height, diam, passed, branch, trivalent_three)


# -- dual graphs -------------------------------------------------------------


def facet_label(facet) -> str:
    return ",".join(str(v) for v in facet)


def dual_adjacency(cx: SimplicialComplex) -> frozenset[tuple[int, int]]:
    """Dual edges as facet-index pairs: facets sharing a ridge."""
    if cx.is_void:
        raise EmptyGraphError("the void complex has no dual graph")
    if not cx.is_pure:
        raise NonPureComplexError("the dual graph requires a pure complex")
    return frozenset(_pairs(cx.ridge_neighbors))


@kept
def dual_graph(cx: SimplicialComplex) -> Graph:
    """Graph on the facets; edges join facets sharing a codimension-1 face."""
    edges_idx = dual_adjacency(cx)
    labels = [facet_label(f) for f in cx.facet_labels()]
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
    if not cx.is_pure:
        raise NonPureComplexError("non-revisiting search requires a pure complex")
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
    if not cx.is_pure:
        raise NonPureComplexError("non-revisiting search requires a pure complex")
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


# -- forbidden induced pattern ------------------------------------------------

#: K6 minus two disjoint edges; no line arrangement (and hence no pure
#: simplicial complex) has a dual graph containing it as an induced subgraph.
FORBIDDEN_PATTERN_EDGES = (
    ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("1", "6"),
    ("2", "3"), ("2", "4"), ("2", "6"),
    ("3", "5"), ("3", "6"),
    ("4", "5"), ("4", "6"),
    ("5", "6"),
)


def forbidden_pattern() -> Graph:
    return Graph([str(i) for i in range(1, 7)], FORBIDDEN_PATTERN_EDGES)


@kept
def contains_forbidden_line_graph(g: Graph):
    """Search for the forbidden 6-vertex pattern as an induced subgraph.

    Returns the embedding (pattern label -> host label) or None. A witness
    certifies that the graph is not the dual graph of any arrangement of
    projective lines, nor of any pure simplicial complex.
    """
    pattern = forbidden_pattern()
    if g.n < pattern.n:
        return None
    # Most-constrained first: pattern vertices by descending degree.
    order = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))
    wanted = [[pattern.has_edge(p, q) for q in order] for p in order]
    adj = g.adj
    images: list[int] = []

    def extend(cands):
        # cands[i]: mask of the host vertices that order[len(images) + i]
        # may still take -- unused, of large enough degree and consistent
        # with every placed vertex. A placement that empties any of them is
        # skipped, so the first embedding found is the one plain
        # backtracking in host order finds first.
        if not cands:
            return True
        pos = len(images)
        for h in _bits(cands[0]):
            nh = adj[h]
            rest = []
            for i, cand in enumerate(cands[1:], start=pos + 1):
                cand &= (nh if wanted[pos][i] else ~nh) & ~(1 << h)
                if not cand:
                    break
                rest.append(cand)
            else:
                images.append(h)
                if extend(rest):
                    return True
                images.pop()
        return False

    start = [sum(1 << h for h in range(g.n) if adj[h].bit_count() >= pattern.degree(p))
             for p in order]
    if not extend(start):
        return None
    witness = {p: g.vertices[h] for p, h in zip(order, images)}
    for a, b in itertools.combinations(pattern.vertices, 2):
        if pattern.has_edge(a, b) != g.has_edge(witness[a], witness[b]):
            raise AssertionError("induced-subgraph witness failed re-verification")
    return witness


# -- bound calculators ---------------------------------------------------------


def degree_vertex_bound(k: int, c: int) -> int:
    """Vertex bound k^c for height-c ideals generated in degree <= k."""
    if k < 1 or c < 1:
        raise InputError("degree and height must be >= 1")
    return k**c


def regularity_vertex_bound(c: int, r: int) -> int:
    """Vertex bound sum_{i=0}^{r} C(c+i-1, i) for CM quotients of height c
    and regularity r."""
    if c < 1 or r < 0:
        raise InputError("need height >= 1 and regularity >= 0")
    return sum(comb(c + i - 1, i) for i in range(r + 1))


def larman_diameter_bound(n: int, c: int) -> int:
    """Diameter bound 2^(n-c-3) * n for CM monomial ideals of height c in
    n variables."""
    if n < 1 or c < 1:
        raise InputError("need n >= 1 and c >= 1")
    if n - c - 3 < 0:
        raise InputError(f"bound undefined: n-c-3 = {n - c - 3} < 0")
    return 2 ** (n - c - 3) * n


def degree_diameter_bound(d: int, c: int) -> int:
    """Diameter bound d^c - 2 for connected height-c ideals generated in
    degree <= d (c >= 2)."""
    if d < 1 or c < 2:
        raise InputError("need degree >= 1 and height >= 2")
    return d**c - 2


# -- graph families --------------------------------------------------------------


def hypercube_graph(n: int) -> Graph:
    """1-skeleton of the n-cube: binary strings, edges flip one bit."""
    if n < 1:
        raise InputError("hypercube dimension must be >= 1")
    labels = [format(i, f"0{n}b") for i in range(1 << n)]
    edges = []
    for i in range(1 << n):
        for b in range(n):
            j = i ^ (1 << b)
            if i < j:
                edges.append((labels[i], labels[j]))
    return Graph(labels, edges)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("path length must be >= 1 vertex")
    labels = [str(i) for i in range(1, n + 1)]
    return Graph(labels, list(zip(labels, labels[1:])))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs >= 1 vertex")
    labels = [str(i) for i in range(1, n + 1)]
    return Graph(labels, list(itertools.combinations(labels, 2)))


def generate_graph(family: str, parameter: int | None = None) -> Graph:
    if family == "forbidden6":
        return forbidden_pattern()
    build = {"hypercube": hypercube_graph, "path": path_graph, "complete": complete_graph}
    if family not in build:
        raise UnknownFamilyError(
            f"unknown graph family {family!r} (choose from {', '.join(GRAPH_FAMILIES)})"
        )
    if parameter is None:
        raise InputError(f"{family} needs a parameter n >= 1")
    return build[family](parameter)


# -- graph file format ------------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """One edge per line ("u v"); isolated vertices on lines "v X";
    lines starting with '#' are comments."""
    edges = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two tokens, got {len(tokens)}", line=lineno)
        if tokens[0] == "v":
            isolated.append(tokens[1])
        else:
            if tokens[0] == tokens[1]:
                raise ParseError("loops are not allowed", line=lineno)
            edges.append((tokens[0], tokens[1]))
    return Graph.from_edges(edges, isolated=isolated)


def format_graph_text(g: Graph) -> str:
    """The graph as ``parse_graph_text`` reads it back: each edge in an
    order whose first token is neither "v" nor a comment, then "v X" per
    isolated vertex. A label that is not one token cannot be written."""
    for w in map(str, g.vertices):
        if w.split() != [w]:
            raise InputError(f"label {w!r} cannot be written as a graph token")
    lines = []
    for edge in g.edges:
        readable = [f"{a} {b}" for a, b in (edge, edge[::-1])
                    if str(a) != "v" and not str(a).startswith("#")]
        if not readable:
            raise InputError(f"edge {edge!r} cannot be written as a graph line")
        lines.append(readable[0])
    lines += [f"v {w}" for w, mask in zip(g.vertices, g.adj) if not mask]
    return "".join(line + "\n" for line in lines)


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())

"""Independent computations that the benchmark checks reports against.

Nothing here imports ``dualgraphs``. Each function re-derives one fact in the
plainest way that is fast enough for the workload inputs: BFS for distances,
unit-capacity augmenting paths for connectivity, Fraction elimination for
ranks, and a direct search for the forbidden induced pattern. A fault in the
program therefore cannot hide inside its own check.

Graphs are adjacency dicts ``{vertex: set(neighbours)}``.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


def graph_from_edges(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def n_edges(adj: dict) -> int:
    return sum(len(ns) for ns in adj.values()) // 2


def bfs_distances(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter(adj: dict):
    """Largest eccentricity, or the string "infinite" when disconnected
    (the value the program's JSON uses)."""
    best = 0
    for v in adj:
        dist = bfs_distances(adj, v)
        if len(dist) != len(adj):
            return "infinite"
        best = max(best, max(dist.values()))
    return best


def _max_flow(cap: dict, s, t, limit: int) -> int:
    """Unit-capacity augmenting-path flow from s to t, stopped at ``limit``.

    ``cap`` maps node -> {node: residual capacity} and is consumed.
    """
    flow = 0
    while flow < limit:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            break
        v = t
        while parent[v] is not None:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] = cap[v].get(u, 0) + 1
            v = u
        flow += 1
    return flow


def edge_connectivity(adj: dict) -> int:
    """Minimum over t of the edge-disjoint path count from a fixed vertex."""
    vertices = list(adj)
    if len(vertices) < 2:
        raise ValueError("edge connectivity needs two vertices")
    s = vertices[0]
    best = min(len(ns) for ns in adj.values())
    for t in vertices[1:]:
        cap = {u: {w: 1 for w in adj[u]} for u in adj}
        best = min(best, _max_flow(cap, s, t, best))
    return best


def _local_vertex_connectivity(adj: dict, s, t, limit: int) -> int:
    """Internally vertex-disjoint s-t paths (s, t nonadjacent), by splitting
    every other vertex w into (w, 0) -> (w, 1) of capacity one."""
    cap: dict = {}
    for w in adj:
        cap.setdefault((w, 0), {})[(w, 1)] = 1
        cap.setdefault((w, 1), {})
        for x in adj[w]:
            cap[(w, 1)][(x, 0)] = 1
    for node in list(cap):
        for nxt in list(cap[node]):
            cap.setdefault(nxt, {}).setdefault(node, 0)
    return _max_flow(cap, (s, 1), (t, 0), limit)


def vertex_connectivity(adj: dict) -> int:
    """Global vertex connectivity, n - 1 for complete graphs.

    A minimum separator of size k misses one of the first k + 1 vertices,
    so only pairs whose smaller index is at most the current bound matter.
    """
    vertices = list(adj)
    n = len(vertices)
    if n < 2:
        raise ValueError("vertex connectivity needs two vertices")
    if all(len(adj[v]) == n - 1 for v in vertices):
        return n - 1
    best = min(len(ns) for ns in adj.values())
    for i, s in enumerate(vertices):
        if i > best:
            break
        for t in vertices[i + 1:]:
            if t not in adj[s]:
                best = min(best, _local_vertex_connectivity(adj, s, t, best))
    return best


# -- the forbidden induced pattern ------------------------------------------

#: The forbidden 6-vertex pattern: K6 on 1..6 minus the disjoint edges
#: {2, 5} and {3, 4}, with the vertex names the program reports witnesses in.
PATTERN_VERTICES = ("1", "2", "3", "4", "5", "6")
PATTERN_NON_EDGES = frozenset({frozenset(("2", "5")), frozenset(("3", "4"))})


def is_induced_pattern(adj: dict, witness) -> bool:
    """True when ``witness`` (pattern vertex -> host vertex) embeds the
    pattern as an induced subgraph of the host."""
    if not isinstance(witness, dict) or set(witness) != set(PATTERN_VERTICES):
        return False
    hosts = list(witness.values())
    if len(set(hosts)) != 6 or any(h not in adj for h in hosts):
        return False
    for a, b in itertools.combinations(PATTERN_VERTICES, 2):
        want = frozenset((a, b)) not in PATTERN_NON_EDGES
        if (witness[b] in adj[witness[a]]) != want:
            return False
    return True


def find_pattern(adj: dict):
    """Some induced copy of the pattern, or None.

    Two disjoint non-edges {a, b} and {c, d} with the four cross pairs
    adjacent, plus two adjacent common neighbours of a, b, c, d.
    """
    non_edges = [
        (u, v) for u, v in itertools.combinations(adj, 2) if v not in adj[u]
    ]
    for (a, b), (c, d) in itertools.combinations(non_edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        if not (c in adj[a] and d in adj[a] and c in adj[b] and d in adj[b]):
            continue
        common = adj[a] & adj[b] & adj[c] & adj[d]
        for e, f in itertools.combinations(sorted(common), 2):
            if f in adj[e]:
                return {"1": e, "2": a, "5": b, "3": c, "4": d, "6": f}
    return None


# -- exact linear algebra ----------------------------------------------------


def rank(rows) -> int:
    """Rank over Q by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det3(a, b, c) -> int:
    """Integer 3x3 determinant of the rows a, b, c."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def poly_power(coeffs, k: int) -> list:
    """Coefficient list of p(t)^k for p given by its coefficient list."""
    out = [1]
    for _ in range(k):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(coeffs):
                nxt[i + j] += x * y
        out = nxt
    return out

import itertools
import random
from math import inf

import pytest
from hypothesis import example, given, strategies as st

from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.errors import EmptyGraphError, InputError, ParseError, UnknownFamilyError
from dualgraphs import graphs
from dualgraphs.graphs import (
    FORBIDDEN_PATTERN_EDGES,
    Graph,
    HirschVerdict,
    complete_graph,
    contains_forbidden_line_graph,
    degree_diameter_bound,
    degree_vertex_bound,
    diameter,
    edge_connectivity,
    forbidden_pattern,
    format_graph_text,
    generate_graph,
    hirsch_verdict,
    hypercube_graph,
    is_connected,
    is_k_connected,
    larman_diameter_bound,
    menger_diameter_bounds,
    parse_graph_text,
    path_graph,
    regularity_vertex_bound,
    vertex_connectivity,
)
from dualgraphs.homology import dual_graph, non_revisiting_path
from oracles import (
    bf_diameter,
    bf_edge_connectivity,
    bf_edge_cut_witness,
    bf_find_induced,
    first_induced_embedding,
    bf_nonrevisiting_exists,
    bf_vertex_connectivity,
    bf_vertex_cut_witness,
    cx,
)


def test_graph_basics():
    g = Graph.from_edges([(1, 2), (2, 3)], isolated=[9])
    assert g.n == 4 and g.m == 2
    assert g.neighbors(2) == [1, 3]
    with pytest.raises(InputError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(InputError):
        Graph([1], [(1, 2)])
    with pytest.raises(InputError, match="duplicate vertex labels"):
        Graph([1, 2, 1], [])


def test_dual_graph_crosspolytope_is_cycle():
    g = dual_graph(crosspolytope_boundary(2))
    assert g.n == 4 and g.m == 4
    assert all(g.degree(v) == 2 for v in g.vertices)
    assert diameter(g) == 2


def test_dual_graph_is_kept_on_the_complex():
    c = crosspolytope_boundary(3)
    g = dual_graph(c)
    assert dual_graph(c) is g
    assert diameter(g) == 3 and "diameter" in dual_graph(c).memo


def test_dual_graph_numbers_facets_whose_labels_collide():
    # facets ("1,2", "3") and ("1", "2,3") both read "1,2,3"
    g = dual_graph(SimplicialComplex.from_facets([("1,2", "3"), ("1", "2,3")]))
    assert g.vertices == ("1:1,2,3", "2:1,2,3") and g.edges == ()


def test_dual_graph_simplex_is_complete():
    g = dual_graph(simplex_boundary(3))
    assert g.is_complete() and g.n == 4
    assert vertex_connectivity(g) == (3, None)


def test_dual_graph_tadpole_has_leaf():
    g = dual_graph(tadpole_complex())
    assert g.n == 5 and g.m == 6
    kappa, cut = vertex_connectivity(g)
    assert kappa == 1
    assert cut == ("1,4",)


def test_diameter_cases():
    assert diameter(Graph.from_edges([], isolated=[1])) == 0
    assert diameter(Graph.from_edges([], isolated=[1, 2])) == inf
    for r in range(1, 7):
        assert diameter(hypercube_graph(r)) == r
    with pytest.raises(EmptyGraphError):
        diameter(Graph([], []))


def test_vertex_connectivity_cube_family():
    for r in range(1, 6):
        g = dual_graph(crosspolytope_boundary(r))
        kappa, _ = vertex_connectivity(g) if g.n >= 2 else (None, None)
        if g.n >= 2:
            assert kappa == r
        assert is_k_connected(g, r)
        assert not is_k_connected(g, r + 1)


def test_edge_connectivity_glued_squares():
    g = Graph.from_edges(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 7), (7, 1)]
    )
    assert edge_connectivity(g)[0] == 2
    assert vertex_connectivity(g)[0] == 1
    four = Graph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
    assert edge_connectivity(four)[0] == 2
    k4 = complete_graph(4)
    assert edge_connectivity(k4)[0] == 3
    assert vertex_connectivity(k4)[0] == 3


def test_is_k_connected_vertex_count_clause():
    assert not is_k_connected(complete_graph(3), 3)
    assert is_k_connected(complete_graph(4), 3)
    assert is_k_connected(complete_graph(1), 0)


def test_menger_diameter_bounds():
    assert menger_diameter_bounds(8, 12, 3) == (3, 4)
    assert menger_diameter_bounds(4, 4, 2) == (2, 2)
    assert menger_diameter_bounds(4, 6, 3)[1] == 2
    with pytest.raises(InputError):
        menger_diameter_bounds(3, 3, 3)
    with pytest.raises(InputError):
        menger_diameter_bounds(4, 4, 0)
    with pytest.raises(InputError, match="edge count must be >= 0"):
        menger_diameter_bounds(4, -1, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph([], []).min_degree(), EmptyGraphError, "empty graph"),
    (lambda: is_connected(Graph([], [])), EmptyGraphError, "empty graph"),
    (lambda: vertex_connectivity(Graph([1], [])), EmptyGraphError,
     "vertex connectivity needs at least 2 vertices"),
    (lambda: edge_connectivity(Graph([1], [])), EmptyGraphError,
     "edge connectivity needs at least 2 vertices"),
    (lambda: is_k_connected(complete_graph(3), -1), InputError,
     "connectivity level must be >= 0"),
    (lambda: degree_vertex_bound(0, 1), InputError, "degree and height must be >= 1"),
    (lambda: regularity_vertex_bound(0, 1), InputError, "need height >= 1 and regularity >= 0"),
    (lambda: larman_diameter_bound(0, 1), InputError, "need n >= 1 and c >= 1"),
    (lambda: degree_diameter_bound(2, 1), InputError, "need degree >= 1 and height >= 2"),
], ids=["min-degree", "is-connected", "kappa", "lambda", "k-connected", "degree-vertex",
        "regularity-vertex", "larman", "degree-diameter"])
def test_graph_guards_refuse_with_their_class_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_a_cut_that_leaves_the_graph_connected_fails_re_verification(monkeypatch):
    # the 4-cycle has kappa = lambda = 2; a flow search that reports the value
    # with an empty source side gives an empty cut, so the graph stays connected
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    g = Graph.from_edges(edges)
    vertex_connectivity(g)  # kept, so the edge cut below is the one spied on
    monkeypatch.setattr(graphs, "_least_flow", lambda *args, **kwargs: (2, 0))
    with pytest.raises(AssertionError, match="vertex cut witness failed re-verification"):
        vertex_connectivity(Graph.from_edges(edges))
    with pytest.raises(AssertionError, match="edge cut witness failed re-verification"):
        edge_connectivity(g)


def test_a_witness_that_is_not_the_pattern_fails_re_verification(monkeypatch):
    # the search places the real pattern; checked against the pattern less
    # its edge 1-2, the embedding is not induced
    host = forbidden_pattern()
    labels = [str(i) for i in range(1, 7)]
    monkeypatch.setattr(graphs, "forbidden_pattern",
                        lambda: Graph(labels, FORBIDDEN_PATTERN_EDGES[1:]))
    with pytest.raises(AssertionError, match="induced-subgraph witness failed re-verification"):
        contains_forbidden_line_graph(host)


def test_hirsch_verdict():
    assert hirsch_verdict(3, 2) is HirschVerdict.NOT_HIRSCH
    assert hirsch_verdict(3, 3) is HirschVerdict.HIRSCH
    assert hirsch_verdict(inf, 10) is HirschVerdict.DISCONNECTED
    with pytest.raises(InputError):
        hirsch_verdict(1, -1)


def test_non_revisiting_octahedron():
    octa = crosspolytope_boundary(3)
    path = non_revisiting_path(octa, ("1", "3", "5"), ("2", "4", "6"))
    assert path is not None and len(path) - 1 == 3
    assert non_revisiting_path(octa, ("1", "3", "5"), ("1", "3", "5")) == (("1", "3", "5"),)
    assert bf_nonrevisiting_exists(octa, ("1", "3", "5"), ("2", "4", "6"))


def test_non_revisiting_path_is_valid():
    octa = crosspolytope_boundary(3)
    path = non_revisiting_path(octa, ("1", "3", "5"), ("2", "4", "6"))
    abandoned = set()
    for a, b in zip(path, path[1:]):
        sa, sb = set(a), set(b)
        assert len(sa - sb) == 1 and len(sb - sa) == 1
        assert not (sb & abandoned)
        abandoned |= sa - sb
    assert len(path) - 1 <= octa.height()


def test_non_revisiting_matches_exhaustive_oracle():
    import itertools

    for facets in (
        [{1, 2}, {2, 3}, {3, 4}, {4, 1}],
        [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 1}],
        [{1, 2}, {1, 3}, {2, 3}, {1, 4}, {4, 5}],
    ):
        c = cx(facets)
        for f1, f2 in itertools.combinations(c.facet_labels(), 2):
            got = non_revisiting_path(c, f1, f2)
            assert (got is not None) == bf_nonrevisiting_exists(c, f1, f2)


def test_forbidden_pattern_structure():
    pat = forbidden_pattern()
    assert pat.n == 6 and pat.m == 13
    degrees = sorted(pat.degree(v) for v in pat.vertices)
    assert degrees == [4, 4, 4, 4, 5, 5]


def test_forbidden_search_identity_and_k6():
    pat = forbidden_pattern()
    witness = contains_forbidden_line_graph(pat)
    assert witness is not None
    assert contains_forbidden_line_graph(complete_graph(6)) is None
    assert contains_forbidden_line_graph(hypercube_graph(3)) is None


def test_forbidden_search_k7_minus_two_edges():
    import itertools

    labels = [str(i) for i in range(1, 8)]
    edges = [e for e in itertools.combinations(labels, 2)
             if set(e) not in ({"1", "2"}, {"3", "4"})]
    g = Graph(labels, edges)
    witness = contains_forbidden_line_graph(g)
    assert witness is not None
    assert bf_find_induced(g, forbidden_pattern()) is not None


def test_forbidden_search_matches_bruteforce_small():
    import itertools
    import random

    rng = random.Random(7)
    pat = forbidden_pattern()
    for _ in range(25):
        n = rng.randint(6, 7)
        labels = [str(i) for i in range(n)]
        edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.7]
        g = Graph(labels, edges)
        assert (contains_forbidden_line_graph(g) is None) == (
            bf_find_induced(g, pat) is None
        )


#: The order in which the search places the pattern's vertices: the edge
#: 1-6, then the induced 4-cycle 2-3-5-4 in its common neighbourhood.
PATTERN_ORDER = ("1", "6", "2", "3", "4", "5")


@st.composite
def dense_graphs(draw):
    n = draw(st.integers(6, 9))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    tenths = draw(st.integers(5, 9))  # keep each edge with probability 0.5 to 0.9
    keep = st.integers(0, 9).map(lambda x: x < tenths)
    edges = [e for e in itertools.combinations(labels, 2) if draw(keep)]
    return Graph(labels, edges)


@given(dense_graphs())
@example(complete_graph(16))
# the first h2, vertex "6", leaves no place for vertex 5 and is skipped
@example(Graph(["u", "1", "6", "2", "3", "4", "5"],
               list(FORBIDDEN_PATTERN_EDGES) + [("u", v) for v in "162345"]))
# the octahedron K_{2,2,2}: each edge's common neighbours are one non-adjacent pair
@example(Graph.from_edges([(a, b) for a, b in itertools.combinations("aAbBcC", 2)
                           if a.lower() != b.lower()]))
@example(generate_graph("forbidden6"))
@example(Graph([str(i) for i in range(1, 8)],
               [e for e in itertools.combinations([str(i) for i in range(1, 8)], 2)
                if set(e) not in ({"1", "2"}, {"3", "4"})]))
def test_forbidden_search_returns_the_first_induced_copy(g):
    witness = contains_forbidden_line_graph(g)
    assert witness == first_induced_embedding(g, forbidden_pattern(), PATTERN_ORDER)
    # reports print the witness, so its key order is part of the output
    assert witness is None or tuple(witness) == PATTERN_ORDER


def test_bound_calculators():
    assert regularity_vertex_bound(3, 2) == 10
    assert degree_vertex_bound(2, 2) == 4
    assert larman_diameter_bound(5, 2) == 5
    assert degree_diameter_bound(2, 3) == 6
    with pytest.raises(InputError):
        larman_diameter_bound(4, 2)


def test_generate_graph_families():
    q3 = generate_graph("hypercube", 3)
    assert (q3.n, q3.m, diameter(q3)) == (8, 12, 3)
    assert generate_graph("forbidden6").m == 13
    assert generate_graph("complete", 4).is_complete()
    assert generate_graph("path", 5).m == 4
    with pytest.raises(UnknownFamilyError):
        generate_graph("petersen", 1)


def test_graph_file_round_trip():
    g = Graph.from_edges([("a", "b"), ("b", "c")], isolated=["z"])
    text = format_graph_text(g)
    back = parse_graph_text(text)
    assert set(back.edges) == set(g.edges)
    assert set(back.vertices) == set(g.vertices)
    with pytest.raises(ParseError):
        parse_graph_text("a b c\n")
    assert parse_graph_text("# c\na b\nv q\n").n == 3


def test_graph_file_vertex_named_v():
    g = Graph.from_edges([("v", "x")])
    text = format_graph_text(g)
    assert text.splitlines()[0] == "x v"
    back = parse_graph_text(text)
    assert set(back.vertices) == {"v", "x"} and back.m == 1


def test_graph_file_keeps_edges_whose_first_label_looks_like_a_comment():
    g = parse_graph_text("b #a\nc #a\n")
    back = parse_graph_text(format_graph_text(g))
    assert {frozenset(e) for e in back.edges} == {frozenset(e) for e in g.edges}
    assert back.m == 2
    with pytest.raises(InputError):
        format_graph_text(Graph.from_edges([("v", "#a")]))


def test_graph_file_rejects_labels_that_are_not_one_token():
    for label in ("a b", "", "tab\there"):
        with pytest.raises(InputError):
            format_graph_text(Graph.from_edges([(label, "x")]))


def test_connectivity_matches_bruteforce_small():
    import itertools
    import random

    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        labels = [str(i) for i in range(n)]
        edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.5]
        g = Graph(labels, edges)
        kappa, _ = vertex_connectivity(g)
        lam, _ = edge_connectivity(g)
        assert kappa == bf_vertex_connectivity(g)
        assert lam == bf_edge_connectivity(g)
        assert kappa <= lam <= g.min_degree()
        assert diameter(g) == bf_diameter(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 9))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = list(itertools.combinations(labels, 2))
    return Graph(labels, draw(st.lists(st.sampled_from(pairs), unique=True)))


def complete_bipartite(p, q):
    return Graph(list(range(p + q)), [(i, j) for i in range(p) for j in range(p, p + q)])


def gnp_graph(n, p, seed):
    """G(n, p) on the labels 0..n-1, edges drawn by a seeded PRNG."""
    rng = random.Random(seed)
    return Graph(list(range(n)), [e for e in itertools.combinations(range(n), 2)
                                  if rng.random() < p])


# Dense graphs, where most vertex-connectivity pairs are seeded by common
# neighbours and many are skipped: in K_{3,4} and K_{4,4} every pair after
# the first has as many common neighbours as the least value.
DENSE_GRAPHS = [
    pytest.param(complete_bipartite(3, 4), id="K3,4"),
    pytest.param(complete_bipartite(4, 4), id="K4,4"),
] + [
    pytest.param(gnp_graph(n, p, seed), id=f"G({n},{p})-seed{seed}")
    for n, p, seed in itertools.product((10, 12), (0.5, 0.7, 0.9), (1, 2))
]


@given(small_graphs())
@example(path_graph(9))
@example(complete_graph(9))
@example(complete_graph(2))
@example(Graph(["a", "b"], []))
@example(Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")], isolated=["f"]))
@example(hypercube_graph(3))
# disconnected with the first vertex in the larger part: the edge flows stop
# at the first pair of value 0 = kappa
@example(Graph.from_edges([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                           ("c", "d"), ("e", "f"), ("f", "g"), ("e", "g")]))
def test_connectivity_reports_the_source_closest_cut_of_the_first_least_pair(g):
    assert vertex_connectivity(g) == bf_vertex_cut_witness(g)
    assert edge_connectivity(g) == bf_edge_cut_witness(g)


@pytest.mark.parametrize("g", DENSE_GRAPHS)
def test_dense_graphs_report_the_source_closest_cut_of_the_first_least_pair(g):
    assert vertex_connectivity(g) == bf_vertex_cut_witness(g)
    assert edge_connectivity(g) == bf_edge_cut_witness(g)


def test_dense_graphs_start_pairs_from_common_neighbour_paths(monkeypatch):
    # Every dense graph but one draws a vertex-connectivity pair with a seed.
    # G(12,0.5)-seed2 has kappa = 1: its first pair has no common neighbour,
    # reaches the floor and ends the loop.
    seeds = []
    least_flow = graphs._least_flow

    def spy(arcs, unit, pairs, floor=0):
        def seen():
            for s, t, seed in pairs:
                seeds.append(len(seed))
                yield s, t, seed
        return least_flow(arcs, unit, seen(), floor)

    monkeypatch.setattr(graphs, "_least_flow", spy)
    unseeded = []
    for param in DENSE_GRAPHS:
        g = param.values[0]
        seeds.clear()
        vertex_connectivity(Graph(g.vertices, g.edges))  # a fresh memo
        if not any(seeds):
            unseeded.append(param.id)
    assert unseeded == ["G(12,0.5)-seed2"]


def test_vertex_connectivity_of_a_connected_graph_stops_at_a_pair_of_value_one(monkeypatch):
    least_flow = graphs._least_flow
    consumed = []

    def counting(arcs, unit, pairs, floor=0):
        def seen():
            for pair in pairs:
                consumed.append(pair)
                yield pair
        return least_flow(arcs, unit, seen(), floor)

    monkeypatch.setattr(graphs, "_least_flow",
                        lambda arcs, unit, pairs, floor=0: least_flow(arcs, unit, pairs))
    unfloored = vertex_connectivity(path_graph(40))
    monkeypatch.setattr(graphs, "_least_flow", counting)
    # the same least pair and cut as a schedule run to its end; of the 38
    # pairs only the first is drawn: its flow reaches the floor
    assert vertex_connectivity(path_graph(40)) == unfloored == (1, ("2",))
    assert len(consumed) == 1


def test_connectivity_values_match_networkx_beyond_brute_force_size():
    import networkx as nx

    from oracles import to_networkx

    for g in (complete_bipartite(24, 24), hypercube_graph(7),
              gnp_graph(40, 0.5, 1), gnp_graph(40, 0.5, 2)):
        h = to_networkx(g)
        assert vertex_connectivity(g)[0] == nx.node_connectivity(h)
        assert edge_connectivity(g)[0] == nx.edge_connectivity(h)
        assert diameter(g) == nx.diameter(h)
    assert diameter(hypercube_graph(10)) == 10


@pytest.mark.parametrize("g", [
    pytest.param(gnp_graph(n, p, 1), id=f"G({n},{p})")
    for n, p in itertools.product((20, 40), (0.1, 0.3, 0.5, 0.9))
] + [pytest.param(hypercube_graph(6), id="Q6"),
     pytest.param(complete_bipartite(12, 12), id="K12,12")])
def test_connectivity_cuts_match_networkx_flows_beyond_brute_force_size(g):
    from oracles import nx_edge_cut_witness, nx_vertex_cut_witness

    assert vertex_connectivity(g) == nx_vertex_cut_witness(g)
    assert edge_connectivity(g) == nx_edge_cut_witness(g)


def test_dual_graph_of_join_is_product():
    import networkx as nx

    from oracles import to_networkx

    pairs = [
        (crosspolytope_boundary(1), crosspolytope_boundary(2)),
        (simplex_boundary(2), simplex_boundary(3)),
        (crosspolytope_boundary(2), simplex_boundary(2)),
    ]
    for a, b in pairs:
        joined = dual_graph(a.join(b))
        product = nx.cartesian_product(to_networkx(dual_graph(a)), to_networkx(dual_graph(b)))
        assert nx.is_isomorphic(to_networkx(joined), product)

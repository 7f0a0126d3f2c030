"""Cross-cutting invariants, checked exhaustively at small sizes and with
hypothesis-generated inputs above that."""

import functools
import itertools

import pytest

from hypothesis import example, given, strategies as st

from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.graphs import (
    Graph,
    diameter,
    edge_connectivity,
    is_connected,
    menger_diameter_bounds,
    vertex_connectivity,
)
from dualgraphs.homology import (
    dual_graph,
    is_cohen_macaulay,
    is_normal,
    reduced_betti_numbers,
    regularity,
)
from dualgraphs.linalg import QQ, prime_field
from oracles import (
    all_antichain_complexes,
    bf_boundary,
    bf_edge_connectivity,
    bf_faces,
    bf_is_normal,
    bf_vertex_connectivity,
    connected_after_removal,
    hilbert_h_vector,
    bf_minimal_nonfaces,
    bf_reduced_betti,
    bf_hochster_regularity,
    bf_regularity,
    reduced_euler_characteristic,
)

from test_homology import RP2_FACETS, RP2_SUSPENSION

GF2 = prime_field(2)
GF3 = prime_field(3)


@st.composite
def complexes(draw, max_vertices=6, max_facets=7):
    n = draw(st.integers(1, max_vertices))
    facets = draw(
        st.lists(
            st.sets(st.integers(1, n), min_size=1, max_size=n),
            min_size=1,
            max_size=max_facets,
        )
    )
    return SimplicialComplex.from_facets(facets)


@st.composite
def pure_complexes(draw, max_vertices=6, max_facets=10):
    n = draw(st.integers(2, max_vertices))
    k = draw(st.integers(1, n))
    all_k = list(itertools.combinations(range(1, n + 1), k))
    chosen = draw(
        st.lists(st.sampled_from(all_k), min_size=1,
                 max_size=min(max_facets, len(all_k)), unique=True)
    )
    return SimplicialComplex.from_facets(chosen)


@st.composite
def spheres(draw, max_vertices=7):
    """A PL sphere: a simplex boundary joined with further simplex
    boundaries (a join with the 0-sphere, two points, is a suspension),
    with facets and their vertices shuffled so that the vertex order varies."""
    c = simplex_boundary(draw(st.integers(1, 3)))
    while True:
        d = draw(st.integers(0, 2))
        if d == 0 or c.n_vertices + d + 1 > max_vertices:
            break
        c = c.join(simplex_boundary(d))
    facets = [draw(st.permutations(f)) for f in draw(st.permutations(c.facet_labels()))]
    return SimplicialComplex.from_facets(facets)


SPHERES = {
    **{f"crosspolytope{r}": crosspolytope_boundary(r) for r in range(1, 5)},
    **{f"simplex_boundary{d}": simplex_boundary(d) for d in range(1, 5)},
    **{"join" + "x".join(map(str, ds)): functools.reduce(
        SimplicialComplex.join, map(simplex_boundary, ds))
       for ds in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 1, 1), (1, 1, 2), (2, 2, 2)]},
}


@st.composite
def graphs(draw, max_vertices=7):
    n = draw(st.integers(2, max_vertices))
    labels = [str(i) for i in range(n)]
    edges = draw(
        st.lists(
            st.sampled_from(list(itertools.combinations(labels, 2))),
            max_size=n * (n - 1) // 2,
            unique=True,
        )
    )
    return Graph(labels, edges)


def test_euler_poincare_exhaustive_small():
    # every complex on up to 4 vertices, over Q and GF(2)
    for facets in all_antichain_complexes(4):
        c = SimplicialComplex.from_facets(facets)
        chi = reduced_euler_characteristic(c.f_vector)
        for field in (QQ, GF2):
            betti = reduced_betti_numbers(c, field).reduced
            assert sum((-1) ** (k + 1) * b for k, b in enumerate(betti)) == chi


@given(complexes())
def test_euler_poincare_random(c):
    chi = reduced_euler_characteristic(c.f_vector)
    for field in (QQ, GF2, GF3):
        betti = reduced_betti_numbers(c, field).reduced
        assert sum((-1) ** (k + 1) * b for k, b in enumerate(betti)) == chi


@given(complexes(max_vertices=5, max_facets=5))
def test_boundary_composition_vanishes(c):
    # the boundary maps of the Betti oracle, built from face label tuples
    faces = bf_faces(c)
    for k in range(2, len(faces)):
        a, b = bf_boundary(faces, k - 1), bf_boundary(faces, k)
        for r in range(len(a)):
            for s in range(len(faces[k])):
                assert sum(a[r][j] * b[j][s] for j in range(len(b))) == 0


# RP^2 and its join with two points have two nonzero GF(2) Betti numbers,
# so their Q profiles take the exact integer ranks; the cone is acyclic
@example(SimplicialComplex.from_facets(RP2_FACETS))
@example(SimplicialComplex.from_facets([f + ("apex",) for f in RP2_FACETS]))
@example(SimplicialComplex.from_facets(RP2_SUSPENSION))
@given(st.one_of(complexes(), pure_complexes(), spheres()))
def test_reduced_betti_matches_boundary_rank_oracles(c):
    for field in (QQ, GF2, GF3):
        assert reduced_betti_numbers(c, field).reduced == tuple(bf_reduced_betti(c, field))


def test_f_to_h_matches_hilbert_exhaustive_small():
    # all pure complexes on up to 4 vertices
    for n in range(1, 5):
        for k in range(1, n + 1):
            for pick in itertools.chain.from_iterable(
                itertools.combinations(list(itertools.combinations(range(1, n + 1), k)), m)
                for m in range(1, len(list(itertools.combinations(range(1, n + 1), k))) + 1)
            ):
                c = SimplicialComplex.from_facets(pick)
                assert c.h_vector == hilbert_h_vector(c)


@given(pure_complexes())
def test_f_to_h_matches_hilbert_random(c):
    assert c.h_vector == hilbert_h_vector(c)


@given(complexes(max_vertices=5, max_facets=5))
def test_minimal_nonfaces_roundtrip_and_oracle(c):
    assert sorted(c.minimal_nonfaces) == bf_minimal_nonfaces(c)
    # rebuild: faces are exactly the subsets containing no minimal nonface
    nonfaces = [set(nf) for nf in c.minimal_nonfaces]
    faces = [
        set(s)
        for size in range(1, c.n_vertices + 1)
        for s in itertools.combinations(c.vertices, size)
        if not any(nf <= set(s) for nf in nonfaces)
    ]
    rebuilt = SimplicialComplex.from_facets(faces) if faces else None
    if rebuilt is not None:
        assert rebuilt == c


@given(st.one_of(complexes(max_vertices=8), spheres()), st.sampled_from([QQ, GF2, GF3]))
def test_regularity_matches_unskipped_sweep_oracle(c, field):
    cert = regularity(c, field)
    assert (cert.value, cert.witness_vertices) == bf_regularity(c, field)


@pytest.mark.parametrize("name", SPHERES)
def test_sphere_regularity_matches_unskipped_sweep_oracle(name):
    # the sweep is skipped on a homology sphere: reg = dim + 1, witness V.
    # Over Q the oracle's Fraction elimination takes seconds at 9 vertices.
    c = SPHERES[name]
    for field in (QQ, GF2, GF3) if c.n_vertices < 9 else (GF2, GF3):
        cert = regularity(c, field)
        assert (cert.value, cert.witness_vertices) == bf_regularity(c, field)
        assert cert.witness_vertices == c.vertices


def _cone_regularity_builds_only_the_core(c, field):
    """regularity(c, field), recording the restrictions of ``c`` it builds:
    none but the core, which ``is_gorenstein`` builds and keeps as well."""
    built = []
    restrict_mask = SimplicialComplex.restrict_mask

    def recording(self, mask):
        if self is c:
            built.append(mask)
        return restrict_mask(self, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialComplex, "restrict_mask", recording)
        cert = regularity(c, field)
    assert built == [(1 << c.n_vertices) - 1 & ~c.cone_mask]
    return cert


def _cone(sphere, apexes, first):
    return SimplicialComplex.from_facets(
        apexes + f if first else f + apexes for f in sphere.facet_labels())


@given(spheres(max_vertices=5), st.sampled_from([("a",), ("a", "b")]), st.booleans(),
       st.sampled_from([QQ, GF2, GF3]))
def test_cone_over_a_sphere_regularity_comes_from_the_core(sphere, apexes, first, field):
    # a W holding an apex restricts to a cone, so only W = V(core) attains
    # dim(core) + 1; no sweep runs and the witness re-verifies on the core
    c = _cone(sphere, apexes, first)
    cert = _cone_regularity_builds_only_the_core(c, field)
    assert (cert.value, cert.witness_vertices) == bf_regularity(c, field)
    assert cert.value == bf_hochster_regularity(c, field) == sphere.dimension + 1


@pytest.mark.parametrize("name", [n for n in SPHERES if SPHERES[n].n_vertices <= 6])
@pytest.mark.parametrize("apexes", [("a",), ("a", "b")], ids=["one-apex", "two-apexes"])
def test_cone_over_a_named_sphere_regularity_comes_from_the_core(name, apexes):
    for field in (QQ, GF2, GF3):
        c = _cone(SPHERES[name], apexes, first=False)
        cert = _cone_regularity_builds_only_the_core(c, field)
        assert (cert.value, cert.witness_vertices) == bf_regularity(c, field)
        assert cert.value == bf_hochster_regularity(c, field)


@given(complexes(max_vertices=7), st.sampled_from([QQ, GF2]))
def test_regularity_matches_hochster_link_oracle(c, field):
    # local cohomology from the links of faces, apart from the restriction
    # sweep and its oracle
    assert regularity(c, field).value == bf_hochster_regularity(c, field)


@given(complexes(max_vertices=5, max_facets=5))
def test_reisner_cm_implies_pure(c):
    if is_cohen_macaulay(c, QQ):
        assert c.is_pure


@given(complexes())
def test_f_vector_entries_positive(c):
    f = c.f_vector
    assert f[0] == 1
    assert all(entry > 0 for entry in f)


@given(complexes())
def test_degree_minus_one_betti_detects_empty_complex(c):
    profile = reduced_betti_numbers(c, QQ)
    assert (profile.betti(-1) == 1) == c.is_empty_complex
    link_of_facet = c.link(c.facet_labels()[0])
    assert reduced_betti_numbers(link_of_facet, QQ).betti(-1) == 1


@given(graphs())
def test_connectivity_oracles_and_inequalities(g):
    kappa, vcut = vertex_connectivity(g)
    lam, ecut = edge_connectivity(g)
    assert kappa == bf_vertex_connectivity(g)
    assert lam == bf_edge_connectivity(g)
    assert kappa <= lam <= g.min_degree()
    if kappa >= 1:
        bound_a, _ = menger_diameter_bounds(g.n, g.m, kappa)
        _, bound_b = menger_diameter_bounds(g.n, g.m, lam)
        d = diameter(g)
        assert d <= bound_a
        assert d <= bound_b


@given(graphs(max_vertices=6))
def test_connectivity_witnesses_reverify(g):
    kappa, vcut = vertex_connectivity(g)
    lam, ecut = edge_connectivity(g)
    if vcut is not None and g.n - len(vcut) > 1:
        assert not connected_after_removal(g, set(vcut))
    if lam > 0:
        assert not is_connected(Graph(g.vertices, set(g.edges) - set(ecut)))


def test_join_additivity_of_diameter_and_height():
    suite = [
        crosspolytope_boundary(1),
        crosspolytope_boundary(2),
        simplex_boundary(2),
        simplex_boundary(3),
        tadpole_complex(),
    ]
    for c in suite:
        d = diameter(dual_graph(c))
        joined = c.join(c)
        assert diameter(dual_graph(joined)) == 2 * d
        assert joined.height() == 2 * c.height()
    for a, b in itertools.combinations(suite, 2):
        da, db = diameter(dual_graph(a)), diameter(dual_graph(b))
        j = a.join(b)
        assert diameter(dual_graph(j)) == da + db
        assert j.height() == a.height() + b.height()


@given(pure_complexes(max_vertices=5))
def test_dual_adjacency_is_symmetric_difference_two(c):
    from dualgraphs.homology import dual_adjacency

    facets = c.facets
    edges = dual_adjacency(c)
    for i, j in itertools.combinations(range(len(facets)), 2):
        expected = bin(facets[i] ^ facets[j]).count("1") == 2
        assert ((i, j) in edges) == expected


@given(complexes(max_vertices=6, max_facets=10))
def test_ridge_neighbors_are_the_facets_differing_in_one_vertex_each_pure_or_not(c):
    facets = c.facets
    assert c.ridge_neighbors == tuple(
        sum(1 << j for j, h in enumerate(facets) if (f ^ h).bit_count() == 2) for f in facets)
    if c.is_pure:
        assert dual_graph(c).adj == c.ridge_neighbors


@given(st.one_of(pure_complexes(), spheres()))
def test_is_normal_matches_star_oracle(c):
    assert is_normal(c) == bf_is_normal(c)


#: Pure complexes with a star that falls apart: that of the empty face (the
#: whole complex) in the first three, and that of the shared vertex too in
#: the first two. The strip of triangles is strongly connected, but its ends
#: meet only in vertex 1, whose star falls apart.
NOT_NORMAL = {
    "tetrahedra-at-a-vertex": [(1, 2, 3, 4), (4, 5, 6, 7)],
    "triangles-at-a-vertex": [(1, 2, 3), (3, 4, 5)],
    "disconnected": [(1, 2, 3), (2, 3, 4), (5, 6, 7)],
    "pinched-strip": [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1)],
}


@pytest.mark.parametrize("name", [*NOT_NORMAL, *SPHERES])
def test_is_normal_matches_star_oracle_on_named_complexes(name):
    c = SPHERES[name] if name in SPHERES else SimplicialComplex.from_facets(NOT_NORMAL[name])
    assert c.is_pure
    assert is_normal(c) is bf_is_normal(c) is (name in SPHERES)

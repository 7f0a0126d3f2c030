import gc
import itertools
import weakref
from collections import Counter

import pytest

from dualgraphs import homology, linalg
from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    full_simplex,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.errors import NonPureComplexError, ResourceCapError
from dualgraphs.homology import (
    is_cohen_macaulay,
    is_gorenstein,
    is_homology_sphere,
    is_normal,
    reduced_betti_numbers,
    regularity,
)
from dualgraphs.linalg import QQ, prime_field
from dualgraphs.reports import build_complex_report
from oracles import (
    bf_acyclic_by_cone,
    bf_boundary,
    bf_faces,
    bf_hochster_regularity,
    bf_regularity,
    bf_reisner,
    cx,
)

GF2 = prime_field(2)
GF3 = prime_field(3)

# minimal 6-vertex triangulation of the real projective plane: 10 triangles,
# every one of the 15 edges in exactly two of them
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


@pytest.fixture(scope="module")
def rp2():
    c = cx(RP2_FACETS)
    # sanity: closed surface
    import itertools

    edge_use = {}
    for f in c.facet_labels():
        for e in itertools.combinations(sorted(f), 2):
            edge_use[e] = edge_use.get(e, 0) + 1
    assert set(edge_use.values()) == {2} and len(edge_use) == 15
    return c


def test_boundary_squares_to_zero():
    # the Betti oracle's own boundary maps, built from face label tuples
    for c in (crosspolytope_boundary(3), cx(RP2_FACETS), tadpole_complex()):
        faces = bf_faces(c)
        for k in range(2, len(faces)):
            a, b = bf_boundary(faces, k - 1), bf_boundary(faces, k)
            prod = [
                [sum(a[r][j] * b[j][s] for j in range(len(b))) for s in range(len(faces[k]))]
                for r in range(len(a))
            ]
            assert all(all(x == 0 for x in row) for row in prod)


def test_reduced_betti_circle_and_sphere():
    assert reduced_betti_numbers(simplex_boundary(2)).reduced == (0, 0, 1)
    assert reduced_betti_numbers(crosspolytope_boundary(3)).reduced == (0, 0, 0, 1)


def test_reduced_betti_rp2_depends_on_field(rp2):
    assert reduced_betti_numbers(rp2, QQ).reduced == (0, 0, 0, 0)
    assert reduced_betti_numbers(rp2, GF2).reduced == (0, 0, 1, 1)


def test_betti_of_empty_complex():
    empty = full_simplex(2).link(["1", "2", "3"])
    assert reduced_betti_numbers(empty).reduced == (1,)


def test_cohen_macaulay(rp2):
    assert is_cohen_macaulay(tadpole_complex(), QQ)
    assert not is_cohen_macaulay(cx([{1, 2}, {3, 4}]), QQ)
    assert is_cohen_macaulay(rp2, QQ)
    assert not is_cohen_macaulay(rp2, GF2)


def test_homology_sphere(rp2):
    for r in range(1, 5):
        assert is_homology_sphere(crosspolytope_boundary(r), QQ)
    for d in range(1, 5):
        assert is_homology_sphere(simplex_boundary(d), QQ)
    assert not is_homology_sphere(tadpole_complex(), QQ)
    assert not is_homology_sphere(rp2, QQ)
    with pytest.raises(NonPureComplexError):
        is_homology_sphere(cx([{1, 2, 3}, {4, 5}]), QQ)


def test_gorenstein(rp2):
    assert is_gorenstein(crosspolytope_boundary(3), QQ)
    assert not is_gorenstein(rp2, QQ)
    assert is_gorenstein(full_simplex(2), QQ)
    assert is_gorenstein(cx([{1}, {2}]), QQ)  # two points, S^0
    assert not is_gorenstein(tadpole_complex(), QQ)
    # a cone over a sphere: core is the sphere, still Gorenstein
    cone = cx([set(f) | {"apex"} for f in crosspolytope_boundary(2).facet_labels()])
    assert is_gorenstein(cone, QQ)


def test_regularity_values():
    assert regularity(crosspolytope_boundary(2)).value == 2
    assert regularity(tadpole_complex()).value == 2
    assert regularity(full_simplex(3)).value == 0
    for r in (1, 2, 3, 4):
        assert regularity(crosspolytope_boundary(r)).value == r
    for d in (1, 2, 3, 4):
        assert regularity(simplex_boundary(d)).value == d


def test_hochster_link_oracle_sees_the_field(rp2):
    # over Q the projective plane is acyclic and its vertex links (circles)
    # give 2; over GF(2) its own top class, the link of the empty face, gives 3
    for field, value in ((QQ, 2), (GF2, 3)):
        assert bf_hochster_regularity(rp2, field) == regularity(rp2, field).value == value


def test_regularity_witness_reverifies():
    cert = regularity(tadpole_complex())
    sub = tadpole_complex().restrict(cert.witness_vertices)
    assert reduced_betti_numbers(sub).betti(cert.witness_index - 1) > 0


def test_regularity_cap():
    c = cx([{i} for i in range(1, 8)])
    with pytest.raises(ResourceCapError):
        regularity(c, max_vertices=6)
    assert regularity(c, max_vertices=7).value == 1


def test_regularity_field_dependence(rp2):
    # over GF(2) the projective plane contributes its 2-torsion shadow
    assert regularity(rp2, QQ).value == 2
    assert regularity(rp2, GF2).value == 3


def test_is_normal():
    assert is_normal(crosspolytope_boundary(3))
    assert not is_normal(cx([{1, 2, 3}, {1, 4, 5}]))
    assert is_normal(cx([{1, 2, 3}]))
    with pytest.raises(NonPureComplexError):
        is_normal(cx([{1, 2, 3}, {4, 5}]))


def test_cm_implies_normal_on_catalog(rp2):
    catalog = [
        crosspolytope_boundary(2), crosspolytope_boundary(3),
        simplex_boundary(2), simplex_boundary(3),
        tadpole_complex(), rp2, full_simplex(3),
    ]
    for c in catalog:
        if c.is_pure and is_cohen_macaulay(c, QQ):
            assert is_normal(c)


def test_sphere_implies_gorenstein_implies_cm(rp2):
    catalog = [
        crosspolytope_boundary(2), crosspolytope_boundary(3),
        simplex_boundary(2), simplex_boundary(4),
        tadpole_complex(), rp2, full_simplex(2),
        cx([{1, 2}, {2, 3}]), cx([{1, 2}, {3, 4}]),
    ]
    for c in catalog:
        for field in (QQ, GF2, GF3):
            sphere = c.is_pure and is_homology_sphere(c, field)
            gor = is_gorenstein(c, field)
            cm = is_cohen_macaulay(c, field)
            if sphere:
                assert gor
            if gor:
                assert cm


def _count_exact_q_ranks(monkeypatch) -> list:
    calls = []
    exact = linalg.rank_int_sparse
    monkeypatch.setattr(linalg, "rank_int_sparse",
                        lambda rows: calls.append(len(rows)) or exact(rows))
    return calls


RP2_SUSPENSION = [f + (apex,) for f in RP2_FACETS for apex in ("a", "b")]


@pytest.mark.parametrize("facets, over_q, over_gf2", [
    (RP2_FACETS, (0, 0, 0, 0), (0, 0, 1, 1)),
    (RP2_SUSPENSION, (0, 0, 0, 0, 0), (0, 0, 0, 1, 1)),
], ids=["rp2", "rp2-joined-with-two-points"])
def test_two_torsion_takes_the_exact_q_route(monkeypatch, facets, over_q, over_gf2):
    # two nonzero GF(2) entries do not determine the Q profile
    calls = _count_exact_q_ranks(monkeypatch)
    c = cx(facets)
    assert reduced_betti_numbers(c, GF2).reduced == over_gf2
    assert reduced_betti_numbers(c, QQ).reduced == over_q
    assert calls


def test_sphere_q_profile_comes_from_gf2(monkeypatch):
    calls = _count_exact_q_ranks(monkeypatch)
    c = crosspolytope_boundary(3)
    assert reduced_betti_numbers(c, QQ).reduced == (0, 0, 0, 1)
    assert is_homology_sphere(c, QQ)
    assert calls == []


def _count_link_builds(monkeypatch) -> Counter:
    builds = Counter()
    link_mask = SimplicialComplex.link_mask

    def counting_link_mask(self, mask):
        builds[self.facets, mask] += 1
        return link_mask(self, mask)

    monkeypatch.setattr(SimplicialComplex, "link_mask", counting_link_mask)
    return builds


def test_report_builds_each_link_once(monkeypatch):
    builds = _count_link_builds(monkeypatch)
    # a shelling settles the crosspolytope without any link
    build_complex_report(crosspolytope_boundary(4), (QQ, GF2))
    assert not builds
    # neither is shellable; both are Cohen-Macaulay over Q, so the Q sweep
    # visits every face, and either field reads the profiles the other kept
    for facets, fields in itertools.product((RP2_FACETS, RP2_SUSPENSION),
                                            ((QQ, GF2), (GF2, QQ))):
        builds.clear()
        c = cx(facets)
        build_complex_report(c, fields)
        assert homology.greedy_shelling(c) is None
        # one link per nonempty face; the empty face's link is the complex itself
        assert len(builds) == len(c.faces) - 1
        assert max(builds.values()) == 1


CONE_OVER_RP2 = [f + ("apex",) for f in RP2_FACETS]


def test_the_core_is_built_once(monkeypatch):
    builds = _count_link_builds(monkeypatch)
    c = cx(CONE_OVER_RP2)
    assert c.core() is c.core() == cx(RP2_FACETS)
    build_complex_report(c, (QQ, GF2))
    # the GF(2) sweeps of the cone and of its core read the profiles that
    # the Q sweeps kept
    assert max(builds.values()) == 1
    assert is_cohen_macaulay(c, QQ) and not is_gorenstein(c, QQ)


def test_a_q_sweep_after_gf2_rebuilds_only_links_with_torsion(monkeypatch):
    builds = _count_link_builds(monkeypatch)
    c = cx(CONE_OVER_RP2)
    build_complex_report(c, (GF2, QQ))
    # the GF(2) sweep of the cone stops at the apex, whose link is RP^2; the
    # Q sweep reads the profiles kept before it, and rebuilds only that link,
    # as the GF(2) profile (0, 0, 1, 1) does not settle its Q profile
    assert [key for key, n in builds.items() if n > 1] == [(c.facets, c.mask_of(["apex"]))]


@pytest.mark.parametrize("facets", [
    crosspolytope_boundary(3).facet_labels(),
    RP2_FACETS,
    tadpole_complex().facet_labels(),
    [(1, 2, 3), (3, 4), (4, 5), (5, 1), (2, 6)],
    [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3, 5)],
], ids=["crosspolytope3", "rp2", "tadpole", "nonpure", "cone-on-a-chord"])
@pytest.mark.parametrize("field", [QQ, GF2], ids=["Q", "GF2"])
def test_regularity_builds_only_restrictions_with_homology(monkeypatch, facets, field):
    built = set()
    restrict_mask = SimplicialComplex.restrict_mask

    def recording_restrict_mask(self, mask):
        if self is c:
            built.add(mask)
        return restrict_mask(self, mask)

    monkeypatch.setattr(SimplicialComplex, "restrict_mask", recording_restrict_mask)
    c = cx(facets)
    cert = regularity(c, field)
    if c.is_pure and bf_reisner(c, field)[1]:
        # a homology sphere: by Alexander duality only W = V has homology in
        # degree dim, so the sweep is skipped and the witness V re-verifies
        # on the complex itself
        assert built == set()
        return
    # every W whose restriction is neither a simplex nor a cone, in Gray
    # order up to the first W with homology in degree dim, plus the witness
    gray = [k ^ (k >> 1) for k in range(1, 1 << c.n_vertices)]
    value, witness = bf_regularity(c, field)
    if value == c.dimension + 1:
        gray = gray[: gray.index(c.mask_of(witness)) + 1]
    wanted = {w for w in gray if not bf_acyclic_by_cone(c, w)}
    assert built == wanted | {c.mask_of(cert.witness_vertices)}


def _report_profiles_and_restrictions(monkeypatch, c, fields):
    """Build the report of ``c``; return the whole-complex profiles it
    computed, per field, and the masks it restricted ``c`` to."""
    whole = Counter()
    ranks_profile = homology._ranks_profile

    def counting(sub, field):
        if sub.facets == c.facets:
            whole[field] += 1
        return ranks_profile(sub, field)

    built = []
    restrict_mask = SimplicialComplex.restrict_mask
    monkeypatch.setattr(homology, "_ranks_profile", counting)
    monkeypatch.setattr(SimplicialComplex, "restrict_mask",
                        lambda self, mask: built.append(mask) or restrict_mask(self, mask))
    build_complex_report(c, fields)
    return whole, built


#: Cohen-Macaulay over Q, GF(2) and GF(3), yet the greedy pass gets stuck on it:
#: 6 vertices, 11 triangles, b~_2 = h_3 = 1 and regularity 3
UNSHELLED_CM = [
    (2, 3, 5), (2, 4, 6), (1, 4, 6), (1, 3, 4), (1, 4, 5), (3, 5, 6),
    (1, 2, 5), (1, 2, 6), (4, 5, 6), (1, 3, 6), (2, 3, 4),
]


def test_report_builds_one_whole_complex_profile_per_field(monkeypatch):
    c = cx(UNSHELLED_CM)
    whole, built = _report_profiles_and_restrictions(monkeypatch, c, (QQ, GF2, GF3))
    assert homology.greedy_shelling(c) is None
    # the Q profile is read off the GF(2) one; over GF(2) and GF(3) the
    # report profiles the complex once and the sweep its restriction to V,
    # the witness, which re-verifies on the report's own profile
    assert whole == {GF2: 2, GF3: 2}
    assert built.count((1 << c.n_vertices) - 1) == 2


def test_a_shelled_report_ranks_no_whole_complex_profile(monkeypatch):
    # the shelling gives the profile (0, ..., 0, h_4) over every field, and
    # the sphere core skips the regularity sweep
    whole, built = _report_profiles_and_restrictions(
        monkeypatch, crosspolytope_boundary(4), (QQ, GF2, GF3))
    assert whole == {}
    assert built == []


@pytest.mark.parametrize("facets", [
    RP2_FACETS,
    UNSHELLED_CM,
    crosspolytope_boundary(3).facet_labels()[1:],  # shelled, but with boundary ridges
    full_simplex(5).facet_labels(),  # an empty core
], ids=["rp2", "unshelled-cm", "octahedron-less-a-triangle", "simplex5"])
def test_a_report_over_the_cap_is_refused_before_any_rank(monkeypatch, facets):
    # 6 vertices over a cap of 5, and no nonempty core shelled as a sphere:
    # the report refuses before it ranks a boundary map or floods a star
    calls = []
    monkeypatch.setattr(homology, "_ranks_profile", lambda *args: calls.append(args))
    monkeypatch.setattr(homology, "reach", lambda *args: calls.append(args))
    with pytest.raises(ResourceCapError, match="exceed the regularity sweep cap 5"):
        build_complex_report(cx(facets), max_hochster_n=5)
    assert calls == []


def test_a_report_over_the_cap_runs_when_its_core_is_a_shelled_sphere():
    # the octahedron and its cone run no regularity sweep
    octahedron = crosspolytope_boundary(3)
    cone = cx([f + ("apex",) for f in octahedron.facet_labels()])
    for c, reg in ((octahedron, 3), (cone, 3)):
        assert c.n_vertices > 5
        report = build_complex_report(c, max_hochster_n=5)
        assert report["fields"]["Q"]["regularity"] == reg


def test_a_witness_v_found_by_the_sweep_re_verifies_on_the_complex(monkeypatch):
    # RP^2 is no sphere over GF(2), so the sweep runs and finds b~_2 != 0 at
    # W = V; that witness re-verifies on the report's own whole-complex
    # profiles, so V is restricted once (by the sweep) and each field has
    # two whole-complex profiles: the sweep's restriction and the complex
    c = cx(RP2_FACETS)
    whole, built = _report_profiles_and_restrictions(monkeypatch, c, (QQ, GF2))
    assert whole == {QQ: 2, GF2: 2}
    assert built.count((1 << c.n_vertices) - 1) == 1


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_a_false_sphere_verdict_fails_the_witness(monkeypatch, field):
    # the octahedron less one triangle is a 2-ball: b~_2 = 0 over every field
    octahedron = crosspolytope_boundary(3)
    ball = SimplicialComplex.from_facets(octahedron.facet_labels()[1:])
    monkeypatch.setattr(homology, "_reisner_sweep", lambda cx, field: (True, True))
    with pytest.raises(AssertionError, match="regularity witness failed re-verification"):
        regularity(ball, field)


def test_a_wrong_h_vector_fails_the_shelling():
    # the octahedron shells with h = (1, 3, 3, 1); a planted h_3 = 2 fails it
    octahedron = crosspolytope_boundary(3)
    octahedron.__dict__["h_vector"] = (1, 3, 3, 2)
    with pytest.raises(AssertionError, match="shelling failed re-verification against the h-vector"):
        homology.greedy_shelling(octahedron)


def test_a_false_cohen_macaulay_verdict_fails_the_h_degree_cross_check(monkeypatch):
    # two disjoint edges: regularity 1, h = (1, 2, -1) of degree 2
    edges = cx([(1, 2), (3, 4)])
    monkeypatch.setattr(homology, "is_cohen_macaulay", lambda cx, field: True)
    with pytest.raises(AssertionError,
                       match="regularity 1 disagrees with h-degree 2 on CM input"):
        regularity(edges)


def test_betti_numbers_outside_the_profile_are_zero():
    profile = reduced_betti_numbers(crosspolytope_boundary(3))
    assert profile.reduced == (0, 0, 0, 1)
    assert profile.betti(-2) == profile.betti(3) == 0 and profile.betti(2) == 1


def test_homology_results_die_with_the_complex():
    c = crosspolytope_boundary(3)
    assert is_homology_sphere(c, QQ) and regularity(c, GF2).value == 3
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None

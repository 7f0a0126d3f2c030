import itertools

import pytest

from dualgraphs import homology
from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    format_facet_text,
    full_simplex,
    generate_complex,
    parse_facet_text,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.errors import (
    EmptyGraphError,
    InputError,
    NonPureComplexError,
    NotAFaceError,
    ParseError,
    UnknownFamilyError,
    VoidComplexError,
)
from oracles import bf_minimal_nonfaces, cx


def test_from_facets_dedupes_and_maximalizes():
    c = cx([{1, 2}, {2, 3}, {1, 2}])
    assert c.facet_labels() == ((1, 2), (2, 3))
    c = cx([{1, 2, 3}, {1, 2}])
    assert c.facet_labels() == ((1, 2, 3),)


def test_from_facets_four_cycle():
    c = cx([{1, 3}, {1, 4}, {2, 3}, {2, 4}])
    assert c.n_facets == 4
    assert c.dimension == 1
    x2 = crosspolytope_boundary(2)
    assert {frozenset(f) for f in c.facet_labels()} == {
        frozenset(int(v) for v in f) for f in x2.facet_labels()
    }


def test_void_and_empty_facet_rejection():
    with pytest.raises(VoidComplexError):
        SimplicialComplex.from_facets([])
    void = SimplicialComplex.from_facets([], allow_void=True)
    assert void.is_void and void.faces == frozenset()
    assert repr(void) == "SimplicialComplex(void)"
    with pytest.raises(InputError):
        SimplicialComplex.from_facets([set()])


VOID = SimplicialComplex.from_facets([], allow_void=True)
NON_PURE = SimplicialComplex.from_facets([{1, 2, 3}, {3, 4}])
PATH = SimplicialComplex.from_facets([(1, 2), (2, 3)])
NOT_CLASSIFIED = (VoidComplexError, "the void complex is not classified")


@pytest.mark.parametrize("call, complex_, error, message", [
    (homology.reduced_betti_numbers, VOID, VoidComplexError, "the void complex has no homology"),
    (homology.is_cohen_macaulay, VOID, *NOT_CLASSIFIED),
    (homology.is_homology_sphere, VOID, *NOT_CLASSIFIED),
    (homology.is_gorenstein, VOID, *NOT_CLASSIFIED),
    (homology.is_normal, VOID, *NOT_CLASSIFIED),
    (homology.regularity, VOID, VoidComplexError, "the void complex has no regularity"),
    (homology.dual_adjacency, VOID, EmptyGraphError, "the void complex has no dual graph"),
    (homology.is_homology_sphere, NON_PURE, NonPureComplexError,
     "homology-sphere test requires a pure complex"),
    (homology.is_normal, NON_PURE, NonPureComplexError, "normality requires a pure complex"),
    (homology.dual_adjacency, NON_PURE, NonPureComplexError,
     "the dual graph requires a pure complex"),
    (lambda c: homology.non_revisiting_path(c, (1, 2, 3), (3, 4)), NON_PURE,
     NonPureComplexError, "non-revisiting search requires a pure complex"),
    (homology.first_pair_without_nonrevisiting_path, NON_PURE, NonPureComplexError,
     "non-revisiting search requires a pure complex"),
    (lambda c: homology.non_revisiting_path(c, (1,), (2, 3)), PATH, InputError,
     "endpoints must be facets"),
    (lambda c: c.dimension, VOID, VoidComplexError, "the void complex has no dimension"),
    (lambda c: c.is_pure, VOID, VoidComplexError, "the void complex has no facets"),
    (lambda c: c.faces_by_card, VOID, VoidComplexError, "the void complex has no faces"),
    (lambda c: c.cone_mask, VOID, VoidComplexError, "the void complex has no facets"),
    (lambda c: c.minimal_nonfaces, VOID, VoidComplexError, "the void complex has no nonfaces"),
    (lambda c: c.mask_of((1, 9)), PATH, NotAFaceError, "unknown vertex 9"),
    (lambda c: c.link_mask(0b101), PATH, NotAFaceError, "mask is not a face"),
    (lambda c: SimplicialComplex(("a", "a"), (0b11,)), None, InputError,
     "duplicate vertex labels"),
    (lambda c: SimplicialComplex.from_facets([("a b",)]), None, InputError,
     "bad vertex token 'a b'"),
    (lambda c: full_simplex(-1), None, InputError, "simplex dimension must be >= 0"),
    (lambda c: format_facet_text(cx([("#a", "b")])), None, InputError,
     "label '#a' cannot be written as a facet token"),
])
def test_guards_refuse_with_their_class_and_message(call, complex_, error, message):
    with pytest.raises(error) as caught:
        call(complex_)
    assert type(caught.value) is error and str(caught.value) == message


def test_f_vectors_basic():
    assert cx([{1, 2}, {1, 3}, {2, 3}]).f_vector == (1, 3, 3)
    assert crosspolytope_boundary(3).f_vector == (1, 6, 12, 8)
    assert cx([{1}]).f_vector == (1, 1)


def test_h_vectors():
    assert crosspolytope_boundary(3).h_vector == (1, 3, 3, 1)
    assert simplex_boundary(2).h_vector == (1, 1, 1)
    assert full_simplex(2).h_vector == (1, 0, 0, 0)
    with pytest.raises(NonPureComplexError):
        cx([{1, 2, 3}, {4, 5}]).h_vector


def test_an_h_vector_off_the_facet_count_fails_re_verification():
    # a planted f-vector with a ninth triangle: the h-vector sums to 9, not 8
    octa = crosspolytope_boundary(3)
    octa.__dict__["f_vector"] = (1, 6, 12, 9)
    with pytest.raises(AssertionError, match="h-vector does not sum to the facet count"):
        octa.h_vector


def test_multiplicity():
    assert crosspolytope_boundary(3).multiplicity() == 8
    for r in (1, 2, 3, 4):
        assert crosspolytope_boundary(r).multiplicity() == 2**r
    assert simplex_boundary(2).multiplicity() == 3
    assert tadpole_complex().multiplicity() == 5


def test_minimal_nonfaces():
    assert crosspolytope_boundary(2).minimal_nonfaces == (("1", "2"), ("3", "4"))
    assert simplex_boundary(2).minimal_nonfaces == (("1", "2", "3"),)
    tad = tadpole_complex()
    got = sorted(tad.minimal_nonfaces)
    assert got == bf_minimal_nonfaces(tad)
    assert got == sorted(
        [("1", "5"), ("2", "4"), ("2", "5"), ("3", "4"), ("3", "5"), ("1", "2", "3")]
    )


def test_minimal_nonfaces_match_oracle_random():
    for facets in ([{1, 2}, {2, 3}, {3, 4}], [{1, 2, 3}, {2, 3, 4}, {1, 4}],
                   [{1}, {2}], [{1, 2, 3, 4}]):
        c = cx(facets)
        assert sorted(c.minimal_nonfaces) == bf_minimal_nonfaces(c)


def test_flag_pure_height():
    x2 = crosspolytope_boundary(2)
    assert x2.is_flag and x2.is_pure
    assert x2.height() == 2
    tri = simplex_boundary(2)
    assert not tri.is_flag
    assert tri.height() == 1
    tad = tadpole_complex()
    assert tad.is_pure and tad.dimension == 1 and tad.n_vertices == 5
    assert tad.height() == 3
    with pytest.raises(NonPureComplexError):
        cx([{1, 2, 3}, {4, 5}]).height()


def test_link_and_restrict():
    octa = crosspolytope_boundary(3)
    link1 = octa.link(["1"])
    assert link1.n_facets == 4 and link1.dimension == 1
    assert link1.f_vector == (1, 4, 4)  # a 4-cycle
    induced = octa.restrict(["1", "2"])
    assert induced.facet_labels() == (("1",), ("2",))
    with pytest.raises(NotAFaceError):
        octa.link(["1", "2"])  # antipodal pair is a nonface


def test_link_of_facet_is_empty_complex():
    tri = full_simplex(2)
    link = tri.link(["1", "2", "3"])
    assert link.is_empty_complex
    assert link.dimension == -1


def test_join():
    square = cx([{1}, {2}]).join(cx([{3}, {4}]))
    assert square.n_facets == 4 and square.dimension == 1
    assert square.f_vector == crosspolytope_boundary(2).f_vector
    with pytest.raises(VoidComplexError):
        cx([{1}]).join(SimplicialComplex.from_facets([], allow_void=True))


def test_join_relabels_on_collision():
    tri = simplex_boundary(2)
    j = tri.join(tri)
    assert j.n_vertices == 6
    assert j.n_facets == 9
    assert set(j.vertices) == {"1.1", "2.1", "3.1", "1.2", "2.2", "3.2"}


def test_join_height_additive():
    for a, b in [(crosspolytope_boundary(2), simplex_boundary(2)),
                 (simplex_boundary(3), simplex_boundary(2)),
                 (crosspolytope_boundary(1), crosspolytope_boundary(2))]:
        assert a.join(b).height() == a.height() + b.height()


def test_generate_families():
    assert generate_complex("crosspolytope", 2).n_facets == 4
    assert generate_complex("simplex", 2).f_vector == (1, 3, 3)
    assert generate_complex("tadpole").facet_labels() == (
        ("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("4", "5"))
    with pytest.raises(UnknownFamilyError):
        generate_complex("dodecahedron", 1)
    with pytest.raises(InputError):
        generate_complex("crosspolytope", 0)


def test_facet_file_round_trip():
    octa = crosspolytope_boundary(3)
    text = format_facet_text(octa)
    back = parse_facet_text(text)
    assert back == octa
    assert format_facet_text(back) == text


def test_facet_file_comments_and_errors():
    c = parse_facet_text("# header\n1 2\n\n2 3\n")
    assert c.facet_labels() == (("1", "2"), ("2", "3"))
    with pytest.raises(ParseError) as err:
        parse_facet_text("1 2\n3 3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_facet_text("# only comments\n")


def test_nonface_complex_round_trip():
    # rebuilding from minimal nonfaces recovers the complex
    for facets in ([{1, 2}, {2, 3}], [{1, 2, 3}, {3, 4}], [{1, 3}, {1, 4}, {2, 3}, {2, 4}]):
        c = cx(facets)
        nonfaces = [set(nf) for nf in c.minimal_nonfaces]
        verts = list(c.vertices)
        faces = [
            set(s)
            for size in range(1, len(verts) + 1)
            for s in itertools.combinations(verts, size)
            if not any(nf <= set(s) for nf in nonfaces)
        ]
        rebuilt = SimplicialComplex.from_facets(
            [f for f in faces if not any(f < g for g in faces)]
        )
        assert {frozenset(f) for f in rebuilt.facet_labels()} == {
            frozenset(f) for f in c.facet_labels()
        }


def test_value_semantics():
    a = crosspolytope_boundary(2)
    b = crosspolytope_boundary(2)
    assert a == b and hash(a) == hash(b)
    assert a != simplex_boundary(2)

import json
import random
from fractions import Fraction
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

import dualgraphs.arrangements as arrangements_module
from dualgraphs.arrangements import (
    SubspaceArrangement,
    analyze_arrangement,
    arrangement_from_json_dict,
    arrangement_to_json_dict,
    check_regularity_connectivity,
    derksen_sidman_bound,
    dual_edge_indices,
    dual_graph,
    from_complex,
    generic_hyperplane_section,
    plucker_mark,
    screen_matrices,
)
from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    full_simplex,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.errors import HypothesisError, InputError, NotUnmixedError, SectionError
from dualgraphs.graphs import HirschVerdict, diameter, vertex_connectivity
from dualgraphs.homology import dual_adjacency
from dualgraphs.linalg import integer_vector
from dualgraphs.reports import STATUS_NA, build_complex_report
from oracles import gauss_rank


def _e(i, n=4):
    return tuple(1 if j == i else 0 for j in range(n))


@pytest.fixture
def nonhirsch():
    # (x1,x2) cap (x2,x3) cap (x3,x4) cap (x4, x1+x3): dual graph is a path
    return SubspaceArrangement(4, [
        [_e(0), _e(1)],
        [_e(1), _e(2)],
        [_e(2), _e(3)],
        [_e(3), (1, 0, 1, 0)],
    ])


def test_component_heights(nonhirsch):
    assert nonhirsch.heights == (2, 2, 2, 2)
    assert nonhirsch.is_unmixed()
    assert nonhirsch.common_height() == 2
    mixed = SubspaceArrangement(4, [[_e(0)], [_e(0), _e(1)]])
    assert not mixed.is_unmixed()
    with pytest.raises(NotUnmixedError):
        mixed.common_height()


def test_redundant_forms_do_not_change_height():
    a = SubspaceArrangement(4, [[_e(0), _e(1), (1, 1, 0, 0)]])
    assert a.heights == (2,)


def test_duplicate_components_rejected():
    with pytest.raises(InputError):
        SubspaceArrangement(3, [[_e(0, 3)], [(2, 0, 0)]])
    with pytest.raises(InputError, match="components 1 and 2 have the same row space"):
        SubspaceArrangement(3, [[_e(0, 3), _e(1, 3)], [(Fraction(-1, 2), 3, 0), (6, 0, 0)]])


def test_nonhirsch_arrangement_is_a_path(nonhirsch):
    g = dual_graph(nonhirsch)
    assert g.edges == (("1", "2"), ("2", "3"), ("3", "4"))
    assert diameter(g) == 3
    rep = analyze_arrangement(nonhirsch)
    assert rep.verdict is HirschVerdict.NOT_HIRSCH
    assert rep.common_height == 2
    assert rep.multiplicity == 4


def test_two_skew_planes_have_no_edge():
    arr = SubspaceArrangement(4, [[_e(0), _e(1)], [_e(2), _e(3)]])
    assert dual_edge_indices(arr) == set()
    assert diameter(dual_graph(arr)) == inf


def test_from_complex_matches_combinatorial_dual():
    for c in (simplex_boundary(2), crosspolytope_boundary(2),
              crosspolytope_boundary(3), tadpole_complex()):
        arr = from_complex(c)
        assert arr.n_components == c.n_facets
        assert arr.heights == tuple([c.height()] * c.n_facets)
        assert dual_edge_indices(arr) == dual_adjacency(c)


def test_from_complex_guards_and_postcondition(monkeypatch):
    with pytest.raises(HypothesisError, match="coordinate arrangements need a pure complex"):
        from_complex(SimplicialComplex.from_facets([(1, 2, 3), (3, 4)]))
    arr = from_complex(crosspolytope_boundary(2))
    assert repr(arr) == "SubspaceArrangement(4 components in 4 variables)"
    # a dual graph that disagrees with the complex's fails the postcondition
    monkeypatch.setattr(arrangements_module, "dual_edge_indices", lambda arr: frozenset())
    with pytest.raises(AssertionError, match="coordinate arrangement dual graph mismatch"):
        from_complex(crosspolytope_boundary(2))


def test_regularity_connectivity_needs_an_unmixed_arrangement():
    mixed = SubspaceArrangement(4, [[_e(0)], [_e(0), _e(1)]])
    with pytest.raises(NotUnmixedError,
                       match="connectivity check requires an unmixed arrangement"):
        check_regularity_connectivity(mixed, 1)


def test_from_complex_three_cycle():
    arr = from_complex(simplex_boundary(2))
    assert arr.components == (
        ((Fraction(0), Fraction(0), Fraction(1)),),
        ((Fraction(0), Fraction(1), Fraction(0)),),
        ((Fraction(1), Fraction(0), Fraction(0)),),
    )
    assert dual_graph(arr).is_complete()


def test_tadpole_arrangement_leaf():
    arr = from_complex(tadpole_complex())
    assert arr.heights == (3, 3, 3, 3, 3)
    kappa, _ = vertex_connectivity(dual_graph(arr))
    assert kappa == 1


def test_generic_section_preserves_everything():
    octa_arr = from_complex(crosspolytope_boundary(3))
    want = dual_edge_indices(octa_arr)
    sliced = generic_hyperplane_section(octa_arr, seed=0)
    assert sliced.n_vars == 5
    assert sliced.n_components == 8
    assert sliced.heights == octa_arr.heights
    assert dual_edge_indices(sliced) == want
    # deterministic for a fixed seed
    again = generic_hyperplane_section(octa_arr, seed=0)
    assert again.components == sliced.components
    different = generic_hyperplane_section(octa_arr, seed=1)
    assert different.heights == octa_arr.heights


def test_generic_section_slices_each_form_up_to_a_positive_scale():
    # rational forms with a zero, a negative and a fractional last entry
    forms = [[(Fraction(1, 2), 0, 0, Fraction(-3, 4), 0), (0, 1, 0, 0, Fraction(2, 3))],
             [(0, 0, Fraction(5, 7), 1, 0), (0, 1, 0, 0, Fraction(2, 3))],
             [(1, 0, 0, 0, -1), (0, 0, 1, 0, 0)]]
    arr = SubspaceArrangement(5, forms)
    sliced = generic_hyperplane_section(arr, seed=3)
    rng = random.Random(3)  # the first draw passes the postconditions here
    coeffs = [rng.randint(1, 2**16) for _ in range(4)]
    for comp, sliced_comp in zip(arr.components, sliced.components):
        for form, row in zip(comp, sliced_comp):
            by_fractions = [a + form[-1] * k for a, k in zip(form, coeffs)]
            assert integer_vector(by_fractions) == integer_vector(row)
    assert sliced.heights == arr.heights
    assert dual_edge_indices(sliced) == dual_edge_indices(arr)


def test_generic_section_rejects_small_dimension(nonhirsch):
    with pytest.raises(HypothesisError):
        generic_hyperplane_section(nonhirsch, seed=0)


def test_generic_section_retry_budget(monkeypatch):
    octa_arr = from_complex(crosspolytope_boundary(3))
    monkeypatch.setattr(arrangements_module, "_SECTION_MAX_ATTEMPTS", 0)
    with pytest.raises(SectionError, match="in 0 attempts"):
        generic_hyperplane_section(octa_arr, seed=0)


#: Coefficients of x6 in x1..x5 for the sections of the octahedron's
#: coordinate arrangement, drawn at attempts 0-3. x6 -> x5 sends each
#: component on x6 to the one on x5; x6 -> x1 folds x6 into x1, so the
#: components on x1 and x6 drop to height 2; x6 -> x1 + x2 + x3 + x4 joins
#: two facets at distance 2, each on x6, by a dual edge; the fourth draw is
#: generic.
SECTION_DRAWS = {0: (0, 0, 0, 0, 1), 1: (1, 0, 0, 0, 0), 2: (1, 1, 1, 1, 0),
                 3: (1, 2, 3, 4, 5)}


class ScriptedRandom(random.Random):
    """``random.Random(seed)``, except that the section coefficients, drawn
    by ``randint(1, _SECTION_COEFF_MAX)``, are those of ``SECTION_DRAWS[seed]``
    in turn."""

    def __init__(self, seed):
        super().__init__(seed)
        self.coeffs = iter(SECTION_DRAWS.get(seed, ()))

    def randint(self, low, high):
        if (low, high) != (1, arrangements_module._SECTION_COEFF_MAX):
            return super().randint(low, high)  # the Plücker screen's draws
        return next(self.coeffs)


def test_generic_section_retries_each_failed_postcondition(monkeypatch):
    octa_arr = from_complex(crosspolytope_boundary(3))
    monkeypatch.setattr(arrangements_module, "random", SimpleNamespace(Random=ScriptedRandom))
    sliced = generic_hyperplane_section(octa_arr, seed=0)
    k = SECTION_DRAWS[3]
    assert sliced.rows == tuple(
        tuple(tuple(a + row[-1] * c for a, c in zip(row[:-1], k)) for row in comp)
        for comp in octa_arr.rows)
    assert sliced.heights == octa_arr.heights
    assert dual_edge_indices(sliced) == dual_edge_indices(octa_arr)


@pytest.mark.parametrize("attempts, reason", [
    (1, "components collapsed to a common row space"),
    (2, r"component heights changed: \(3, 3, 3, 3, 3, 3, 3, 3\)"
        r" -> \(3, 2, 3, 2, 3, 3, 3, 3\)"),
    (3, "dual graph changed under the section"),
])
def test_generic_section_error_names_the_last_failure(monkeypatch, attempts, reason):
    octa_arr = from_complex(crosspolytope_boundary(3))
    monkeypatch.setattr(arrangements_module, "random", SimpleNamespace(Random=ScriptedRandom))
    monkeypatch.setattr(arrangements_module, "_SECTION_MAX_ATTEMPTS", attempts)
    with pytest.raises(SectionError,
                       match=rf"in {attempts} attempts \(seed 0\): {reason}$"):
        generic_hyperplane_section(octa_arr, seed=0)


def test_derksen_sidman_bound(nonhirsch):
    assert derksen_sidman_bound(nonhirsch, range(4)) == 3
    assert derksen_sidman_bound(nonhirsch, [2]) == 0
    assert derksen_sidman_bound(nonhirsch, [0, 2, 3]) == 2
    with pytest.raises(InputError):
        derksen_sidman_bound(nonhirsch, [])
    with pytest.raises(InputError):
        derksen_sidman_bound(nonhirsch, [9])


def test_regularity_connectivity_checks():
    for r in (2, 3, 4):
        arr = from_complex(crosspolytope_boundary(r))
        assert check_regularity_connectivity(arr, r).passed
        assert not check_regularity_connectivity(arr, r + 1).passed
    for d in (2, 3):
        arr = from_complex(simplex_boundary(d))
        assert check_regularity_connectivity(arr, d).passed
    tad = from_complex(tadpole_complex())
    chk = check_regularity_connectivity(tad, 2)
    assert not chk.passed
    assert chk.cut == ("4",)


def test_json_round_trip_bit_exact(nonhirsch):
    data = arrangement_to_json_dict(nonhirsch)
    assert data["variables"] == 4
    back = arrangement_from_json_dict(json.loads(json.dumps(data)))
    assert back == nonhirsch
    # fractional coefficients survive exactly
    arr = SubspaceArrangement(2, [[(Fraction(1, 3), Fraction(-2, 7))]])
    data = arrangement_to_json_dict(arr)
    assert data["components"][0][0] == ["1/3", "-2/7"]
    assert arrangement_from_json_dict(data) == arr


def test_integer_json_coefficients_stay_ints():
    data = {"variables": 3, "components": [[[1, -2, 0]], [[0, 3, 1], [5, 0, 0]]]}
    arr = arrangement_from_json_dict(data)
    assert all(type(x) is int for comp in arr.components for form in comp for x in form)
    assert arrangement_to_json_dict(arr) == data
    coordinate = from_complex(crosspolytope_boundary(2))
    assert all(type(x) is int for comp in coordinate.components for form in comp for x in form)


def test_json_errors():
    with pytest.raises(InputError):
        arrangement_from_json_dict({"variables": 2})
    with pytest.raises(InputError):
        arrangement_from_json_dict({"variables": "x", "components": []})


def test_from_complex_postcondition_on_random_pure_complexes():
    # from_complex asserts internally that the rank-based dual graph matches
    # the combinatorial one; drive it over a spread of pure complexes
    import itertools
    import random

    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        ksubs = list(itertools.combinations(range(1, n + 1), k))
        fam = rng.sample(ksubs, rng.randint(1, min(12, len(ksubs))))
        c = SubspaceArrangement  # noqa: F841  (keep import style uniform)
        from dualgraphs.complexes import SimplicialComplex

        complex_ = SimplicialComplex.from_facets(fam)
        arr = from_complex(complex_)
        assert arr.n_components == complex_.n_facets


# -- the full simplex: zero ideal, one height-0 component -------------------------


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_full_simplex_is_one_zero_component(d):
    cx = full_simplex(d)
    arr = from_complex(cx)
    assert arr.components == ((),)
    assert arr.heights == (0,)
    assert dual_edge_indices(arr) == dual_adjacency(cx) == set()
    assert dual_graph(arr).n == 1
    assert analyze_arrangement(arr).verdict is HirschVerdict.HIRSCH


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_full_simplex_complex_report_height_zero(d):
    report = build_complex_report(full_simplex(d))
    assert report["height"] == 0
    assert report["dual_graph"]["n_vertices"] == 1
    larman = [c for c in report["checks"] if c["id"] == "cm_larman_diameter_bound"]
    assert [c["status"] for c in larman] == [STATUS_NA]
    if d >= 2:
        # n - c - 3 >= 0 here, so only the height rules the bound out
        assert larman[0]["detail"] == "height 0"


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_full_simplex_json_round_trip(d):
    arr = from_complex(full_simplex(d))
    data = arrangement_to_json_dict(arr)
    assert data == {"variables": d + 1, "components": [[]]}
    assert arrangement_from_json_dict(json.loads(json.dumps(data))) == arr


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_full_simplex_hyperplane_section(d):
    arr = from_complex(full_simplex(d))
    if arr.n_vars < 3:
        with pytest.raises(HypothesisError):
            generic_hyperplane_section(arr, seed=0)
        return
    sliced = generic_hyperplane_section(arr, seed=0)
    assert sliced.n_vars == arr.n_vars - 1
    assert sliced.heights == (0,)


def test_zero_forms_are_the_zero_ideal():
    arr = SubspaceArrangement(3, [[(0, 0, 0)]])
    assert arr.heights == (0,)
    # equality stays on the listed forms, not on the row space
    assert arr != SubspaceArrangement(3, [[]])
    with pytest.raises(InputError):
        SubspaceArrangement(3, [[], [(0, 0, 0)]])
    mixed = SubspaceArrangement(3, [[], [_e(0, 3)]])
    assert mixed.heights == (0, 1)
    assert not mixed.is_unmixed()
    assert analyze_arrangement(mixed).dual_graph is None


#: Nonzero multipliers: fractional, negative and non-primitive ones.
multipliers = st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool)


def test_section_equals_its_forms_parsed_afresh():
    arr = from_complex(crosspolytope_boundary(3))
    sliced = generic_hyperplane_section(arr, seed=1)
    again = SubspaceArrangement(sliced.n_vars, sliced.components)
    assert again == sliced and again.heights == sliced.heights == arr.heights
    assert dual_edge_indices(again) == dual_edge_indices(sliced) == dual_edge_indices(arr)


def test_records_are_immutable(nonhirsch):
    rep = analyze_arrangement(nonhirsch, regularity_certificate=1)
    with pytest.raises(AttributeError):
        rep.unmixed = False
    with pytest.raises(AttributeError):
        rep.regularity_check.passed = True


@st.composite
def forms_of_equal_count(draw):
    """(n, components): 2-5 components of k small integer forms in n variables."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n))
    form = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    comps = draw(st.lists(st.lists(form, min_size=k, max_size=k), min_size=2, max_size=5))
    return n, comps


@given(forms_of_equal_count(), st.data())
def test_rescaled_forms_keep_heights_and_dual_edges(arr_data, data):
    n, comps = arr_data
    try:
        arr = SubspaceArrangement(n, comps)
    except InputError:
        assume(False)
    heights = tuple(gauss_rank(c) for c in comps)
    assert arr.heights == heights
    scaled = [[[m * x for x in form] for form, m in
               zip(comp, data.draw(st.lists(multipliers, min_size=len(comp), max_size=len(comp))))]
              for comp in comps]
    again = SubspaceArrangement(n, scaled)
    assert again.heights == heights
    if arr.is_unmixed():
        edges = {(i, j) for i in range(len(comps)) for j in range(i + 1, len(comps))
                 if gauss_rank(comps[i] + comps[j]) == heights[0] + 1}
        assert dual_edge_indices(arr) == dual_edge_indices(again) == edges


def test_each_form_is_converted_once(monkeypatch):
    calls = []

    def counting(vec):
        calls.append(vec)
        return integer_vector(vec)

    monkeypatch.setattr(arrangements_module, "integer_vector", counting)
    arr = from_complex(crosspolytope_boundary(3))
    n_forms = sum(len(c) for c in arr.components)
    assert len(calls) == n_forms == 8 * 3
    dual_graph(arr)
    analyze_arrangement(arr, regularity_certificate=3)
    assert len(calls) == n_forms


@st.composite
def small_arrangements(draw):
    """(n, components): 2-6 components in 2-5 variables. Each is a distinct
    k-subset of a pool of n + 3 forms with entries in [-2, 2], rescaled, so
    that components often share forms; or, about one in five, an earlier
    component's forms reordered plus the difference of two of them, which
    has the same row space."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=n + 3, max_size=n + 3))
    subsets = draw(st.lists(st.lists(st.integers(0, n + 2), min_size=k, max_size=k, unique=True),
                            min_size=2, max_size=6, unique_by=frozenset))
    comps = []
    for subset in subsets:
        if comps and draw(st.integers(0, 4)) == 0:
            base = draw(st.sampled_from(comps))
            comp = list(reversed(base))
            if len(base) >= 2:
                comp.append([a - b for a, b in zip(base[0], base[1])])
        else:
            scales = draw(st.lists(st.integers(-2, 2).filter(bool), min_size=k, max_size=k))
            comp = [[m * x for x in pool[f]] for f, m in zip(subset, scales)]
        comps.append(comp)
    return n, comps


def stacked_rank_oracle(comps):
    """(heights, least pair of equal row spaces or None, dual edges) of the
    definition the kernel test computes: components of equal height h share
    a row space when stacking them has rank h, and are adjacent when it has
    rank h + 1."""
    def rank_of(rows):
        return gauss_rank(rows) if rows else 0

    heights = [rank_of(c) for c in comps]
    same, edges = None, set()
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if heights[i] == heights[j]:
                stacked = rank_of(comps[i] + comps[j])
                if stacked == heights[i]:
                    same = same or (i, j)
                elif stacked == heights[i] + 1:
                    edges.add((i, j))
    return heights, same, edges


def assert_matches_stacked_rank_oracle(n, comps, oracle=None):
    heights, same, edges = oracle or stacked_rank_oracle(comps)
    if same is not None:
        i, j = same
        with pytest.raises(InputError,
                           match=f"components {i + 1} and {j + 1} have the same row space"):
            SubspaceArrangement(n, comps)
        return
    arr = SubspaceArrangement(n, comps)
    assert arr.heights == tuple(heights)
    assert arr._adjacent_pairs == edges


@given(small_arrangements())
def test_dual_edges_and_same_row_space_match_the_stacked_rank_oracle(arr_data):
    assert_matches_stacked_rank_oracle(*arr_data)


# -- the Pluecker screen: exact whatever its matrices G and H are -----------------


COMPONENT_KINDS = ["fresh"] * 4 + ["swap"] * 8 + ["more", "less", "copy"]


@st.composite
def wide_arrangements(draw):
    """(n, components): 2-9 components in 4-8 variables, most of one height
    c in [2, n - 2]. Each is a distinct subset, rescaled, of a pool of
    c + 2 to n + 3 forms: the coordinate forms x_i, then x_i + x_(i+1), all
    with drawn entries in [-2, 2] added, so that shrinking leads to
    coordinate arrangements. About half swap one form of an earlier
    subset, so that components often meet in codimension one; one in
    fifteen each has a form more or a form less (mixed heights) or repeats
    an earlier component's row space."""
    n = draw(st.integers(4, 8))
    c = draw(st.integers(2, n - 2))
    size = draw(st.integers(c + 2, n + 3))
    pool = [[int(j in (i % n, (i + i // n) % n)) + draw(st.integers(-2, 2)) for j in range(n)]
            for i in range(size)]
    comps, subsets = [], []
    for _ in range(draw(st.sampled_from(range(2, 10)))):
        kind = draw(st.sampled_from(COMPONENT_KINDS))
        if comps and kind == "copy":
            base = draw(st.sampled_from(comps))
            comps.append(list(reversed(base)) + [[a - b for a, b in zip(base[0], base[-1])]])
            continue
        if subsets and kind == "swap":
            subset = list(draw(st.sampled_from(subsets)))
            subset[draw(st.integers(0, len(subset) - 1))] = draw(
                st.sampled_from(sorted(set(range(size)) - set(subset))))
        else:
            k = min(c + (kind == "more") - (kind == "less"), size)
            subset = draw(st.lists(st.integers(0, size - 1), min_size=k, max_size=k, unique=True))
        if set(subset) in map(set, subsets):
            continue
        subsets.append(subset)
        scales = draw(st.lists(st.integers(-2, 2).filter(bool), min_size=len(subset),
                               max_size=len(subset)))
        comps.append([[m * x for x in pool[f]] for f, m in zip(subset, scales)])
    assume(len(comps) >= 2)
    return n, comps


def degenerate_screens(kind, data=None):
    """A stand-in for ``screen_matrices``: the default G and H spoiled in one
    way, or (``"drawn"``) entries in [-1, 1] drawn by hypothesis."""
    def screens(n_vars, h):
        if kind == "drawn":
            def entries(width, count):
                return data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=width,
                                                   max_size=width),
                                          min_size=count, max_size=count))
            return entries(n_vars, h + 2), entries(h + 2, 4)
        g_cols, h_rows = screen_matrices(n_vars, h)
        if kind == "zero G":
            g_cols = [[0] * n_vars for _ in g_cols]
        elif kind == "G of rank below h + 2":
            g_cols[-1] = [a - b for a, b in zip(g_cols[0], g_cols[1])]
        elif kind == "H kills a direction":
            # G's last column is the first coordinate vector and H kills the
            # last direction of Q^(h+2): a component whose forms all have
            # first coefficient 0 has that direction in its kernel plane
            g_cols[-1] = [1] + [0] * (n_vars - 1)
            h_rows = [row[:-1] + [0] for row in h_rows]
        return g_cols, h_rows
    return screens


SCREEN_KINDS = ["default", "drawn", "zero G", "G of rank below h + 2", "H kills a direction"]


@given(wide_arrangements(), st.sampled_from(SCREEN_KINDS), st.data())
def test_screen_keeps_heights_edges_and_same_row_space_error(arr_data, kind, data):
    n, comps = arr_data
    oracle = stacked_rank_oracle(comps)
    with pytest.MonkeyPatch.context() as mp:
        if kind != "default":
            mp.setattr(arrangements_module, "screen_matrices", degenerate_screens(kind, data))
        assert_matches_stacked_rank_oracle(n, comps, oracle)


@pytest.mark.parametrize("kind", SCREEN_KINDS[:1] + SCREEN_KINDS[2:])
@pytest.mark.parametrize("n, comps", [
    # height 1: any two distinct hyperplanes meet in codimension one
    (4, [[[1, 0, 0, 0]], [[0, 1, 0, 0]], [[1, 1, 0, 0]], [[1, 2, 3, 4]]]),
    # n - c = 1: any two distinct lines through the origin span a plane
    (4, [[_e(0), _e(1), _e(2)], [_e(1), _e(2), _e(3)], [[1, 1, 0, 0], _e(2), _e(3)],
         [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]]),
    # mixed heights 2 and 3: edges only within a height
    (5, [[_e(0, 5), _e(1, 5)], [_e(1, 5), _e(2, 5)], [_e(3, 5), _e(4, 5)],
         [_e(0, 5), _e(1, 5), _e(2, 5)], [_e(1, 5), _e(2, 5), _e(3, 5)]]),
    # a zero component beside hyperplanes
    (3, [[], [[1, 0, 0]], [[0, 1, 1]]]),
    # the same row space, listed differently, after an edge
    (5, [[_e(0, 5), _e(1, 5)], [_e(0, 5), _e(2, 5)], [_e(3, 5), _e(4, 5)],
         [[0, 0, 0, 1, 1], [0, 0, 0, 2, 1]]]),
])
def test_screen_on_low_and_high_heights_mixed_and_zero_components(n, comps, kind):
    with pytest.MonkeyPatch.context() as mp:
        if kind != "default":
            mp.setattr(arrangements_module, "screen_matrices", degenerate_screens(kind))
        assert_matches_stacked_rank_oracle(n, comps)


def test_plucker_marks_of_coordinate_planes():
    # G and H the identity on Q^4: a component's mark is the line of its
    # kernel, and the pairing vanishes exactly when the lines meet
    ident = [list(_e(i)) for i in range(4)]

    def mark(*axes):
        return plucker_mark([_e(i) for i in axes], ident, ident)

    def pairing(p, q):
        return sum(a * b for a, b in zip(p, q[3:] + q[:3]))

    x01, x23, x02 = mark(0, 1), mark(2, 3), mark(0, 2)
    assert pairing(x01, x23) != 0  # stacked rank 4: no edge
    assert pairing(x01, x02) == pairing(x23, x02) == pairing(x01, x01) == 0
    assert plucker_mark([_e(0), _e(1)], [[0] * 4] * 4, ident) is None
    assert plucker_mark([_e(0)], ident, ident) is None  # a kernel of dimension 3
    killed = [row[:3] + [0] for row in ident]
    assert plucker_mark([_e(0), _e(1)], ident, killed) is None  # H kills e_3 in U


def test_kernel_tests_run_only_on_dual_edges(monkeypatch):
    # the crosspolytope-6 arrangement has 64 components, 2,016 pairs of
    # equal height and 192 dual edges; the screen leaves only the edges
    calls = []
    original = arrangements_module.kernel_image
    monkeypatch.setattr(arrangements_module, "kernel_image",
                        lambda *a: calls.append(a) or original(*a))
    arr = from_complex(crosspolytope_boundary(6))
    assert len(calls) == len(dual_edge_indices(arr)) == 192
    calls.clear()
    sliced = generic_hyperplane_section(arr)
    assert len(calls) == len(dual_edge_indices(sliced)) == 192

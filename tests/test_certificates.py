"""The two field-free certificates of a complex report, against brute force.

A greedy shelling settles Cohen-Macaulayness, the homology-sphere test, the
reduced Betti numbers and normality before any link is built or any
boundary map ranked; a monotone dual path settles a facet pair of the
non-revisiting check before any search. Both are re-checked here: the
shelling by the definition, by Reisner's criterion on every link, by the
boundary ranks and by the star flood; the monotone marks by the exact
search and by path enumeration.
"""

import functools
import itertools
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dualgraphs import homology
from dualgraphs.complexes import (
    SimplicialComplex,
    crosspolytope_boundary,
    full_simplex,
    simplex_boundary,
    tadpole_complex,
)
from dualgraphs.homology import (
    dual_graph,
    first_pair_without_nonrevisiting_path,
    non_revisiting_path,
)
from dualgraphs.linalg import QQ, prime_field
from dualgraphs.reports.complexes import _verify_nonrevisiting, build_complex_report
from oracles import (
    all_pairs_nonrevisiting_verdict,
    bf_is_shelling,
    bf_is_normal,
    bf_nonrevisiting_exists,
    bf_reduced_betti,
    bf_reisner,
    blocker_list_shelling,
    cx,
    monotone_starts,
    pure_families,
)
from test_homology import RP2_FACETS, UNSHELLED_CM
from test_properties import SPHERES, complexes, pure_complexes, spheres

GF2 = prime_field(2)
GF3 = prime_field(3)
FIELDS = (QQ, GF2, GF3)


def is_pseudomanifold(c: SimplicialComplex) -> bool:
    """Every ridge lies in exactly two facets."""
    uses = {}
    for f in c.facet_labels():
        for ridge in itertools.combinations(sorted(f), len(f) - 1):
            uses[ridge] = uses.get(ridge, 0) + 1
    return set(uses.values()) <= {2}


def check_shelling_certificate(c: SimplicialComplex):
    order = homology.greedy_shelling(c)
    if order is not None:
        assert bf_is_shelling(c, [c.facet_labels()[i] for i in order])
    for field in FIELDS:
        expected = bf_reisner(c, field)
        if order is not None:
            assert expected == (True, is_pseudomanifold(c))
        assert (homology.is_cohen_macaulay(c, field),
                homology.is_homology_sphere(c, field)) == expected


def check_blocker_list_order(c: SimplicialComplex):
    """The mask pass places the facets in the order of the blocker-list
    pass, or both get stuck."""
    fresh = SimplicialComplex.from_facets(c.facet_labels())
    assert homology.greedy_shelling(c) == blocker_list_shelling(fresh)


def _isomorphism_classes(n: int):
    """One representative of each family of k-subsets of {1..n}, k >= 1, up
    to relabelling the vertices: the certificates and Reisner's criterion do
    not see labels."""
    perms = list(itertools.permutations(range(1, n + 1)))
    for k in range(1, n + 1):
        seen = set()
        for family in pure_families(n, k):
            key = min(tuple(sorted(tuple(sorted(p[v - 1] for v in f)) for f in family))
                      for p in perms)
            if key not in seen:
                seen.add(key)
                yield family


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shelling_certificate_exhaustive(n):
    shelled = 0
    for family in _isomorphism_classes(n):
        c = cx(family)
        check_shelling_certificate(c)
        check_blocker_list_order(c)
        shelled += homology.greedy_shelling(c) is not None
    assert shelled


@given(pure_complexes(max_vertices=7))
@example(cx([(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]))
@example(crosspolytope_boundary(3))
def test_shelling_certificate_on_random_pure_complexes(c):
    check_shelling_certificate(c)


def test_shelling_settles_the_crosspolytope_without_links():
    c = crosspolytope_boundary(5)
    order = homology.greedy_shelling(c)
    assert order is not None and bf_is_shelling(c, [c.facet_labels()[i] for i in order])
    assert homology.is_homology_sphere(c, QQ) and homology.is_homology_sphere(c, GF2)
    assert ("link", QQ) not in c.memo and ("link", GF2) not in c.memo


# a pass that drops a facet's re-test when its R(G) grows differs on about
# one complex in fifty of this strategy: hence more examples than the default
@settings(max_examples=400)
@given(pure_complexes(max_vertices=8, max_facets=20))
def test_shelling_order_is_the_blocker_list_order(c):
    check_blocker_list_order(c)


#: Named complexes for the order reference: shelled spheres and a ball, and
#: a Cohen-Macaulay complex on which both passes get stuck
ORDER_EXAMPLES = {
    **{f"crosspolytope{r}": crosspolytope_boundary(r) for r in range(2, 10)},
    "join3x3": functools.reduce(SimplicialComplex.join, [simplex_boundary(3)] * 3),
    "unshelled-cm": cx(UNSHELLED_CM),
    "octahedron-less-a-triangle": cx(crosspolytope_boundary(3).facet_labels()[1:]),
}


@pytest.mark.parametrize("name", ORDER_EXAMPLES)
def test_shelling_order_is_the_blocker_list_order_on_named_complexes(name):
    c = SimplicialComplex.from_facets(ORDER_EXAMPLES[name].facet_labels())  # fresh memo
    check_blocker_list_order(c)
    assert (homology.greedy_shelling(c) is None) == (name == "unshelled-cm")


#: Shellable complexes besides the spheres: balls, points and a simplex.
SHELLABLE = {
    **SPHERES,
    "octahedron-less-a-triangle": cx(crosspolytope_boundary(3).facet_labels()[1:]),
    "three-points": cx([(1,), (2,), (3,)]),
    "strip-of-triangles": cx([(1, 2, 3), (2, 3, 4), (3, 4, 5)]),
    "tree-of-tetrahedra": cx([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 6)]),
    "simplex3": full_simplex(3),
}


def check_shelled_betti(c: SimplicialComplex):
    """The shelling's profile (0, ..., 0, h_{d+1}) is the profile of the
    boundary ranks and of the dense oracle, over Q, GF(2) and GF(3)."""
    assert homology.greedy_shelling(c) is not None
    for field in FIELDS:
        shortcut = homology.reduced_betti_numbers(c, field).reduced
        assert 0 not in c.memo.get(("link", field), {})  # no rank profile kept
        assert shortcut == homology._ranks_profile(c, field) == tuple(bf_reduced_betti(c, field))


def check_normal_by_flood(c: SimplicialComplex):
    """On shellable input the shortcut, the star flood (forced by hiding the
    shelling) and the oracle all find the complex normal."""
    floods = []
    reach = homology.reach
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "reach", lambda *args: floods.append(args) or reach(*args))
        fast = homology.is_normal(c)
        assert floods == []
        mp.setattr(homology, "greedy_shelling", lambda cxv: None)
        slow = homology.is_normal(c)
    assert floods
    assert fast is slow is bf_is_normal(c) is True


@given(st.one_of(spheres(), pure_complexes(max_vertices=7)))
def test_a_shelling_settles_the_betti_profile_and_normality(c):
    assume(homology.greedy_shelling(c) is not None)
    check_shelled_betti(c)
    check_normal_by_flood(c)


@pytest.mark.parametrize("name", SHELLABLE)
def test_a_shelling_settles_the_betti_profile_and_normality_on_named_complexes(name):
    c = SimplicialComplex.from_facets(SHELLABLE[name].facet_labels())  # fresh memo
    check_shelled_betti(c)
    check_normal_by_flood(c)


def _report_json(facets, shortcuts: bool) -> str:
    """The JSON report over Q, GF(2) and GF(3) of a fresh complex; without
    shortcuts no shelling is found and no Q profile is read off GF(2)."""
    with pytest.MonkeyPatch.context() as mp:
        if not shortcuts:
            mp.setattr(homology, "greedy_shelling", lambda cxv: None)
            mp.setattr(homology, "_certified_by_gf2", lambda mod2: None)
        return json.dumps(build_complex_report(SimplicialComplex.from_facets(facets), FIELDS))


@given(st.one_of(complexes(max_vertices=8), pure_complexes(max_vertices=8)))
@example(cx(RP2_FACETS))
@example(cx([f + ("apex",) for f in RP2_FACETS]))
@example(tadpole_complex())
def test_the_shortcuts_leave_the_report_unchanged(c):
    facets = c.facet_labels()
    assert _report_json(facets, shortcuts=True) == _report_json(facets, shortcuts=False)


@given(pure_complexes(max_vertices=6, max_facets=8), st.data())
@example(cx([{1, 2}, {3, 4}]), None)
def test_monotone_marks_are_shortest_nonrevisiting_paths(c, data):
    goal = 0 if data is None else data.draw(st.integers(0, c.n_facets - 1))
    marks = monotone_starts(c, goal)
    goal_labels = c.facet_labels()[goal]
    for i, f in enumerate(c.facet_labels()):
        path = non_revisiting_path(c, f, goal_labels)
        away = len(set(f) - set(goal_labels))
        # a dual path of length |F \ G| changes one vertex of F \ G per step,
        # so it is monotone: the marks are exactly these shortest paths
        assert (i in marks) == (path is not None and len(path) - 1 == away)
        if i in marks:
            assert bf_nonrevisiting_exists(c, f, goal_labels)


@given(pure_complexes(max_vertices=6, max_facets=8))
@example(cx([{1, 2}, {3, 4}]))
def test_the_verdict_searches_exactly_the_pairs_monotone_paths_leave_open(c):
    from dualgraphs import graphs

    labels = c.facet_labels()
    open_pairs = sorted((i, j) for j in range(len(labels))
                        for i in range(j) if i not in monotone_starts(c, j))
    expected, missing = [], None
    for i, j in open_pairs:  # up to and including the first missing pair
        expected.append((labels[i], labels[j]))
        if not bf_nonrevisiting_exists(c, labels[i], labels[j]):
            missing = expected[-1]
            break
    calls = []
    search = homology.non_revisiting_path
    c.memo.pop("first_pair_without_nonrevisiting_path", None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "non_revisiting_path",
                   lambda cxv, *pair: calls.append(pair) or search(cxv, *pair))
        verdict = first_pair_without_nonrevisiting_path(c)
    assert calls == expected
    assert verdict == missing


@given(pure_complexes(max_vertices=6, max_facets=8))
@example(cx([{1, 2}, {3, 4}]))
@example(cx([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 1}]))
# connected, with unjoined pairs (0, 4) and (1, 3): the detail names (0, 4)
@example(cx([(1, 2, 5), (2, 5, 6), (1, 4, 6), (2, 3, 4), (1, 4, 5)]))
def test_nonrevisiting_verdict_matches_the_all_pairs_search(c):
    g = dual_graph(c)
    assert _verify_nonrevisiting(g, c, None) == all_pairs_nonrevisiting_verdict(g, c)


def test_nonrevisiting_verdict_is_kept_on_the_complex(monkeypatch):
    calls = []
    search = homology.non_revisiting_path
    monkeypatch.setattr(homology, "non_revisiting_path",
                        lambda *args: calls.append(args) or search(*args))
    octa = crosspolytope_boundary(4)
    assert first_pair_without_nonrevisiting_path(octa) is None
    # every pair of crosspolytope facets is joined by a monotone path
    assert calls == []
    assert "first_pair_without_nonrevisiting_path" in octa.memo
    # on the join of a pentagon and a hexagon some pairs need the search,
    # and the verdict is computed once
    join = cx([(i, (i + 1) % 5) for i in range(5)]).join(
        cx([(j, (j + 1) % 6) for j in range(6)]))
    assert first_pair_without_nonrevisiting_path(join) is None
    searched = len(calls)
    assert searched
    assert first_pair_without_nonrevisiting_path(join) is None
    assert len(calls) == searched


def test_a_diameter_above_the_height_fails_the_nonrevisiting_check():
    # the octahedron is a flag sphere of height 3 whose dual graph, the
    # 3-cube, has diameter 3; a kept diameter of 4 fails the check although
    # every facet pair is joined
    octa = crosspolytope_boundary(3)
    dual_graph(octa).memo["diameter"] = octa.height() + 1
    report = build_complex_report(octa)
    [check] = [c for c in report["checks"] if c["id"] == "flag_cm_nonrevisiting"]
    assert (check["status"], check["detail"]) == ("fail", "diameter 4 > height 3")


class _CountingMemo(dict):
    """A memo dict that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = {}

    def __setitem__(self, key, value):
        self.writes[key] = self.writes.get(key, 0) + 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("c, flag", [(cx(RP2_FACETS), False),
                                     (crosspolytope_boundary(4), True)],
                         ids=["rp2", "crosspolytope4"])
def test_a_report_over_three_fields_keeps_each_value_once(c, flag):
    memo = c.__dict__["memo"] = _CountingMemo()
    build_complex_report(c, FIELDS)
    keys = ["dual_graph", "greedy_shelling", *(("_reisner_sweep", f) for f in FIELDS)]
    if flag:  # only a flag complex has the non-revisiting check
        keys.append("first_pair_without_nonrevisiting_path")
    assert memo.writes == dict.fromkeys(keys, 1)

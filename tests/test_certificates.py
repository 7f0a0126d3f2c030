"""The two field-free certificates of a complex report, against brute force.

A greedy shelling settles Cohen-Macaulayness and the homology-sphere test
before any link is built; a monotone dual path settles a facet pair of the
non-revisiting check before any search. Both are re-checked here: the
shelling by the definition and by Reisner's criterion on every link, the
monotone marks by the exact search and by path enumeration.
"""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from dualgraphs import homology
from dualgraphs.complexes import SimplicialComplex, crosspolytope_boundary
from dualgraphs.graphs import (
    dual_graph,
    first_pair_without_nonrevisiting_path,
    non_revisiting_path,
)
from dualgraphs.linalg import QQ, prime_field
from dualgraphs.reports.complexes import _verify_nonrevisiting, build_complex_report
from oracles import (
    all_pairs_nonrevisiting_verdict,
    bf_is_shelling,
    bf_nonrevisiting_exists,
    bf_reisner,
    cx,
    monotone_starts,
    pure_families,
)
from test_homology import RP2_FACETS
from test_properties import pure_complexes

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
    search = graphs.non_revisiting_path
    c.memo.pop("first_pair_without_nonrevisiting_path", None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "non_revisiting_path",
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
    from dualgraphs import graphs

    calls = []
    search = graphs.non_revisiting_path
    monkeypatch.setattr(graphs, "non_revisiting_path",
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

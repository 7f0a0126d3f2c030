import copy
import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import dualgraphs.lines as lines_module
from dualgraphs.errors import HypothesisError, InputError
from dualgraphs.graphs import complete_graph, edge_connectivity, hypercube_graph, path_graph
from dualgraphs.graphs import forbidden_pattern
import dualgraphs.linalg as linalg_module
from dualgraphs.linalg import integer_vector
from dualgraphs.lines import (
    LineArrangement,
    ProjectiveLine,
    canonical_hirsch_verdict,
    canonical_point,
    check_canonical_graph,
    dual_graph,
    genus,
    intersects,
    lines_from_json_dict,
    lines_to_json_dict,
    no_triple_points,
    read_lines_file,
)
from dualgraphs.reports import build_lines_report
from oracles import bf_first_triple_point, gauss_rank

SAMPLES = Path(__file__).parent.parent / "sample_inputs"

P = ProjectiveLine.through


def four_general_lines():
    # x=0, y=0, z=0, x+y+z=0 in the projective plane
    return LineArrangement(2, [
        P(2, (0, 1, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 1, 0)),
        P(2, (1, -1, 0), (0, 1, -1)),
    ])


def grid_lines():
    # two rulings of the quadric surface xw = yz: a K_{3,3} incidence pattern
    def ruling_a(a, b):
        return P(3, (a, b, 0, 0), (0, 0, a, b))

    def ruling_b(c, d):
        return P(3, (c, 0, d, 0), (0, c, 0, d))

    return LineArrangement(3, [
        ruling_a(1, 0), ruling_a(0, 1), ruling_a(1, 1),
        ruling_b(1, 0), ruling_b(0, 1), ruling_b(1, 1),
    ])


def path_lines():
    # consecutive intersections only: L1-L2-L3-L4
    return LineArrangement(3, [
        P(3, (1, 0, 0, 0), (0, 1, 0, 0)),
        P(3, (0, 1, 0, 0), (0, 0, 1, 0)),
        P(3, (0, 0, 1, 0), (0, 0, 0, 1)),
        P(3, (0, 0, 0, 1), (1, 0, 1, 0)),
    ])


def test_projective_line_validation():
    with pytest.raises(InputError):
        P(2, (1, 0, 0), (2, 0, 0))  # same point twice
    with pytest.raises(InputError, match="the two points do not span a line"):
        P(2, (Fraction(1, 2), 0, 0), (-3, 0, 0))
    with pytest.raises(InputError):
        P(2, (1, 0), (0, 1))  # wrong coordinate length


def test_arrangement_and_intersection_guards():
    plane = P(2, (1, 0, 0), (0, 1, 0))
    space = P(3, (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(InputError, match="arrangement entries must be ProjectiveLine"):
        LineArrangement(2, [plane, ((1, 0, 0), (0, 0, 1))])
    with pytest.raises(InputError, match="all lines must share the ambient dimension"):
        LineArrangement(2, [plane, space])
    with pytest.raises(InputError, match="lines live in different ambient spaces"):
        intersects(plane, space)


def test_intersects_coordinate_axes():
    lx = P(2, (0, 1, 0), (0, 0, 1))
    ly = P(2, (1, 0, 0), (0, 0, 1))
    assert intersects(lx, ly) == (0, 0, 1)


def test_intersects_skew_lines():
    l1 = P(3, (1, 0, 0, 0), (0, 1, 0, 0))
    l2 = P(3, (0, 0, 1, 0), (0, 0, 0, 1))
    assert intersects(l1, l2) is None


def test_intersects_solved_by_elimination():
    lx = P(2, (0, 1, 0), (0, 0, 1))
    lw = P(2, (1, -1, 0), (0, 1, -1))
    assert intersects(lx, lw) == (0, 1, -1)


def test_intersects_identical_lines_error():
    l1 = P(2, (1, 0, 0), (0, 1, 0))
    l2 = P(2, (1, 1, 0), (1, -1, 0))  # same span
    with pytest.raises(InputError):
        intersects(l1, l2)
    l3 = P(2, (Fraction(1, 3), Fraction(1, 3), 0), (1, -1, 0))
    with pytest.raises(InputError, match="identical lines have no single intersection point"):
        intersects(l1, l3)


def test_canonical_point():
    assert canonical_point((Fraction(1, 2), Fraction(-1, 3), 0)) == (3, -2, 0)
    assert canonical_point((-2, 4, -6)) == (1, -2, 3)
    assert canonical_point((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(InputError):
        canonical_point((0, 0, 0))


@given(st.lists(st.fractions(max_denominator=20), min_size=3, max_size=5),
       st.fractions(max_denominator=10))
def test_canonical_point_scale_invariant_and_idempotent(vec, scale):
    if not any(vec) or scale == 0:
        return
    pt = canonical_point(vec)
    assert canonical_point([scale * x for x in vec]) == pt
    assert canonical_point(pt) == pt


def test_no_triple_points():
    assert no_triple_points(four_general_lines()) == (True, None)
    concurrent = LineArrangement(2, [
        P(2, (0, 1, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 0, 1)),
        P(2, (1, -1, 0), (0, 0, 1)),
    ])
    ok, pt = no_triple_points(concurrent)
    assert not ok and pt == (0, 0, 1)
    two = LineArrangement(2, [P(2, (0, 1, 0), (0, 0, 1)), P(2, (1, 0, 0), (0, 0, 1))])
    assert no_triple_points(two) == (True, None)


def test_dual_graph_and_genus():
    arr = four_general_lines()
    g = dual_graph(arr)
    assert g.is_complete() and g.n == 4 and g.m == 6
    assert genus(arr) == 3
    grid = grid_lines()
    gg = dual_graph(grid)
    assert gg.n == 6 and gg.m == 9
    degrees = {gg.degree(v) for v in gg.vertices}
    assert degrees == {3}
    assert genus(grid) == 4
    two = LineArrangement(2, [P(2, (0, 1, 0), (0, 0, 1)), P(2, (1, 0, 0), (0, 0, 1))])
    assert genus(two) == 0


def test_genus_requires_triple_point_free():
    concurrent = LineArrangement(2, [
        P(2, (0, 1, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 0, 1)),
        P(2, (1, -1, 0), (0, 0, 1)),
    ])
    with pytest.raises(HypothesisError):
        genus(concurrent)


def test_canonical_verdict_four_lines():
    arr = four_general_lines()
    rep = canonical_hirsch_verdict(arr)
    assert (genus(arr), rep.height, rep.diameter) == (3, 1, 1)
    assert edge_connectivity(dual_graph(arr))[0] == 3
    assert rep.passed
    assert rep.branch == "trivalent" and rep.trivalent_three_connected


def test_canonical_verdict_grid():
    arr = grid_lines()
    rep = canonical_hirsch_verdict(arr)
    assert (rep.vertex_count, rep.edge_count) == (6, 9)
    assert (genus(arr), rep.height, rep.diameter) == (4, 2, 2)
    assert rep.passed
    assert rep.branch == "trivalent" and rep.trivalent_three_connected


def test_canonical_verdict_path_not_embeddable():
    arr = path_lines()
    assert edge_connectivity(dual_graph(arr))[0] == 1
    assert canonical_hirsch_verdict(arr) is None


def test_canonical_verdict_hypothesis_errors():
    with pytest.raises(HypothesisError):
        canonical_hirsch_verdict(
            LineArrangement(2, [P(2, (0, 1, 0), (0, 0, 1)), P(2, (1, 0, 0), (0, 0, 1))])
        )
    concurrent = LineArrangement(2, [
        P(2, (0, 1, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 0, 1)),
        P(2, (1, -1, 0), (0, 0, 1)),
        P(2, (1, 0, 0), (0, 1, 0)),
    ])
    with pytest.raises(HypothesisError):
        canonical_hirsch_verdict(concurrent)


def test_check_canonical_graph():
    k4 = check_canonical_graph(complete_graph(4))
    assert k4.passed and k4.branch == "trivalent" and k4.height == 1
    q3 = check_canonical_graph(hypercube_graph(3))
    assert q3.passed and q3.height == 3 and q3.diameter == 3
    fb = check_canonical_graph(forbidden_pattern())
    assert fb.passed and fb.branch == "edge_bound" and fb.height == 6
    with pytest.raises(HypothesisError):
        check_canonical_graph(path_graph(5))
    with pytest.raises(HypothesisError):
        check_canonical_graph(complete_graph(3))


def test_intersects_symmetric_and_projective_invariant():
    l1 = P(2, (0, 1, 0), (0, 0, 1))
    l2 = P(2, (1, -1, 0), (0, 1, -1))
    assert intersects(l1, l2) == intersects(l2, l1)
    l1s = P(2, (0, 3, 0), (0, 0, -7))
    l2s = P(2, (Fraction(1, 2), Fraction(-1, 2), 0), (0, 5, -5))
    assert intersects(l1s, l2s) == intersects(l1, l2)


def test_lines_json_round_trip():
    arr = grid_lines()
    data = lines_to_json_dict(arr)
    back = lines_from_json_dict(json.loads(json.dumps(data)))
    assert back.ambient_dim == arr.ambient_dim
    assert [(l.p, l.q) for l in back.lines] == [(l.p, l.q) for l in arr.lines]
    with pytest.raises(InputError):
        lines_from_json_dict({"ambient_dim": 2})
    with pytest.raises(InputError):
        lines_from_json_dict({"ambient_dim": 2, "lines": [{"points": [[1, 0, 0]]}]})


def test_arrangement_validation():
    with pytest.raises(InputError):
        LineArrangement(1, [])
    with pytest.raises(InputError):
        LineArrangement(2, [])
    l1 = P(2, (1, 0, 0), (0, 1, 0))
    l2 = P(2, (1, 1, 0), (1, -1, 0))
    with pytest.raises(InputError):
        LineArrangement(2, [l1, l2])
    l3 = P(2, (Fraction(1, 3), Fraction(1, 3), 0), (1, -1, 0))
    with pytest.raises(InputError, match="lines 1 and 2 coincide"):
        LineArrangement(2, [l1, l3])


def test_projective_line_equality_hash_and_immutability():
    line = P(2, (1, 0, 0), (0, 1, 0))
    same = ProjectiveLine(2, (Fraction(1), 0, 0), (0, 1, 0))
    assert line == same and hash(line) == hash(same) == hash((2, line.p, line.q))
    # equality reads the points only, never the derived rows and kernel
    assert line == line._replace(rows=None, kernel=None)
    assert line != P(2, (2, 0, 0), (0, 1, 0)) and line != P(3, (1, 0, 0, 0), (0, 1, 0, 0))
    assert line != tuple(line)
    assert len({line, same, P(2, (0, 1, 0), (1, 0, 0))}) == 2
    for copied in (copy.copy(line), copy.deepcopy(line), pickle.loads(pickle.dumps(line))):
        assert copied == line and copied.kernel == line.kernel
    for attr in ("p", "rows", "kernel", "extra"):
        with pytest.raises(AttributeError):
            setattr(line, attr, None)


def test_check_canonical_graph_lives_in_graphs():
    import dualgraphs.graphs as graphs_module

    assert check_canonical_graph is graphs_module.check_canonical_graph
    assert lines_module.CanonicalGraphCheck is graphs_module.CanonicalGraphCheck


def test_curve_report_is_immutable():
    rep = canonical_hirsch_verdict(four_general_lines())
    with pytest.raises(AttributeError):
        rep.passed = False


def test_inexact_coordinate_is_a_type_error():
    with pytest.raises(TypeError):
        ProjectiveLine(2, (1.0, 0, 0), (0, 1, 0))
    with pytest.raises(TypeError):
        ProjectiveLine(2, (1, 0, 0), (0, Fraction(1, 2), 0.5))


multipliers = st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool)


@st.composite
def line_sets(draw):
    """(N, point pairs): 2-6 lines in P^N, N = 2 or 3, small integer points."""
    n = draw(st.sampled_from([2, 3]))
    point = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1)
    return n, draw(st.lists(st.tuples(point, point), min_size=2, max_size=6))


@given(line_sets(), st.data())
def test_rescaled_points_keep_intersection_pairs(line_data, data):
    n, pairs = line_data
    try:
        arr = LineArrangement(n, [P(n, p, q) for p, q in pairs])
    except InputError:
        assume(False)
    scaled = []
    for p, q in pairs:
        a, b = data.draw(multipliers), data.draw(multipliers)
        scaled.append(P(n, [a * x for x in p], [b * x for x in q]))
    assert LineArrangement(n, scaled).intersection_pairs() == arr.intersection_pairs()


def test_each_spanning_point_is_converted_once(monkeypatch):
    calls = []

    def counting(vec):
        calls.append(vec)
        return integer_vector(vec)

    monkeypatch.setattr(lines_module, "integer_vector", counting)
    arr = grid_lines()
    # each meeting point is made primitive once, by canonical_point, when
    # the arrangement is built
    assert len(calls) == 2 * arr.n_lines + len(arr.intersection_pairs()) == 12 + 9
    dual_graph(arr)
    canonical_hirsch_verdict(arr)
    assert len(calls) == 12 + 9


def _primitive_and_positive(pt):
    return math.gcd(*pt) == 1 and next(x for x in pt if x) > 0


@given(line_sets())
def test_line_pairs_match_the_rank_oracle(line_data):
    # the definition: two lines coincide when their four spanning points have
    # rank 2 and meet when they have rank 3; the point lies on both lines
    n, pairs = line_data
    lines = []
    for p, q in pairs:
        if gauss_rank([p, q]) == 2:
            lines.append(P(n, p, q))
    assume(len(lines) >= 2)
    expected = {}
    coincide = None
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (p1, q1), (p2, q2) = (lines[i].p, lines[i].q), (lines[j].p, lines[j].q)
            r = gauss_rank([p1, q1, p2, q2])
            if r == 2:
                coincide = coincide or (i, j)
                with pytest.raises(InputError, match="identical lines"):
                    intersects(lines[i], lines[j])
                continue
            pt = intersects(lines[i], lines[j])
            assert (pt is not None) == (r == 3)
            if pt is not None:
                assert gauss_rank([p1, q1, pt]) == gauss_rank([p2, q2, pt]) == 2
                assert _primitive_and_positive(pt)
                assert intersects(lines[j], lines[i]) == pt
                expected[(i, j)] = pt
    if coincide is not None:
        i, j = coincide
        with pytest.raises(InputError, match=f"lines {i + 1} and {j + 1} coincide"):
            LineArrangement(n, lines)
    else:
        assert LineArrangement(n, lines).intersection_pairs() == expected


def test_each_line_gets_one_kernel(monkeypatch):
    lines = grid_lines().lines
    kernels, pairs, forbidden = [], [], []
    kernel, meet = lines_module.nullspace, lines_module.intersects
    monkeypatch.setattr(lines_module, "nullspace",
                        lambda rows, width: kernels.append(len(rows)) or kernel(rows, width))
    monkeypatch.setattr(lines_module, "intersects",
                        lambda l1, l2: pairs.append((l1, l2)) or meet(l1, l2))
    # lines imports neither; patched in linalg, they would see calls from there
    assert not hasattr(lines_module, "rank_int_sparse") and not hasattr(lines_module, "rank")
    for name in ("rank_int_sparse", "rank"):
        monkeypatch.setattr(linalg_module, name, lambda *a, name=name: forbidden.append(name))
    arr = LineArrangement(3, [ProjectiveLine(3, ln.p, ln.q) for ln in lines])
    assert kernels == [2] * 6
    assert len(pairs) == math.comb(6, 2)
    arr.intersection_pairs()
    dual_graph(arr)
    canonical_hirsch_verdict(arr)
    # the meeting points were all found when the arrangement was built
    assert kernels == [2] * 6
    assert len(pairs) == math.comb(6, 2)
    assert forbidden == []


@st.composite
def concurrent_line_sets(draw):
    """(N, point pairs): lines in P^N, N = 2 or 3, in random order, some
    forced through up to two common points."""
    n = draw(st.sampled_from([2, 3]))
    point = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=5))
    for centre in draw(st.lists(point, max_size=2)):
        pairs += [(centre, q) for q in draw(st.lists(point, min_size=2, max_size=4))]
    return n, draw(st.permutations(pairs))


@given(concurrent_line_sets())
def test_triple_point_matches_the_fraction_oracle(line_data):
    n, pairs = line_data
    try:
        arr = LineArrangement(n, [P(n, p, q) for p, q in pairs])
    except InputError:
        assume(False)
    point = bf_first_triple_point(arr)
    assert no_triple_points(arr) == (point is None, point)


def test_the_triple_point_is_the_first_point_met_again():
    # P = (0,0,1) lies on lines 0, 1, 5 and Q = (1,0,0) on lines 0, 2, 3:
    # pair (0, 1) meets at P first, but pair (0, 3) meets Q again before
    # pair (0, 5) meets P again
    arr = LineArrangement(2, [
        P(2, (0, 0, 1), (1, 0, 0)),
        P(2, (0, 0, 1), (0, 1, 0)),
        P(2, (1, 0, 0), (0, 1, 0)),
        P(2, (1, 0, 0), (0, 1, 1)),
        P(2, (1, -1, 0), (1, 0, -1)),
        P(2, (0, 0, 1), (1, 1, 0)),
    ])
    assert no_triple_points(arr) == (False, (1, 0, 0))
    assert bf_first_triple_point(arr) == (1, 0, 0)


@pytest.mark.parametrize("name", ["four_lines_p2", "grid_lines_p3", "path_lines_p3"])
def test_a_lines_report_reads_the_intersection_pairs_at_most_twice(name, monkeypatch):
    arr = read_lines_file(SAMPLES / f"{name}.json")
    calls = []
    pairs = LineArrangement.intersection_pairs
    monkeypatch.setattr(LineArrangement, "intersection_pairs",
                        lambda self: calls.append(1) or pairs(self))
    build_lines_report(arr)
    assert 1 <= len(calls) <= 2

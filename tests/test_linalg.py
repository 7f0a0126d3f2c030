import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import dualgraphs.linalg as linalg_module
from dualgraphs.errors import FieldError, InputError
from dualgraphs.linalg import (
    QQ,
    FieldSpec,
    bareiss_rank,
    integer_vector,
    kernel_image,
    nullspace,
    parse_field,
    parse_rational,
    prime_field,
    rank,
    rank_gf2_columns,
    rank_int_sparse,
    rank_mod_p_sparse,
    rref,
)
from oracles import gauss_rank, minor_scan_rank, rank_mod_p

# the signed vertex-edge incidence matrix of a triangle
D1_TRIANGLE = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def _sparse(rows):
    """Dense integer rows as the sparse rows that ``rank`` takes."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def test_field_spec_validation():
    assert str(QQ) == "Q"
    assert str(prime_field(7)) == "GF(7)"
    with pytest.raises(FieldError):
        prime_field(6)
    with pytest.raises(FieldError):
        prime_field(1)
    with pytest.raises(FieldError):
        FieldSpec(2**31 + 11)


def test_field_spec_equality_hash_and_immutability():
    assert FieldSpec() == FieldSpec(None) == QQ and prime_field(7) == FieldSpec(7)
    assert QQ != prime_field(2) and prime_field(2) != prime_field(3)
    assert hash(prime_field(7)) == hash(FieldSpec(7)) == hash((7,))
    assert len({QQ, FieldSpec(None), prime_field(2), FieldSpec(2), prime_field(3)}) == 3
    # equal only to a FieldSpec, not to a tuple with the same entries
    assert prime_field(2) != (2,) and not prime_field(2) == (2,)
    for copied in (copy.copy(QQ), copy.deepcopy(prime_field(5)), pickle.loads(pickle.dumps(QQ))):
        assert copied in (QQ, prime_field(5))
    with pytest.raises(AttributeError):
        QQ.p = 2
    with pytest.raises(AttributeError):
        QQ.q = 2


def test_parse_field():
    assert parse_field("q") == QQ
    assert parse_field("gf:5") == prime_field(5)
    with pytest.raises(FieldError):
        parse_field("gf:ten")
    with pytest.raises(FieldError):
        parse_field("r")


def test_parse_rational_rejects_booleans():
    assert parse_rational("3/4", "coefficient") == Fraction(3, 4)
    assert parse_rational(-2, "coefficient") == -2
    for bad in (True, False, 0.5):
        with pytest.raises(InputError):
            parse_rational(bad, "coefficient")


def test_parse_rational_keeps_ints_and_makes_the_rest_fractions():
    for x in (7, -2, 0, 10**30):
        parsed = parse_rational(x, "coefficient")
        assert type(parsed) is int and parsed == x
    for x in ("3/4", Fraction(3, 4)):
        parsed = parse_rational(x, "coefficient")
        assert type(parsed) is Fraction and parsed == Fraction(3, 4)
    assert type(parse_rational("6", "coefficient")) is Fraction


@pytest.mark.parametrize("text", ["1_000", "1_0/2", "3 / 4", "3/ 4", "3 /4"])
def test_parse_rational_keeps_one_grammar(text):
    # Fraction(str) accepts these from Python 3.11 or 3.12 on; the parser never does
    with pytest.raises(InputError):
        parse_rational(text, "coefficient")
    assert parse_rational(" -3/4 ", "coefficient") == Fraction(-3, 4)


@given(st.lists(st.fractions(max_denominator=30), min_size=1, max_size=6),
       st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool))
def test_integer_vector_is_the_primitive_positive_multiple(vec, scale):
    row = integer_vector(vec)
    assert [bool(v) for v in row] == [bool(x) for x in vec]
    lead = next((j for j, x in enumerate(vec) if x), None)
    if lead is not None:
        ratio = Fraction(row[lead]) / vec[lead]
        assert ratio > 0
        assert all(v == ratio * x for v, x in zip(row, vec))
        assert math.gcd(*row) == 1
    assert integer_vector([scale * x for x in vec]) == (
        row if scale > 0 else tuple(-v for v in row))


def test_rank_identity():
    assert rank(_sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_dependent_rows():
    assert rank(_sparse([[1, 2], [2, 4]])) == 1


def test_rank_triangle_incidence():
    assert minor_scan_rank(D1_TRIANGLE) == 2
    assert rank(_sparse(D1_TRIANGLE)) == 2


def test_rank_empty_and_zero():
    for field in (QQ, prime_field(3)):
        assert rank([], field) == 0
        assert rank(_sparse([[0] * 5, [0] * 5]), field) == 0


def test_rank_with_fractions():
    # a rational row is ranked as its primitive integer multiple
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rank(_sparse(integer_vector(r) for r in rows)) == gauss_rank(rows)


def test_gf_p_rank_reduces_entries_mod_p():
    assert rank(_sparse([[2, 4], [1, 2]]), prime_field(2)) == 1
    assert rank(_sparse([[2, 0], [0, 3]]), prime_field(2)) == 1
    # (3, 6) is zero mod 3, though its primitive multiple (1, 2) is not
    assert rank(_sparse([[3, 6]]), prime_field(3)) == 0
    assert rank(_sparse([[1, 2]]), prime_field(3)) == 1


@pytest.mark.parametrize("rows, expected", [
    ([[3, 0, 0], [0, 1, 1], [0, 1, 2]], 3),
    ([[0, 0, 0, 0, 2], [0, 0, 0, 2, 0], [0, 0, 2, 0, 0], [0, 3, 0, 0, 0]], 4),
    ([[6, 0, 0], [0, 2, 3], [0, 4, 7]], 3),
    ([[-280, -6300, 3024, 2835, 15120, -2250], [0, 0, 0, 24, 3, 24],
      [0, 0, 0, 0, 0, -3], [280, 6300, -3024, -5859, -15498, -774]], 3),
])
def test_bareiss_scales_rows_with_a_zero_below_the_first_pivot(rows, expected):
    # every row below a pivot is multiplied by it, a zero entry there too,
    # or the next step divides rows that were never multiplied
    assert bareiss_rank(rows) == expected
    assert rank_int_sparse([dict(enumerate(r)) for r in rows]) == expected
    assert rank(_sparse(rows)) == expected


def test_integer_row():
    # the primitive integer vector as the sparse row that ``rank`` takes
    def row(vec):
        return _sparse([integer_vector(vec)])[0]

    assert row((Fraction(1, 2), Fraction(-1, 3), 0)) == {0: 3, 1: -2}
    assert row((-2, 4, -6)) == {0: -1, 1: 2, 2: -3}
    assert row((0, Fraction(6, 5), Fraction(-9, 10))) == {1: 4, 2: -3}
    assert row((0, 0)) == {}
    assert row(()) == {}
    with pytest.raises(TypeError):
        row((1, 0.5))


def test_integer_vector():
    assert integer_vector((Fraction(1, 2), Fraction(-1, 3), 0)) == (3, -2, 0)
    assert integer_vector((-2, 4, -6)) == (-1, 2, -3)
    assert integer_vector((0, Fraction(6, 5), Fraction(-9, 10))) == (0, 4, -3)
    assert integer_vector((0, 0)) == (0, 0)
    assert integer_vector(()) == ()
    with pytest.raises(TypeError):
        integer_vector((1, 0.5))


def test_integer_kernel_small_cases():
    assert nullspace([[1, 2, 3], [2, 4, 6]], 3) == (1, [(-2, 1, 0), (-3, 0, 1)])
    assert nullspace([], 2) == (0, [(1, 0), (0, 1)])
    assert nullspace([[0, 0]], 2) == (0, [(1, 0), (0, 1)])
    assert nullspace([[2, 0], [0, 3]], 2) == (2, [])
    # the last pivot is -6; the vector is primitive, positive at the free column
    assert nullspace([[2, 4, 1], [1, -1, 0]], 3) == (2, [(-1, -1, 6)])


def test_a_kernel_vector_off_the_kernel_fails_re_verification(monkeypatch):
    # the row (1, 1) has kernel (-1, 1); a wrong echelon form (1, 2) gives
    # the vector (-2, 1), which does not annihilate it
    monkeypatch.setattr(linalg_module, "rref", lambda rows, width: ([[1, 2]], [0], 1))
    with pytest.raises(AssertionError, match="integer kernel vector does not annihilate the rows"):
        nullspace([[1, 1]], 2)


def test_rref_and_nullspace():
    assert rref([[1, 2, 3], [2, 4, 6]], 3) == ([[1, 2, 3]], [0], 1)
    # each pivot row holds the last pivot d in its own pivot column
    assert rref([[2, 4, 1], [1, -1, 0]], 3) == ([[-6, 0, -1], [0, -6, -1]], [0, 1], -6)
    # nullspace reads its rank and basis off the same elimination
    assert nullspace([[1, 2, 3], [2, 4, 6]], 3)[1] == [(-2, 1, 0), (-3, 0, 1)]
    assert nullspace([[2, 4, 1], [1, -1, 0]], 3)[0] == 2


_matrix_strategy = st.integers(1, 5).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
        min_size=1,
        max_size=5,
    )
)


@given(_matrix_strategy)
def test_rank_matches_gauss_oracle(rows):
    assert rank(_sparse(rows)) == gauss_rank(rows)


@given(_matrix_strategy)
def test_rank_equals_transpose_rank(rows):
    assert rank(_sparse(rows)) == rank(_sparse(zip(*rows)))


@given(_matrix_strategy, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rank(_sparse(rows)) == rank(_sparse(shuffled))


@given(_matrix_strategy, st.sampled_from([2, 3, 5]))
def test_rank_q_dominates_rank_mod_p(rows, p):
    q_rank = rank(_sparse(rows))
    p_rank = rank(_sparse(rows), prime_field(p))
    assert p_rank == rank_mod_p(rows, p)
    assert q_rank >= p_rank


#: (p, rows): integer matrices with entries in [-2p, 2p], multiples of p included.
_mod_p_matrix_strategy = st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, 6).flatmap(
            lambda nc: st.lists(
                st.lists(st.integers(-2 * p, 2 * p), min_size=nc, max_size=nc),
                min_size=1,
                max_size=6,
            )
        ),
    )
)


@given(_mod_p_matrix_strategy)
@example((3, [[3]]))
@example((5, [[10, 1], [5, 2]]))
def test_sparse_rank_mod_p_matches_oracle(case):
    # an entry that is a multiple of p is a zero of GF(p), never a pivot
    p, rows = case
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    assert rank_mod_p_sparse(sparse, p) == rank_mod_p(rows, p)


@given(_matrix_strategy)
def test_bareiss_agrees_and_stays_integral(rows):
    # bareiss_rank is the rank of nullspace, whose divisions are exact
    # and whose kernel vectors are integers annihilating every row
    assert bareiss_rank(rows) == gauss_rank(rows)
    _, basis = nullspace(rows, len(rows[0]))
    assert all(isinstance(x, int) for vec in basis for x in vec)


#: Integer matrices without a unit entry, so that the unit-pivot pass of
#: rank_int_sparse leaves all of them to the dense stage, bareiss_rank.
_unit_free_strategy = st.integers(1, 5).flatmap(
    lambda nc: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -9]), min_size=nc, max_size=nc),
        min_size=1,
        max_size=5,
    )
)


@given(_unit_free_strategy)
def test_unit_free_ranks_match_gauss_oracle(rows):
    expected = gauss_rank(rows)
    assert bareiss_rank(rows) == expected
    assert rank_int_sparse([{j: v for j, v in enumerate(r) if v} for r in rows]) == expected


@given(_matrix_strategy)
def test_rank_mod_large_prime_equals_rank_q(rows):
    # entries are tiny, so every nonzero minor is far below 2^31 - 1 and
    # the generic-prime equality is exact, not just almost-always
    assert rank(_sparse(rows)) == rank(_sparse(rows), prime_field(2**31 - 1))


_bit_matrix_strategy = st.integers(1, 12).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(0, 1), min_size=nc, max_size=nc),
        min_size=1,
        max_size=12,
    )
)


@given(_bit_matrix_strategy)
def test_gf2_column_kernel_matches_oracle(rows):
    # bit r of column c is rows[r][c]
    columns = [sum(row[c] << r for r, row in enumerate(rows)) for c in range(len(rows[0]))]
    assert rank_gf2_columns(columns) == rank_mod_p(rows, 2)


def test_gf2_column_kernel_small_cases():
    assert rank_gf2_columns([]) == 0
    assert rank_gf2_columns([0, 0]) == 0
    assert rank_gf2_columns([0b11, 0b110, 0b101]) == 2  # the triangle's edges
    assert rank_gf2_columns([1 << 200, (1 << 200) | 1, 1]) == 2


@st.composite
def _kernel_matrices(draw):
    """(rows, n): n = 1-6 columns; rows of small or up to 2^20 entries,
    some zero, some repeated, some combinations of earlier rows."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-2**20, 2**20), st.just(0))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 3)) if rows else 0
        if kind == 0:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif kind == 1:
            rows.append([0] * n)
        elif kind == 2:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), n


@given(_kernel_matrices())
def test_nullspace_matches_gauss_oracle(matrix):
    rows, n = matrix
    reduced, pivots, d = rref(rows, n)
    assert len(reduced) == len(pivots)
    assert all(row[c] == (d if k == t else 0)
               for k, row in enumerate(reduced) for t, c in enumerate(pivots))
    r, basis = nullspace(rows, n)
    assert r == (gauss_rank(rows) if rows else 0)
    assert len(basis) == n - r
    for vec in basis:
        assert len(vec) == n and all(isinstance(x, int) for x in vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    if basis:
        assert gauss_rank(basis) == len(basis)


@given(_kernel_matrices(), st.data())
def test_kernel_image_adds_the_stacked_rank(matrix, data):
    rows, n = matrix
    others = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=4))
    h, basis = nullspace(rows, n)
    extra, image = kernel_image(others, basis)
    stacked = gauss_rank(rows + others) if rows + others else 0
    assert extra == min(stacked - h, 2)
    if extra < 2:
        assert len(image) == len(others)

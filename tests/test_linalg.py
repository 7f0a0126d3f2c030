import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from dualgraphs.errors import FieldError, InputError
from dualgraphs.linalg import (
    QQ,
    FieldSpec,
    RationalMatrix,
    bareiss_rank,
    integer_kernel,
    integer_row,
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


def test_integer_row():
    assert integer_row((Fraction(1, 2), Fraction(-1, 3), 0)) == {0: 3, 1: -2}
    assert integer_row((-2, 4, -6)) == {0: -1, 1: 2, 2: -3}
    assert integer_row((0, Fraction(6, 5), Fraction(-9, 10))) == {1: 4, 2: -3}
    assert integer_row((0, 0)) == {}
    assert integer_row(()) == {}
    with pytest.raises(TypeError):
        integer_row((1, 0.5))


@given(st.lists(st.fractions(max_denominator=30), min_size=1, max_size=6),
       st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool))
def test_integer_row_is_the_primitive_positive_multiple(vec, scale):
    row = integer_row(vec)
    assert set(row) == {j for j, x in enumerate(vec) if x}
    if row:
        ratio = Fraction(next(iter(row.values()))) / vec[next(iter(row))]
        assert ratio > 0
        assert all(v == ratio * vec[j] for j, v in row.items())
        assert math.gcd(*row.values()) == 1
    assert integer_row([scale * x for x in vec]) == (
        row if scale > 0 else {j: -v for j, v in row.items()})


def test_rank_identity():
    eye = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(eye) == 3


def test_rank_dependent_rows():
    m = RationalMatrix([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_triangle_incidence():
    m = RationalMatrix(D1_TRIANGLE)
    assert minor_scan_rank(D1_TRIANGLE) == 2
    assert rank(m) == 2


def test_rank_empty_and_zero():
    assert rank(RationalMatrix([], cols=4)) == 0
    assert rank(RationalMatrix([[0] * 5, [0] * 5])) == 0


def test_rank_with_fractions():
    m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(m) == gauss_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])


def test_gf_p_rank_and_denominator_error():
    m = RationalMatrix([[2, 4], [1, 2]])
    assert rank(m, prime_field(2)) == 1
    assert rank(RationalMatrix([[2, 0], [0, 3]]), prime_field(2)) == 1
    # (3, 6) is zero mod 3, though its primitive multiple (1, 2) is not
    assert rank(RationalMatrix([[3, 6]]), prime_field(3)) == 0
    bad = RationalMatrix([[Fraction(1, 2)]])
    with pytest.raises(FieldError):
        rank(bad, prime_field(2))
    assert rank(bad, prime_field(3)) == 1


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
    assert rank(RationalMatrix(rows)) == expected


def test_integer_vector():
    assert integer_vector((Fraction(1, 2), Fraction(-1, 3), 0)) == (3, -2, 0)
    assert integer_vector((0, Fraction(6, 5), Fraction(-9, 10))) == (0, 4, -3)
    assert integer_vector((0, 0)) == (0, 0)
    assert integer_vector(()) == ()
    with pytest.raises(TypeError):
        integer_vector((1, 0.5))


def test_integer_kernel_small_cases():
    assert integer_kernel([[1, 2, 3], [2, 4, 6]], 3) == (1, [(-2, 1, 0), (-3, 0, 1)])
    assert integer_kernel([], 2) == (0, [(1, 0), (0, 1)])
    assert integer_kernel([[0, 0]], 2) == (0, [(1, 0), (0, 1)])
    assert integer_kernel([[2, 0], [0, 3]], 2) == (2, [])
    # the last pivot is -6; the vector is primitive, positive at the free column
    assert integer_kernel([[2, 4, 1], [1, -1, 0]], 3) == (2, [(-1, -1, 6)])


def test_rref_and_nullspace():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    reduced, pivots = rref(m)
    assert pivots == (0,)
    assert reduced.entries[0] == (1, 2, 3)
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * x for c, x in zip((1, 2, 3), vec)) == 0


_matrix_strategy = st.integers(1, 5).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
        min_size=1,
        max_size=5,
    )
)


@given(_matrix_strategy)
def test_rank_matches_gauss_oracle(rows):
    assert rank(RationalMatrix(rows)) == gauss_rank(rows)


@given(_matrix_strategy)
def test_rank_equals_transpose_rank(rows):
    assert rank(RationalMatrix(rows)) == rank(RationalMatrix(list(zip(*rows))))


@given(_matrix_strategy, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rank(RationalMatrix(rows)) == rank(RationalMatrix(shuffled))


@given(_matrix_strategy, st.sampled_from([2, 3, 5]))
def test_rank_q_dominates_rank_mod_p(rows, p):
    q_rank = rank(RationalMatrix(rows))
    p_rank = rank(RationalMatrix(rows), prime_field(p))
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
    # bareiss_rank is the rank of integer_kernel, whose divisions are exact
    # and whose kernel vectors are integers annihilating every row
    assert bareiss_rank(rows) == gauss_rank(rows)
    _, basis = integer_kernel(rows, len(rows[0]))
    assert all(isinstance(x, int) for vec in basis for x in vec)


#: Integer matrices without a unit entry, so that the unit-pivot pass of
#: rank_int_sparse leaves all of them to the dense stage, integer_kernel.
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
    assert rank(RationalMatrix(rows)) == rank(RationalMatrix(rows), prime_field(2**31 - 1))


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
def test_integer_kernel_matches_gauss_oracle(matrix):
    rows, n = matrix
    r, basis = integer_kernel(rows, n)
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
    h, basis = integer_kernel(rows, n)
    extra, image = kernel_image(others, basis)
    stacked = gauss_rank(rows + others) if rows + others else 0
    assert extra == min(stacked - h, 2)
    if extra < 2:
        assert len(image) == len(others)

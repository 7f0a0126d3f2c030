"""Exact linear algebra over Q and GF(p).

Ranks and nullities drive every height, homology, and incidence computation
in this package, so everything here is exact: arbitrary-precision integers,
no floats. Rationals appear only at the input boundary, where
``integer_vector`` turns each rational vector into its primitive integer
multiple; every matrix below has integer entries. ``Fraction`` loads with
those input-boundary parsers (``parse_rational``, ``integer_vector``), and
only for an entry that is not an int, so a run whose input is integral
never loads ``fractions`` or ``decimal``.

There is one dense elimination, ``rref``: fraction-free Gauss-Jordan over
Z. ``bareiss_rank`` is its pivot count, and ``nullspace`` reads the rank
and an integer kernel basis off it. Sparse integer rows are ranked through
``rank(rows, field)``, which sends Q to ``rank_int_sparse`` and GF(p) to
``rank_mod_p_sparse``. Both run one sparse elimination,
``_unit_elimination``: it pivots on units, shortest live row first, then
sparsest column. Over Z the units are +-1, so it removes the bulk of the
rank without coefficient growth, and ``rank_int_sparse`` ranks the small
dense remainder with ``bareiss_rank``. Over GF(p) every nonzero entry is a
unit, so nothing remains. GF(p) reduces the given entries mod p and never
makes a row primitive first: dividing by the gcd can change the rank mod p,
(p, 2p) becoming (1, 2). GF(2) keeps its own reduction, of columns packed
into ints by XOR (``rank_gf2_columns``): a column operation is then one int
XOR, not a dict update per entry, and ``homology`` computes every Betti
profile over Q first over GF(2).

The geometry modules ask rank questions about pairs: is the rank of A
stacked on B equal to rank A, rank A + 1, or more? That rank is
rank A + rank(B N) for any basis N of the kernel of A. So ``nullspace``
computes rank A and an integer N once per A, and ``kernel_image`` answers
each pair by a rank-one test on the small image B N, stopping at the first
image row not proportional to the first nonzero one. No stacked matrix is
ranked.

All functions are pure and deterministic: pivots are chosen by a fixed rule,
never randomly.
"""

from __future__ import annotations

import heapq
import re
from collections import namedtuple
from math import gcd, isqrt, lcm
from operator import mul

from .errors import FieldError, InputError

_PRIME_CAP = 2**31
#: What ``Fraction(str)`` accepts only from Python 3.11 ("1_000") or 3.12 ("3 / 4").
_NOT_PY310_RATIONAL = re.compile(r"_|\s/|/\s")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


class FieldSpec(namedtuple("FieldSpec", "p", defaults=(None,))):
    """Coefficient field: the rationals (p=None) or a prime field GF(p).
    Immutable; equal, with the same hash, only to a FieldSpec of the same p."""

    __slots__ = ()

    def __new__(cls, p: int | None = None):
        if p is not None:
            if p >= _PRIME_CAP:
                raise FieldError(f"prime {p} exceeds the 2^31 cap")
            if not _is_prime(p):
                raise FieldError(f"{p} is not prime")
        return super().__new__(cls, p)

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


#: The rational field, the default everywhere.
QQ = FieldSpec(None)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


def parse_field(text: str) -> FieldSpec:
    """Parse a CLI field spec: ``q`` or ``gf:p``."""
    t = text.strip().lower()
    if t == "q":
        return QQ
    if t.startswith("gf:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise FieldError(f"bad field spec {text!r}") from None
        return FieldSpec(p)
    raise FieldError(f"bad field spec {text!r} (expected 'q' or 'gf:p')")


def parse_rational(x, what: str) -> int | Fraction:
    """An exact rational from an int, a Fraction or a string such as "3/4".

    An int comes back unchanged, anything else as a Fraction. Strings follow
    Python 3.10's grammar on every Python (no "_", no space beside "/").
    Anything else -- a float, a bool, a malformed string, a zero
    denominator -- is an InputError naming ``what``, never a bare exception.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    from fractions import Fraction

    if isinstance(x, Fraction) or isinstance(x, str) and not _NOT_PY310_RATIONAL.search(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"{what} {x!r} is not an exact rational")


def parse_rational_vector(values, what: str) -> tuple[int | Fraction, ...]:
    """A list of exact rationals, each parsed by ``parse_rational``."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"expected a list of {what}s, got {values!r}")
    return tuple(parse_rational(x, what) for x in values)


def rational_to_json(x: Fraction):
    """An integer when ``x`` is one, else the string "p/q"."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def integer_vector(vec) -> tuple[int, ...]:
    """The primitive integer multiple of a rational vector, as a dense tuple.

    Scaled by the lcm of the denominators, then divided by the gcd, in
    integer arithmetic only; signs are kept, the zero vector stays zero and
    a primitive integer vector keeps its int objects. An entry that is not
    an int or a Fraction is a TypeError.
    """
    for x in vec:
        if not isinstance(x, int):
            from fractions import Fraction  # loaded for non-integral input only
            if not isinstance(x, Fraction):
                raise TypeError(f"entry {x!r} is not an exact rational")
    scale = lcm(*(x.denominator for x in vec))
    ints = [x.numerator if scale == 1 else x.numerator * (scale // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(ints) if g == 1 else tuple(v // g for v in ints)


def _unit_elimination(sparse_rows, p: int | None = None):
    """Eliminate unit pivots from sparse rows over Z (p=None) or GF(p).

    Shortest live row first (lazy heap), then its sparsest unit column, the
    lower index on ties. Over Z the units are +-1, their own inverses, which
    keeps the arithmetic integral with no coefficient growth; over GF(p) the
    entries are reduced mod p on the way in, zeros dropped, and every one is
    a unit.
    Returns the rank found and the live rows, none of which has a unit
    entry: none at all over GF(p).
    """
    rows: dict[int, dict[int, int]] = {}
    for i, r in enumerate(sparse_rows):
        r = {j: m for j, v in r.items() if (m := v % p)} if p else dict(r)
        if r:
            rows[i] = r
    col_rows: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)

    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    no_unit: set[int] = set()
    rank = 0
    while heap:
        length, pi = heapq.heappop(heap)
        row = rows.get(pi)
        if row is None or len(row) != length or pi in no_unit:
            continue
        units = row if p else [j for j, v in row.items() if v == 1 or v == -1]
        if not units:
            no_unit.add(pi)
            continue
        pj = min(units, key=lambda j: (len(col_rows[j]), j))
        pivot_row = rows.pop(pi)
        inv = pow(pivot_row[pj], -1, p) if p else pivot_row[pj]
        for j in pivot_row:
            col_rows[j].discard(pi)
        for i in sorted(col_rows.get(pj, ())):
            r = rows[i]
            f = r[pj] * inv
            for j, v in pivot_row.items():
                nv = r.get(j, 0) - f * v
                if p:
                    nv %= p
                if nv:
                    if j not in r:
                        col_rows.setdefault(j, set()).add(i)
                    r[j] = nv
                elif j in r:
                    del r[j]
                    col_rows[j].discard(i)
            if not r:
                del rows[i]
            else:
                no_unit.discard(i)
                heapq.heappush(heap, (len(r), i))
        col_rows.pop(pj, None)
        rank += 1
    return rank, rows


def rank_int_sparse(sparse_rows: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows.

    ``_unit_elimination`` removes the +-1 pivots; whatever ends up
    unit-free is ranked densely by ``bareiss_rank``. Any prefix of exact
    row eliminations preserves the rank, so the split is a pure
    optimization.
    """
    rank, rows = _unit_elimination(sparse_rows)
    if rows:
        live_cols = sorted({j for r in rows.values() for j in r})
        col_of = {j: k for k, j in enumerate(live_cols)}
        dense = []
        for i in sorted(rows):
            row = [0] * len(live_cols)
            for j, v in rows[i].items():
                row[col_of[j]] = v
            dense.append(row)
        rank += bareiss_rank(dense)
    return rank


def rref(rows, width: int):
    """Fraction-free reduced row echelon form of dense integer rows.

    Gauss-Jordan elimination after Bareiss (1968): pivot k, the first
    nonzero entry of column c among the rows not yet used, updates every
    other row to (p_k * row - row[c] * top) / p_{k-1}, with p_0 = 1. Every
    entry stays a minor of the input, so every division is exact. Returns
    the pivot rows, their pivot columns and the last pivot d: at the end
    each pivot row holds d in its own pivot column and zero in the others.
    """
    m = [list(r) for r in rows if any(r)]
    pivots = []
    prev = 1
    for c in range(width):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot_row = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        p = top[c]
        for i, row in enumerate(m):
            if i == rank:
                continue
            f = row[c]
            m[i] = [(x * p - f * t) // prev for x, t in zip(row, top)]
        pivots.append(c)
        prev = p
    return m[: len(pivots)], pivots, prev


def nullspace(rows, width: int):
    """Rank and an integer basis of the right kernel of dense integer rows.

    Read off ``rref``: one vector per free column f, with the last pivot d
    at f and minus the row entries at f in the pivot columns, divided by its
    gcd and signed so that the entry at f is positive. Each vector is
    re-verified to annihilate every input row.
    """
    reduced, pivots, d = rref(rows, width)
    pivot_set = set(pivots)
    sign = 1 if d > 0 else -1
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        vec = [0] * width
        vec[f] = d
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        g = gcd(*vec) * sign
        vec = tuple(x // g for x in vec)
        if any(sum(map(mul, r, vec)) for r in rows):
            raise AssertionError("integer kernel vector does not annihilate the rows")
        basis.append(vec)
    return len(pivots), basis


def bareiss_rank(rows) -> int:
    """Rank of dense integer rows: the number of pivots of ``rref``."""
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def kernel_image(rows, basis) -> tuple[int, list[list[int]]]:
    """Rank, capped at 2, of the image r -> (r.v for v in basis) of integer
    rows, with the image rows computed so far.

    Each image row is cross-multiplied against the first nonzero one, and
    the scan stops at the first row not proportional to it: rank 2 then
    means "2 or more". With ``basis`` an integer kernel basis of a matrix
    A of rank h, h plus this rank is the rank of A stacked on ``rows``.
    """
    image = []
    lead = None
    for r in rows:
        im = [sum(map(mul, r, v)) for v in basis]
        image.append(im)
        if lead is None:
            t = next((t for t, x in enumerate(im) if x), None)
            if t is not None:
                lead, lead_t = im, t
            continue
        a, b = lead[lead_t], im[lead_t]
        if any(x * a != y * b for x, y in zip(im, lead)):
            return 2, image
    return (0 if lead is None else 1), image


def rank_mod_p_sparse(sparse_rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of an integer matrix given as sparse rows: the rank
    ``_unit_elimination`` finds, since every nonzero entry mod p is a unit."""
    return _unit_elimination(sparse_rows, p)[0]


def rank(sparse_rows: list[dict[int, int]], field: FieldSpec = QQ) -> int:
    """Rank over ``field`` of an integer matrix given as sparse rows."""
    if field.is_rationals:
        return rank_int_sparse(sparse_rows)
    return rank_mod_p_sparse(sparse_rows, field.p)


def rank_gf2_columns(columns) -> int:
    """Rank over GF(2) of the matrix whose columns are the given ints, bit r
    of a column being its entry in row r.

    XOR column reduction: each new column is XORed with the kept column
    owning its highest set bit until it vanishes (dependent) or reaches a
    highest bit no kept column owns (a new pivot). The highest bit, not the
    lowest, because ``int.bit_length`` finds it without copying the column.
    """
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length()
            kept = pivots.get(top)
            if kept is None:
                pivots[top] = col
                break
            col ^= kept
    return len(pivots)

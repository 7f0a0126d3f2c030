"""Rational linear subspace arrangements.

A component is a list of linear forms (exact rational coefficient vectors);
its height is the rank of that coefficient matrix. A component with no
nonzero form is the zero ideal: the whole space, of height 0 (the
coordinate arrangement of a full simplex). Components are compared as row
spaces, so listing redundant or rescaled forms changes nothing; equality of
arrangements is still on the listed forms. Two components are adjacent in
the dual graph exactly when stacking their forms raises the rank by one
over the common height. A zero component next to other components makes
the arrangement mixed, so its dual graph is undefined. Containment between
components is not checked.

That stacked rank is how adjacency is defined, not how it is computed. Each
form is converted once, by the constructor, to its primitive integer row
(``linalg.integer_vector``), and each component gets one integer kernel
basis N_i by fraction-free Gauss-Jordan (``linalg.nullspace``), whose
rank is its height h. Stacking the rows A_j of another component gives
rank h + rank(A_j N_i), so a pair only asks whether the small image A_j N_i
is zero (the same row space), of rank one (a dual edge) or of more
(``linalg.kernel_image``).
Most pairs are neither, and a Pluecker screen skips them first: integer
G (n x (h+2)) and H (4 x (h+2)), drawn per height from a constant seed,
mark a component of height h >= 2 by the line H U of P^3 when U = ker(A G)
is a plane and H is injective on it (``plucker_mark``). An edge or a shared
row space means kernels meeting in codimension <= h + 1, so U_i and U_j
share a vector w != 0, H w != 0, and the lines meet: a nonzero Pluecker
pairing skips a pair exactly, whatever G and H are. Components with no
mark (h < 2, say) are tested against every earlier one of their height.
``components`` keeps the listed forms for equality and JSON output, ``rows``
the integer rows.

Everything is exact; the only randomness is the seeded generic hyperplane
section, which verifies its own postconditions and retries with the next
seed rather than arguing genericity symbolically.
"""

from __future__ import annotations

import json
import random
from operator import mul
from typing import NamedTuple

from .errors import HypothesisError, InputError, NotUnmixedError, SectionError
from .graphs import (
    Graph,
    HirschVerdict,
    diameter,
    hirsch_verdict,
    is_k_connected,
    kept,
    vertex_connectivity,
)
from .linalg import (
    integer_vector,
    kernel_image,
    nullspace,
    parse_rational_vector,
    rational_to_json,
)

_SECTION_COEFF_MAX = 2**16
_SECTION_MAX_ATTEMPTS = 32
#: p01, p02, p03, p23, p31, p12: lines p, q meet iff p . (q rotated by 3) = 0
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


def screen_matrices(n_vars: int, h: int):
    """The columns of G (n_vars x (h+2)) and rows of H (4 x (h+2)) that
    mark components of height h: small integers from a constant seed."""
    rng = random.Random(h)
    return [[[rng.randint(-9, 9) for _ in range(width)] for _ in range(count)]
            for width, count in ((n_vars, h + 2), (h + 2, 4))]


def plucker_mark(rows, g_cols, h_rows):
    """The Pluecker coordinates of the line H ker(rows G), or None unless
    that kernel is a plane on which H is injective."""
    ag = [[sum(map(mul, r, g)) for g in g_cols] for r in rows]
    _, basis = nullspace(ag, len(g_cols))
    if len(basis) != 2:
        return None
    x, y = ([sum(map(mul, row, u)) for row in h_rows] for u in basis)
    mark = tuple(x[a] * y[b] - x[b] * y[a] for a, b in _PLUCKER_PAIRS)
    return mark if any(mark) else None


class SubspaceArrangement:
    """A list of components, each a list of length-n rational linear forms.

    A component with no forms, or with only zero forms, is the zero ideal:
    the whole space, of height 0. Equality compares the listed forms, not
    their row spaces. Two components with the same row space are rejected;
    one containing another is not.

    The constructor finds, for every pair of components of equal height,
    whether their stacked rank exceeds that height by exactly one, and
    keeps those pairs: the dual edges. It does so by one integer kernel per
    component and a rank-one test per pair, skipped when the pair's
    Pluecker marks are lines of P^3 that do not meet: an edge or a shared
    row space makes their planes U_i, U_j meet by a dimension count, so the
    stacked rank is then h + 2 or more (module docstring). ``graphs.kept``
    keeps the dual graph, built from the edges on first use, in ``memo``.
    """

    def __init__(self, n_vars: int, components):
        if n_vars < 1:
            raise InputError("need at least one variable")
        self.n_vars = n_vars
        comps = []
        for forms in components:
            parsed = []
            for form in forms:
                row = parse_rational_vector(form, "coefficient")
                if len(row) != n_vars:
                    raise InputError(
                        f"form has {len(row)} coefficients, expected {n_vars}"
                    )
                parsed.append(row)
            comps.append(tuple(parsed))
        if not comps:
            raise InputError("arrangement needs at least one component")
        self.components = tuple(comps)
        self.rows = rows = tuple(tuple(integer_vector(form) for form in c) for c in comps)
        heights = []
        same = []
        self._adjacent_pairs = set()
        screens, marks = {}, []
        # one kernel at a time, tested against the rows of every earlier
        # component of its height whose line meets its own: the stacked
        # rank exceeds the height by the rank of the image
        for j, comp_rows in enumerate(rows):
            h, kernel = nullspace(comp_rows, n_vars)
            if h >= 2 and h not in screens:
                screens[h] = screen_matrices(n_vars, h)
            mark = plucker_mark(comp_rows, *screens[h]) if h >= 2 else None
            dual = mark and mark[3:] + mark[:3]
            for i in range(j):
                if heights[i] != h or dual and marks[i] and sum(map(mul, marks[i], dual)):
                    continue
                extra, _ = kernel_image(rows[i], kernel)
                if extra == 0:
                    same.append((i, j))
                elif extra == 1:
                    self._adjacent_pairs.add((i, j))
            heights.append(h)
            marks.append(mark)
        if same:
            i, j = min(same)
            raise InputError(f"components {i + 1} and {j + 1} have the same row space")
        self._heights = tuple(heights)
        self.memo: dict = {}

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def heights(self) -> tuple[int, ...]:
        return self._heights

    def is_unmixed(self) -> bool:
        return len(set(self._heights)) == 1

    def common_height(self) -> int:
        if not self.is_unmixed():
            raise NotUnmixedError(f"component heights differ: {self._heights}")
        return self._heights[0]

    def multiplicity(self) -> int:
        """For subspace arrangements the multiplicity is the component count."""
        return self.n_components

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceArrangement)
            and self.n_vars == other.n_vars
            and self.components == other.components
        )

    def __repr__(self):
        return f"SubspaceArrangement({self.n_components} components in {self.n_vars} variables)"


def dual_edge_indices(arr: SubspaceArrangement) -> set[tuple[int, int]]:
    """Pairs (i, j) whose stacked coefficient rank is exactly height + 1."""
    arr.common_height()  # raises on a mixed arrangement
    return set(arr._adjacent_pairs)


@kept
def dual_graph(arr: SubspaceArrangement) -> Graph:
    """Dual graph on components 1..s, edges where the pairwise sum has
    height exactly one more than the common height."""
    labels = [str(i + 1) for i in range(arr.n_components)]
    edges = [(labels[i], labels[j]) for i, j in sorted(dual_edge_indices(arr))]
    return Graph(labels, edges)


def from_complex(cx: SimplicialComplex) -> SubspaceArrangement:
    """Coordinate arrangement of a pure complex: one component per facet,
    generated by the coordinates outside the facet.

    A facet on every vertex (the full simplex) has no coordinate outside
    it, so its component is the empty form tuple (): the zero ideal, of
    height 0, whose dual graph is a single vertex.

    Postcondition (checked): its dual graph coincides with the dual graph
    of the complex under the facet order.
    """
    if not cx.is_pure:
        raise HypothesisError("coordinate arrangements need a pure complex")
    n = cx.n_vertices
    components = []
    for f in cx.facets:
        forms = []
        for i in range(n):
            if not f >> i & 1:
                row = [0] * n
                row[i] = 1
                forms.append(tuple(row))
        components.append(tuple(forms))
    arr = SubspaceArrangement(n, components)
    from .homology import dual_adjacency  # here: analyze-arrangement never loads homology
    if dual_edge_indices(arr) != dual_adjacency(cx):
        raise AssertionError("coordinate arrangement dual graph mismatch")
    return arr


def generic_hyperplane_section(arr: SubspaceArrangement, seed: int = 0) -> SubspaceArrangement:
    """Substitute the last variable by a random combination of the others.

    Requires an unmixed arrangement of quotient dimension >= 3, which is
    what guarantees the dual graph survives the cut. Coefficients are drawn
    from a seeded PRNG as integers in [1, 2^16]; the stated postconditions
    (component count, all heights, dual graph) are verified and a failed
    draw retries with the incremented seed.

    The integer rows ``arr.rows`` are sliced, in integer arithmetic, and
    become the forms of the section: each sliced row is a nonzero multiple
    of the sliced form, so the components keep their row spaces, and the
    section its heights and dual edges.
    """
    c = arr.common_height()
    n = arr.n_vars
    if any(h >= n for h in arr.heights):
        raise HypothesisError("a component already has full height")
    if n - c < 3:
        raise HypothesisError(
            f"quotient dimension {n - c} < 3: the section need not preserve the dual graph"
        )
    want_edges = dual_edge_indices(arr)
    last_error = "no attempts made"
    for attempt in range(_SECTION_MAX_ATTEMPTS):
        rng = random.Random(seed + attempt)
        coeffs = [rng.randint(1, _SECTION_COEFF_MAX) for _ in range(n - 1)]
        rows = tuple(
            tuple(tuple(a + row[-1] * k for a, k in zip(row[:-1], coeffs)) for row in comp_rows)
            for comp_rows in arr.rows
        )
        try:
            sliced = SubspaceArrangement(n - 1, rows)
        except InputError:
            last_error = "components collapsed to a common row space"
            continue
        if sliced.heights != arr.heights:
            last_error = f"component heights changed: {arr.heights} -> {sliced.heights}"
            continue
        if dual_edge_indices(sliced) != want_edges:
            last_error = "dual graph changed under the section"
            continue
        return sliced
    raise SectionError(
        f"no generic section found in {_SECTION_MAX_ATTEMPTS} attempts (seed {seed}): {last_error}"
    )


def derksen_sidman_bound(arr: SubspaceArrangement, subset) -> int:
    """Regularity bound |B| - 1 for the sub-arrangement on component
    indices B (0-based)."""
    indices = sorted(set(subset))
    if not indices:
        raise InputError("subset of components must be nonempty")
    for i in indices:
        if not 0 <= i < arr.n_components:
            raise InputError(f"component index {i} out of range")
    return len(indices) - 1


class ConnectivityCheck(NamedTuple):
    """Outcome of an r-connectivity check on the dual graph."""

    required: int
    passed: bool
    cut: tuple | None
    note: str


def check_regularity_connectivity(arr: SubspaceArrangement, r: int) -> ConnectivityCheck:
    """Verify that the dual graph is r-connected.

    For arrangements with a Gorenstein quotient of regularity r this must
    hold; r is supplied by the caller as an external certificate, since
    Gorensteinness of non-coordinate arrangements is not computed here.
    Regularity 0 means a polynomial ring (the zero ideal), and a dual graph,
    never empty, is always 0-connected.
    """
    if r < 0:
        raise InputError("connectivity level r must be >= 0")
    if not arr.is_unmixed():
        raise NotUnmixedError("connectivity check requires an unmixed arrangement")
    g = dual_graph(arr)
    if g.n < r + 1:
        return ConnectivityCheck(
            r, False, None, f"only {g.n} components, need at least {r + 1}"
        )
    if is_k_connected(g, r):
        return ConnectivityCheck(r, True, None, f"dual graph is {r}-connected")
    kappa, cut = vertex_connectivity(g)
    return ConnectivityCheck(r, False, cut, f"vertex connectivity is {kappa} < {r}")


class ArrangementReport(NamedTuple):
    """Everything the analyzer derives from one arrangement."""

    n_vars: int
    heights: tuple[int, ...]
    unmixed: bool
    common_height: int | None
    multiplicity: int
    dual_graph: Graph | None
    diameter: float | int | None
    verdict: HirschVerdict | None
    derksen_sidman: int
    regularity_check: ConnectivityCheck | None


def analyze_arrangement(
    arr: SubspaceArrangement,
    regularity_certificate: int | None = None,
    ds_subset=None,
) -> ArrangementReport:
    unmixed = arr.is_unmixed()
    g = diam = verdict = check = None
    common = None
    if unmixed:
        common = arr.common_height()
        g = dual_graph(arr)
        diam = diameter(g)
        verdict = hirsch_verdict(diam, common)
        if regularity_certificate is not None:
            check = check_regularity_connectivity(arr, regularity_certificate)
    ds = derksen_sidman_bound(
        arr, range(arr.n_components) if ds_subset is None else ds_subset
    )
    return ArrangementReport(
        n_vars=arr.n_vars,
        heights=arr.heights,
        unmixed=unmixed,
        common_height=common,
        multiplicity=arr.multiplicity(),
        dual_graph=g,
        diameter=diam,
        verdict=verdict,
        derksen_sidman=ds,
        regularity_check=check,
    )


# -- JSON format ------------------------------------------------------------------


def arrangement_to_json_dict(arr: SubspaceArrangement) -> dict:
    return {
        "variables": arr.n_vars,
        "components": [
            [[rational_to_json(c) for c in form] for form in comp]
            for comp in arr.components
        ],
    }


def arrangement_from_json_dict(data: dict) -> SubspaceArrangement:
    try:
        n = data["variables"]
        comps = data["components"]
    except (KeyError, TypeError):
        raise InputError(
            'arrangement JSON needs "variables" and "components"'
        ) from None
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError('"variables" must be an integer')
    if not isinstance(comps, list) or not all(isinstance(c, list) for c in comps):
        raise InputError('"components" must be a list of lists of forms')
    return SubspaceArrangement(n, comps)


def read_arrangement_file(path) -> SubspaceArrangement:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad arrangement JSON: {exc}") from None
    return arrangement_from_json_dict(data)


def write_arrangement_file(arr: SubspaceArrangement, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arrangement_to_json_dict(arr), fh, indent=2)
        fh.write("\n")

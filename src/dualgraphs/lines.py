"""Arrangements of projective lines over Q.

A line in P^N is stored as two spanning points (homogeneous rational
coordinate vectors). Two distinct lines meet exactly when their four
spanning points have rank 3, and the meeting point is the one-dimensional
intersection of the two row spans; this works in any ambient dimension.

That rank is the definition; it is computed per line, not per pair. Each
spanning point is converted once, when its line is built, to its primitive
integer row, and the line gets one integer basis N of the kernel of its two
rows (``linalg.nullspace``), which also checks that they span a line.
The four points of a pair have rank 2 + rank of the image (a, b) of the
other line's rows p', q' under N (``linalg.kernel_image``): image zero, the
lines coincide; rank one, they meet; rank two, they are skew. A rank-one
image gives the meeting point directly: b_k p' - a_k q' for the first k
with (a_k, b_k) nonzero lies in the row span of both lines.

Intersection points are canonicalized to primitive integer vectors with a
positive leading coordinate, which turns triple-point detection into set
membership. An arrangement finds all of them once, when it is built: its
constructor runs ``intersects`` on every pair, and the same pass records
the first point found on three lines.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import HypothesisError, InputError
from .graphs import CanonicalGraphCheck, Graph, check_canonical_graph, kept
from .linalg import integer_vector, kernel_image, nullspace, parse_rational_vector
from .linalg import rational_to_json


class ProjectiveLine(namedtuple("ProjectiveLine", "ambient_dim p q rows kernel")):
    """A line in P^N spanned by two independent rational points ``p`` and ``q``.

    ``rows`` holds them as primitive integer rows and ``kernel`` an integer
    basis of the N - 1 dimensional kernel of those rows. Both follow from
    the points, so equality and the hash read ``ambient_dim``, ``p``, ``q``.
    """

    __slots__ = ()

    def __new__(cls, ambient_dim: int, p, q):
        if ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        for vec in (p, q):
            if len(vec) != ambient_dim + 1:
                raise InputError(f"point needs {ambient_dim + 1} homogeneous coordinates")
        rows = (integer_vector(p), integer_vector(q))
        span, kernel = nullspace(rows, ambient_dim + 1)
        if span != 2:
            raise InputError("the two points do not span a line")
        return super().__new__(cls, ambient_dim, p, q, rows, kernel)

    def __getnewargs__(self):
        return self[:3]

    def __eq__(self, other):
        return type(other) is type(self) and self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    @classmethod
    def through(cls, ambient_dim: int, p, q) -> "ProjectiveLine":
        return cls(
            ambient_dim,
            parse_rational_vector(p, "coordinate"),
            parse_rational_vector(q, "coordinate"),
        )


def canonical_point(vec) -> tuple[int, ...]:
    """Primitive integer representative with positive leading coordinate."""
    row = integer_vector(vec)
    lead = next((x for x in row if x), 0)
    if not lead:
        raise InputError("the zero vector is not a projective point")
    return tuple(-x for x in row) if lead < 0 else row


# No caller in the package; perfbench/trace_child.py wraps it by name.
def same_line(l1: ProjectiveLine, l2: ProjectiveLine) -> bool:
    return kernel_image(l2.rows, l1.kernel)[0] == 0


def intersects(l1: ProjectiveLine, l2: ProjectiveLine):
    """Canonical intersection point of two distinct lines, or None.

    The lines meet exactly when the stacked 4 x (N+1) matrix of spanning
    points has rank 3, that is when l1's kernel maps l2's spanning rows
    p, q to an image (a, b) of rank one. The point is then b_k p - a_k q
    for the first k with (a_k, b_k) nonzero, since b_k a - a_k b is zero.
    """
    if l1.ambient_dim != l2.ambient_dim:
        raise InputError("lines live in different ambient spaces")
    r, image = kernel_image(l2.rows, l1.kernel)
    if r == 0:
        raise InputError("identical lines have no single intersection point")
    if r == 2:
        return None
    a, b = image
    k = next(k for k in range(len(a)) if a[k] or b[k])
    p, q = l2.rows
    return canonical_point(tuple(b[k] * x - a[k] * y for x, y in zip(p, q)))


class LineArrangement:
    """Finitely many pairwise distinct lines in a common P^N (N >= 2).

    The constructor runs ``intersects`` once per pair, which both rejects
    coinciding lines and finds the meeting points, and keeps those points;
    ``triple_point`` is the first of them, in pair order, found again at
    another pair, so lying on three lines (None when there is none).
    The arrangement never changes, so its dual graph is computed on first
    use and kept in ``memo`` (``graphs.kept``).
    """

    def __init__(self, ambient_dim: int, lines):
        if ambient_dim < 2:
            raise InputError("line arrangements live in P^N with N >= 2")
        self.ambient_dim = ambient_dim
        self.lines = tuple(lines)
        for ln in self.lines:
            if not isinstance(ln, ProjectiveLine):
                raise InputError("arrangement entries must be ProjectiveLine")
            if ln.ambient_dim != ambient_dim:
                raise InputError("all lines must share the ambient dimension")
        if not self.lines:
            raise InputError("arrangement needs at least one line")
        self._intersections = {}
        self.triple_point = None
        points = set()
        for i, l1 in enumerate(self.lines):
            for j in range(i + 1, len(self.lines)):
                try:
                    point = intersects(l1, self.lines[j])
                except InputError:  # the ambient dimensions agree: the lines coincide
                    raise InputError(f"lines {i + 1} and {j + 1} coincide") from None
                if point is None:
                    continue
                if self.triple_point is None and point in points:
                    self.triple_point = point
                points.add(point)
                self._intersections[(i, j)] = point
        self.memo: dict = {}

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def intersection_pairs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """All meeting index pairs with their canonical points."""
        return self._intersections


def no_triple_points(arr: LineArrangement):
    """(True, None) when no point lies on three lines, else (False, point)
    for the point the arrangement recorded when it was built."""
    return arr.triple_point is None, arr.triple_point


@kept
def dual_graph(arr: LineArrangement) -> Graph:
    """Graph on lines 1..s; edges join lines that meet."""
    labels = [str(i + 1) for i in range(arr.n_lines)]
    edges = [(labels[i], labels[j]) for i, j in sorted(arr.intersection_pairs())]
    return Graph(labels, edges)


def genus(arr: LineArrangement) -> int:
    """t - s + 1 for s lines meeting pairwise in t points; only valid with
    no triple points."""
    ok, pt = no_triple_points(arr)
    if not ok:
        raise HypothesisError(f"genus formula needs no triple points; found {pt}")
    t = len(arr.intersection_pairs())
    return t - arr.n_lines + 1


#: The verdict of an arrangement whose dual graph is not 3-edge-connected
VERDICT_NOT_EMBEDDABLE = "not_canonically_embeddable"


def canonical_hirsch_verdict(arr: LineArrangement) -> CanonicalGraphCheck | None:
    """The bound diam <= height = genus - 2 for a canonically embedded
    triple-point-free arrangement, checked on its dual graph.

    For s lines meeting in t points the genus is t - s + 1, so the height
    is t - s - 1: the bound ``check_canonical_graph`` verifies, with the
    trivalent case (2t = 3s) also checked to be 3-vertex-connected. A
    canonically embeddable arrangement has a 3-edge-connected dual graph,
    so None (not canonically embeddable) is returned when it is not.
    """
    if arr.n_lines < 4:
        raise HypothesisError("need at least 4 lines")
    ok, pt = no_triple_points(arr)
    if not ok:
        raise HypothesisError(f"three lines meet at {pt}")
    graph = dual_graph(arr)
    try:
        return check_canonical_graph(graph)
    except HypothesisError:  # with s >= 4 vertices, only an edge connectivity below 3
        return None


# -- JSON format ------------------------------------------------------------------


def lines_to_json_dict(arr: LineArrangement) -> dict:
    return {
        "ambient_dim": arr.ambient_dim,
        "lines": [
            {"points": [[rational_to_json(x) for x in ln.p], [rational_to_json(x) for x in ln.q]]}
            for ln in arr.lines
        ],
    }


def lines_from_json_dict(data: dict) -> LineArrangement:
    try:
        n = data["ambient_dim"]
        entries = data["lines"]
    except (KeyError, TypeError):
        raise InputError('lines JSON needs "ambient_dim" and "lines"') from None
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError('"ambient_dim" must be an integer')
    if not isinstance(entries, list):
        raise InputError('"lines" must be a list')
    lines = []
    for k, entry in enumerate(entries, start=1):
        try:
            p, q = entry["points"]
        except (KeyError, TypeError, ValueError):
            raise InputError(f'line {k} needs a two-element "points" list') from None
        lines.append(ProjectiveLine.through(n, p, q))
    return LineArrangement(n, lines)


def read_lines_file(path) -> LineArrangement:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad lines JSON: {exc}") from None
    return lines_from_json_dict(data)

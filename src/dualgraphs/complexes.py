"""Simplicial complexes stored as inclusion-maximal facets.

Vertices carry opaque labels (any hashable; files yield strings) in
first-appearance order; every facet is a bitmask over that order. Python
integers are arbitrarily wide, so there is no fixed vertex cap -- the
practical limits are the enumeration caps documented on the operations
that are exponential in the vertex count.

The void complex (no faces at all) and the empty complex ({emptyset} only)
are distinct values. `from_facets` rejects both unless told otherwise;
derived complexes (links of facets, restrictions to the empty set) may
legitimately be the empty complex.

All complexes are immutable and hashable; operations never mutate their
arguments, so values can be shared freely across threads. The one mutable
part, ``memo``, only caches results derived from the value: two threads
filling it at once may compute a result twice, never a different one.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .errors import (
    COMPLEX_FAMILIES,
    InputError,
    NonPureComplexError,
    NotAFaceError,
    ParseError,
    UnknownFamilyError,
    VoidComplexError,
)

#: f-vector: (f_-1, f_0, ..., f_d) with f_-1 = 1 for the empty face.
FVector = tuple[int, ...]

#: h-vector: (h_0, ..., h_{d+1}) of the quotient by the nonface ideal.
HVector = tuple[int, ...]


def _maximal_masks(masks) -> list[int]:
    """Inclusion-maximal members, sorted ascending as integers."""
    distinct = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
    kept: list[int] = []
    for m in distinct:
        if not any(m & k == m for k in kept):
            kept.append(m)
    kept.sort()
    return kept


class SimplicialComplex:
    """A finite simplicial complex given by its facets."""

    def __init__(self, vertices: tuple, facets: tuple[int, ...]):
        # Internal constructor: `facets` must already be inclusion-maximal
        # masks over `vertices`, every vertex covered. Use from_facets().
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise InputError("duplicate vertex labels")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_facets(cls, facet_list, allow_void: bool = False) -> "SimplicialComplex":
        """Build the complex generated by the given vertex sets.

        Inclusion-maximal members of the input survive as facets; duplicates
        and absorbed sets are dropped. Vertex order is first appearance.
        An empty input denotes the void complex and is rejected unless
        ``allow_void`` is set.
        """
        facet_seqs = [tuple(f) for f in facet_list]
        if not facet_seqs:
            if allow_void:
                return cls((), ())
            raise VoidComplexError(
                "no facets given (pass allow_void to accept the void complex)"
            )
        vertices: list = []
        index: dict = {}
        masks = []
        for f in facet_seqs:
            if len(f) == 0:
                raise InputError("facets must be nonempty vertex sets")
            m = 0
            for v in f:
                if isinstance(v, str) and (v == "" or v.split() != [v]):
                    raise InputError(f"bad vertex token {v!r}")
                if v not in index:
                    index[v] = len(vertices)
                    vertices.append(v)
                m |= 1 << index[v]
            masks.append(m)
        return cls(tuple(vertices), tuple(_maximal_masks(masks)))

    @classmethod
    def _from_parent(cls, parent: "SimplicialComplex", masks, maximal: bool) -> "SimplicialComplex":
        """Subcomplex-style constructor: reindex onto the support."""
        mask_list = list(masks) if maximal else _maximal_masks(masks)
        support = 0
        for m in mask_list:
            support |= m
        if support == (1 << len(parent.vertices)) - 1:
            return cls(parent.vertices, tuple(sorted(mask_list)))
        old_bits = [i for i in range(len(parent.vertices)) if support >> i & 1]
        new_of_old = {b: k for k, b in enumerate(old_bits)}
        vertices = tuple(parent.vertices[b] for b in old_bits)
        remapped = []
        for m in mask_list:
            nm = 0
            while m:
                low = (m & -m).bit_length() - 1
                nm |= 1 << new_of_old[low]
                m &= m - 1
            remapped.append(nm)
        return cls(vertices, tuple(sorted(remapped)))

    # -- basic structure ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty_complex(self) -> bool:
        return self.facets == (0,)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def dimension(self) -> int:
        """Largest face dimension; -1 for the empty complex."""
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return max(m.bit_count() for m in self.facets) - 1

    @cached_property
    def is_pure(self) -> bool:
        if self.is_void:
            raise VoidComplexError("the void complex has no facets")
        sizes = {m.bit_count() for m in self.facets}
        return len(sizes) == 1

    def require_pure(self, what: str):
        if not self.is_pure:
            raise NonPureComplexError(f"{what} requires a pure complex")

    def mask_of(self, face) -> int:
        m = 0
        for v in face:
            try:
                m |= 1 << self._index[v]
            except KeyError:
                raise NotAFaceError(f"unknown vertex {v!r}") from None
        return m

    def labels_of(self, mask: int) -> tuple:
        return tuple(
            v for i, v in enumerate(self.vertices) if mask >> i & 1
        )

    def facet_labels(self) -> tuple[tuple, ...]:
        return tuple(self.labels_of(m) for m in self.facets)

    def has_face_mask(self, mask: int) -> bool:
        return any(f & mask == mask for f in self.facets)

    @cached_property
    def ridge_neighbors(self) -> tuple[int, ...]:
        """The facet adjacency as masks: bit j of ``ridge_neighbors[i]`` is
        set when facets i and j differ in exactly one vertex each, so on a
        pure complex it is the dual graph's ``Graph.adj``. Such a pair
        shares exactly one ridge: facets are grouped by ridge."""
        sharing: dict[int, list[int]] = {}
        for j, f in enumerate(self.facets):
            for v in range(f.bit_length()):
                if f >> v & 1:
                    sharing.setdefault(f ^ 1 << v, []).append(j)
        adj = [0] * len(self.facets)
        for js in sharing.values():
            group = sum(1 << j for j in js)
            for j in js:
                adj[j] |= group ^ 1 << j
        return tuple(adj)

    @cached_property
    def faces(self) -> frozenset[int]:
        """All faces as masks, the empty face included."""
        if self.is_void:
            return frozenset()
        out = {0}
        for f in self.facets:
            s = f
            while s:  # every nonempty submask of f, by the (s - 1) & f walk
                out.add(s)
                s = (s - 1) & f
        return frozenset(out)

    @cached_property
    def faces_by_card(self) -> tuple[tuple[int, ...], ...]:
        """Face masks grouped by vertex count, each group ascending. This
        fixes the chain-complex bases."""
        if self.is_void:
            raise VoidComplexError("the void complex has no faces")
        groups: list[list[int]] = [[] for _ in range(self.dimension + 2)]
        for m in sorted(self.faces):
            groups[m.bit_count()].append(m)
        return tuple(map(tuple, groups))

    @cached_property
    def memo(self) -> dict:
        """Results derived from this complex. ``graphs.kept`` writes the keys
        ``"dual_graph"``, ``"greedy_shelling"``, ``("_reisner_sweep", field)``
        and ``"first_pair_without_nonrevisiting_path"``. Two keep their own:
        ``core`` writes ``"core"``, as this module imports no other of the
        package, so that ``generate`` stays light, and the benchmark's tracer
        wraps ``core`` as a method; ``homology._kept_profile`` writes
        ``("link", field)`` and ``("restriction", field)``, tables of Betti
        profiles by mask, so that a Q profile can reuse the subcomplex built
        for its GF(2) profile. All die with this instance."""
        return {}

    @cached_property
    def cone_mask(self) -> int:
        """Vertices contained in every facet."""
        if self.is_void:
            raise VoidComplexError("the void complex has no facets")
        m = self.facets[0]
        for f in self.facets[1:]:
            m &= f
        return m

    # -- enumerative invariants ---------------------------------------------

    @cached_property
    def f_vector(self) -> FVector:
        """(f_-1, f_0, ..., f_d): the sizes of the ``faces_by_card`` groups."""
        return tuple(map(len, self.faces_by_card))

    @cached_property
    def h_vector(self) -> HVector:
        """(h_0, ..., h_{d+1}) from the standard f-to-h transform."""
        self.require_pure("the h-vector")
        f = self.f_vector
        d1 = self.dimension + 1
        h = tuple(
            sum((-1) ** (j - i) * comb(d1 - i, j - i) * f[i] for i in range(j + 1))
            for j in range(d1 + 1)
        )
        if sum(h) != self.n_facets:
            raise AssertionError("h-vector does not sum to the facet count")
        return h

    def multiplicity(self) -> int:
        """h(1); for nonface ideals this equals the facet count."""
        return sum(self.h_vector)

    def height(self) -> int:
        """n - d - 1: the common height of the facet complement ideals."""
        self.require_pure("the height")
        return self.n_vertices - self.dimension - 1

    @cached_property
    def minimal_nonfaces(self) -> tuple[tuple, ...]:
        """Inclusion-minimal non-faces (generator supports of the nonface ideal).

        Each is a nonface F|v (F a face, v above its vertices) whose smaller
        subsets are faces, found by lookups in the face set: so at most d+2
        vertices. Ordered by size, then lexicographically by vertex position.
        """
        if self.is_void:
            raise VoidComplexError("the void complex has no nonfaces")
        faces = self.faces
        out = []
        for face in faces:
            for v in range(face.bit_length(), self.n_vertices):
                m = face | 1 << v
                if m in faces:
                    continue
                pos = [b for b in range(v) if face >> b & 1]
                if all(m ^ 1 << b in faces for b in pos):
                    out.append((*pos, v))
        out.sort(key=lambda pos: (len(pos), pos))
        return tuple(tuple(self.vertices[b] for b in pos) for pos in out)

    @cached_property
    def is_flag(self) -> bool:
        """True when every minimal nonface has at most two vertices."""
        return all(len(nf) <= 2 for nf in self.minimal_nonfaces)

    def max_generator_degree(self) -> int:
        """Largest minimal-nonface size (0 when the complex is a simplex)."""
        nfs = self.minimal_nonfaces
        return max((len(nf) for nf in nfs), default=0)

    # -- face operations -----------------------------------------------------

    def link(self, face) -> "SimplicialComplex":
        """Faces disjoint from `face` whose union with it is a face."""
        m = self.mask_of(face)
        if not self.has_face_mask(m):
            raise NotAFaceError(f"{tuple(face)!r} is not a face")
        return self.link_mask(m)

    def link_mask(self, mask: int) -> "SimplicialComplex":
        masks = [f & ~mask for f in self.facets if f & mask == mask]
        if not masks:
            raise NotAFaceError("mask is not a face")
        return SimplicialComplex._from_parent(self, masks, maximal=True)

    def restrict(self, subset) -> "SimplicialComplex":
        """Induced subcomplex on a subset of the vertices."""
        m = self.mask_of(subset)
        return self.restrict_mask(m)

    def restrict_mask(self, mask: int) -> "SimplicialComplex":
        masks = {f & mask for f in self.facets}
        return SimplicialComplex._from_parent(self, masks, maximal=False)

    def core(self) -> "SimplicialComplex":
        """Restriction to the vertices that are not in every facet; the
        complex itself when no vertex is in every facet. Built once and kept
        in ``memo``, so what other layers keep on the core outlives a call."""
        if self.cone_mask == 0:
            return self
        if "core" not in self.memo:
            full = (1 << self.n_vertices) - 1
            self.memo["core"] = self.restrict_mask(full & ~self.cone_mask)
        return self.memo["core"]

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Join: facets are unions of a facet from each side.

        Vertex label sets must be disjoint; on collision both sides are
        relabelled with ``.1`` / ``.2`` suffixes.

        The join is the combinatorial face of taking products of simple
        polytopes on the dual side: the polar of a product is the free sum,
        whose boundary is the join of the boundaries. Consequently the dual
        graph of a join is the Cartesian product of the dual graphs, so
        diameters add, and heights add as well -- which is what lets small
        non-Hirsch gaps be amplified to arbitrarily large ones.
        """
        if self.is_void or other.is_void:
            raise VoidComplexError("cannot join with the void complex")
        left, right = self, other
        if set(left.vertices) & set(right.vertices):
            left = left.relabel({v: f"{v}.1" for v in left.vertices})
            right = right.relabel({v: f"{v}.2" for v in right.vertices})
        shift = left.n_vertices
        vertices = left.vertices + right.vertices
        facets = sorted(
            f | (g << shift) for f in left.facets for g in right.facets
        )
        return SimplicialComplex(vertices, tuple(facets))

    def relabel(self, mapping: dict) -> "SimplicialComplex":
        vertices = tuple(mapping[v] for v in self.vertices)
        return SimplicialComplex(vertices, self.facets)

    # -- value semantics ------------------------------------------------------

    @cached_property
    def _content(self) -> frozenset:
        """Facets as label sets: the vertex-order-free value of the complex."""
        return frozenset(frozenset(f) for f in self.facet_labels())

    def __eq__(self, other):
        """Complexes are equal when they have the same facet label sets;
        the stored vertex order is presentation, not content."""
        return isinstance(other, SimplicialComplex) and self._content == other._content

    def __hash__(self):
        return hash(self._content)

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        shown = [",".join(str(v) for v in t) for t in self.facet_labels()[:6]]
        more = "..." if self.n_facets > 6 else ""
        return f"SimplicialComplex({{{' '.join(shown)}{more}}})"


# -- generators ----------------------------------------------------------------


def crosspolytope_boundary(r: int) -> SimplicialComplex:
    """Boundary of the r-dimensional crosspolytope on vertices 1..2r.

    Vertices 2i-1 and 2i are the antipodal pair in coordinate i; facets pick
    one vertex from each pair, giving 2^r facets of dimension r-1.
    """
    if r < 1:
        raise InputError("crosspolytope parameter must be >= 1")
    vertices = tuple(str(i) for i in range(1, 2 * r + 1))
    facets = []
    for choice in range(1 << r):
        m = 0
        for i in range(r):
            m |= 1 << (2 * i + (choice >> i & 1))
        facets.append(m)
    return SimplicialComplex(vertices, tuple(sorted(facets)))


def simplex_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all d-subsets of 1..d+1."""
    if d < 1:
        raise InputError("simplex parameter must be >= 1")
    vertices = tuple(str(i) for i in range(1, d + 2))
    full = (1 << (d + 1)) - 1
    facets = tuple(sorted(full & ~(1 << i) for i in range(d + 1)))
    return SimplicialComplex(vertices, facets)


def full_simplex(d: int) -> SimplicialComplex:
    """The solid d-simplex (a single facet on d+1 vertices)."""
    if d < 0:
        raise InputError("simplex dimension must be >= 0")
    vertices = tuple(str(i) for i in range(1, d + 2))
    return SimplicialComplex(vertices, ((1 << (d + 1)) - 1,))


def tadpole_complex() -> SimplicialComplex:
    """The 1-dimensional complex 12, 13, 23, 14, 45: a triangle with a tail.

    Its quotient ring is Cohen-Macaulay of regularity 2, yet the dual graph
    has a leaf -- the standard witness that Cohen-Macaulay alone does not
    buy 2-connectivity.
    """
    return SimplicialComplex.from_facets(
        [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("4", "5")]
    )


def generate_complex(family: str, parameter: int | None = None) -> SimplicialComplex:
    """Named complex families for the CLI and the test corpus."""
    if family == "tadpole":
        return tadpole_complex()
    build = {"crosspolytope": (crosspolytope_boundary, "r"), "simplex": (simplex_boundary, "d")}
    if family not in build:
        raise UnknownFamilyError(
            f"unknown complex family {family!r} (choose from {', '.join(COMPLEX_FAMILIES)})"
        )
    make, letter = build[family]
    if parameter is None:
        raise InputError(f"{family} needs a parameter {letter} >= 1")
    return make(parameter)


# -- facet file format ----------------------------------------------------------


def parse_facet_text(text: str, allow_void: bool = False) -> SimplicialComplex:
    """Parse the facet file format: one facet per line, whitespace-separated
    vertex tokens, lines starting with ``#`` ignored."""
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(set(tokens)) != len(tokens):
            raise ParseError("repeated vertex in facet", line=lineno)
        facets.append(tokens)
    try:
        return SimplicialComplex.from_facets(facets, allow_void=allow_void)
    except VoidComplexError:
        raise ParseError(
            "no facets in input (pass --allow-void to accept the void complex)"
        ) from None


def format_facet_text(cx: SimplicialComplex) -> str:
    """Canonical facet file: tokens and lines in a content-determined order,
    so writing is idempotent and reading back gives an equal complex."""
    token_key = lambda t: (len(t), t)
    lines = []
    for facet in cx.facet_labels():
        tokens = sorted((str(v) for v in facet), key=token_key)
        for t in tokens:
            if not t or t.split() != [t] or t.startswith("#"):
                raise InputError(f"label {t!r} cannot be written as a facet token")
        lines.append(tokens)
    lines.sort(key=lambda toks: (len(toks), [token_key(t) for t in toks]))
    return "\n".join(" ".join(toks) for toks in lines) + ("\n" if lines else "")


def read_facet_file(path, allow_void: bool = False) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_facet_text(fh.read(), allow_void=allow_void)


def write_facet_file(cx: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_facet_text(cx))

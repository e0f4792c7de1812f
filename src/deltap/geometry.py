"""Exact rational polytope kernel.

Convex hull facets, vertex enumeration, deterministic triangulation,
volumes, lattice points, survival curves by the residue form of the
B-spline identity, and exact mean powers of affine functionals over
weighted simplices, every order from one recurrence.  Coordinates are
Fractions, facet normals are primitive integer vectors, determinants
come from the integer kernel in ``linalg``, and floats never enter.

Facets are read off one double-description kernel, ``extreme_rays``,
which needs no special case for degenerate position; ``MAX_HULL_RAYS``
refuses inputs whose rays outgrow it.  Rays carry their tight-row
masks, so one hull, from points or from halfspaces, gives the
facet-vertex incidence: a point is a vertex, or a halfspace a facet,
when the facets or vertices on it meet in it alone.  The triangulation,
normal cones and dilates are read off that incidence.

All objects are immutable after construction; sharing them across
threads is safe.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import ceil, comb, factorial, floor, prod
from operator import and_, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, InvariantViolation, StructureError
from .linalg import det, primitive_integer_vector, rank, rref
from .numeric import as_fraction
from .piecewise import PiecewisePolynomial, Polynomial

Point = tuple[Fraction, ...]

# Most rays one double description may hold after a step: a step makes
# up to (rays held)^3 bit-mask tests, so the step that crosses it raises.
MAX_HULL_RAYS = 1_000
# Most integer points of a bounding box one lattice-point walk may test:
# the walk visits every one, so a larger box is refused before the walk.
MAX_LATTICE_BOX = 100_000


class Halfspace(NamedTuple):
    """The set {x : <normal, x> >= offset}: the hulls return primitive
    integer normals, and ``from_halfspaces`` takes any rational normal."""

    normal: tuple[int, ...]
    offset: Fraction


def make_point(coords: Iterable) -> Point:
    return tuple(as_fraction(c) for c in coords)


def dot(a: Sequence, b: Sequence):
    """Exact inner product; an int for two integer vectors."""
    return sum(map(mul, a, b))


def affine_dimension(points: Sequence[Point]) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return rank(diffs) if diffs else 0


def extreme_rays(rows: Sequence[Sequence], width: int) -> tuple[tuple[tuple, int], ...]:
    """Primitive integer extreme rays of {y : <r, y> >= 0 for r in rows},
    each with the mask of its tight rows, bit i for rows[i] (a zero row
    is tight on all); () when the rows do not span ``width`` dimensions,
    as the cone then holds a line; a row of another length raises.  Double
    description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon
    1996): the columns of the inverse of ``width`` independent rows are
    the first rays; each further row keeps the rays on its nonnegative
    side and joins every adjacent pair across it.  Two rays are adjacent
    when no third ray is tight on every row where both are.
    """
    if any(len(r) != width for r in rows):
        raise StructureError(f"a hull in width {width} got a row of another length")
    rows = [primitive_integer_vector(r) if any(r) else (0,) * width for r in rows]
    basis = rref(list(zip(*rows)))[1]
    if len(basis) < width:
        return ()
    inverse = rref([[*rows[i], *(int(i == j) for j in basis)] for i in basis])[0]
    rays = [(primitive_integer_vector(col), sum(1 << j for j in basis if j != i))
            for col, i in zip(zip(*(row[width:] for row in inverse)), basis)]
    for i, row in enumerate(rows):
        if i in basis:
            continue
        signed = [(dot(row, y), y, z) for y, z in rays]
        masks = [z for _, z in rays]
        negative = [(s, y, z) for s, y, z in signed if s < 0]
        rays = [(y, z | 1 << i if s == 0 else z) for s, y, z in signed if s >= 0]
        for sp, yp, zp in (t for t in signed if t[0] > 0):
            for sn, yn, zn in negative:
                z = zp & zn
                if (z.bit_count() >= width - 2
                        and sum(m & z == z for m in masks) == 2):
                    rays.append((primitive_integer_vector(
                        [sp * b - sn * a for a, b in zip(yp, yn)]), z | 1 << i))
        if len(rays) > MAX_HULL_RAYS:
            raise DomainError(f"a hull of {len(rows)} rows in width {width} "
                              f"holds {len(rays)} rays, over the budget of "
                              f"{MAX_HULL_RAYS}")
    return tuple(rays)


def _normal_form(normal: Sequence, offset) -> Halfspace:
    """{x : <normal, x> >= offset} scaled to a primitive integer normal; a
    zero normal holds everywhere or nowhere, and keeps offset -1 or 1."""
    if not any(normal):
        return Halfspace(tuple(normal), Fraction(1 if offset > 0 else -1))
    prim = primitive_integer_vector(normal)
    k = next(i for i, a in enumerate(prim) if a)
    return Halfspace(prim, Fraction(offset * prim[k], normal[k]))


def _alone(masks: Sequence[int], width: int) -> list[int]:
    """The bits i < width where the masks holding bit i meet in bit i alone."""
    return [i for i in range(width)
            if reduce(and_, (m for m in masks if m >> i & 1), -1) == 1 << i]


def facet_enumeration(points: Sequence[Point], dim: int) -> tuple[tuple, tuple]:
    """Sorted facets of the full-dimensional hull of ``points`` and their
    masks of tight points, bit i for points[i]: the extreme rays (a, b) of
    {(a, b) : <a, p> - b >= 0 for every p}, tight on some p, so a != 0."""
    return tuple(zip(*sorted(
        (_normal_form(a, b), mask)
        for (*a, b), mask in extreme_rays([(*p, -1) for p in points], dim + 1))))


def vertex_enumeration(halfspaces: Sequence[Halfspace],
                       dim: int) -> tuple[tuple[Point, ...], tuple[int, ...], bool]:
    """Sorted vertices of an intersection of halfspaces, the extreme rays
    (x, t) with t > 0 of {(x, t) : <n, x> - o t >= 0, t >= 0} read as x / t
    (none when it is empty or holds a line), their masks of tight
    halfspaces, bit i for halfspaces[i], and whether no ray has t = 0."""
    rows = [(*hs.normal, -hs.offset) for hs in halfspaces] + [(0,) * dim + (1,)]
    rays = extreme_rays(rows, dim + 1)
    verts, masks = tuple(zip(*sorted((tuple(Fraction(x, t) for x in y), mask)
                                     for (*y, t), mask in rays if t > 0))) or ((), ())
    return verts, masks, all(y[-1] for y, _ in rays)


def simplex_volume(pts: Sequence[Point]) -> Fraction:
    """Euclidean volume of the simplex with the given dim+1 vertices."""
    d = len(pts) - 1
    base = pts[0]
    rows = [[pts[i][k] - base[k] for k in range(d)] for i in range(1, d + 1)]
    return abs(det(rows)) / factorial(d)


def triangulate_vertices(vertices: Sequence[Point],
                         incidence: Sequence[int]) -> tuple[tuple[Point, ...], ...]:
    """Pulling triangulation of a full-dimensional polytope from its
    vertices and, per facet, the mask of the vertices on it, bit i for
    vertices[i] (De Loera, Rambau and Santos, *Triangulations*, 2010, ch. 4).

    A face is the mask of the vertices on it; the facets of a face F are
    the inclusion-maximal proper nonempty masks F & G over the facets G.
    Each face is coned from its first vertex (the lexicographically
    smallest for sorted vertices) over its facets that miss that vertex,
    so every simplex is full-dimensional and no hull is computed.  A face
    F reads its cuts F & G = F & (E & G) off its parent E's distinct cuts.
    """
    def pull(face: int, parent_cuts) -> list[tuple[int, ...]]:
        apex = (face & -face).bit_length() - 1
        cuts = dict.fromkeys(face & g for g in parent_cuts)
        proper = [c for c in cuts if c and c != face]
        sides = [c for c in proper if not any(c & d == c != d for d in proper)]
        if not sides:  # a vertex is its own simplex
            return [(apex,)]
        return [(apex,) + s for side in sides if not side >> apex & 1
                for s in pull(side, cuts)]

    return tuple(tuple(vertices[i] for i in s)
                 for s in pull((1 << len(vertices)) - 1, incidence))


def survival_curve(simplices: Sequence[tuple[Fraction, Sequence[Fraction]]],
                   dim: int) -> PiecewisePolynomial:
    """Exact piecewise polynomial x -> sum_S w_S vol{g >= x on S}/vol(S)
    over (w_S, vertex values) pairs, the values nonnegative and not all
    zero; w_S = vol(S) gives x -> vol{g >= x}.  A simplex adds w_S times
    [a_0..a_n](. - x)_+^n (Curry and Schoenberg 1966), whose residue form
    is sum_a sum_{r < m_a} beta_{a,r} C(n, r) (a - x)_+^(n-r) over its
    values a of multiplicity m_a, beta_{a,r} the Taylor coefficient of
    order m_a - 1 - r at a of prod_{b != a} (z - b)^-m_b.  Simplices with
    equal sorted values add their weights, each (a, r) sums one rational
    over them, and each piece is a suffix sum from the top value down.
    """
    if any(len(vals) != dim + 1 for _, vals in simplices):
        raise StructureError(f"each simplex needs {dim + 1} vertex values")
    values_all = sorted({v for _, vals in simplices for v in vals})
    if not values_all:
        raise InvariantViolation("survival_curve needs at least one simplex")
    if values_all[0] < 0:
        raise InvariantViolation("survival_curve needs nonnegative values")
    if values_all[-1] == 0:
        raise InvariantViolation("survival_curve needs a positive maximum")
    merged, terms = Counter(), Counter()  # terms: (a, r) -> sum_S w_S beta
    for w, vals in simplices:
        merged[tuple(sorted(vals))] += w
    for key, w in merged.items():
        mult = Counter(key)
        for a in filter(None, mult):  # (0 - x)_+ is 0 on every piece
            m = mult[a]
            series = [Fraction(w)] + [0] * (m - 1)
            for b, k in mult.items() - {(a, m)}:  # times (a - b + h)^-k, in h
                f = [Fraction((-1) ** j * comb(k + j - 1, j), (a - b) ** (k + j))
                     for j in range(m)]
                series = [sum(series[i] * f[j - i] for i in range(j + 1))
                          for j in range(m)]
            for r in range(m):
                terms[a, r] += series[m - 1 - r]
    breaks = sorted({Fraction(0), *values_all})
    coeffs, pieces = [0] * (dim + 1), []
    for a in reversed(breaks[1:]):
        for r in range(dim + 1):  # C(n, r) (a - x)^(n-r), expanded in x
            c = terms[a, r] * comb(dim, r)
            for j in range(dim - r + 1):
                coeffs[j] += c * comb(dim - r, j) * a ** (dim - r - j) * (-1) ** j
        pieces.append(Polynomial(coeffs))
    return PiecewisePolynomial(breaks, pieces[::-1], continuous=True)


def mean_affine_powers(weighted: Iterable[tuple[Fraction, Sequence]], n: int,
                       orders: Iterable[int]) -> dict[int, Fraction]:
    """{p: sum_S w_S h_p(values on S) / (C(n+p, p) sum_S w_S)} for p in
    ``orders``, over (w_S, vertex values) pairs: the mean of g**p for affine
    g over n-simplices with w_S proportional to vol(S), as integral_S g**p =
    vol(S) h_p / C(n+p, p) (Baldoni, Berline, De Loera, Köppe & Vergne,
    *Math. Comp.* 80, 2011), h_p the complete homogeneous symmetric
    polynomial.  One recurrence per simplex, h_k(a_0..a_j) =
    h_k(a_0..a_j-1) + a_j h_k-1(a_0..a_j), gives h_1..h_P for P the largest
    order; int inputs keep the sums in ints, with one Fraction per order."""
    totals = dict.fromkeys(orders, 0)
    top = max(totals, default=0)
    weight = 0
    for w, values in weighted:
        h = [1] + [0] * top
        for a in filter(None, values):  # a zero value adds no term
            for k in range(1, top + 1):
                h[k] += a * h[k - 1]
        for p in totals:
            totals[p] += w * h[p]
        weight += w
    return {p: Fraction(total, comb(n + p, p) * weight)
            for p, total in totals.items()}


def lattice_points_in(halfspaces: Sequence[Halfspace],
                      vertices: Sequence[Point]) -> tuple[tuple[int, ...], ...]:
    """Integer points of a bounded polytope given by facets + vertices,
    whose bounding box holds at most ``MAX_LATTICE_BOX`` integer points.
    An integer point meets <normal, x> >= offset exactly when the integer
    <normal, x> reaches ceil(offset), so the walk stays in ints."""
    if not vertices:
        return ()
    dim = len(vertices[0])
    lows = [min(v[i] for v in vertices) for i in range(dim)]
    highs = [max(v[i] for v in vertices) for i in range(dim)]
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(lows, highs)]
    box = prod(len(r) for r in ranges)
    if box > MAX_LATTICE_BOX:
        raise DomainError(f"a bounding box of {box} integer points is over "
                          f"the budget of {MAX_LATTICE_BOX}")
    tests = [(hs.normal, ceil(hs.offset)) for hs in halfspaces]
    return tuple(pt for pt in itertools.product(*ranges)
                 if all(dot(n, pt) >= c for n, c in tests))


class RationalPolytope:
    """A full-dimensional convex polytope with rational vertices."""

    __slots__ = ("dim", "vertices", "incidence", "_facets", "_triangulation", "_volume")

    def __init__(self, vertices: Sequence[Sequence]):
        pts = sorted({make_point(v) for v in vertices})
        if not pts:
            raise InvariantViolation("polytope has no vertices")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise StructureError("vertices have mixed dimensions")
        adim = affine_dimension(pts)
        if adim < dim:
            raise InvariantViolation(
                f"polytope is {adim}-dimensional in ambient dimension {dim}")
        facets, masks = facet_enumeration(pts, dim)
        keep = _alone(masks, len(pts))
        self._set(tuple(pts[i] for i in keep), facets,
                  tuple(sum(1 << k for k, i in enumerate(keep) if m >> i & 1)
                        for m in masks))

    def _set(self, vertices, facets, incidence) -> "RationalPolytope":
        """Take sorted vertices, sorted facets and their incidence on trust."""
        self.dim, self.vertices, self._facets, self.incidence = (
            len(vertices[0]), vertices, facets, incidence)
        self._triangulation = self._volume = None
        return self

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[Halfspace],
                        dim: int) -> "RationalPolytope | None":
        """The intersection of ``halfspaces`` in dimension ``dim``, or None
        when it is empty, unbounded or not full-dimensional, from one vertex
        enumeration of their normal forms: a halfspace is a facet when the
        vertices on it meet in it alone, which keeps none of a flat one."""
        hss = list(dict.fromkeys(_normal_form(make_point(n), as_fraction(o))
                                 for n, o in halfspaces))
        verts, masks, bounded = vertex_enumeration(hss, dim)
        keep = sorted((hss[i], i) for i in _alone(masks, len(hss)))
        if not (bounded and keep):
            return None
        return cls.__new__(cls)._set(verts, tuple(hs for hs, _ in keep), tuple(
            sum(1 << k for k, m in enumerate(masks) if m >> i & 1) for _, i in keep))

    def halfspaces(self) -> tuple[Halfspace, ...]:
        return self._facets

    def triangulation(self) -> tuple[tuple[Point, ...], ...]:
        if self._triangulation is None:
            self._triangulation = triangulate_vertices(self.vertices, self.incidence)
        return self._triangulation

    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = sum((simplex_volume(s) for s in self.triangulation()),
                               Fraction(0))
        return self._volume

    def contains(self, point: Sequence) -> bool:
        p = make_point(point)
        return all(dot(hs.normal, p) >= hs.offset for hs in self.halfspaces())

    def intersect(self, extra: Sequence[Halfspace]) -> "RationalPolytope | None":
        """Intersection with further halfspaces, or None when it is empty
        or not full-dimensional."""
        return RationalPolytope.from_halfspaces((*self._facets, *extra), self.dim)

    def dilate(self, c) -> "RationalPolytope":
        """c P; c > 0 keeps the vertex and facet orders, so no hull runs."""
        c = as_fraction(c)
        if c <= 0:
            raise InvariantViolation("dilation factor must be positive")
        return RationalPolytope.__new__(RationalPolytope)._set(
            tuple(tuple(c * x for x in v) for v in self.vertices),
            tuple(Halfspace(hs.normal, c * hs.offset) for hs in self._facets),
            self.incidence)

    def lattice_points(self) -> tuple[tuple[int, ...], ...]:
        return lattice_points_in(self.halfspaces(), self.vertices)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalPolytope":
        try:
            dim = data["dim"]
            verts = data["vertices"]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"malformed polytope JSON: {exc}") from None
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise StructureError(f"polytope dim must be an integer >= 1: {dim!r}")
        if not (isinstance(verts, list) and verts
                and all(isinstance(v, list) for v in verts)):
            raise StructureError("polytope vertices must be a non-empty list of lists")
        pts = [make_point(v) for v in verts]
        if any(len(p) != dim for p in pts):
            raise StructureError("vertex arity disagrees with dim")
        if affine_dimension(pts) < dim:
            raise StructureError(f"the vertices do not span dimension {dim}: "
                                 "a polytope file must be full-dimensional")
        return cls(pts)

    def __eq__(self, other):
        return (isinstance(other, RationalPolytope)
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.vertices)

"""Exact rational polytope kernel.

Convex hull facets, vertex enumeration, deterministic triangulation,
volumes, lattice points, survival curves by the B-spline divided-
difference identity, and exact mean powers of affine functionals over
weighted simplices.  Coordinates are Fractions, facet normals are
primitive integer vectors, determinants come from the integer kernel in
``linalg``, and floats never enter.

Facets are read off one double-description kernel, ``extreme_rays``,
which needs no special case for degenerate position; ``MAX_HULL_RAYS``
refuses inputs whose rays outgrow it.  A polytope's facets are
enumerated once; its vertices and its pulling triangulation are read
off the facet incidence.

All objects are immutable after construction; sharing them across
threads is safe.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, comb, factorial, floor, gcd, prod
from operator import mul
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
    """The set {x : <normal, x> >= offset}; ``normal`` is primitive integer."""

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


def extreme_rays(rows: Sequence[Sequence], width: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer extreme rays of {y : <r, y> >= 0 for r in rows};
    () when the rows do not span ``width`` dimensions, as the cone then
    holds a line.  Double description (Motzkin, Raiffa, Thompson & Thrall
    1953; Fukuda & Prodon 1996): the columns of the inverse of ``width``
    independent rows are the first rays; each further row keeps the rays
    on its nonnegative side and joins every adjacent pair across it.  Two
    rays are adjacent when no third ray is tight on every row where both
    are tight; a ray's tight rows are a bit mask.
    """
    rows = [primitive_integer_vector(r) for r in rows if any(r)]
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
    return tuple(y for y, _ in rays)


def facet_enumeration(points: Sequence[Point], dim: int) -> tuple[Halfspace, ...]:
    """Facet halfspaces of the full-dimensional hull of ``points``: the
    extreme rays (a, b) of {(a, b) : <a, p> - b >= 0 for every p}.  Each
    is tight on some p, so a != 0."""
    facets = []
    for *a, b in extreme_rays([(*p, -1) for p in points], dim + 1):
        g = gcd(*a)
        facets.append(Halfspace(tuple(x // g for x in a), Fraction(b, g)))
    return tuple(sorted(facets))


def vertex_enumeration(halfspaces: Sequence[Halfspace], dim: int) -> tuple[Point, ...]:
    """Vertices of an intersection of halfspaces: the extreme rays (x, t)
    with t > 0 of {(x, t) : <n, x> - o t >= 0, t >= 0}, read as x / t.
    Empty when the intersection is empty or holds a line."""
    rows = [(*hs.normal, -hs.offset) for hs in halfspaces] + [(0,) * dim + (1,)]
    return tuple(sorted(tuple(Fraction(x, t) for x in y)
                        for *y, t in extreme_rays(rows, dim + 1) if t > 0))


def simplex_volume(pts: Sequence[Point]) -> Fraction:
    """Euclidean volume of the simplex with the given dim+1 vertices."""
    d = len(pts) - 1
    base = pts[0]
    rows = [[pts[i][k] - base[k] for k in range(d)] for i in range(1, d + 1)]
    return abs(det(rows)) / factorial(d)


def triangulate_vertices(vertices: Sequence[Point],
                         facets: Sequence[Halfspace]) -> tuple[tuple[Point, ...], ...]:
    """Pulling triangulation of a full-dimensional polytope from its
    vertices and facets (De Loera, Rambau and Santos, *Triangulations*,
    2010, ch. 4).

    A face is the set of vertices on it; the facets of a face F are the
    inclusion-maximal proper nonempty sets F & G over the polytope's
    facets G.  Each face is coned from its lexicographically smallest
    vertex over its facets that miss that vertex, so every simplex is
    full-dimensional and no hull is computed below the polytope's own.
    """
    pts = sorted(set(vertices))
    incidence = [frozenset(i for i, p in enumerate(pts)
                           if dot(hs.normal, p) == hs.offset) for hs in facets]

    def pull(face: frozenset) -> list[tuple[int, ...]]:
        apex = min(face)
        cuts = dict.fromkeys(face & g for g in incidence)
        proper = [c for c in cuts if c and c != face]
        sides = [c for c in proper if not any(c < d for d in proper)]
        if not sides:  # a vertex is its own simplex
            return [(apex,)]
        return [(apex,) + s for side in sides if apex not in side
                for s in pull(side)]

    return tuple(tuple(pts[i] for i in s)
                 for s in pull(frozenset(range(len(pts)))))


def _truncated_power_difference(knots: Sequence[Fraction], hi: Fraction,
                                n: int) -> Polynomial:
    """[knots](. - t)_+^n as a polynomial in t on the interval ending at
    ``hi``, which holds no knot; knots are sorted."""
    def taylor(a: Fraction, k: int) -> Polynomial:
        # d^k/dx^k (x - t)_+^n / k! at x = a: C(n, k) (a - t)^(n-k) for a
        # knot at or above hi, zero for one at or below the interval.
        m = n - k
        return Polynomial(comb(n, k) * comb(m, j) * a ** (m - j) * (-1) ** j
                          for j in range(m + 1) if a >= hi)

    row = [taylor(a, 0) for a in knots]
    for k in range(1, n + 1):
        row = [taylor(knots[i], k) if knots[i] == knots[i + k]
               else (row[i + 1] - row[i]).scale(
                   Fraction(1) / (knots[i + k] - knots[i]))
               for i in range(n + 1 - k)]
    return row[0]


def survival_curve(simplices: Sequence[tuple[Fraction, Sequence[Fraction]]],
                   dim: int) -> PiecewisePolynomial:
    """Exact piecewise polynomial x -> sum_S w_S vol{g >= x on S}/vol(S).

    ``simplices`` holds (w_S, vertex values of the affine functional)
    pairs; values must be nonnegative and not all zero, and w_S = vol(S)
    gives x -> vol{g >= x}.  A simplex S with vertex values a_0..a_n
    contributes the B-spline identity vol{g >= t} = vol(S) [a_0, ...,
    a_n](. - t)_+^n (Curry and Schoenberg 1966), a divided difference in
    the first argument, a polynomial in t between consecutive values.
    """
    if any(len(vals) != dim + 1 for _, vals in simplices):
        raise StructureError(f"each simplex needs {dim + 1} vertex values")
    values_all = sorted({v for _, vals in simplices for v in vals})
    if not values_all or values_all[0] < 0:
        raise InvariantViolation("survival_curve needs nonnegative values")
    if values_all[-1] == 0:
        raise InvariantViolation("survival_curve needs a positive maximum")
    breaks = sorted({Fraction(0), *values_all})
    weighted = [(w, sorted(vals)) for w, vals in simplices]
    pieces = [sum((_truncated_power_difference(knots, hi, dim).scale(w)
                   for w, knots in weighted), Polynomial(()))
              for hi in breaks[1:]]
    return PiecewisePolynomial(breaks, pieces, continuous=True)


def complete_homogeneous(values: Sequence, p: int):
    """Complete homogeneous symmetric polynomial h_p of the values; an
    int for int values."""
    h = [1] + [0] * p
    for a in values:
        for k in range(1, p + 1):
            h[k] += a * h[k - 1]
    return h[p]


def mean_affine_power(weighted: Iterable[tuple[Fraction, Sequence]], n: int,
                      p: int) -> Fraction:
    """``n! p!/(n+p)! * sum_S w_S h_p(values on S) / sum_S w_S`` over
    (w_S, vertex values) pairs: the mean of g**p for affine g over
    n-simplices with w_S proportional to vol(S), as integral_S g**p =
    vol(S) n! p!/(n+p)! h_p (Baldoni, Berline, De Loera, Köppe & Vergne,
    *Math. Comp.* 80, 2011), repeated values included.  Int inputs keep
    both sums in ints."""
    total = weight = 0
    for w, values in weighted:
        total += w * complete_homogeneous(values, p)
        weight += w
    return Fraction(factorial(n) * factorial(p) * total,
                    factorial(n + p) * weight)


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

    __slots__ = ("dim", "vertices", "_facets", "_triangulation", "_volume")

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
        self.dim = dim
        self._facets = facet_enumeration(pts, dim)
        # A point is a vertex unless another is tight on all its facets.
        tight = [sum(1 << i for i, hs in enumerate(self._facets)
                     if dot(hs.normal, p) == hs.offset) for p in pts]
        self.vertices = tuple(p for p, z in zip(pts, tight)
                              if sum(y & z == z for y in tight) == 1)
        self._triangulation = None
        self._volume = None

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[Halfspace],
                        dim: int) -> "RationalPolytope | None":
        """The bounded intersection of ``halfspaces`` in dimension ``dim``,
        or None when it is empty or not full-dimensional."""
        hss = tuple(Halfspace(tuple(int(x) for x in hs[0]), as_fraction(hs[1]))
                    for hs in halfspaces)
        verts = vertex_enumeration(hss, dim)
        return cls(verts) if affine_dimension(verts) == dim else None

    def halfspaces(self) -> tuple[Halfspace, ...]:
        return self._facets

    def triangulation(self) -> tuple[tuple[Point, ...], ...]:
        if self._triangulation is None:
            self._triangulation = triangulate_vertices(self.vertices,
                                                       self._facets)
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
        hss = self.halfspaces() + tuple(extra)
        return RationalPolytope.from_halfspaces(hss, self.dim)

    def dilate(self, c) -> "RationalPolytope":
        c = as_fraction(c)
        if c <= 0:
            raise InvariantViolation("dilation factor must be positive")
        return RationalPolytope([tuple(c * x for x in v) for v in self.vertices])

    def lattice_points(self) -> tuple[tuple[int, ...], ...]:
        return lattice_points_in(self.halfspaces(), self.vertices)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim,
                "vertices": [[str(x) for x in v] for v in self.vertices]}

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

    def __repr__(self):
        return (f"RationalPolytope(dim={self.dim}, "
                f"{len(self.vertices)} vertices)")

"""Tests for exact polytope geometry: facet/vertex enumeration,
triangulation, slice volumes, survival curves, and affine-power moments.

Facet and vertex enumeration are checked against brute-force walks over
every ``dim``-subset of the points or halfspaces, kept here as oracles.

The affine-power integrator is checked against an independent oracle:
the divided-difference identity

    integral_S g^p = vol(S) * n! * p! * sum_i (a_i)^{n+p} / prod_{j!=i} (a_i - a_j)
                     / (n+p)!   (distinct vertex values only)

evaluated from scratch here, with no shared code path.
"""

import itertools
import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltap import geometry
from deltap.errors import DomainError, InvariantViolation, StructureError
from deltap.geometry import (
    Halfspace,
    RationalPolytope,
    complete_homogeneous,
    extreme_rays,
    facet_enumeration,
    lattice_points_in,
    simplex_volume,
    survival_curve,
    triangulate_vertices,
    vertex_enumeration,
)
from deltap.linalg import nullspace, primitive_integer_vector, solve_square
from deltap.okounkov import ConcaveTransform
from deltap.piecewise import lagrange_interpolate
from oracles import integrate_affine_power_over_simplex, slice_volume

F = Fraction

SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
TRIANGLE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
HEXAGON = [(F(x), F(y)) for x, y in
           ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))]


def _moment_oracle(vol, values, p):
    """Divided-difference form; requires pairwise distinct vertex values."""
    n = len(values) - 1
    total = F(0)
    for i, ai in enumerate(values):
        denom = F(1)
        for j, aj in enumerate(values):
            if j != i:
                denom *= ai - aj
        total += ai ** (n + p) / denom
    return vol * F(factorial(n) * factorial(p), factorial(n + p)) * total


# ---------------------------------------------------------------------------
# enumeration and volume


def test_facets_of_unit_square():
    facets = facet_enumeration(SQUARE, 2)
    assert len(facets) == 4
    # each vertex saturates exactly two facets
    for v in SQUARE:
        tight = [h for h in facets
                 if sum(a * b for a, b in zip(h.normal, v)) == h.offset]
        assert len(tight) == 2


def test_vertex_enumeration_roundtrip():
    facets = facet_enumeration(SQUARE, 2)
    verts = vertex_enumeration(facets, 2)
    assert sorted(verts) == sorted(SQUARE)


def test_hull_enumerations_refuse_subsets_over_budget(monkeypatch):
    # The budget is on the rays a double description holds after a step.
    hexagon = facet_enumeration(HEXAGON, 2)
    monkeypatch.setattr(geometry, "MAX_HULL_RAYS", 4)
    facets = facet_enumeration(SQUARE, 2)  # 4 rays
    assert vertex_enumeration(facets, 2) == tuple(sorted(SQUARE))
    with pytest.raises(DomainError, match="holds 5 rays"):
        facet_enumeration(HEXAGON, 2)
    with pytest.raises(DomainError, match="over the budget of 4"):
        vertex_enumeration(hexagon, 2)


def test_extreme_rays_of_the_positive_orthant_and_a_wedge():
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert sorted(extreme_rays(unit, 3)) == sorted(unit)
    # x >= 0 and y >= x in the plane: the rays (0, 1) and (1, 1)
    assert sorted(extreme_rays([(F(1), F(0)), (F(-2), F(2))], 2)) == \
        [(0, 1), (1, 1)]
    assert extreme_rays([(1, 0), (2, 0)], 2) == ()  # the cone holds a line


def test_halfspaces_whose_normals_do_not_span_have_no_vertices():
    slab = [Halfspace((1, 0), F(0)), Halfspace((-1, 0), F(-1))]  # 0 <= x <= 1
    assert vertex_enumeration(slab, 2) == ()
    assert RationalPolytope.from_halfspaces(slab, 2) is None


def _facets_by_subsets(points, dim):
    """Oracle: every ``dim``-subset spanning a hyperplane with all points
    on one (weak) side contributes a supporting halfspace.  Its ``dim``
    points are affinely independent on the hyperplane, so the hyperplane
    meets the hull in a facet."""
    seen = set()
    for subset in itertools.combinations(range(len(points)), dim):
        base = points[subset[0]]
        diffs = [[points[i][k] - base[k] for k in range(dim)]
                 for i in subset[1:]]
        kernel = nullspace(diffs, width=dim)
        if len(kernel) != 1:
            continue
        normal = primitive_integer_vector(kernel[0])
        c = geometry.dot(normal, base)
        vals = [geometry.dot(normal, p) for p in points]
        if all(v >= c for v in vals):
            seen.add(Halfspace(normal, c))
        elif all(v <= c for v in vals):
            seen.add(Halfspace(tuple(-x for x in normal), -c))
    return tuple(sorted(seen))


def _vertices_by_subsets(halfspaces, dim):
    """Oracle: the basic feasible solutions of every ``dim``-subset."""
    verts = set()
    for subset in itertools.combinations(halfspaces, dim):
        sol = solve_square([hs.normal for hs in subset],
                           [hs.offset for hs in subset])
        if sol is not None and all(geometry.dot(hs.normal, sol) >= hs.offset
                                   for hs in halfspaces):
            verts.add(sol)
    return tuple(sorted(verts))


@st.composite
def _points_and_cut(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    coord = st.integers(min_value=-2, max_value=2)
    corners = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                            max_size=n + 5))
    # Midpoints of pairs repeat a point or lie on a face or inside.
    pairs = draw(st.lists(st.tuples(st.sampled_from(corners),
                                    st.sampled_from(corners)), max_size=3))
    pts = [tuple(F(c) for c in p) for p in corners]
    pts += [tuple((F(a) + b) / 2 for a, b in zip(p, q)) for p, q in pairs]
    normal = draw(st.lists(st.integers(min_value=-2, max_value=2),
                           min_size=n, max_size=n).filter(any))
    # At the top value the cut leaves a face, above it nothing.
    values = sorted({geometry.dot(normal, p) for p in pts})
    offset = draw(st.sampled_from([*values, values[-1] + 1]))
    return n, pts, Halfspace(tuple(normal), offset)


@settings(max_examples=40, deadline=None)
@given(case=_points_and_cut())
def test_extreme_rays_match_the_subset_oracles(case):
    n, pts, cut = case
    assume(geometry.affine_dimension(pts) == n)
    facets = facet_enumeration(pts, n)
    assert facets == _facets_by_subsets(pts, n)
    # the constructor reads the vertices off the facet-point incidence
    assert RationalPolytope(pts).vertices == _vertices_by_subsets(facets, n)
    # The polar {x : <p, x> >= -1} has a vertex on many halfspaces where
    # many points share a facet; it may be unbounded or hold a line.
    for hss in (facets + (cut,),
                tuple(Halfspace(tuple(2 * c for c in p), F(-2))
                      for p in pts if any(p)) + (cut,)):
        assert vertex_enumeration(hss, n) == _vertices_by_subsets(hss, n)


def test_simplex_volume_standard():
    assert simplex_volume(TRIANGLE) == F(1, 2)
    tetra = [(F(0),) * 3,
             (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert simplex_volume(tetra) == F(1, 6)


def test_triangulation_covers_volume():
    tris = triangulate_vertices(SQUARE, facet_enumeration(SQUARE, 2))
    assert sum(simplex_volume(t) for t in tris) == 1


def _recursive_triangulation(points):
    """Oracle: fan from the lexicographically smallest point over the
    facets, each enumerated again, projected by dropping the first
    coordinate on which its normal is nonzero, triangulated recursively
    and lifted back; zero-volume simplices are dropped."""
    pts = sorted(set(points))
    dim = len(pts[0])
    if dim == 1:
        return ((pts[0], pts[-1]),)
    apex = pts[0]
    simplices = []
    for hs in facet_enumeration(pts, dim):
        if geometry.dot(hs.normal, apex) == hs.offset:
            continue
        on_facet = [p for p in pts if geometry.dot(hs.normal, p) == hs.offset]
        drop = next(i for i, x in enumerate(hs.normal) if x != 0)
        projected = [p[:drop] + p[drop + 1:] for p in on_facet]
        lift = dict(zip(projected, on_facet))
        for sub in _recursive_triangulation(projected):
            simplex = (apex,) + tuple(lift[q] for q in sub)
            if simplex_volume(simplex) != 0:
                simplices.append(simplex)
    return tuple(simplices)


@st.composite
def _point_set_and_form(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    coord = st.integers(min_value=-2, max_value=2)
    corners = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                            max_size=n + 4))
    # Midpoints of pairs lie on the boundary or inside, never at a
    # vertex unless the pair repeats a point.
    pairs = draw(st.lists(st.tuples(st.sampled_from(corners),
                                    st.sampled_from(corners)), max_size=3))
    pts = [tuple(F(c) for c in p) for p in corners]
    pts += [tuple((F(a) + b) / 2 for a, b in zip(p, q)) for p, q in pairs]
    linear = draw(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=n, max_size=n))
    return n, pts, linear


def _survival_of(simplices, linear, n):
    raw = {s: [geometry.dot(linear, p) for p in s] for s in simplices}
    low = min(min(vals) for vals in raw.values())
    return survival_curve([(simplex_volume(s), tuple(v - low for v in vals))
                           for s, vals in raw.items()], n)


@settings(max_examples=100, deadline=None)
@given(case=_point_set_and_form())
def test_pulling_triangulation_matches_recursive_oracle(case):
    n, pts, linear = case
    assume(geometry.affine_dimension(pts) == n)
    assume(any(linear))
    P = RationalPolytope(pts)
    tris = P.triangulation()
    oracle = _recursive_triangulation(pts)
    assert P.volume() == sum(simplex_volume(s) for s in oracle) > 0
    for s in tris:
        assert len(s) == n + 1
        assert simplex_volume(s) != 0
        assert set(s) <= set(P.vertices)
    assert _survival_of(tris, linear, n) == _survival_of(oracle, linear, n)


CUBE4 = [tuple(F(c) for c in v) for v in itertools.product((-1, 1), repeat=4)]


def test_four_cube_pulls_into_24_simplices():
    tris = RationalPolytope(CUBE4).triangulation()
    assert len(tris) == 24
    assert all(simplex_volume(s) == F(2, 3) for s in tris)


def test_triangulation_enumerates_no_facets(monkeypatch):
    P = RationalPolytope(CUBE4)

    def refuse(points, dim):
        raise AssertionError("facet_enumeration called by triangulation")

    monkeypatch.setattr(geometry, "facet_enumeration", refuse)
    assert P.volume() == 16


# ---------------------------------------------------------------------------
# survival curves and moments


def test_survival_curve_of_x_on_triangle():
    curve = survival_curve([(simplex_volume(TRIANGLE), (F(0), F(1), F(0)))], 2)
    assert curve(F(0)) == F(1, 2)
    assert curve(F(1, 2)) == F(1, 8)
    assert curve(F(1)) == 0
    # vol{x >= t} on the triangle is (1-t)^2/2
    assert curve(F(1, 3)) == F(2, 9)


def test_survival_curve_additive_over_triangulation():
    pieces = [(simplex_volume(t), tuple(v[0] for v in t))
              for t in triangulate_vertices(SQUARE, facet_enumeration(SQUARE, 2))]
    curve = survival_curve(pieces, 2)
    # vol{x >= t} on the unit square is 1 - t
    for t in (F(0), F(1, 4), F(2, 3)):
        assert curve(t) == 1 - t


def test_survival_curve_rejects_wrong_vertex_count():
    with pytest.raises(StructureError):
        survival_curve([(F(1, 2), (F(0), F(1), F(0)))], 3)
    with pytest.raises(StructureError):
        survival_curve([(F(1, 2), (F(0), F(1)))], 2)


@st.composite
def _simplex_and_form(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    coord = st.integers(min_value=0, max_value=3)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                        max_size=n + 1))
    linear = draw(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=n, max_size=n))
    shift = draw(st.integers(min_value=0, max_value=2))
    return n, [tuple(F(c) for c in p) for p in pts], linear, shift


@settings(max_examples=30, deadline=None)
@given(case=_simplex_and_form())
def test_survival_curve_matches_slice_volume_oracle(case):
    # The closed form against slicing by halfspaces, enumerating the
    # slice's vertices and triangulating it, interpolated per interval.
    n, pts, linear, shift = case
    assume(simplex_volume(pts) != 0)
    raw = [sum(a * x for a, x in zip(linear, p)) for p in pts]
    constant = shift - min(raw)
    vals = tuple(v + constant for v in raw)
    assume(max(vals) > 0)
    curve = survival_curve([(simplex_volume(pts), vals)], n)
    assert curve.breakpoints == tuple(sorted({F(0), *vals}))
    transform = ConcaveTransform(RationalPolytope(pts), [(linear, constant)])
    for (lo, hi), piece in zip(zip(curve.breakpoints, curve.breakpoints[1:]),
                               curve.pieces):
        nodes = [lo + (hi - lo) * F(i + 1, n + 2) for i in range(n + 1)]
        samples = [slice_volume(transform, x) for x in nodes]
        assert lagrange_interpolate(nodes, samples) == piece


def test_complete_homogeneous_small_cases():
    assert complete_homogeneous([F(1), F(2)], 2) == 7  # 1 + 2 + 4
    assert complete_homogeneous([F(3)], 4) == 81
    assert complete_homogeneous([F(1), F(1), F(1)], 2) == 6


def test_affine_power_matches_direct_integral_on_triangle():
    # g(x, y) = x on the standard triangle:
    # integral x^p = 1 / ((p+1)(p+2))
    for p in range(1, 8):
        got = integrate_affine_power_over_simplex(
            F(1, 2), [F(0), F(1), F(0)], p)
        assert got == F(1, (p + 1) * (p + 2))


@settings(max_examples=60)
@given(
    values=st.lists(st.integers(min_value=0, max_value=12), min_size=3,
                    max_size=5, unique=True),
    p=st.integers(min_value=1, max_value=6),
)
def test_affine_power_matches_divided_difference_oracle(values, p):
    vals = [F(v) for v in values]
    vol = F(1, factorial(len(vals) - 1))
    assert integrate_affine_power_over_simplex(vol, vals, p) == \
        _moment_oracle(vol, vals, p)


def test_affine_power_handles_repeated_values():
    # the divided-difference oracle cannot do this; the closed form can
    got = integrate_affine_power_over_simplex(F(1, 2), [F(1), F(1), F(1)], 3)
    assert got == F(1, 2)  # g constant 1, so integral is the volume


# ---------------------------------------------------------------------------
# RationalPolytope


def test_polytope_volume_and_contains():
    P = RationalPolytope(SQUARE)
    assert P.volume() == 1
    assert P.contains((F(1, 2), F(1, 2)))
    assert not P.contains((F(2), F(0)))


def test_polytope_dilate():
    P = RationalPolytope(TRIANGLE)
    assert P.dilate(3).volume() == F(9, 2)


def test_polytope_intersect_halfspace():
    P = RationalPolytope(SQUARE)
    # keep x + y <= 1, i.e. <-1, -1> . u >= -1
    Q = P.intersect([Halfspace((F(-1), F(-1)), F(-1))])
    assert Q.volume() == F(1, 2)


def test_empty_or_facet_cuts_are_none():
    P = RationalPolytope(SQUARE)
    empty = [Halfspace((1, 0), F(2))]  # x >= 2
    facet = [Halfspace((-1, 0), F(0))]  # x <= 0 leaves the edge x = 0
    for cut in (empty, facet):
        assert P.intersect(cut) is None
        assert RationalPolytope.from_halfspaces(P.halfspaces() + tuple(cut),
                                                2) is None


def test_polytope_lattice_points():
    P = RationalPolytope(SQUARE)
    assert len(P.lattice_points()) == 4
    assert len(P.dilate(2).lattice_points()) == 9


def test_lattice_points_in_from_halfspaces():
    facets = facet_enumeration(SQUARE, 2)
    pts = lattice_points_in(facets, SQUARE)
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_polytope_json_roundtrip():
    P = RationalPolytope([(F(0), F(0)), (F(3, 2), F(0)), (F(0), F(5, 3))])
    doc = P.to_json_dict()
    assert doc["dim"] == 2
    Q = RationalPolytope.from_json_dict(doc)
    assert Q == P


def test_polytope_json_rejects_lower_dimensional_vertices():
    # a file is outside input: a collinear one is a StructureError
    doc = {"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}
    with pytest.raises(StructureError, match="full-dimensional"):
        RationalPolytope.from_json_dict(doc)


def test_polytope_rejects_lower_dimensional_input():
    with pytest.raises(InvariantViolation):
        RationalPolytope([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])


def _lattice_walk_with_fraction_offsets(halfspaces, vertices):
    """The reference walk: every point of the bounding box, each compared
    with the Fraction offsets themselves."""
    dim = len(vertices[0])
    ranges = [range(math.ceil(min(v[i] for v in vertices)),
                    math.floor(max(v[i] for v in vertices)) + 1)
              for i in range(dim)]
    return tuple(sorted(
        pt for pt in itertools.product(*ranges)
        if all(sum(F(a) * b for a, b in zip(hs.normal, pt)) >= hs.offset
               for hs in halfspaces)))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=2, max_value=3), data=st.data())
def test_lattice_points_match_a_walk_with_fraction_offsets(dim, data):
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    pts = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1,
                             max_size=dim + 3, unique=True))
    assume(geometry.affine_dimension([geometry.make_point(p) for p in pts])
           == dim)
    P = RationalPolytope(pts)
    got = lattice_points_in(P.halfspaces(), P.vertices)
    assert got == _lattice_walk_with_fraction_offsets(P.halfspaces(),
                                                      P.vertices)

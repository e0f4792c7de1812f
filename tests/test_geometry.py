"""Tests for exact polytope geometry: facet/vertex enumeration,
triangulation, slice volumes, survival curves, and affine-power moments.

Facet and vertex enumeration are checked against brute-force walks over
every ``dim``-subset of the points or halfspaces, kept here as oracles.

The moment kernel ``mean_affine_powers`` is checked against the
per-simplex oracle, whose h_p is summed from its definition, and that
oracle against the divided-difference identity

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
    extreme_rays,
    facet_enumeration,
    lattice_points_in,
    mean_affine_powers,
    simplex_volume,
    survival_curve,
    triangulate_vertices,
    vertex_enumeration,
)
from deltap.linalg import nullspace, primitive_integer_vector, solve_square
from deltap.okounkov import ConcaveTransform
from deltap.piecewise import lagrange_interpolate
from oracles import (complete_homogeneous, integrate_affine_power_over_simplex,
                     slice_volume, survival_curve_by_divided_differences)

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
    facets, _ = facet_enumeration(SQUARE, 2)
    assert len(facets) == 4
    # each vertex saturates exactly two facets
    for v in SQUARE:
        tight = [h for h in facets
                 if sum(a * b for a, b in zip(h.normal, v)) == h.offset]
        assert len(tight) == 2


def test_vertex_enumeration_roundtrip():
    facets, _ = facet_enumeration(SQUARE, 2)
    verts, _, bounded = vertex_enumeration(facets, 2)
    assert sorted(verts) == sorted(SQUARE) and bounded


def test_hull_enumerations_refuse_subsets_over_budget(monkeypatch):
    # The budget is on the rays a double description holds after a step.
    hexagon, _ = facet_enumeration(HEXAGON, 2)
    monkeypatch.setattr(geometry, "MAX_HULL_RAYS", 4)
    facets, _ = facet_enumeration(SQUARE, 2)  # 4 rays
    assert vertex_enumeration(facets, 2)[0] == tuple(sorted(SQUARE))
    with pytest.raises(DomainError, match="holds 5 rays"):
        facet_enumeration(HEXAGON, 2)
    with pytest.raises(DomainError, match="over the budget of 4"):
        vertex_enumeration(hexagon, 2)


def test_extreme_rays_of_the_positive_orthant_and_a_wedge():
    # Each ray comes with the mask of its tight rows, bit i for row i.
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert sorted(extreme_rays(unit, 3)) == \
        [((0, 0, 1), 0b011), ((0, 1, 0), 0b101), ((1, 0, 0), 0b110)]
    # x >= 0 and y >= x in the plane: the rays (0, 1) and (1, 1)
    assert sorted(extreme_rays([(F(1), F(0)), (F(-2), F(2))], 2)) == \
        [((0, 1), 0b01), ((1, 1), 0b10)]
    # a zero row keeps its place and is tight on every ray
    assert sorted(extreme_rays([(F(1), F(0)), (0, 0), (F(-2), F(2))], 2)) == \
        [((0, 1), 0b011), ((1, 1), 0b110)]
    assert extreme_rays([(1, 0), (2, 0)], 2) == ()  # the cone holds a line
    with pytest.raises(StructureError, match="another length"):
        extreme_rays([(1, 0), (0, 1, 0)], 2)


def test_halfspaces_whose_normals_do_not_span_have_no_vertices():
    slab = [Halfspace((1, 0), F(0)), Halfspace((-1, 0), F(-1))]  # 0 <= x <= 1
    assert vertex_enumeration(slab, 2)[0] == ()
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


def _bounded_by_subsets(halfspaces, dim):
    """Oracle for an intersection with a vertex, whose recession cone
    {y : <n, y> >= 0} is then pointed: it is bounded when no line cut out
    by ``dim - 1`` of the normals holds a direction of that cone, as an
    extreme ray of the cone would lie on such a line."""
    normals = [hs.normal for hs in halfspaces]
    for subset in itertools.combinations(normals, dim - 1):
        kernel = nullspace(subset, width=dim)
        if len(kernel) == 1 and any(
                all(geometry.dot(n, y) >= 0 for n in normals)
                for y in (kernel[0], tuple(-c for c in kernel[0]))):
            return False
    return True


def _vertices_by_subsets(halfspaces, dim):
    """Oracle: the basic feasible solutions of every ``dim``-subset.  Each
    distinct solution y / d, y integral, is tested once, in integers, on
    the halfspaces scaled to integer rows (a, b): <a, y> >= b d."""
    sols = {solve_square([hs.normal for hs in subset],
                         [hs.offset for hs in subset])
            for subset in itertools.combinations(halfspaces, dim)} - {None}
    rows = []
    for hs in halfspaces:
        k = math.lcm(*(F(c).denominator for c in (*hs.normal, hs.offset)))
        rows.append(([int(c * k) for c in hs.normal], int(hs.offset * k)))
    verts = []
    for sol in sols:
        d = math.lcm(*(x.denominator for x in sol))
        y = [int(x * d) for x in sol]
        if all(geometry.dot(a, y) >= b * d for a, b in rows):
            verts.append(sol)
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
    facets, masks = facet_enumeration(pts, n)
    assert facets == _facets_by_subsets(pts, n)
    # each facet's mask holds exactly the points on it
    assert masks == tuple(sum(1 << i for i, p in enumerate(pts)
                              if geometry.dot(hs.normal, p) == hs.offset)
                          for hs in facets)
    # the constructor reads the vertices off the facet-point incidence
    P = RationalPolytope(pts)
    assert P.vertices == _vertices_by_subsets(facets, n)
    assert P.incidence == tuple(
        sum(1 << k for k, v in enumerate(P.vertices)
            if geometry.dot(hs.normal, v) == hs.offset) for hs in P.halfspaces())
    # The polar {x : <p, x> >= -1} has a vertex on many halfspaces where
    # many points share a facet; it may be unbounded or hold a line.
    # Each vertex comes with the mask of the halfspaces tight on it.
    for hss in (facets + (cut,),
                tuple(Halfspace(tuple(2 * c for c in p), F(-2))
                      for p in pts if any(p)) + (cut,)):
        verts, masks, bounded = vertex_enumeration(hss, n)
        assert verts == _vertices_by_subsets(hss, n)
        assert masks == tuple(sum(1 << i for i, hs in enumerate(hss)
                                  if geometry.dot(hs.normal, v) == hs.offset)
                              for v in verts)
        if verts:
            assert bounded == _bounded_by_subsets(hss, n)


def test_simplex_volume_standard():
    assert simplex_volume(TRIANGLE) == F(1, 2)
    tetra = [(F(0),) * 3,
             (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert simplex_volume(tetra) == F(1, 6)


def test_triangulation_covers_volume():
    tris = triangulate_vertices(SQUARE, facet_enumeration(SQUARE, 2)[1])
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
    for hs in facet_enumeration(pts, dim)[0]:
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
    # dilate carries the hull over: it must match a hull of the scaled
    # vertices, built here before any hull is refused
    dilations = [(Q, c, RationalPolytope([tuple(c * x for x in v)
                                          for v in Q.vertices]))
                 for Q in (P, RationalPolytope(TRIANGLE))
                 for c in (F(2), F(1, 3), F(7, 2))]

    def refuse(*args):
        raise AssertionError("a hull run by triangulation or dilate")

    monkeypatch.setattr(geometry, "facet_enumeration", refuse)
    monkeypatch.setattr(geometry, "extreme_rays", refuse)
    assert P.volume() == 16
    for Q, c, scaled in dilations:
        D = Q.dilate(c)
        assert D.vertices == scaled.vertices
        assert D.halfspaces() == scaled.halfspaces()
        assert D.incidence == scaled.incidence
        assert D.triangulation() == scaled.triangulation()
        assert D.volume() == scaled.volume() == c ** Q.dim * Q.volume()


def test_a_polytope_enumerates_its_facets_once(monkeypatch):
    # The bench counts geometry.facet_enumeration calls as hulls.  A
    # polytope from halfspaces runs one double description and no hull.
    calls = []
    enumerate_facets, rays = geometry.facet_enumeration, geometry.extreme_rays

    def counted(points, dim):
        calls.append(dim)
        return enumerate_facets(points, dim)

    def counted_rays(rows, width):
        calls.append("rays")
        return rays(rows, width)

    monkeypatch.setattr(geometry, "facet_enumeration", counted)
    monkeypatch.setattr(geometry, "extreme_rays", counted_rays)
    P = RationalPolytope(CUBE4)
    assert calls == [4, "rays"]
    P.triangulation()
    P.dilate(3).triangulation()
    assert calls == [4, "rays"]
    cut = [Halfspace((1, 1, 0, 0), F(0))]
    calls.clear()
    Q = P.intersect(cut)
    assert calls == ["rays"]
    assert RationalPolytope.from_halfspaces(P.halfspaces() + tuple(cut), 4) == Q
    assert calls == ["rays", "rays"]


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
              for t in triangulate_vertices(SQUARE, facet_enumeration(SQUARE, 2)[1])]
    curve = survival_curve(pieces, 2)
    # vol{x >= t} on the unit square is 1 - t
    for t in (F(0), F(1, 4), F(2, 3)):
        assert curve(t) == 1 - t


def test_survival_curve_rejects_wrong_vertex_count():
    with pytest.raises(StructureError):
        survival_curve([(F(1, 2), (F(0), F(1), F(0)))], 3)
    with pytest.raises(StructureError):
        survival_curve([(F(1, 2), (F(0), F(1)))], 2)


def test_survival_curve_of_no_simplices_says_so():
    with pytest.raises(InvariantViolation, match="at least one simplex"):
        survival_curve([], 2)


def _curve_or_error(build, simplices, n):
    try:
        curve = build(simplices, n)
    except InvariantViolation as exc:  # a step the continuity check refuses
        return type(exc)
    return curve.breakpoints, [piece.coeffs for piece in curve.pieces]


@st.composite
def _weighted_simplices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    # a small pool of values, zero among them, so that values repeat
    pool = draw(st.lists(st.fractions(min_value=0, max_value=4,
                                      max_denominator=3),
                         min_size=1, max_size=n + 2)) + [F(0)]
    weight = st.fractions(min_value=F(1, 6), max_value=5, max_denominator=6)
    simplices = draw(st.lists(
        st.tuples(weight, st.lists(st.sampled_from(pool), min_size=n + 1,
                                   max_size=n + 1)),
        min_size=1, max_size=4))
    return n, simplices


@settings(max_examples=80, deadline=None)
@given(case=_weighted_simplices())
def test_survival_curve_matches_divided_difference_oracle(case):
    # the residue form against one divided-difference table per simplex
    # and piece: the same breakpoints and every coefficient, or the same
    # refusal of a discontinuous sum
    n, simplices = case
    assume(max(v for _, vals in simplices for v in vals) > 0)
    assert (_curve_or_error(survival_curve, simplices, n)
            == _curve_or_error(survival_curve_by_divided_differences,
                               simplices, n))


def test_survival_curve_merges_simplices_with_equal_sorted_values():
    # one simplex's weight split across two copies, one with its values
    # permuted, gives the same curve as the simplex alone
    vals = (F(0), F(2), F(1, 2), F(2))
    other = (F(1), F(0), F(0), F(3))
    whole = survival_curve([(F(3), vals), (F(1), other)], 3)
    split = survival_curve([(F(1), vals), (F(1), other),
                            (F(2), vals[::-1])], 3)
    assert split == whole == survival_curve_by_divided_differences(
        [(F(3), vals), (F(1), other)], 3)


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
    # one simplex: s_p = n! p!/(n+p)! h_p, every order from one call;
    # x on [1, 2] has mean 3/2 and mean square 7/3
    assert mean_affine_powers([(1, [1, 2])], 1, (2, 1)) == {2: F(7, 3), 1: F(3, 2)}
    assert mean_affine_powers([(F(1, 2), [F(3)])], 0, (4,)) == {4: 81}
    assert mean_affine_powers([(1, [1, 1, 1])], 2, (1, 2, 2)) == {1: 1, 2: 1}
    assert mean_affine_powers([(1, [0, 1, 2])], 2, ()) == {}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
    orders=st.lists(st.integers(min_value=1, max_value=7), min_size=1,
                    max_size=4),
)
def test_moment_kernel_matches_the_per_simplex_oracle(n, data, orders):
    # int values, repeats and zeros included, on simplices of rational
    # volume: each order is the oracle's weighted mean
    simplices = data.draw(st.lists(st.tuples(
        st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7),
        st.lists(st.integers(min_value=0, max_value=9), min_size=n + 1,
                 max_size=n + 1)), min_size=1, max_size=4))
    total = sum(vol for vol, _ in simplices)
    assert mean_affine_powers(simplices, n, orders) == {
        p: sum(integrate_affine_power_over_simplex(vol, values, p)
               for vol, values in simplices) / total
        for p in orders}


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


def test_equal_polytopes_hash_equal_and_share_one_dict_key():
    # __eq__ compares vertices, and __hash__ keeps the class a valid key:
    # the same hull from reordered and redundant points
    P = RationalPolytope(SQUARE)
    Q = RationalPolytope([SQUARE[3], (F(1, 2), F(1, 2)), *SQUARE[:3]])
    assert P == Q and hash(P) == hash(Q)
    assert {P: "first", Q: "second"} == {P: "second"}
    assert len({P, Q, RationalPolytope(TRIANGLE)}) == 2


def test_polytope_intersect_halfspace():
    P = RationalPolytope(SQUARE)
    # keep x + y <= 1, i.e. <-1, -1> . u >= -1
    Q = P.intersect([Halfspace((F(-1), F(-1)), F(-1))])
    assert Q.volume() == F(1, 2)


def test_halfspaces_with_rational_normals_are_exact():
    # x + y <= 1 written with half-integer coefficients cuts the square
    triangle = RationalPolytope(TRIANGLE)
    cut = Halfspace((F(-1, 2), F(-1, 2)), F(-1, 2))
    assert RationalPolytope(SQUARE).intersect([cut]) == triangle
    assert RationalPolytope.from_halfspaces(
        [((F(1, 2), 0), 0), ((0, 1), 0), ((-1, -1), -1)], 2) == triangle
    for bad in (0.5, True):  # neither a float nor a bool is exact
        with pytest.raises(DomainError):
            RationalPolytope.from_halfspaces(
                [((bad, 0), 0), ((0, 1), 0), ((-1, -1), -1)], 2)


def test_empty_or_facet_cuts_are_none():
    P = RationalPolytope(SQUARE)
    empty = [Halfspace((1, 0), F(2))]  # x >= 2
    facet = [Halfspace((-1, 0), F(0))]  # x <= 0 leaves the edge x = 0
    for cut in (empty, facet):
        assert P.intersect(cut) is None
        assert RationalPolytope.from_halfspaces(P.halfspaces() + tuple(cut),
                                                2) is None


def test_a_zero_normal_holds_everywhere_or_nowhere():
    P = RationalPolytope(SQUARE)
    for offset in (F(-1), F(0)):  # 0 >= offset everywhere, and no facet
        Q = P.intersect([Halfspace((0, 0), offset)])
        assert (Q.vertices, Q.halfspaces(), Q.incidence) == \
            (P.vertices, P.halfspaces(), P.incidence)
    assert P.intersect([Halfspace((0, 0), F(1, 3))]) is None


def test_an_unbounded_intersection_is_none():
    # 0 <= y <= 2, x >= 0 and x - y >= -1 have three vertices, and the
    # region runs off along +x; its vertices' hull is no answer
    hss = [Halfspace((0, 1), F(0)), Halfspace((0, -1), F(-2)),
           Halfspace((1, 0), F(0)), Halfspace((1, -1), F(-1))]
    verts, masks, bounded = vertex_enumeration(hss, 2)
    assert verts == ((0, 0), (0, 1), (1, 2)) and not bounded
    assert masks == (0b0101, 0b1100, 0b1010)
    assert RationalPolytope.from_halfspaces(hss, 2) is None
    capped = RationalPolytope.from_halfspaces(hss + [Halfspace((-1, 0), F(-3))], 2)
    assert capped.vertices == ((0, 0), (0, 1), (1, 2), (3, 0), (3, 2))


def test_a_halfspace_of_another_arity_is_refused():
    # in the plane a hull row is (normal, -offset) of width 3; a row of
    # any other width is refused rather than cut down or padded
    P = RationalPolytope(SQUARE)
    for cut in (Halfspace((0, 0, 1), F(5)), Halfspace((1,), F(5))):
        with pytest.raises(StructureError, match="another length"):
            P.intersect([cut])
    with pytest.raises(StructureError, match="another length"):
        RationalPolytope.from_halfspaces(
            [((1, 0), 0), ((0, 1), 0), ((-1, -1, 0), -1)], 2)


@st.composite
def _polytope_and_cuts(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    coord = st.integers(min_value=-2, max_value=2)
    corners = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                            max_size=n + 4))
    assume(geometry.affine_dimension([geometry.make_point(p)
                                      for p in corners]) == n)
    P = RationalPolytope(corners)
    facets = P.halfspaces()
    normals = st.lists(st.integers(min_value=-2, max_value=2), min_size=n,
                       max_size=n).filter(any)
    cuts = []
    for kind in draw(st.lists(st.sampled_from(
            ["multiple", "reverse", "pinch", "through", "empty", "face",
             "zero"]), min_size=1, max_size=4)):
        hs = draw(st.sampled_from(facets))
        v = draw(st.sampled_from(P.vertices))
        w = draw(normals)
        if kind == "multiple":  # a duplicate of a facet, scaled
            c = draw(st.fractions(min_value=F(1, 3), max_value=3,
                                  max_denominator=3).filter(bool))
            cuts.append(Halfspace(tuple(c * a for a in hs.normal), c * hs.offset))
        elif kind == "reverse":  # flattens P onto a facet
            cuts.append(Halfspace(tuple(-a for a in hs.normal), -hs.offset))
        elif kind == "pinch":  # tight at the vertex v alone
            on_v = [g.normal for g in facets if geometry.dot(g.normal, v) == g.offset]
            pinch = tuple(map(sum, zip(*on_v)))
            cuts.append(Halfspace(pinch, geometry.dot(pinch, v)))
        elif kind == "through":  # some plane through v
            cuts.append(Halfspace(tuple(w), geometry.dot(w, v)))
        elif kind == "empty":
            top = max(geometry.dot(w, u) for u in P.vertices)
            cuts.append(Halfspace(tuple(w), top + draw(st.sampled_from([F(1, 2), 1]))))
        elif kind == "face":  # at a vertex value, or between two
            values = sorted({geometry.dot(w, u) for u in P.vertices})
            cuts.append(Halfspace(tuple(w), draw(st.sampled_from(
                values + [(a + b) / 2 for a, b in zip(values, values[1:])]))))
        else:
            cuts.append(Halfspace((0,) * n, draw(st.sampled_from([-1, 0, 1]))))
    return P, cuts


@settings(max_examples=100, deadline=None)
@given(case=_polytope_and_cuts())
def test_halfspace_route_matches_a_hull_of_its_vertices(case):
    # The two-hull route is the oracle: enumerate the vertices, then hull
    # them; both routes are None together.
    P, cuts = case
    hss = P.halfspaces() + tuple(cuts)
    verts = vertex_enumeration(hss, P.dim)[0]
    oracle = (RationalPolytope(verts)
              if geometry.affine_dimension(verts) == P.dim else None)
    for Q in (RationalPolytope.from_halfspaces(hss, P.dim), P.intersect(cuts)):
        assert (Q is None) == (oracle is None)
        if Q is not None:
            assert Q.vertices == oracle.vertices
            assert Q.halfspaces() == oracle.halfspaces()
            assert Q.incidence == oracle.incidence
            assert Q.triangulation() == oracle.triangulation()


def test_polytope_lattice_points():
    P = RationalPolytope(SQUARE)
    assert len(P.lattice_points()) == 4
    assert len(P.dilate(2).lattice_points()) == 9


def test_lattice_points_in_from_halfspaces():
    facets, _ = facet_enumeration(SQUARE, 2)
    pts = lattice_points_in(facets, SQUARE)
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_polytope_json_roundtrip():
    P = RationalPolytope([(F(0), F(0)), (F(3, 2), F(0)), (F(0), F(5, 3))])
    doc = {"dim": 2, "vertices": [["0", "0"], ["3/2", "0"], ["0", "5/3"]]}
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

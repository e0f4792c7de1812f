"""Tests for concave piecewise-linear transforms on rational bodies, their
exact moments and their slice curves.

Frozen values, computed by hand:

  * G(u) = u_1 on the unit square: moments 1/(p+1); slice volumes 1 - t
  * G(u) = u_1 on the standard triangle (vol 1/2): first moment
    (1/vol) int x = (1/6)/(1/2) = 1/3; second moment (1/12)/(1/2) = 1/6
  * G = min(u_1, u_2) on the unit square: int G = 1/3 (two symmetric
    cells, each int x over a triangle = 1/6)
"""

from fractions import Fraction

import pytest

from deltap.errors import DomainError, InvariantViolation, StructureError
from deltap.geometry import RationalPolytope, dot
from deltap.okounkov import AffineForm, ConcaveTransform
from oracles import slice_volume

F = Fraction

SQUARE = RationalPolytope([(F(0), F(0)), (F(1), F(0)),
                           (F(0), F(1)), (F(1), F(1))])
TRIANGLE = RationalPolytope([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def coord(i, dim=2):
    linear = [F(0)] * dim
    linear[i] = F(1)
    return AffineForm.make(linear, F(0))


# ---------------------------------------------------------------------------
# construction


def test_affine_form_evaluate():
    f = AffineForm.make([F(2), F(-1)], F(3))
    assert f.evaluate((F(1), F(1))) == 4


def test_transform_requires_matching_arity():
    with pytest.raises(StructureError):
        ConcaveTransform(SQUARE, [AffineForm.make([F(1)], F(0))])


def test_transform_rejects_negative_values():
    with pytest.raises(InvariantViolation):
        ConcaveTransform(SQUARE, [AffineForm.make([F(1), F(0)], F(-2))])


def test_transform_value_is_min_of_forms():
    G = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    assert G.value((F(1, 3), F(2, 3))) == F(1, 3)
    assert G.max_value() == 1


# ---------------------------------------------------------------------------
# moments, both routes


def test_coordinate_moments_on_square():
    G = ConcaveTransform(SQUARE, [coord(0)])
    for p in range(1, 6):
        assert G.moment_p(p) == F(1, p + 1)
        assert G.moment_from_slices(p) == F(1, p + 1)


def test_coordinate_moments_on_triangle():
    G = ConcaveTransform(TRIANGLE, [coord(0)])
    assert G.moment_p(1) == F(1, 3)
    assert G.moment_p(2) == F(1, 6)
    assert G.moment_from_slices(1) == F(1, 3)
    assert G.moment_from_slices(2) == F(1, 6)


def test_min_of_coordinates_moment():
    G = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    assert G.moment_p(1) == F(1, 3)
    assert G.moment_from_slices(1) == F(1, 3)
    # two cells of equal volume
    cells = G.min_cells()
    assert len(cells) == 2
    assert sum(cell.volume() for _, cell in cells) == 1


def test_slice_volume_values():
    G = ConcaveTransform(SQUARE, [coord(0)])
    assert slice_volume(G, F(0)) == 1
    assert slice_volume(G, F(1, 4)) == F(3, 4)
    assert slice_volume(G, F(2)) == 0
    H = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    # {min(x, y) >= t} is a square of side 1 - t
    assert slice_volume(H, F(1, 2)) == F(1, 4)


def test_slice_volume_is_zero_from_the_top_level_up():
    G = ConcaveTransform(TRIANGLE, [coord(0), coord(1)])
    top = G.max_value()
    assert top == F(1, 2)
    # {x, y >= t, x + y <= 1} has legs 1 - 2t
    assert slice_volume(G, top - F(1, 4)) == F(1, 8)
    # at the top the slice is the point (1/2, 1/2); above it, empty
    for t in (top, top + F(1, 100), F(7)):
        assert slice_volume(G, t) == 0


def test_slice_curve_matches_slice_volume():
    G = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    curve = G.slice_curve()
    for t in (F(0), F(1, 3), F(3, 4)):
        assert curve(t) == slice_volume(G, t)


def test_moments_and_slice_curve_share_one_walk(monkeypatch):
    G = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    assert G.moment_p(1) == F(1, 3)
    G.max_value()

    def refuse(*args):
        raise AssertionError("the forms were evaluated again")
    monkeypatch.setattr(AffineForm, "evaluate", refuse)
    # E[min(x, y)^2] = 1/6 on the unit square; vol{min >= t} = (1 - t)^2
    assert G.moment_p(2) == F(1, 6)
    assert G.slice_curve()(F(1, 3)) == F(4, 9)
    assert G.moment_from_slices(2) == F(1, 6)


def test_moment_rejects_bad_order():
    G = ConcaveTransform(SQUARE, [coord(0)])
    with pytest.raises(DomainError):
        G.moment_p(0)


@pytest.fixture(scope="module")
def hexagon_squared():
    return RationalPolytope([a + b for a in HEXAGON for b in HEXAGON])


@pytest.mark.parametrize("v", [(3, -2, 1, 4), (1, 0, 0, 0), (1, 1, -1, 0)])
def test_slice_moments_equal_direct_moments_on_hexagon_squared(
        hexagon_squared, v):
    # 96 simplices of Fraction volume, many with equal sorted values: the
    # merged slice curve and the direct moment agree exactly
    offset = -min(dot(v, w) for w in hexagon_squared.vertices)
    G = ConcaveTransform(hexagon_squared, [AffineForm.make(v, offset)])
    assert len(G._simplex_values()) == 96
    for p in (1, 2, 3):
        assert G.moment_from_slices(p) == G.moment_p(p)

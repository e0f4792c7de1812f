"""Tests for concave piecewise-linear transforms on rational bodies and
their spectral measures.

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
from deltap.geometry import RationalPolytope
from deltap.okounkov import AffineForm, ConcaveTransform, SpectralMeasure
from oracles import slice_volume

F = Fraction

SQUARE = RationalPolytope([(F(0), F(0)), (F(1), F(0)),
                           (F(0), F(1)), (F(1), F(1))])
TRIANGLE = RationalPolytope([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])


def coord(i, dim=2):
    linear = [F(0)] * dim
    linear[i] = F(1)
    return AffineForm.make(linear, F(0))


# ---------------------------------------------------------------------------
# construction


def test_affine_form_evaluate_and_json():
    f = AffineForm.make([F(2), F(-1)], F(3))
    assert f.evaluate((F(1), F(1))) == 4
    assert AffineForm.from_json_dict(f.to_json_dict()) == f


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


def test_transform_json_roundtrip():
    G = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    back = ConcaveTransform.from_json_dict(G.to_json_dict())
    assert back.forms == G.forms
    assert back.moment_p(2) == G.moment_p(2)


def test_transform_json_has_no_nonneg_key():
    G = ConcaveTransform(TRIANGLE, [coord(0), AffineForm.make([F(-1), F(0)], 1)])
    doc = G.to_json_dict()
    assert set(doc) == {"body", "forms"}
    back = ConcaveTransform.from_json_dict(doc)
    assert back.body == G.body and back.forms == G.forms
    assert back.to_json_dict() == doc


# ---------------------------------------------------------------------------
# pushforward and spectral measures


def test_spectral_measure_must_be_probability():
    with pytest.raises(InvariantViolation):
        SpectralMeasure.from_atoms([(F(0), F(1, 2))])
    with pytest.raises(InvariantViolation):
        SpectralMeasure.from_atoms([(F(0), F(3, 2)), (F(1), F(-1, 2))])


@pytest.mark.parametrize("atoms, message", [
    (((F(0), F(1, 2)), (F(1), F(1, 3))), "total mass is 5/6"),
    (((F(-1), F(1, 2)), (F(1), F(1, 2))), "locations must be >= 0"),
    (((F(1), F(1, 2)), (F(1), F(1, 2))), "increase strictly"),
    (((F(2), F(1, 2)), (F(1), F(1, 2))), "increase strictly"),
], ids=["mass", "negative", "repeated", "decreasing"])
def test_spectral_measure_checks_direct_construction(atoms, message):
    # from_atoms merges and sorts its pairs; a direct call is checked too
    with pytest.raises(InvariantViolation, match=message):
        SpectralMeasure(atoms)


def test_spectral_measure_moments():
    mu = SpectralMeasure.from_atoms([(F(0), F(1, 2)), (F(2), F(1, 2))])
    assert mu.moment_p(1) == 1
    assert mu.moment_p(2) == 2
    assert SpectralMeasure.from_json_dict(mu.to_json_dict()).moment_p(2) == 2


def test_pushforward_mass_is_one_at_every_resolution():
    G = ConcaveTransform(SQUARE, [coord(0), coord(1)])
    for res in (1, 2, 5, 16):
        mu = G.pushforward(res)
        assert sum(m for _, m in mu.atoms) == 1


def test_pushforward_moments_converge_from_below():
    G = ConcaveTransform(SQUARE, [coord(0)])
    exact = G.moment_p(2)  # 1/3
    previous = F(-1)
    for res in (1, 2, 4, 8, 16):
        approx = G.pushforward(res).moment_p(2)
        assert previous <= approx <= exact
        previous = approx
    assert exact - G.pushforward(16).moment_p(2) < F(1, 8)


def _pushforward_by_hulls(G, resolution):
    """The atoms of ``G.pushforward(resolution)`` from one hulled slice
    body per grid point."""
    top, vol = G.max_value(), G.body.volume()
    grid = [top * F(i, resolution) for i in range(resolution + 1)]
    slices = [slice_volume(G, t) for t in grid]
    atoms = [(grid[i], (slices[i] - slices[i + 1]) / vol)
             for i in range(resolution)] + [(top, slices[-1] / vol)]
    return SpectralMeasure.from_atoms(atoms).atoms


def test_pushforward_reads_the_slice_curve(monkeypatch):
    # min(x, y, 1/2) on the square has a plateau of area 1/4 at its top
    transforms = [ConcaveTransform(SQUARE, [coord(0), coord(1)]),
                  ConcaveTransform(SQUARE, [coord(0), coord(1),
                                            ((F(0), F(0)), F(1, 2))]),
                  ConcaveTransform(TRIANGLE, [((F(-1), F(2)), F(1))])]
    expected = [[_pushforward_by_hulls(G, res) for res in (1, 3, 8)]
                for G in transforms]
    assert expected[1][0][-1] == (F(1, 2), F(1, 4))
    for G in transforms:
        G.slice_curve()

    def no_hulls(*args):
        raise AssertionError("pushforward hulled a slice body")

    # past the cached cells and curve, a hull is a slice body
    monkeypatch.setattr(RationalPolytope, "from_halfspaces", no_hulls)
    assert [[G.pushforward(res).atoms for res in (1, 3, 8)]
            for G in transforms] == expected


def test_pushforward_known_atoms():
    # left-endpoint histogram of x on the unit square at resolution 4
    G = ConcaveTransform(SQUARE, [coord(0)])
    mu = G.pushforward(4)
    # the top level {x >= 1} has measure zero, so its atom is dropped
    assert mu.atoms == tuple((F(i, 4), F(1, 4)) for i in range(4))
    assert mu.moment_p(1) == F(3, 8)  # left Riemann sum of 1/2

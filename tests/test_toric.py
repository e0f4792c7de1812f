"""Tests for polarized toric models, torus-invariant valuations, their
volume curves, log discrepancies, and the restricted threshold searches.

Frozen values, worked out from the polytopes directly:

  * projective plane, anticanonical polarization (triangle 3*simplex),
    valuation e_1: V = 9, tau = 3, s_1 = 1, s_2 = 3/2, A = 1
  * projective plane, hyperplane class: A(e_1) = 1, A((1,1)) = 2,
    anticanonical scale 1/3; delta-type bound at p = 1 equals 3 * (1/3)
  * product of two lines, bidegree (1,1): delta bound 2 at p = 1 with
    argmin (-3,-2), A = 5, s_1 = 5/2, at bound 3; alpha bound 1
  * anticanonical scales: simplex 1/3, 3*simplex 1, unit square 1/2,
    twisted surface none
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltap import geometry, toric
from deltap.errors import (
    DomainError,
    InvariantViolation,
    StructureError,
    UnsupportedModelError,
)
from deltap.geometry import (RationalPolytope, affine_dimension,
                            mean_affine_powers, simplex_volume)
from deltap.toric import (
    MAX_CANDIDATE_BOX,
    MAX_MOMENT_PAIRS,
    CandidateTable,
    DeltaSearchResult,
    ToricModel,
    ToricValuation,
    alpha_candidate,
    builtin_model,
    concave_transform_of,
    delta_p_search,
    log_discrepancy,
    primitive_candidates,
    section_filtration,
    volume_curve_of,
)

from oracles import complete_homogeneous, integrate_affine_power_over_simplex

F = Fraction

NON_QG_PYRAMID = RationalPolytope(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 0), (0, 0, 1)])
HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


# ---------------------------------------------------------------------------
# models and valuations


def test_builtin_models_exist():
    assert builtin_model("p2").n == 2
    assert builtin_model("p2-anticanonical").P.volume() == F(9, 2)
    assert builtin_model("p1xp1").P.volume() == 1
    assert builtin_model("hirzebruch-2").n == 2
    assert builtin_model("pn:3").n == 3


def test_builtin_model_rejects_unknown():
    with pytest.raises(UnsupportedModelError):
        builtin_model("p3")
    with pytest.raises(UnsupportedModelError):
        builtin_model("hirzebruch-0")
    with pytest.raises(UnsupportedModelError):
        builtin_model("pn:9")


def test_model_requires_lattice_vertices():
    with pytest.raises(StructureError):
        ToricModel(RationalPolytope([(F(0), F(0)), (F(1, 2), F(0)),
                                     (F(0), F(1))]))


def test_valuation_normalization():
    model = builtin_model("p2")
    val = ToricValuation(model, (-1, 0))
    assert val.offset == 1  # min of -x over the simplex is -1
    assert val.g((F(0), F(0))) == 1
    assert val.g((F(1), F(0))) == 0


def test_valuation_rejects_imprimitive():
    model = builtin_model("p2")
    with pytest.raises(DomainError):
        ToricValuation(model, (2, 4))
    with pytest.raises(DomainError):
        ToricValuation(model, (0, 0))


def test_valuation_rejects_non_integral_coordinates():
    model = builtin_model("p2")
    for v in ((F(1, 2), 1), ("3/2", 0)):
        with pytest.raises(DomainError, match="must be integral"):
            ToricValuation(model, v)
    assert ToricValuation(model, (F(1), "0")).v == (1, 0)


def test_valuation_takes_only_exact_coordinates():
    # a bool or a float is no coordinate, even where it equals an integer;
    # an int is taken as it is and an exact string is read
    model = builtin_model("p2")
    for v in ((True, 0), (1.0, 0), (1.7, 0)):
        with pytest.raises(DomainError, match="exact rational"):
            ToricValuation(model, v)
    val = ToricValuation(model, ("1", "0"))
    assert val.v == (1, 0) and all(type(x) is int for x in val.v)


def test_a_valuation_is_refused_by_a_model_it_was_not_built_on():
    p2 = builtin_model("p2")
    big = builtin_model("p2-anticanonical")
    with pytest.raises(StructureError, match="other vertices"):
        log_discrepancy(builtin_model("p1xp1"), ToricValuation(p2, (-1, -1)))
    with pytest.raises(StructureError, match="other vertices"):
        volume_curve_of(builtin_model("p1xp1"), ToricValuation(p2, (1, 0)))
    with pytest.raises(StructureError, match="other vertices"):
        volume_curve_of(big, ToricValuation(p2, (1, 0)))
    for call in (lambda val: section_filtration(big, val, 1),
                 lambda val: concave_transform_of(big, val)):
        with pytest.raises(StructureError, match="other vertices"):
            call(ToricValuation(p2, (1, 0)))
    # the refused call cached nothing: the model's own valuation reads tau 3
    assert volume_curve_of(big, ToricValuation(big, (1, 0))).tau == 3


def test_one_vector_on_two_models_reads_each_models_own_data():
    p2, square = builtin_model("p2"), builtin_model("p1xp1")
    on_p2 = ToricValuation(p2, (-1, -1))
    on_square = ToricValuation(square, (-1, -1))
    assert log_discrepancy(p2, on_p2) == 1
    assert log_discrepancy(square, on_square) == 2
    assert volume_curve_of(p2, on_p2).tau == 1
    assert volume_curve_of(square, on_square).tau == 2
    # a second model with the same vertices takes the valuation
    twin = builtin_model("p2")
    assert volume_curve_of(twin, on_p2) == volume_curve_of(p2, on_p2)


def test_q_gorenstein_flags():
    assert builtin_model("p2").is_q_gorenstein
    assert builtin_model("hirzebruch-3").is_q_gorenstein
    assert not ToricModel(NON_QG_PYRAMID).is_q_gorenstein


# ---------------------------------------------------------------------------
# volume curves from models


def test_projective_plane_anticanonical_curve():
    model = builtin_model("p2-anticanonical")
    val = ToricValuation(model, (1, 0))
    curve = volume_curve_of(model, val)
    assert curve.n == 2
    assert curve.V == 9
    assert curve.tau == 3
    assert curve.s_p(1) == 1
    assert curve.s_p(2) == F(3, 2)
    assert curve.s_p(3) == F(27, 10)


def test_curve_independent_of_translation():
    model = builtin_model("p2")
    shifted = ToricModel(RationalPolytope([(5, 7), (6, 7), (5, 8)]))
    for v in ((1, 0), (1, 1), (-1, 2)):
        a = volume_curve_of(model, ToricValuation(model, v))
        b = volume_curve_of(shifted, ToricValuation(shifted, v))
        assert a == b


def test_transform_route_matches_curve_route():
    for name, v in (("p2", (1, 0)), ("p1xp1", (0, 1)),
                    ("hirzebruch-1", (1, 0))):
        model = builtin_model(name)
        val = ToricValuation(model, v)
        curve = volume_curve_of(model, val)
        G = concave_transform_of(model, val)
        for p in (1, 2):
            assert G.moment_p(p) == curve.s_p(p)
            assert G.moment_from_slices(p) == curve.s_p(p)


def test_one_form_transform_keeps_the_body_without_a_hull(monkeypatch):
    # one affine form cuts nothing, so its one cell is P itself
    def no_hulls(*args):
        raise AssertionError("a hull ran")

    model = builtin_model("hirzebruch-2")
    val = ToricValuation(model, (1, -1))
    monkeypatch.setattr(geometry, "facet_enumeration", no_hulls)
    monkeypatch.setattr(geometry, "vertex_enumeration", no_hulls)
    G = concave_transform_of(model, val)
    ((form, cell),) = G.min_cells()
    assert (form, cell) == (0, model.P) and cell is model.P
    assert G.moment_p(2) == volume_curve_of(model, val).s_p(2)


def test_section_filtration_matches_monomial_weights():
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    filt = section_filtration(model, val, 2)
    # lattice points of 2*simplex: six points with x-weights 0,0,0,1,1,2
    assert filt.jumps == (F(0), F(0), F(0), F(1), F(1), F(2))
    assert filt.s_m_p(1) == F(4, 12)


def test_section_jumps_are_the_lattice_point_weights_on_every_builtin():
    # <u, v> + m * offset over the lattice points u of mP, with the offset
    # -min <w, v> over the vertices w of P taken here, not from the valuation
    for name in ("p2", "p2-anticanonical", "p1xp1", "hirzebruch-1",
                 "hirzebruch-3", "pn:1", "pn:3"):
        model = builtin_model(name)
        for v in primitive_candidates(model.n, 1):
            offset = -min(sum(a * b for a, b in zip(w, v))
                          for w in model.P.vertices)
            for m in (1, 2, 3):
                weights = sorted(sum(F(a) * b for a, b in zip(u, v))
                                 + m * offset
                                 for u in model.P.dilate(m).lattice_points())
                filt = section_filtration(model, ToricValuation(model, v), m)
                assert filt.jumps == tuple(weights), (name, v, m)


# ---------------------------------------------------------------------------
# log discrepancies


def test_log_discrepancies_on_simplex():
    model = builtin_model("p2")
    assert log_discrepancy(model, ToricValuation(model, (1, 0))) == 1
    assert log_discrepancy(model, ToricValuation(model, (1, 1))) == 2
    # (-1, 0) lies in the cone at the vertex (1, 0), support (-2, 1)
    assert log_discrepancy(model, ToricValuation(model, (-1, 0))) == 2
    assert log_discrepancy(model, ToricValuation(model, (-1, -1))) == 1


def test_log_discrepancy_on_product():
    model = builtin_model("p1xp1")
    assert log_discrepancy(model, ToricValuation(model, (2, 1))) == 3


def test_log_discrepancy_needs_q_gorenstein():
    model = ToricModel(NON_QG_PYRAMID)
    val = ToricValuation(model, (0, 0, 1))
    with pytest.raises(UnsupportedModelError):
        log_discrepancy(model, val)


# ---------------------------------------------------------------------------
# anticanonical structure


def test_anticanonical_scales():
    assert builtin_model("p2").anticanonical_scale()[1] == F(1, 3)
    assert builtin_model("p2-anticanonical").anticanonical_scale()[1] == 1
    square = ToricModel(RationalPolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert square.anticanonical_scale()[1] == F(1, 2)
    assert builtin_model("hirzebruch-1").anticanonical_scale() is None


def test_anticanonical_polytope_of_simplex():
    Q = builtin_model("p2").anticanonical_polytope()
    assert sorted(Q.vertices) == sorted([(F(-1), F(-1)), (F(2), F(-1)),
                                         (F(-1), F(2))])


def test_anticanonical_polytope_coarsens_fan_for_high_twist():
    # for twist 2 the facet x >= -1 degenerates to a vertex: the
    # anticanonical polytope is a triangle, its normal fan strictly
    # coarser than the surface's fan
    Q = builtin_model("hirzebruch-2").anticanonical_polytope()
    assert len(Q.vertices) == 3


# ---------------------------------------------------------------------------
# searches


def test_primitive_candidates_sorted_and_primitive():
    cands = primitive_candidates(2, 1)
    assert cands == sorted(cands)
    assert (0, 0) not in cands
    assert (1, 1) in cands
    assert len(cands) == 8


def test_primitive_candidates_refuse_a_box_over_budget():
    # the box size is decided before enumeration, so a huge box fails at once
    for bound in (400, 10 ** 12):
        with pytest.raises(DomainError):
            primitive_candidates(3, bound)
    edge = (MAX_CANDIDATE_BOX - 1) // 2  # 2 * edge + 1 <= budget
    assert primitive_candidates(1, edge) == [(-1,), (1,)]
    with pytest.raises(DomainError):
        primitive_candidates(1, edge + 1)


def test_moment_pairs_over_budget_refused_before_the_simplices(monkeypatch):
    # the 7-cube at bound 1: 3**7 - 1 = 2,186 candidates times 7! = 5,040
    # simplices make 11,017,440 pairs, refused once the triangulation is
    # counted and before any simplex weight or row
    model = ToricModel(RationalPolytope(
        list(itertools.product((0, 1), repeat=7))))

    def refuse(self):
        raise AssertionError("the simplices were weighted")
    monkeypatch.setattr(ToricModel, "simplices", refuse)
    with pytest.raises(DomainError, match="11017440 moment pairs, over the "
                       f"budget of MAX_MOMENT_PAIRS = {MAX_MOMENT_PAIRS}"):
        CandidateTable(model, 1, (1, 2))


@pytest.mark.parametrize("n, bound", [(2, 1.5), (2, True), (2, 0),
                                      (1.5, 1), (True, 1)])
def test_primitive_candidates_need_positive_integers(n, bound):
    with pytest.raises(DomainError, match="must be a positive integer"):
        primitive_candidates(n, bound)


def test_delta_search_p2_anticanonical():
    model = builtin_model("p2-anticanonical")
    res = delta_p_search(model, 1, bound=2)
    assert res.ratio_power() == 1
    # (-2, -1), (-1, -1), (1, 0), ... all tie at ratio 1; the search
    # keeps the lexicographically first candidate
    assert res.argmin == (-2, -1)
    assert res.a ** 1 == res.moment


def test_delta_search_p2_anticanonical_second_order():
    model = builtin_model("p2-anticanonical")
    res = delta_p_search(model, 2, bound=2)
    # value (1/3) sqrt(6): ratio_power = 1/(3/2) = 2/3
    assert res.ratio_power() == F(2, 3)
    assert res.value == pytest.approx((6.0 ** 0.5) / 3.0, rel=1e-12)


def test_delta_search_product_of_lines():
    model = builtin_model("p1xp1")
    res = delta_p_search(model, 1, bound=3)
    assert res.ratio_power() == 2  # at p = 1 the ratio power is the bound
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert res.argmin == (-3, -2)


def test_delta_search_table_is_complete():
    model = builtin_model("p2")
    table = CandidateTable(model, 1, (1,))
    assert list(table.rows) == primitive_candidates(2, 1)
    res = delta_p_search(model, 1, bound=1)
    assert res == table.delta(1)
    a, tau, moments = table.rows[res.argmin]
    assert (res.a, res.tau, res.moment) == (a, tau, moments[1])


def test_delta_search_rejects_non_q_gorenstein():
    model = ToricModel(NON_QG_PYRAMID)
    with pytest.raises(UnsupportedModelError):
        delta_p_search(model, 1, bound=1)


def test_alpha_candidates():
    assert alpha_candidate(builtin_model("p1xp1"), bound=2)[0] == 1
    assert alpha_candidate(builtin_model("p2"), bound=2)[0] == 1
    alpha, arg = alpha_candidate(builtin_model("p2-anticanonical"), bound=2)
    assert alpha == F(1, 3)


def test_alpha_scales_with_polarization():
    # alpha of the hyperplane class is 3 times alpha of the anticanonical
    a1, _ = alpha_candidate(builtin_model("p2"), bound=2)
    a3, _ = alpha_candidate(builtin_model("p2-anticanonical"), bound=2)
    assert a1 == 3 * a3


def test_delta_search_translation_invariant():
    base = builtin_model("p1xp1")
    shifted = ToricModel(RationalPolytope([(4, -2), (5, -2), (4, -1),
                                           (5, -1)]))
    for p in (1, 2):
        r1 = delta_p_search(base, p, bound=2)
        r2 = delta_p_search(shifted, p, bound=2)
        assert r1.argmin == r2.argmin
        assert r1.ratio_power() == r2.ratio_power()


def test_delta_p_scales_inversely_under_dilation():
    # delta_p(cL) = delta_p(L)/c: on cP every s_p(v) is c**p times the
    # one on P and A(v) is unchanged, so the argmin stays and the exact
    # ratio power is c**-p times the one on P
    for name in ("p2", "p1xp1", "hirzebruch-1"):
        model = builtin_model(name)
        for c in (2, 3):
            dilated = ToricModel(model.P.dilate(c))
            for p in (1, 2, 3):
                base = delta_p_search(model, p, bound=2)
                res = delta_p_search(dilated, p, bound=2)
                assert res.argmin == base.argmin, (name, c, p)
                assert res.ratio_power() == base.ratio_power() / c ** p


# ---------------------------------------------------------------------------
# closed-form candidate rows against the volume curves


def assert_rows_match_curves(model, bound):
    """Every candidate's volume curve validates, and its tau and s_1..s_4
    equal the closed-form row's."""
    table = CandidateTable(model, bound, (1, 2, 3, 4))
    for v in table.rows:
        curve = volume_curve_of(model, ToricValuation(model, v))
        assert curve.tau == table.rows[v][1], v
        assert [curve.s_p(p) for p in range(1, 5)] == \
            [table.s_p(v, p) for p in range(1, 5)], v


@pytest.mark.parametrize("name, anticanonical, bound", [
    ("p2", False, 3), ("p2-anticanonical", False, 3), ("p1xp1", False, 3),
    ("hirzebruch-1", False, 2), ("hirzebruch-3", False, 2),
    ("pn:3", False, 2), ("pn:3", True, 2), ("pn:4", True, 1),
])
def test_closed_form_rows_match_curves_on_builtin_models(name, anticanonical,
                                                         bound):
    model = builtin_model(name)
    if anticanonical:
        model = ToricModel(model.anticanonical_polytope())
    assert_rows_match_curves(model, bound)


@st.composite
def _lattice_polytope(draw):
    # polygons with 3..6 given points, or tetrahedra
    n = draw(st.sampled_from((2, 3)))
    coord = st.integers(min_value=0, max_value=4 if n == 2 else 3)
    size = st.integers(min_value=3, max_value=6) if n == 2 else st.just(4)
    count = draw(size)
    return draw(st.lists(st.tuples(*[coord] * n), min_size=count,
                         max_size=count, unique=True))


@settings(max_examples=25, deadline=None)
@given(pts=_lattice_polytope())
def test_closed_form_rows_match_curves_on_random_polytopes(pts):
    assume(affine_dimension(pts) == len(pts[0]))
    assert_rows_match_curves(ToricModel(RationalPolytope(pts)), 1)


@st.composite
def _many_simplex_polytope(draw):
    # prisms over polygons in dimensions 3 and 4, products of two
    # polygons, and lattice 3-polytopes with at least 6 vertices
    def points(n, count, top):
        coord = st.integers(min_value=0, max_value=top)
        return draw(st.lists(st.tuples(*[coord] * n), min_size=count,
                             max_size=count, unique=True))

    kind = draw(st.sampled_from(("prism", "prism-4", "product", "random")))
    if kind == "random":
        return points(3, draw(st.integers(min_value=6, max_value=9)), 3)
    segment = [(0,), (draw(st.integers(min_value=1, max_value=2)),)]
    second = {"prism": [segment], "prism-4": [segment, segment],
              "product": [points(2, draw(st.integers(3, 4)), 2)]}[kind]
    return [sum(parts, ()) for parts in itertools.product(points(2, 4, 3),
                                                          *second)]


@settings(max_examples=15, deadline=None)
@given(pts=_many_simplex_polytope())
def test_closed_form_rows_match_the_per_simplex_oracle(pts):
    # one integer sum over the weighted triangulation against the
    # integral of g_v**p on each simplex, for p = 1..5; g_v is integral
    # at the lattice vertices
    assume(affine_dimension(pts) == len(pts[0]))
    model = ToricModel(RationalPolytope(pts))
    assume(len(model.vertices) >= 6 and model.is_q_gorenstein)
    table = CandidateTable(model, 1, range(1, 6))
    volumes = [(simplex_volume(s), s) for s in model.P.triangulation()]
    for v in table.rows:
        val = ToricValuation(model, v)
        weighted = [(vol, [int(val.g(u)) for u in s]) for vol, s in volumes]
        for p in range(1, 6):
            total = sum(integrate_affine_power_over_simplex(vol, values, p)
                        for vol, values in weighted)
            assert table.s_p(v, p) == total / model.P.volume(), (v, p)


def test_argmin_check_catches_a_corrupted_closed_form(monkeypatch):
    # the moment formula without its factor n! p!/(n+p)!
    def mutant(weighted, n, orders):
        weighted = list(weighted)
        return {p: F(sum(w * complete_homogeneous(values, p)
                         for w, values in weighted), sum(w for w, _ in weighted))
                for p in orders}

    monkeypatch.setattr(toric, "mean_affine_powers", mutant)
    model = builtin_model("p2-anticanonical")
    with pytest.raises(AssertionError):
        assert_rows_match_curves(model, 1)
    with pytest.raises(InvariantViolation, match="closed-form row disagrees"):
        delta_p_search(model, 2, bound=1)


def _count_kernel_calls(monkeypatch):
    calls = []

    def counted(weighted, n, orders):
        calls.append(tuple(orders))
        return mean_affine_powers(weighted, n, orders)

    monkeypatch.setattr(toric, "mean_affine_powers", counted)
    return calls


def test_table_runs_the_moment_kernel_once_per_row(monkeypatch):
    # hexagon x segment: a 3-polytope of many simplices, every order of
    # a row from one call
    model = ToricModel(RationalPolytope([(*w, c) for w in HEXAGON
                                         for c in (-1, 1)]))
    assert len(model.simplices()) > 1
    calls = _count_kernel_calls(monkeypatch)
    table = CandidateTable(model, 2, (1, 2, 3, 4))
    assert calls == [(1, 2, 3, 4)] * len(table.rows)
    v = next(iter(table.rows))
    assert table.s_p(v, 4) == volume_curve_of(
        model, ToricValuation(model, v)).s_p(4)
    with pytest.raises(DomainError, match="no order 5"):
        table.s_p(v, 5)
    with pytest.raises(DomainError, match="no order 5"):
        table.delta(5)


def test_alpha_runs_no_moment_kernel(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    model = builtin_model("p2-anticanonical")
    assert alpha_candidate(model, 2) == (F(1, 3), (-1, -1))
    assert calls == []
    assert all(row[2] == {} for row in CandidateTable(model, 2).rows.values())


def test_table_dots_each_vertex_once_per_row(monkeypatch):
    # one dot per (candidate, vertex) for the vertex values, and one per
    # candidate for A(v) at the first zero of those values
    model = ToricModel(RationalPolytope(HEXAGON))
    calls = []

    def counted(a, b):
        calls.append(None)
        return geometry.dot(a, b)

    monkeypatch.setattr(toric, "dot", counted)
    table = CandidateTable(model, 2, (1, 2))
    assert len(calls) == len(table.rows) * (len(model.vertices) + 1)


@pytest.mark.parametrize("name", ["p2", "hirzebruch-2", "pn:3", "hexagon"])
def test_vertex_values_are_g_and_vanish_first_at_the_smallest_minimizer(name):
    model = (ToricModel(RationalPolytope(HEXAGON)) if name == "hexagon"
             else builtin_model(name))
    for v in primitive_candidates(model.n, 2):
        val = ToricValuation(model, v)
        assert val.values == tuple(val.g(w) for w in model.vertices)
        w = min(model.vertices, key=lambda u: (geometry.dot(u, v), u))
        assert model.vertices[val.values.index(0)] == w

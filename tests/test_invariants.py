"""Tests for the aggregate invariant reports and stability verdicts.

Frozen boundary values:

  * threshold power at p = 1 is n/(n+1) * (n+1)/n = 1 for every n
  * projective-plane boundary power at p: C(p+2, 2) / 3**p
  * the curve case (n = 1) sits exactly on the threshold: both powers
    equal (p+1)/2**p
"""

import csv
import io
import math
from fractions import Fraction

import pytest

from deltap import cli, toric
from deltap.errors import DomainError, InvariantViolation, SemanticError
from deltap.geometry import RationalPolytope
from deltap.invariants import (
    InvariantReport,
    KStabilityVerdict,
    delta_family,
    h_gap,
    kstability_threshold_power,
    kstability_verdict,
    projective_space_delta_power,
)
from deltap.toric import (ToricModel, ToricValuation, alpha_candidate,
                          builtin_model, delta_p_search, log_discrepancy,
                          primitive_candidates, volume_curve_of)

F = Fraction


# ---------------------------------------------------------------------------
# closed-form boundary quantities


def test_threshold_power_is_one_at_first_order():
    for n in range(1, 7):
        assert kstability_threshold_power(n, 1) == 1


def test_threshold_power_values():
    assert kstability_threshold_power(1, 2) == F(1, 4) * 3  # 3/4
    assert kstability_threshold_power(2, 2) == F(4, 9) * 2  # 8/9
    assert kstability_threshold_power(2, 3) == F(8, 27) * F(5, 2)


def test_projective_space_delta_power_values():
    assert projective_space_delta_power(1, 2) == F(3, 4)
    assert projective_space_delta_power(2, 2) == F(6, 9)
    assert projective_space_delta_power(2, 1) == 1


def test_curve_case_is_borderline_in_closed_form():
    for p in range(1, 8):
        assert kstability_threshold_power(1, p) == \
            projective_space_delta_power(1, p) == F(p + 1, 2 ** p)


@pytest.mark.parametrize("n, p", [(1.5, 2), (True, 2), (2, 1.5),
                                  (2, True), (0, 1)])
def test_h_gap_needs_positive_integers(n, p):
    with pytest.raises(DomainError, match="must be a positive integer"):
        h_gap(n, p)


def test_h_gap_vanishes_at_first_order():
    for n in range(1, 7):
        sign, value = h_gap(n, 1)
        assert sign == 0
        assert abs(value) < 1e-12


def test_h_gap_positive_for_surfaces_at_higher_order():
    for p in range(2, 7):
        sign, value = h_gap(2, p)
        assert sign == 1
        assert value > 0


def test_h_gap_matches_exact_sign():
    # spot check the exact comparison against direct arithmetic
    for n in (2, 3, 4):
        for p in (1, 2, 3, 5):
            sign, _ = h_gap(n, p)
            product = F(1)
            for i in range(1, n):
                product *= F(p + i, i)
            expected = (F(n) ** p > product) - (F(n) ** p < product)
            assert sign == expected


def test_h_gap_rejects_bad_input():
    with pytest.raises(DomainError):
        h_gap(0, 1)


# ---------------------------------------------------------------------------
# dilation


def test_integral_moment_dilation_homogeneity():
    # doubling the polytope: A fixed, V s_p scales by 2**(n+p)
    model = builtin_model("p2")
    big = ToricModel(RationalPolytope([(0, 0), (2, 0), (0, 2)]))
    val_s = ToricValuation(model, (1, 1))
    val_b = ToricValuation(big, (1, 1))
    assert log_discrepancy(model, val_s) == log_discrepancy(big, val_b)
    small, large = volume_curve_of(model, val_s), volume_curve_of(big, val_b)
    for p in (1, 2):
        assert large.V * large.s_p(p) == small.V * small.s_p(p) * 2 ** (2 + p)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_p1_is_borderline_everywhere():
    # at p = 1 the threshold power is 1 and the first-order bound of an
    # anticanonical model is exactly 1
    for name in ("p2-anticanonical",):
        verdict = kstability_verdict(builtin_model(name), 1, bound=2)
        assert verdict.relation == "borderline"
        assert verdict.delta_upper == pytest.approx(1.0, rel=1e-12)


def test_verdict_curve_is_exactly_borderline():
    model = builtin_model("pn:1")
    for p in (2, 3):
        verdict = kstability_verdict(model, p, bound=2)
        assert verdict.relation == "borderline"
        assert verdict.h_sign == 0


def test_verdict_plane_strictly_below_at_higher_order():
    model = builtin_model("p2-anticanonical")
    for p in (2, 3, 4):
        verdict = kstability_verdict(model, p, bound=2)
        assert verdict.relation == "below"
        assert verdict.h_sign == 1
        assert verdict.delta_upper < verdict.threshold


def test_verdict_rescales_non_unit_polarizations():
    # the hyperplane class on the plane is 1/3 of the anticanonical
    # class; verdicts must agree with the anticanonical model's
    for p in (1, 2, 3):
        small = kstability_verdict(builtin_model("p2"), p, bound=2)
        anti = kstability_verdict(builtin_model("p2-anticanonical"), p,
                                  bound=2)
        assert small.relation == anti.relation
        assert small.delta_upper == pytest.approx(anti.delta_upper,
                                                  rel=1e-12)


def test_verdict_requires_anticanonical_proportionality():
    with pytest.raises(SemanticError):
        kstability_verdict(builtin_model("hirzebruch-1"), 2, bound=1)


def test_verdict_json_shape():
    verdict = kstability_verdict(builtin_model("p2-anticanonical"), 2,
                                 bound=1)
    doc = verdict.to_json_dict()
    assert doc["relation"] == "below"
    assert doc["search"]["upper_bound_only"] is True


# ---------------------------------------------------------------------------
# family reports


def test_delta_family_report_structure():
    model = builtin_model("p2-anticanonical")
    report = delta_family(model, (1, 2, 3), bound=2)
    assert report.n == 2
    assert [r.p for r in report.rows] == [1, 2, 3]
    assert report.flags == ()
    assert report.rows[0].verdict == "borderline"
    assert report.rows[1].verdict == "below"
    assert report.alpha_upper == F(1, 3)
    # grid bounds never increase
    values = [r.delta_upper for r in report.rows]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert report.closing_gap == pytest.approx(values[-1] - 1.0 / 3.0,
                                               rel=1e-9)


def test_delta_family_without_anticanonical_scale():
    report = delta_family(builtin_model("hirzebruch-1"), (1, 2), bound=1)
    assert all(r.verdict is None for r in report.rows)
    assert all(r.threshold is None for r in report.rows)


def test_delta_family_rejects_bad_grid():
    model = builtin_model("p2")
    with pytest.raises(DomainError):
        delta_family(model, (2, 1), bound=1)
    with pytest.raises(DomainError):
        delta_family(model, (), bound=1)
    with pytest.raises(DomainError):
        delta_family(model, (0, 1), bound=1)


def test_delta_family_csv_rows(capsys):
    # the CSV rows are built in cli.py, from the report of delta_family
    assert cli.main(["invariants", "--model", "p2-anticanonical",
                     "--p", "1,2", "--bound", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["p"] for r in rows] == ["1", "2"]
    assert set(rows[0]) == {"p", "delta_upper", "argmin", "alpha_upper",
                            "threshold", "verdict"}
    assert rows[0]["verdict"] == "borderline"


def test_delta_family_json_labels_upper_bounds():
    report = delta_family(builtin_model("p1xp1"), (1,), bound=2)
    doc = report.to_json_dict()
    assert doc["upper_bounds_only"] is True
    assert doc["alpha_upper_bound"] == "1"


def test_delta_family_builds_each_curve_once(monkeypatch):
    built = []

    def counted(model, val):
        built.append(val.v)
        return volume_curve_of(model, val)

    # invariants reaches volume curves only through toric
    monkeypatch.setattr(toric, "volume_curve_of", counted)
    report = delta_family(builtin_model("p2-anticanonical"), (1, 2, 3, 4), 3)
    # 32 candidates, but only the argmins get a curve, each one once
    assert len(primitive_candidates(2, 3)) == 32
    assert sorted(built) == sorted({row.argmin for row in report.rows})


@pytest.mark.parametrize("name, anticanonical, bound", [
    ("p2-anticanonical", False, 2),
    ("p1xp1", False, 2),
    ("hirzebruch-1", False, 2),
    ("pn:3", True, 1),
])
def test_delta_family_agrees_with_standalone_searches(name, anticanonical,
                                                       bound):
    # delta_family reduces over one shared table; the public entry points
    # each build their own, so they must give the same rows
    model = builtin_model(name)
    if anticanonical:
        model = ToricModel(model.anticanonical_polytope())
    report = delta_family(model, (1, 2, 3), bound)
    assert (report.alpha_upper, report.alpha_argmin) == alpha_candidate(
        model, bound)
    for row in report.rows:
        search = delta_p_search(model, row.p, bound)
        assert (row.argmin, row.a, row.s_p) == (
            search.argmin, search.a, search.moment)
        val = ToricValuation(model, search.argmin)
        assert row.tau == volume_curve_of(model, val).tau
        assert (row.verdict is None) == (model.anticanonical_scale() is None)
        if row.verdict is not None:
            assert row.verdict == kstability_verdict(model, row.p,
                                                     bound).relation

"""Acceptance gate: ten criteria, one test and one printed line each.

Each test prints ``criterion NN PASS`` (or FAIL) so a verbose run
reads as a checklist.  Exact claims are asserted with rational (or
quadratic-irrational) arithmetic at tolerance zero; float paths carry
the stated tolerance; runtime limits are asserted where stated.
"""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from deltap.filtration import (basis_moment, compatible_basis,
                               random_flag_filtration, rounding_sandwich,
                               sup_over_bases_oracle)
from deltap.geodesic import (dp_speed, inverse_legendre, legendre,
                             random_test_curve, verify_moment_identity)
from deltap.invariants import (h_gap, kstability_threshold_power,
                               kstability_verdict)
from deltap.numeric import SqrtSum
from deltap.toric import (ToricModel, ToricValuation, builtin_model,
                          concave_transform_of, delta_p_search,
                          section_filtration, volume_curve_of)
from deltap.volume_curve import random_admissible_curve


def criterion(num, label):
    """Print one pass/fail line per criterion around the test body."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL  {label}")
                raise
            print(f"criterion {num:02d} PASS  {label}")
        return wrapper
    return deco


@pytest.fixture(scope="session")
def corpus():
    """600 admissible volume curves: 200 per dimension, seeded."""
    curves = []
    for n in (1, 2, 3):
        rng = random.Random(f"acceptance-corpus:{n}")
        curves.extend(random_admissible_curve(rng, n) for _ in range(200))
    return curves


@criterion(1, "projective closed form, exact, < 1 s")
def test_criterion_01_projective_closed_form():
    started = time.monotonic()
    for n in (1, 2, 3):
        anti = ToricModel(builtin_model(f"pn:{n}").P.dilate(n + 1))
        val = ToricValuation(anti, (1,) + (0,) * (n - 1))
        curve = volume_curve_of(anti, val)
        for p in (1, 2, 3, 4):
            expected = Fraction(
                (n + 1) ** p * math.factorial(p) * math.factorial(n),
                math.factorial(n + p))
            assert curve.s_p(p) == expected, (n, p)
    assert time.monotonic() - started < 1.0


@criterion(2, "barycenter sandwich exact on 600 random curves, < 30 s")
def test_criterion_02_barycenter_sandwich(corpus):
    started = time.monotonic()
    for curve in corpus:
        for p in range(1, 7):
            lo, hi = curve.barycenter_bounds(p)
            s = curve.s_p(p)
            assert lo <= s <= hi, (curve.n, p)
    assert time.monotonic() - started < 30.0


@criterion(3, "normalized moment nondecreasing over {1, 1.5, ..., 10}")
def test_criterion_03_h_monotonicity(corpus):
    grid = [1.0 + 0.5 * j for j in range(19)]
    for curve in corpus:
        values = [curve.h_stat(x) for x in grid]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9, (curve.n, values)
        # integer orders again, exactly, via cross powers
        powers = [curve.h_stat_power(p) for p in range(1, 11)]
        for p1 in range(1, 10):
            p2 = p1 + 1
            assert powers[p1 - 1] ** p2 <= powers[p2 - 1] ** p1, (curve.n, p1)


@criterion(4, "log-convexity of the tail statistic on [n, n+10]")
def test_criterion_04_k_log_convexity(corpus):
    for curve in corpus:
        n = curve.n
        grid = [n + 0.5 * j for j in range(21)]
        logs = [math.log(curve.k_stat(s)) for s in grid]
        for i in range(1, len(logs) - 1):
            assert logs[i - 1] + logs[i + 1] - 2 * logs[i] >= -1e-9, \
                (n, grid[i])


@criterion(5, "quantized moments converge on the plane, < 10 s")
def test_criterion_05_quantization_convergence():
    started = time.monotonic()
    model = builtin_model("p2")
    val = ToricValuation(model, (1, 0))
    curve = volume_curve_of(model, val)
    # p = 1: the level-m average hits the limit exactly at every level
    for m in range(1, 17):
        assert section_filtration(model, val, m).s_m_p(1) == curve.s_p(1), m
    # p = 2: the gap at level 16 is no larger than at level 4
    gap4 = abs(section_filtration(model, val, 4).s_m_p(2) - curve.s_p(2))
    gap16 = abs(section_filtration(model, val, 16).s_m_p(2) - curve.s_p(2))
    assert gap16 <= gap4
    assert time.monotonic() - started < 10.0


def _nonneg(x) -> bool:
    if isinstance(x, SqrtSum):
        return x.sign() >= 0
    return x >= 0


@criterion(6, "rounding sandwich exact on 100 fractional-jump filtrations")
def test_criterion_06_rounding_sandwich():
    rng = random.Random("acceptance:rounding")
    produced = 0
    while produced < 100:
        filt = random_flag_filtration(rng, rng.randint(1, 4),
                                      rng.randint(1, 4))
        if all(a.denominator == 1 for a in filt.jumps):
            continue
        produced += 1
        for p in (1, Fraction(3, 2), 3):
            upper, rounded, lower = rounding_sandwich(filt, p)
            assert _nonneg(upper - rounded), (p, filt.jumps)
            assert _nonneg(rounded - lower), (p, filt.jumps)


@criterion(7, "compatible basis attains the sup; 1000 samples never beat it")
def test_criterion_07_compatible_basis_optimality():
    rng = random.Random("acceptance:basis")
    for i in range(50):
        filt = random_flag_filtration(rng, rng.randint(1, 5),
                                      rng.randint(1, 4))
        oracle_rng = random.Random(f"acceptance:basis-oracle:{i}")
        assert sup_over_bases_oracle(filt, 2, 1000, oracle_rng) \
            <= filt.s_m_p(2)
        chain = [rows for _, rows in filt.flag[1:]]
        basis = compatible_basis(chain, filt.d)
        for p in (1, 2):
            assert basis_moment(filt, basis, p) == filt.s_m_p(p), (i, p)


@criterion(8, "transform round trip and growth bound exact on 100 curves")
def test_criterion_08_legendre_involution_and_growth():
    rng = random.Random("acceptance:legendre")
    times = (Fraction(1, 4), Fraction(1, 3), Fraction(1), Fraction(2),
             Fraction(7, 2), Fraction(10))
    for _ in range(100):
        tc = random_test_curve(rng)
        ray = legendre(tc)
        assert inverse_legendre(ray) == tc
        for t in times:
            phi = ray.value(t)
            assert 0 <= phi <= ray.max_slope * t, (t, phi)


@criterion(9, "path speed equals the moment root; level gaps shrink")
def test_criterion_09_moment_identity():
    for name, v in (("p2", (1, 0)), ("p1xp1", (0, 1)),
                    ("hirzebruch-1", (1, 0))):
        model = builtin_model(name)
        val = ToricValuation(model, v)
        curve = volume_curve_of(model, val)
        transform = concave_transform_of(model, val)
        for p in (1, 2, 3):
            assert transform.moment_p(p) == curve.s_p(p), (name, p)
            speed = dp_speed(transform, p)
            target = float(curve.s_p(p)) ** (1.0 / p)
            assert abs(speed - target) <= 1e-10, (name, p)
    for name, v in (("p2", (1, 0)), ("p1xp1", (0, 1))):
        model = builtin_model(name)
        report = verify_moment_identity(model, ToricValuation(model, v), 2,
                                        m_grid=(4, 16))
        gaps = [q - report.continuous_root for _, q in report.rows]
        assert abs(gaps[1]) <= abs(gaps[0]), name


@criterion(10, "thresholds: curve borderline, plane strictly below")
def test_criterion_10_kstability_thresholds():
    line = builtin_model("pn:1")
    scale = line.anticanonical_scale()[1]
    for p in (2, 3):
        verdict = kstability_verdict(line, p, 5)
        assert verdict.relation == "borderline", p
        search = delta_p_search(line, p, 5)
        lhs = search.ratio_power() * scale ** p
        assert lhs == kstability_threshold_power(1, p) == \
            Fraction(p + 1, 2 ** p)
    plane = builtin_model("p2")
    assert h_gap(2, 1)[0] == 0
    for p in range(2, 7):
        sign, _ = h_gap(2, p)
        assert sign == 1, p
        if p <= 4:
            assert kstability_verdict(plane, p, 5).relation == "below", p

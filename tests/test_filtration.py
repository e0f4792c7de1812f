"""Tests for flag filtrations at a fixed level, integer rounding, basis
moments, and the section filtrations of a toric valuation.

Frozen values, derived by direct counting:

  * segment [0, 2], weights u at level m: the level-m jumps are
    0, 1, ..., 2m, so s_m_1 = (1/(2m+1)) sum (u/m) = 1 exactly
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap import filtration
from deltap.errors import DomainError, InvariantViolation, StructureError
from deltap.filtration import (
    FlagFiltration,
    basis_moment,
    compatible_basis,
    level_moment,
    random_flag_filtration,
    rounding_sandwich,
    sup_over_bases_oracle,
)
from deltap.geometry import RationalPolytope
from deltap.linalg import rank
from deltap.numeric import SqrtSum
from deltap.toric import ToricModel, ToricValuation, section_filtration
from oracles import compatible_basis_by_rank, nullspace_orders

F = Fraction

SEGMENT2 = ToricModel(RationalPolytope([(F(0),), (F(2),)]))


def _sign_nonneg(x):
    """x >= 0 for Fraction or SqrtSum."""
    if isinstance(x, SqrtSum):
        return x.sign() >= 0
    return x >= 0


def s_m_p_from_flag(filt, p):
    """The moment recomputed from the flag's dimension drops (telescoping);
    the oracle for ``FlagFiltration.s_m_p`` and the flag bookkeeping."""
    sizes = [len(rows) for _, rows in filt.flag] + [0]
    return level_moment(((v, size - nxt) for (v, _), size, nxt
                         in zip(filt.flag, sizes, sizes[1:])),
                        filt.m, filt.d, p)


def with_coordinate_flag(filt):
    """filt with the coordinate flag of its jumps: at height v, the unit
    vectors of the coordinates whose jump is >= v."""
    units = [tuple(int(i == j) for j in range(filt.d)) for i in range(filt.d)]
    return FlagFiltration(filt.m, filt.jumps, [
        (v, [e for e, a in zip(units, filt.jumps) if a >= v])
        for v in sorted(set(filt.jumps))])


def round_to_integer_filtration(filt):
    """Every jumping number floored, as a validated filtration: the
    oracle for the rounded moment of ``rounding_sandwich``.  The subspace
    at integer height v is the original one at the smallest jump >= v."""
    floored = [F(math.floor(a)) for a in filt.jumps]
    flag = None
    if filt.flag is not None:
        flag = [(v, next(rows for value, rows in filt.flag if value >= v))
                for v in sorted(set(floored))]
    return FlagFiltration(filt.m, floored, flag)


# ---------------------------------------------------------------------------
# construction and basic moments


def test_jumps_must_be_sorted_and_nonnegative():
    with pytest.raises(InvariantViolation):
        FlagFiltration(1, [F(2), F(1)])
    with pytest.raises(InvariantViolation):
        FlagFiltration(1, [F(-1), F(1)])
    with pytest.raises(DomainError):
        FlagFiltration(0, [F(1)])


def test_moments_of_simple_filtration():
    filt = FlagFiltration(2, [F(0), F(1), F(3)])
    assert filt.s_m_p(1) == F(0 + 1 + 3, 3 * 2)
    assert filt.s_m_p(2) == (F(1, 4) + F(9, 4)) / 3
    assert filt.t_m() == F(3, 2)


def test_half_order_moment():
    filt = FlagFiltration(1, [F(1), F(4)])
    got = filt.s_m_p(F(1, 2))
    expected = SqrtSum.from_rational(F(3, 2))  # (1 + 2)/2
    assert (got - expected).is_zero()


def test_flag_validation_catches_non_nested():
    flag = [(F(0), [(1, 0), (0, 1)]), (F(1), [(1, 1)])]
    FlagFiltration(1, [F(0), F(1)], flag)  # nested: fine
    bad = [(F(0), [(1, 0), (0, 1)]), (F(1), [(1, 0), (0, 1)])]
    with pytest.raises(StructureError):
        FlagFiltration(1, [F(0), F(1)], bad)
    # right dimensions, but the line at height 2 is outside the plane at 1
    skew = [(F(0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            (F(1), [(1, 0, 0), (0, 1, 0)]), (F(2), [(1, 1, 1)])]
    with pytest.raises(StructureError, match="not nested"):
        FlagFiltration(1, [F(0), F(1), F(2)], skew)
    # the right count at height 0, but dependent rows that the line at
    # height 1 would fill up to the plane: refused as an entry
    filled = [(F(0), [(1, 0), (1, 0)]), (F(1), [(0, 1)])]
    with pytest.raises(StructureError, match="must be 2 independent rows"):
        FlagFiltration(1, [F(0), F(1)], filled)


def _combination(rng, rows):
    """A random small integer combination of ``rows``."""
    coeffs = [rng.randint(-3, 3) for _ in rows]
    return tuple(sum(c * r[t] for c, r in zip(coeffs, rows))
                 for t in range(len(rows[0])))


def _respanned(rng, rows):
    """Other rows with the same span: independent random combinations."""
    while True:
        mixed = [_combination(rng, rows) for _ in rows]
        if rank(mixed) == len(rows):
            return mixed


def _random_flags(rng, count):
    """Seeded flagged filtrations of dimensions 1..6; every other one has
    each flag entry spanned by its own combinations of the rows, so the
    entries share no rows."""
    for i in range(count):
        filt = random_flag_filtration(rng, 1 + i % 6, rng.randint(1, 4))
        if i % 2:
            filt = FlagFiltration(filt.m, filt.jumps, [
                (v, _respanned(rng, rows)) for v, rows in filt.flag])
        yield filt


def test_ord_of_matches_the_nullspace_oracle():
    rng = Random("ord-of")
    for filt in _random_flags(rng, 200):
        order = nullspace_orders(filt)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(filt.d))
                   for _ in range(20)]
        for _, rows in filt.flag:
            vectors += [_combination(rng, rows) for _ in range(6)]
        for s in vectors:
            if any(s):
                assert filt.ord_of(s) == order(s), (filt.flag, s)
            else:
                with pytest.raises(DomainError, match="zero vector"):
                    filt.ord_of(s)


def test_flags_and_chains_take_no_rank_per_pair_or_candidate(monkeypatch):
    flag = [(F(0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            (F(1), [(1, 1, 0), (0, 0, 1)]), (F(3), [(1, 1, 0)])]
    ranks = []
    monkeypatch.setattr(filtration, "rank",
                        lambda rows: ranks.append(rows) or rank(rows))
    filt = FlagFiltration(2, [F(0), F(1), F(3)], flag)
    assert len(ranks) == 3  # the count check of each entry, no more
    assert filt.ord_of((1, 1, 1)) == 1 and len(ranks) == 3
    compatible_basis([rows for _, rows in flag[1:]], 3)
    assert len(ranks) == 3


def test_ord_of_and_flag_moment_route():
    flag = [(F(0), [(1, 0), (0, 1)]), (F(2), [(1, 1)])]
    filt = FlagFiltration(1, [F(0), F(2)], flag)
    assert filt.ord_of((1, 1)) == 2
    assert filt.ord_of((1, 0)) == 0
    assert filt.ord_of((2, 2)) == 2
    with pytest.raises(DomainError):
        filt.ord_of((0, 0))
    for p in (1, 2, 3):
        assert s_m_p_from_flag(filt, p) == filt.s_m_p(p)


# ---------------------------------------------------------------------------
# rounding


def test_round_to_integer_filtration_floors_jumps():
    filt = FlagFiltration(3, [F(1, 2), F(5, 3), F(7, 2)])
    rounded = round_to_integer_filtration(filt)
    assert rounded.jumps == (F(0), F(1), F(3))
    assert rounded.m == 3
    flagged = round_to_integer_filtration(FlagFiltration(
        1, [F(1, 2), F(3, 2)], [(F(1, 2), [(1, 0), (0, 1)]),
                                (F(3, 2), [(1, 1)])]))
    assert flagged.jumps == (F(0), F(1))
    assert flagged.ord_of((1, 1)) == 1 and flagged.ord_of((1, 0)) == 0


def test_rounding_sandwich_integer_orders():
    rng = Random("sandwich")
    for _ in range(15):
        filt = random_flag_filtration(rng, rng.randint(1, 5),
                                      rng.randint(1, 6))
        for p in (1, 2, 3):
            upper, mid, lower = rounding_sandwich(filt, p)
            assert lower <= mid <= upper


def test_rounding_sandwich_half_orders_exact():
    rng = Random("sandwich-half")
    for _ in range(10):
        filt = random_flag_filtration(rng, rng.randint(1, 4),
                                      rng.randint(1, 5))
        upper, mid, lower = rounding_sandwich(filt, F(3, 2))
        assert _sign_nonneg(upper - mid)
        assert _sign_nonneg(mid - lower)


def test_rounding_sandwich_is_tight_for_integer_jumps():
    filt = FlagFiltration(2, [F(0), F(1), F(3)])
    upper, mid, _ = rounding_sandwich(filt, 2)
    assert upper == mid  # nothing to round


def _half_moment_per_jump(filt, p):
    """The half-integer moment as one root per jump, added in jump order;
    an oracle for the kernel, which nets each distinct value first."""
    total = SqrtSum.from_rational(0)
    for a in filt.jumps:
        x = a / filt.m
        total = total + SqrtSum.sqrt(x).scale(x ** (p - F(1, 2)))
    return total.scale(F(1, filt.d))


def _sandwich_per_case(filt, p):
    """rounding_sandwich with a branch per order kind, through the floored
    filtration and the per-jump oracle above."""
    rounded, m = round_to_integer_filtration(filt), filt.m
    if isinstance(p, int):
        upper, mid = filt.s_m_p(p), rounded.s_m_p(p)
        slack = F(1, m) if p == 1 else F(p, m) * filt.s_m_p(p - 1)
        return upper, mid, upper - slack
    upper = _half_moment_per_jump(filt, p)
    mid = _half_moment_per_jump(rounded, p)
    if p < 2:  # p/m**(p-1) s_1 = m**(-1/2) p s_1
        slack = SqrtSum.sqrt(F(m)).scale(F(1, m)).scale(p * filt.s_m_p(1))
    else:
        slack = _half_moment_per_jump(filt, p - 1).scale(F(p, m))
    return upper, mid, upper - slack


def _assert_identical(got, want):
    """Equal values, and for a SqrtSum the same roots in the same order
    and the same float bits."""
    assert type(got) is type(want) and got == want
    if isinstance(want, SqrtSum):
        assert list(got.terms.items()) == list(want.terms.items())
        assert float(got).hex() == float(want).hex()


def test_half_integer_moments_and_sandwich_equal_their_per_jump_forms():
    rng = Random("per-jump")
    for _ in range(60):
        filt = random_flag_filtration(rng, rng.randint(1, 6),
                                      rng.randint(1, 7))
        counts = [(a, filt.jumps.count(a)) for a in sorted(set(filt.jumps))]
        for p in (F(1, 2), F(3, 2), F(5, 2), F(7, 2)):
            want = _half_moment_per_jump(filt, p)
            _assert_identical(filt.s_m_p(p), want)
            _assert_identical(level_moment(counts, filt.m, filt.d, p), want)
        for p in (1, F(3, 2), 2, F(5, 2), 3, F(7, 2)):
            for got, want in zip(rounding_sandwich(filt, p),
                                 _sandwich_per_case(filt, p)):
                _assert_identical(got, want)


# ---------------------------------------------------------------------------
# compatible bases


def test_compatible_basis_known_example():
    # chain: the line spanned by (1, 1) inside Q^2
    basis = compatible_basis([[(1, 1)]], 2)
    assert basis == ((F(1), F(0)), (F(1), F(1)))
    assert compatible_basis_by_rank([[(1, 1)]], 2) == basis


def test_compatible_basis_rejects_bad_chains():
    with pytest.raises(StructureError):
        compatible_basis([[(1, 0), (0, 1)]], 2)  # full space not allowed
    with pytest.raises(StructureError):
        compatible_basis([[(1, 0)], [(0, 1)]], 2)  # not nested
    with pytest.raises(StructureError, match="not nested"):
        compatible_basis([[(1, 0, 0), (0, 1, 0)], [(1, 1, 1)]], 3)


def _basis_or_error(build, chain, d):
    try:
        return build(chain, d)
    except StructureError as exc:
        return str(exc)


def test_compatible_basis_matches_the_rank_oracle():
    rng = Random("compatible")
    chains = [([rows for _, rows in filt.flag[1:]], filt.d)
              for filt in _random_flags(rng, 200)]
    for _ in range(150):  # random rows: often not nested or not decreasing
        d = rng.randint(1, 5)
        sizes = sorted((rng.randint(0, d) for _ in range(rng.randint(1, 3))),
                       reverse=True)
        chains.append(([[tuple(rng.randint(-1, 1) for _ in range(d))
                         for _ in range(k)] for k in sizes], d))
    outcomes = []
    for chain, d in chains:
        got = _basis_or_error(compatible_basis, chain, d)
        assert got == _basis_or_error(compatible_basis_by_rank, chain, d), \
            (chain, d)
        outcomes.append(got if isinstance(got, str) else "basis")
    assert {"basis", "chain subspaces are not nested",
            "chain must be strictly decreasing below Q^d"} <= set(outcomes)


def test_compatible_basis_attains_filtration_moment():
    rng = Random("attain")
    for _ in range(12):
        filt = random_flag_filtration(rng, rng.randint(2, 5),
                                      rng.randint(1, 4))
        chain = [rows for _, rows in filt.flag[1:]]
        basis = compatible_basis(chain, filt.d) if chain else tuple(
            tuple(F(1 if j == i else 0) for j in range(filt.d))
            for i in range(filt.d))
        for p in (1, 2):
            assert basis_moment(filt, basis, p) == filt.s_m_p(p)


def test_random_bases_never_beat_the_filtration_moment():
    rng = Random("oracle")
    for _ in range(6):
        filt = random_flag_filtration(rng, rng.randint(2, 4),
                                      rng.randint(1, 4))
        for p in (1, 2):
            best = sup_over_bases_oracle(filt, p, 200, rng)
            assert best <= filt.s_m_p(p)


def test_oracle_checks_each_sample_once(monkeypatch):
    class CountingRandom(Random):
        draws = 0

        def randint(self, a, b):
            self.draws += 1
            return super().randint(a, b)

    filt = random_flag_filtration(Random(5), 2, 3)
    ranks = []
    monkeypatch.setattr(filtration, "rank",
                        lambda rows: ranks.append(rows) or rank(rows))
    rng = CountingRandom(0)
    sup_over_bases_oracle(filt, 2, 100, rng)
    # one rank per drawn 2 x 2 sample, singular ones included
    assert len(ranks) == rng.draws // 4 > 100


def test_integer_rows_agree_with_their_rational_and_string_forms():
    # int rows skip the Fraction coercion; every other row keeps it, so
    # the orders agree and floats and wrong widths are refused as before
    flag = [(F(0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            (F(1), [(1, 1, 0), (0, 0, 1)]), (F(3), [(1, 1, 0)])]
    filt = FlagFiltration(2, [F(0), F(1), F(3)], flag)
    for row in [(2, 2, 0), [0, 0, -5], (1, 1, 1), (1, 0, 0), (4, 4, 3)]:
        exact = [F(x, 3) for x in row]
        assert filt.ord_of(row) == filt.ord_of(exact) \
            == filt.ord_of([str(x) for x in exact])
    basis = [(1, 1, 0), (0, 0, 1), (1, 0, 0)]
    for p in (1, 2):
        assert basis_moment(filt, basis, p) \
            == basis_moment(filt, [[F(x) for x in r] for r in basis], p) \
            == filt.s_m_p(p)
    with pytest.raises(DomainError):
        filt.ord_of((1.0, 0, 0))
    with pytest.raises(StructureError, match="width"):
        filt.ord_of((1, 0))
    with pytest.raises(DomainError):
        basis_moment(filt, [(1.0, 1, 0), (0, 0, 1), (1, 0, 0)], 1)


def test_basis_moment_rejects_singular_input():
    flag = [(F(0), [(1, 0), (0, 1)]), (F(1), [(1, 0)])]
    filt = FlagFiltration(1, [F(0), F(1)], flag)
    with pytest.raises(StructureError):
        basis_moment(filt, [(1, 0), (2, 0)], 1)


# ---------------------------------------------------------------------------
# section filtrations of a segment


def test_monomial_weights_on_segment():
    val = ToricValuation(SEGMENT2, (1,))
    assert val.offset == 0
    filt = section_filtration(SEGMENT2, val, 3)
    assert filt.jumps == tuple(F(u) for u in range(7))


def test_monomial_offset_normalizes_negative_directions():
    val = ToricValuation(SEGMENT2, (-1,))
    assert val.offset == 2
    assert (val.g((2,)), val.g((0,))) == (0, 2)
    assert section_filtration(SEGMENT2, val, 1).jumps == (0, 1, 2)


def test_monomial_flag_filtration_first_moment_is_one_on_segment():
    val = ToricValuation(SEGMENT2, (1,))
    for m in (1, 2, 5):
        assert section_filtration(SEGMENT2, val, m).s_m_p(1) == 1


def test_monomial_flag_filtration_with_flag_routes_agree():
    val = ToricValuation(SEGMENT2, (1,))
    filt = with_coordinate_flag(section_filtration(SEGMENT2, val, 2))
    assert filt.flag[-1] == (F(4), ((F(0),) * 4 + (F(1),),))
    assert s_m_p_from_flag(filt, 2) == filt.s_m_p(2)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       d=st.integers(min_value=1, max_value=5),
       m=st.integers(min_value=1, max_value=6))
def test_property_rounding_sandwich(seed, d, m):
    filt = random_flag_filtration(Random(seed), d, m)
    for p in (1, 2):
        upper, mid, lower = rounding_sandwich(filt, p)
        assert lower <= mid <= upper


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       d=st.integers(min_value=2, max_value=4))
def test_property_moment_routes_agree(seed, d):
    filt = random_flag_filtration(Random(seed), d, 3)
    for p in (1, 2, 3):
        assert s_m_p_from_flag(filt, p) == filt.s_m_p(p)


JUMPS = st.lists(st.fractions(min_value=0, max_value=40, max_denominator=30),
                 min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(jumps=JUMPS, m=st.integers(min_value=1, max_value=9),
       p=st.integers(min_value=1, max_value=7))
def test_level_moment_matches_the_fraction_sum(jumps, m, p):
    # the kernel sums integer powers over the lcm of the denominators;
    # the naive sum reduces a Fraction at every term
    naive = sum(((a / m) ** p for a in jumps), Fraction(0)) / len(jumps)
    pairs = [(a, jumps.count(a)) for a in sorted(set(jumps))]
    assert level_moment(pairs, m, len(jumps), p) == naive
    assert level_moment(((a, 1) for a in jumps), m, len(jumps), p) == naive
    filt = FlagFiltration(m, sorted(jumps))
    assert filt.s_m_p(p) == naive


@pytest.mark.parametrize("d, m", [(1.5, 1), (True, 1), (0, 1), (2, 1.5),
                                  (2, True), (2, 0)])
def test_random_flag_filtration_needs_positive_integers(d, m):
    with pytest.raises(DomainError, match="must be a positive integer"):
        random_flag_filtration(Random(0), d, m)


def test_basis_moment_needs_a_positive_order():
    filt = random_flag_filtration(Random(0), 2, 2)
    basis = compatible_basis([rows for _, rows in filt.flag[1:]], filt.d)
    with pytest.raises(DomainError, match="moment order p"):
        basis_moment(filt, basis, 0)

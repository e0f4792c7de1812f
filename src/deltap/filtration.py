"""Filtrations of finite-dimensional section spaces.

A :class:`FlagFiltration` stores the jumping numbers of a decreasing
filtration of a d-dimensional rational coordinate space at one level m,
optionally together with the actual subspace flag.  On top of that this
module provides the level-m moments, integer rounding with its exact
sandwich bounds, compatible bases (every flag member spanned by a
suffix) and a brute-force supremum oracle over random bases.  The
level-m filtration of a toric valuation is ``toric.section_filtration``.
A flag's one pivot pass over its rows checks that they nest and gives
the adapted basis from which it reads every order.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

from .errors import DomainError, InvariantViolation, StructureError
from .geometry import dot, make_point
from .linalg import Vector, primitive_integer_vector, rank, rref
from .numeric import SqrtSum, as_fraction, check_positive_int


def _as_vector(row: Sequence, width: int) -> Vector:
    vec = make_point(row)
    if len(vec) != width:
        raise StructureError(f"row {row!r} does not have width {width}")
    return vec


def level_moment(values: Iterable[Fraction], m: int, d: int, p):
    """(1/d) sum (a/m)**p over the values a, each as often as it occurs.
    For an integer p the values are brought to the lcm of their
    denominators once, the powers are summed in integers, and one
    Fraction is built.  For a half-integer Fraction p = k + 1/2 > 0, a
    SqrtSum with one root per distinct value in first-appearance order:
    sqrt(a/m) * (a/m)**k * (its count)."""
    values = list(values)
    if isinstance(p, Fraction) and p.denominator == 2 and p > 0:
        k = p.numerator // 2
        return sum((SqrtSum.sqrt(a / m).scale(c * (a / m) ** k)
                    for a, c in Counter(values).items()),
                   SqrtSum.from_rational(0)).scale(Fraction(1, d))
    check_positive_int(p, "moment order p")
    q = math.lcm(*(a.denominator for a in values))
    total = sum((a.numerator * (q // a.denominator)) ** p for a in values)
    return Fraction(total, d * (q * m) ** p)


def _exact_row(row: Sequence, width: int) -> Sequence:
    """A tuple or list of ``width`` ints as it is, since it is exact
    already; any other row through ``_as_vector``."""
    if (isinstance(row, (tuple, list)) and len(row) == width
            and all(type(x) is int for x in row)):
        return row
    return _as_vector(row, width)


class FlagFiltration:
    """Jumping numbers (and optionally the flag) of a filtration at level m.

    ``jumps`` is the nondecreasing tuple (a_1, ..., a_d) of jumping
    numbers; the filtered subspace at height t has codimension >= j
    exactly when t > a_j.  ``flag`` (optional) lists one row basis per
    distinct jump value, ascending, giving the subspace at that height;
    bases must be independent rows, nested decreasing, with dimensions
    matching the jump multiplicities.

    The flag's adapted basis b_1, ..., b_d spans the member at height v
    by the b_j with a_j >= v, so a nonzero s has order a_j for its first
    nonzero coordinate j in that basis; ``_duals`` holds the integer dual
    basis, whose products with s are those coordinates times positives.
    """

    __slots__ = ("m", "jumps", "d", "flag", "_duals")

    def __init__(self, m: int, jumps: Sequence, flag=None):
        self.m = check_positive_int(m, "the level m")
        self.jumps = tuple(as_fraction(a) for a in jumps)
        if not self.jumps:
            raise StructureError("a filtration needs at least one jump")
        if any(a > b for a, b in zip(self.jumps, self.jumps[1:])):
            raise InvariantViolation("jumps must be nondecreasing")
        if self.jumps[0] < 0:
            raise InvariantViolation("jumps must be nonnegative")
        self.d = len(self.jumps)
        self.flag, self._duals = (None, None) if flag is None \
            else self._validate_flag(flag)

    def _validate_flag(self, flag):
        """The ascending flag entries and the dual of the adapted basis."""
        values = sorted(set(self.jumps))
        pairs = [(as_fraction(v), tuple(_as_vector(r, self.d) for r in rows))
                 for v, rows in flag]
        pairs.sort(key=lambda vr: vr[0])
        if [v for v, _ in pairs] != values:
            raise StructureError(
                "flag entries must cover exactly the distinct jump values")
        for v, rows in pairs:
            expected = sum(1 for a in self.jumps if a >= v)
            if len(rows) != expected or rank(rows) != expected:
                raise StructureError(
                    f"flag at height {v} must be {expected} independent rows")
        basis = _pivot_pass([rows for _, rows in reversed(pairs)],
                            "flag subspaces are not nested")[::-1]
        inverse = rref([[*b, *(int(i == j) for j in range(self.d))]
                        for i, b in enumerate(basis)])[0]
        return tuple(pairs), tuple(primitive_integer_vector(col) for col
                                   in zip(*(row[self.d:] for row in inverse)))

    def ord_of(self, s: Sequence) -> Fraction:
        """Largest height whose subspace contains s (s nonzero)."""
        if self.flag is None:
            raise StructureError("ord_of needs the flag, not just jumps")
        vec = _exact_row(s, self.d)
        for a, y in zip(self.jumps, self._duals):
            if dot(y, vec):
                return a
        raise DomainError("the zero vector has no order")

    # -- moments ---------------------------------------------------------

    def s_m_p(self, p) -> Fraction | SqrtSum:
        """Exact level-m moment (1/d) sum (a_j/m)**p: a Fraction for an
        integer p >= 1, a SqrtSum for a half-integer Fraction p > 0."""
        return level_moment(self.jumps, self.m, self.d, p)

    def t_m(self) -> Fraction:
        """Largest jump, normalized by the level."""
        return self.jumps[-1] / self.m


def rounding_sandwich(F: FlagFiltration, p):
    """Exact two-sided control of the moment loss under integer rounding.

    Returns (upper, rounded, lower) with upper = s_m_p(F), rounded =
    s_m_p of the floored filtration, and lower the provable bound:
      p = 1:       upper - 1/m
      1 < p < 2:   upper - p/m**(p-1) * s_m_1(F)
      p >= 2:      upper - p/m * s_m_(p-1)(F)
    Values are Fractions for integer p and exact square-root sums for
    half-integer p, so callers can compare without rounding.
    """
    if not (isinstance(p, int) and not isinstance(p, bool)):
        p = as_fraction(p)
        if p.denominator != 2 or p <= 1:
            raise DomainError("non-integer orders must be half-integers > 1")
    elif p < 1:
        raise DomainError("moment order p must be at least 1")
    m, d = F.m, F.d
    upper = level_moment(F.jumps, m, d, p)
    mid = level_moment((Fraction(math.floor(a)) for a in F.jumps), m, d, p)
    if p == 1:
        return upper, mid, upper - Fraction(1, m)
    # p/m * s_m_q(F) = p * (1/(d m)) sum (a/m)**q, with q = p - 1 from 2
    # on and q = 1 below, where p/m**(p-1) = sqrt(m) * p/m
    slack = level_moment(F.jumps, m, d * m, max(p - 1, 1))
    if p < 2:
        slack = SqrtSum.sqrt(m).scale(p * slack)
    elif isinstance(slack, SqrtSum):
        slack = slack.scale(p)
    else:
        slack *= p
    return upper, mid, upper - slack


def _pivot_pass(members: Sequence[Sequence[Sequence]], message: str) -> list:
    """The first independent rows of the ``members`` of a flag, innermost
    first: the pivot columns of the transpose.  The members nest exactly
    when none of them and those inside it span more than its own rows;
    StructureError(message) when they do not."""
    rows = [r for member in members for r in member]
    picked, end = rref(list(zip(*rows)))[1], 0
    for member in members:
        end += len(member)
        if sum(i < end for i in picked) > len(member):
            raise StructureError(message)
    return [rows[i] for i in picked]


def compatible_basis(chain: Sequence[Sequence[Sequence]], d: int):
    """Ordered basis of Q^d whose suffixes span the given chain.

    ``chain`` lists subspace row bases, nested strictly decreasing, the
    full space excluded.  The output basis b_1, ..., b_d satisfies: each
    chain member of dimension k is the span of the last k vectors.
    Deterministic: subspaces contribute their reduced-echelon rows, the
    remainder is filled with standard basis vectors in order.
    """
    check_positive_int(d, "the ambient dimension")
    echelons = [rref([_as_vector(r, d) for r in rows])[0] for rows in chain]
    dims = [len(rows) for rows in echelons]
    if any(a <= b for a, b in zip(dims, dims[1:])) or (dims and dims[0] >= d):
        raise StructureError("chain must be strictly decreasing below Q^d")
    units = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    return tuple(reversed(_pivot_pass([*echelons[::-1], units],
                                      "chain subspaces are not nested")))


def basis_moment(F: FlagFiltration, basis: Sequence[Sequence], p: int) -> Fraction:
    """(1/d) sum (ord(b_i)/m)**p for a basis; never exceeds s_m_p."""
    rows = [_exact_row(r, F.d) for r in basis]
    if len(rows) != F.d or rank(rows) != F.d:
        raise StructureError("basis_moment needs a full basis")
    return level_moment((F.ord_of(r) for r in rows), F.m, F.d, p)


def sup_over_bases_oracle(F: FlagFiltration, p: int, samples: int,
                          rng: Random | None = None) -> Fraction:
    """Best basis moment over random small-integer bases.

    Brute-force evidence for the extremal property of compatible bases:
    the result never exceeds s_m_p(F, p).  Deterministic for a given
    Random instance (default seed 0); singular samples are rejected.
    """
    if F.flag is None:
        raise StructureError("the oracle needs the flag")
    check_positive_int(samples, "samples")
    rng = rng if rng is not None else Random(0)
    best = None
    drawn = 0
    while drawn < samples:
        rows = [tuple(rng.randint(-3, 3) for _ in range(F.d))
                for _ in range(F.d)]
        try:
            value = basis_moment(F, rows, p)
        except StructureError:  # a singular sample
            continue
        drawn += 1
        if best is None or value > best:
            best = value
    return best


def random_flag_filtration(rng: Random, d: int, m: int) -> FlagFiltration:
    """Random filtration with an explicit flag, for property tests.

    Jumps are random nonnegative rationals; the flag is built from a
    random unimodular-ish basis so suffix spans realize the required
    dimensions exactly.
    """
    check_positive_int(d, "the dimension d")
    check_positive_int(m, "the level m")
    while True:
        rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(d)]
        if rank(rows) == d:
            break
    jumps = sorted(Fraction(rng.randint(0, 4 * m), rng.randint(1, 3))
                   for _ in range(d))
    pairs = []
    for v in sorted(set(jumps)):
        keep = [rows[j] for j, a in enumerate(jumps) if a >= v]
        pairs.append((v, keep))
    return FlagFiltration(m, jumps, pairs)

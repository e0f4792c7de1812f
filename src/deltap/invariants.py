"""Aggregate invariant reports and verdicts for toric models.

``delta_family`` reduces one candidate table over an order grid: its
``InvariantReport`` holds the searches themselves, one
``DeltaSearchResult`` per order with its exact certificate, and one
``KStabilityVerdict`` per order when the model is anticanonically
proportional.  Every inequality the underlying convexity provides is
checked on the way.  A verdict decides the comparison with the uniform
stability threshold on exact p-th powers; ``h_gap`` and
``projective_space_delta_power`` are the closed-form boundary
quantities that comparison hinges on.  All search outputs are upper
bounds over a restricted candidate set and are labeled as such.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvariantViolation, SemanticError
from .numeric import check_grid, check_positive_int, float_root, root_drops
from .toric import (CandidateTable, DeltaSearchResult, ToricModel,
                    delta_p_search)
from .volume_curve import barycenter_bounds


def kstability_threshold_power(n: int, p: int) -> Fraction:
    """Exact p-th power of the uniform-stability threshold
    n/(n+1) * ((n+p)/n)**(1/p)."""
    return Fraction(n, n + 1) ** p * Fraction(n + p, n)


def projective_space_delta_power(n: int, p: int) -> Fraction:
    """Exact p-th power of the boundary value
    (1/(n+1)) * ((n+p)!/(n! p!))**(1/p), the anticanonical threshold of
    projective n-space."""
    return math.comb(n + p, p) / Fraction(n + 1) ** p


def h_gap(n: int, p: int) -> tuple[int, float]:
    """Sign and float value of p*log(n) - sum_i log((p+i)/i), i < n.

    Positive exactly when n**p exceeds the product of (p+i)/i; the sign
    is decided by exact rational comparison.  h(1) = 0 for every n and
    the gap is what separates dimension >= 2 models from the borderline
    curve case.
    """
    check_positive_int(n, "the dimension n")
    check_positive_int(p, "the order p")
    product = Fraction(1)
    for i in range(1, n):
        product *= Fraction(p + i, i)
    lhs = Fraction(n) ** p
    sign = (lhs > product) - (lhs < product)
    value = p * math.log(n) - sum(math.log((p + i) / i) for i in range(1, n))
    return sign, value


class KStabilityVerdict(NamedTuple):
    """Comparison of a candidate threshold bound with the uniform
    stability threshold, for an anticanonically polarized model.

    ``relation`` is decided exactly for integer orders; "above" means
    the candidate upper bound exceeds the threshold, which is evidence
    (not proof, since the bound may overshoot the infimum) for uniform
    stability; "below" is conclusive the other way because an upper
    bound below the threshold pins the infimum below it too.
    ``delta_upper`` and ``threshold`` are the p-th roots of the two
    exact powers the relation is decided on.
    """

    relation: str  # "above" | "below" | "borderline"
    delta_upper: float
    threshold: float
    search: DeltaSearchResult


def kstability_verdict(model: ToricModel, p: int,
                       bound: int) -> KStabilityVerdict:
    """Exact threshold comparison for an anticanonical polarization.

    The polarization must be proportional to the anticanonical class of
    the model's fan (facet offsets b_F = <n_F, t> - c); the comparison
    rescales by c so the verdict refers to the anticanonical class
    itself.  Equality is detected exactly; there is no tolerance band
    for integer p.
    """
    check_positive_int(p, "order p")
    anti = model.anticanonical_scale()
    if anti is None:
        raise SemanticError(
            "the polarization is not proportional to the anticanonical "
            "class; pass the anticanonical polytope instead")
    return _verdict(model.n, anti[1], delta_p_search(model, p, bound))


def _verdict(n: int, scale: Fraction,
             search: DeltaSearchResult) -> KStabilityVerdict:
    """Verdict on ``search`` rescaled by the anticanonical factor."""
    p = search.p
    # value for -K itself: multiply by the proportionality factor.
    lhs = search.ratio_power() * scale ** p
    rhs = kstability_threshold_power(n, p)
    if lhs > rhs:
        relation = "above"
    elif lhs < rhs:
        relation = "below"
    else:
        relation = "borderline"
    return KStabilityVerdict(relation=relation,
                             delta_upper=float_root(lhs, p),
                             threshold=float_root(rhs, p), search=search)


class InvariantReport(NamedTuple):
    """Threshold table over an order grid, with exact side conditions.

    ``rows`` hold one search per order of the grid, each an upper bound
    over the candidate box; ``verdicts`` hold one verdict per order, and
    none when the model has no anticanonical scale.  ``flags`` collects
    anomalies that were checked and found (they raise nowhere; a
    violated theorem does).  ``closing_gap`` is delta at the largest
    order minus the alpha bound, which the theory sends to zero as the
    order grows.
    """

    n: int
    rows: tuple[DeltaSearchResult, ...]
    verdicts: tuple[KStabilityVerdict, ...]
    alpha_upper: Fraction
    alpha_argmin: tuple[int, ...]
    closing_gap: float
    flags: tuple[str, ...]


def _check_candidate_inequalities(n: int, p: int, table: CandidateTable) -> None:
    """Exact per-candidate theorems: the two-sided barycenter bracket
    and the monotone comparison between the p-th and first moments, on
    the tau, s_1 and s_p of each row of ``table``."""
    low, up = barycenter_bounds(n, Fraction(1), p)  # times tau**p
    # s_p >= ((n+1)/n)^p * n/(n+p) * s_1^p, the inequality behind
    # the threshold theorem, exact after p-th powering.
    ratio = Fraction(n + 1, n) ** p * Fraction(n, n + p)
    for v, (_, tau, moments) in table.rows.items():
        s, tau_p = moments[p], tau ** p
        lower, upper = low * tau_p, up * tau_p
        if not (lower <= s <= upper):
            raise InvariantViolation(
                f"barycenter bracket fails at v={v}, p={p}",
                witness={"v": v, "s_p": str(s), "lower": str(lower),
                         "upper": str(upper)})
        rhs = ratio * moments[1] ** p
        if s < rhs:
            raise InvariantViolation(
                f"moment comparison fails at v={v}, p={p}",
                witness={"v": v, "s_p": str(s), "bound": str(rhs)})


def delta_family(model: ToricModel, p_grid, bound: int) -> InvariantReport:
    """Threshold upper bounds over an integer order grid.

    Exactly verifies that the reported bounds are nonincreasing along
    the grid (a theorem when the candidate set is fixed; still flagged
    rather than trusted) and that each tabulated candidate satisfies the
    two-sided bracket; anticanonical models also get per-order verdicts.
    """
    grid = check_grid(p_grid, "order grid")
    anti = model.anticanonical_scale()
    table = CandidateTable(model, bound, (1, *grid))
    alpha, alpha_v = table.alpha()

    rows: list[DeltaSearchResult] = []
    verdicts: list[KStabilityVerdict] = []
    flags: list[str] = []
    for p in grid:
        search = table.delta(p)
        _check_candidate_inequalities(model.n, p, table)
        rows.append(search)
        if anti is not None:
            verdicts.append(_verdict(model.n, anti[1], search))

    # A drop of 1/delta along the grid is a rise of delta.
    for p1, p2 in root_drops([(s.p, 1 / s.ratio_power()) for s in rows]):
        flags.append(f"delta grid increases from p={p1} to p={p2}")

    for search in rows:
        # alpha lower bracket: delta^(p) >= ((n+p)/n)^(1/p) alpha, exact.
        p = search.p
        lhs = search.ratio_power()
        rhs = Fraction(model.n + p, model.n) * alpha ** p
        if lhs < rhs:
            raise InvariantViolation(
                f"threshold bound at p={p} dips below its alpha bracket",
                witness={"p": p, "ratio_power": str(lhs), "bracket": str(rhs)})
        binom = math.comb(model.n + p, p)
        if lhs > binom * alpha ** p:
            raise InvariantViolation(
                f"threshold bound at p={p} exceeds its alpha bracket",
                witness={"p": p, "ratio_power": str(lhs),
                         "bracket": str(binom * alpha ** p)})

    return InvariantReport(n=model.n, rows=tuple(rows),
                           verdicts=tuple(verdicts), alpha_upper=alpha,
                           alpha_argmin=alpha_v,
                           closing_gap=rows[-1].value - float(alpha),
                           flags=tuple(flags))

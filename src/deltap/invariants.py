"""Aggregate invariant reports and verdicts for toric models.

Builds per-order threshold tables (with their exact certificates),
checks every inequality the underlying convexity provides, compares
anticanonical models against the uniform stability threshold, and
evaluates the closed-form boundary quantities those comparisons hinge
on.  All search outputs are upper bounds over a restricted candidate
set and are labeled as such.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvariantViolation, SemanticError
from .numeric import check_grid, check_positive_int, float_root
from .toric import (DEFAULT_SEARCH_BOUND, CandidateTable, DeltaSearchResult,
                    ToricModel, delta_p_search)
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
    """

    p: int
    n: int
    relation: str  # "above" | "below" | "borderline"
    delta_upper: float
    threshold: float
    boundary_value: float
    h_sign: int
    h_value: float
    search: DeltaSearchResult

    def to_json_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "relation": self.relation,
                "delta_upper_bound": self.delta_upper,
                "threshold": self.threshold,
                "boundary_value": self.boundary_value,
                "h_sign": self.h_sign, "h_value": self.h_value,
                "search": self.search.to_json_dict()}


def kstability_verdict(model: ToricModel, p: int,
                       bound: int = DEFAULT_SEARCH_BOUND) -> KStabilityVerdict:
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
    sign, value = h_gap(n, p)
    return KStabilityVerdict(
        p=p, n=n, relation=relation,
        delta_upper=float(scale) * search.value,
        threshold=float_root(rhs, p),
        boundary_value=float_root(projective_space_delta_power(n, p), p),
        h_sign=sign, h_value=value, search=search)


class PGridRow(NamedTuple):
    p: int
    delta_upper: float
    argmin: tuple[int, ...]
    a: Fraction
    s_p: Fraction
    tau: Fraction
    threshold: float | None
    verdict: str | None

    def to_json_dict(self) -> dict:
        return {"p": self.p, "delta_upper_bound": self.delta_upper,
                "argmin": list(self.argmin), "a": str(self.a),
                "s_p": str(self.s_p), "tau": str(self.tau),
                "threshold": self.threshold, "verdict": self.verdict}


class InvariantReport(NamedTuple):
    """Threshold table over an order grid, with exact side conditions.

    Every row is an upper bound over the candidate box.  ``flags``
    collects anomalies that were checked and found (they raise nowhere;
    a violated theorem does).  ``closing_gap`` is delta at the largest
    order minus the alpha bound, which the theory sends to zero as the
    order grows.
    """

    n: int
    bound: int
    p_grid: tuple[int, ...]
    rows: tuple[PGridRow, ...]
    alpha_upper: Fraction
    alpha_argmin: tuple[int, ...]
    closing_gap: float
    flags: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "bound": self.bound,
                "upper_bounds_only": True,
                "p_grid": list(self.p_grid),
                "rows": [r.to_json_dict() for r in self.rows],
                "alpha_upper_bound": str(self.alpha_upper),
                "alpha_argmin": list(self.alpha_argmin),
                "closing_gap": self.closing_gap,
                "flags": list(self.flags)}


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

    rows = []
    searches = []
    flags: list[str] = []
    for p in grid:
        search = table.delta(p)
        searches.append(search)
        _check_candidate_inequalities(model.n, p, table)
        tau = table.curve(search.argmin).tau
        threshold = verdict = None
        if anti is not None:
            kv = _verdict(model.n, anti[1], search)
            threshold = kv.threshold
            verdict = kv.relation
        rows.append(PGridRow(p=p, delta_upper=search.value,
                             argmin=search.argmin, a=search.a,
                             s_p=search.moment, tau=tau,
                             threshold=threshold, verdict=verdict))

    for (p1, s1), (p2, s2) in zip(zip(grid, searches), zip(grid[1:], searches[1:])):
        # delta(p1) >= delta(p2) iff a1^(p1 p2) s2^p1 >= a2^(p1 p2) s1^p2
        lhs = s1.a ** (p1 * p2) * s2.moment ** p1
        rhs = s2.a ** (p1 * p2) * s1.moment ** p2
        if lhs < rhs:
            flags.append(f"delta grid increases from p={p1} to p={p2}")

    for p, search in zip(grid, searches):
        # alpha lower bracket: delta^(p) >= ((n+p)/n)^(1/p) alpha, exact.
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

    closing_gap = rows[-1].delta_upper - float(alpha)
    return InvariantReport(n=model.n, bound=bound, p_grid=grid,
                           rows=tuple(rows), alpha_upper=alpha,
                           alpha_argmin=alpha_v, closing_gap=closing_gap,
                           flags=tuple(flags))

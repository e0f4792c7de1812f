"""Toric polarized models from lattice polytopes.

A full-dimensional lattice polytope P encodes a polarized toric variety
of dimension n = dim P.  Torus-invariant valuations correspond to
nonzero primitive integer vectors v; the induced data is completely
convex-geometric: the volume curve is n! times the slice volumes of the
linear functional <., v> on P, section filtrations are weight data on
lattice points of dilations, and log discrepancies come from the
per-vertex supports of the normal fan.

The candidate searches enumerate primitive vectors in a box, so their
minima are upper bounds for the corresponding infima; results say so
explicitly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (DomainError, InvariantViolation, StructureError,
                     UnsupportedModelError)
from .geometry import (Halfspace, RationalPolytope, dot, mean_affine_power,
                       simplex_volume, survival_curve)
from .linalg import solve_linear_system
from .numeric import check_positive_int, float_root
from .volume_curve import VolumeCurve

if TYPE_CHECKING:  # loaded on first use by the functions that return them
    from .filtration import FlagFiltration
    from .okounkov import ConcaveTransform

DEFAULT_SEARCH_BOUND = 5
# Most integer vectors a candidate box may hold: each candidate costs one
# closed-form row, so the box is refused before it is enumerated.
MAX_CANDIDATE_BOX = 10_000


class ToricModel:
    """A polarized toric model: lattice polytope plus derived fan data."""

    __slots__ = ("P", "n", "vertices", "_simplices", "_vertex_supports", "_curves")

    def __init__(self, P: RationalPolytope):
        if any(x.denominator != 1 for v in P.vertices for x in v):
            raise StructureError("the model polytope must have lattice vertices")
        self.P = P
        self.n = P.dim
        self.vertices = tuple(tuple(int(x) for x in v) for v in P.vertices)
        self._simplices = None
        self._vertex_supports = None
        self._curves = {}

    def simplices(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(N_S, indices into ``vertices``) for each simplex S of the
        triangulation of P, where ``vertices`` are P's as int tuples and
        N_S = n! vol(S) is an int."""
        if self._simplices is None:
            index = {w: i for i, w in enumerate(self.vertices)}
            self._simplices = tuple(
                (int(simplex_volume(s) * math.factorial(self.n)),
                 tuple(index[w] for w in s)) for s in self.P.triangulation())
        return self._simplices

    def vertex_rays(self, w) -> tuple[tuple[int, ...], ...]:
        """Primitive ray generators of the normal-fan cone at vertex w."""
        return tuple(hs.normal for hs in self.P.halfspaces()
                     if dot(hs.normal, w) == hs.offset)

    def _supports(self):
        """Per-vertex support vector m_w with <m_w, ray> = 1 for every ray
        of the cone at w, when one exists (the Q-Gorenstein condition)."""
        if self._vertex_supports is None:
            sols = {}
            for w in self.P.vertices:
                rays = self.vertex_rays(w)
                sols[w] = solve_linear_system(
                    [list(r) for r in rays], [Fraction(1)] * len(rays))
            self._vertex_supports = sols
        return self._vertex_supports

    @property
    def is_q_gorenstein(self) -> bool:
        return all(sol is not None for sol in self._supports().values())

    def min_vertex(self, v: Sequence) -> tuple:
        """First vertex (in sorted order) minimizing <., v>; the vector v
        lies in the normal-fan cone based there."""
        return min(self.vertices, key=lambda w: (dot(w, v), w))

    def anticanonical_scale(self):
        """(translation t, scale c) with facet offsets b_F = <n_F, t> - c,
        or None.  c = 1 means the polarization is the anticanonical one
        up to translation."""
        hss = self.P.halfspaces()
        rows = [list(hs.normal) + [Fraction(-1)] for hs in hss]
        rhs = [hs.offset for hs in hss]
        sol = solve_linear_system(rows, rhs)
        if sol is None or sol[-1] <= 0:
            return None
        return sol[:-1], sol[-1]

    def anticanonical_polytope(self) -> RationalPolytope:
        """The polytope {u : <n_F, u> >= -1} over this model's facet
        normals.  When the underlying anticanonical class is ample this
        is the polytope of the anticanonically polarized model; otherwise
        its normal fan is a coarsening of this one.  It holds 0 in its
        interior, so it is full-dimensional."""
        hss = [Halfspace(hs.normal, Fraction(-1))
               for hs in self.P.halfspaces()]
        return RationalPolytope.from_halfspaces(hss, self.n)

    def to_json_dict(self) -> dict:
        return self.P.to_json_dict()

    def __repr__(self):
        return f"ToricModel(n={self.n}, {len(self.P.vertices)} vertices)"


class ToricValuation:
    """A torus-invariant valuation: a nonzero primitive integer vector,
    with the offset that normalizes its minimum over the polytope to 0."""

    __slots__ = ("v", "offset")

    def __init__(self, model: ToricModel, v: Sequence):
        v = tuple(v)
        vec = tuple(int(x) for x in v)
        if len(vec) != model.n:
            raise StructureError("valuation arity differs from the dimension")
        if vec != v:
            raise DomainError(f"the valuation vector must be integral: {v!r}")
        if all(x == 0 for x in vec):
            raise DomainError("the valuation vector must be nonzero")
        if math.gcd(*(abs(x) for x in vec)) != 1:
            raise DomainError("the valuation vector must be primitive")
        self.v = vec
        self.offset = -min(dot(w, vec) for w in model.vertices)

    def g(self, u) -> int | Fraction:
        """The normalized weight <u, v> + offset, nonnegative on P."""
        return dot(u, self.v) + self.offset

    def __repr__(self):
        return f"ToricValuation(v={self.v})"


def volume_curve_of(model: ToricModel, val: ToricValuation) -> VolumeCurve:
    """Exact volume curve x -> n! * vol{u in P : g_v(u) >= x}, built and
    validated once per model and valuation."""
    if val.v not in model._curves:
        g = [val.g(w) for w in model.vertices]
        weighted = [(N, [g[i] for i in s]) for N, s in model.simplices()]
        model._curves[val.v] = VolumeCurve(model.n, sum(N for N, _ in weighted),
                                           survival_curve(weighted, model.n))
    return model._curves[val.v]


def log_discrepancy(model: ToricModel, val: ToricValuation) -> Fraction:
    """A(v) = <m_w, v> on the normal-fan cone containing v."""
    if not model.is_q_gorenstein:
        raise UnsupportedModelError(
            "log discrepancies need a Q-Gorenstein model")
    w = model.min_vertex(val.v)
    a = dot(model._supports()[w], val.v)
    if a <= 0:
        raise InvariantViolation(f"nonpositive log discrepancy at {val.v}")
    return a


def section_filtration(model: ToricModel, val: ToricValuation,
                       m: int) -> FlagFiltration:
    """Level-m filtration of the lattice-point section space of mP."""
    from .filtration import MonomialGradedFiltration
    graded = MonomialGradedFiltration(model.P, val.v)
    return graded.flag_filtration(m)


def concave_transform_of(model: ToricModel, val: ToricValuation) -> ConcaveTransform:
    """The valuation's weight function as a transform on the body P;
    its moments match the volume-curve moments exactly (dual route)."""
    from .okounkov import AffineForm, ConcaveTransform
    form = AffineForm.make(val.v, val.offset)
    return ConcaveTransform(model.P, [form])


def primitive_candidates(n: int, bound: int) -> list[tuple[int, ...]]:
    """All primitive integer vectors with sup-norm at most ``bound``,
    lexicographically sorted.  The box may hold at most
    ``MAX_CANDIDATE_BOX`` integer vectors."""
    check_positive_int(n, "the dimension n")
    check_positive_int(bound, "the search bound")
    if (2 * bound + 1) ** n > MAX_CANDIDATE_BOX:
        raise DomainError(f"the box of radius {bound} in dimension {n} "
                          f"exceeds the budget of {MAX_CANDIDATE_BOX} vectors")
    out = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(vec) and math.gcd(*(abs(x) for x in vec)) == 1:
            out.append(vec)
    return out


class DeltaSearchResult(NamedTuple):
    """Outcome of a restricted-candidate threshold search.

    ``value`` = min over the candidate box of A(v) / moment(v)**(1/p),
    an upper bound for the infimum over all valuations.  ``a`` and
    ``moment`` certify the minimizer exactly: value**p = a**p / moment.
    ``normalized`` tells whether the moment is s_p (mean) or V * s_p
    (integral form).
    """

    p: int
    bound: int
    normalized: bool
    argmin: tuple[int, ...]
    a: Fraction
    moment: Fraction
    table: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]

    @property
    def value(self) -> float:
        return float(self.a) / float_root(self.moment, self.p)

    def ratio_power(self) -> Fraction:
        """Exact value**p = a**p / moment, for rounding-free comparisons."""
        return self.a ** self.p / self.moment

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "bound": self.bound,
            "normalized": self.normalized,
            "upper_bound_only": True,
            "value": self.value,
            "argmin": list(self.argmin),
            "a": str(self.a),
            "moment": str(self.moment),
            "table": [{"v": list(v), "a": str(a), "moment": str(s),
                       "ratio": float(a) / float_root(s, self.p)}
                      for v, a, s in self.table],
        }


class CandidateTable:
    """Closed-form rows for the primitive candidates of the box of radius
    ``bound``: ``rows`` maps each v, in lexicographic order, to A(v),
    tau(v) (the largest vertex value of g_v) and the int value of g_v at
    each of the model's ``vertices``.  Every restricted-candidate infimum
    reduces over the rows; ``curve(v)`` builds a volume curve only on
    demand."""

    __slots__ = ("model", "bound", "rows", "_moments")

    def __init__(self, model: ToricModel, bound: int):
        if not model.is_q_gorenstein:
            raise UnsupportedModelError("threshold search needs Q-Gorenstein input")
        self.model = model
        self.bound = bound
        self._moments = {}
        self.rows = {}
        for v in primitive_candidates(model.n, bound):
            val = ToricValuation(model, v)
            g = tuple(val.g(w) for w in model.vertices)
            if max(g) <= 0:
                raise InvariantViolation(f"vanishing support threshold at {v}")
            self.rows[v] = (log_discrepancy(model, val), max(g), g)

    def s_p(self, v: tuple[int, ...], p: int) -> Fraction:
        """Exact s_p(v), the mean of g_v**p over P, computed once per (v, p)
        by the closed form on the model's weighted simplices."""
        if (v, p) not in self._moments:
            g = self.rows[v][2]
            weighted = ((N, [g[i] for i in s]) for N, s in self.model.simplices())
            self._moments[v, p] = mean_affine_power(weighted, self.model.n, p)
        return self._moments[v, p]

    def curve(self, v: tuple[int, ...]) -> VolumeCurve:
        """The volume curve of v; one the model holds needs no valuation."""
        return self.model._curves.get(v) or volume_curve_of(
            self.model, ToricValuation(self.model, v))

    def delta(self, p: int, normalized: bool = True) -> DeltaSearchResult:
        """Minimum of A(v)/moment(v)**(1/p), with moment s_p (normalized)
        or V * s_p; ties resolve to the first row."""
        check_positive_int(p, "search order p")
        scale = 1 if normalized else sum(N for N, _ in self.model.simplices())
        table = []
        for v, (a, _, _) in self.rows.items():
            moment = self.s_p(v, p) * scale
            if moment <= 0:
                raise InvariantViolation(f"vanishing moment at {v}")
            table.append((v, a, moment))
        v, a, moment = min(table, key=lambda row: row[1] ** p / row[2])
        # The printed row rests on a decided curve, reached independently.
        curve = self.curve(v)
        if (curve.s_p(p), curve.tau) != (self.s_p(v, p), self.rows[v][1]):
            raise InvariantViolation(
                f"closed-form row disagrees with the volume curve at v={v}",
                witness={"v": v, "p": p})
        return DeltaSearchResult(p=p, bound=self.bound, normalized=normalized,
                                 argmin=v, a=a, moment=moment,
                                 table=tuple(table))

    def alpha(self) -> tuple[Fraction, tuple[int, ...]]:
        """Minimum of A(v)/tau(v) and its first minimizer."""
        return min(((a / tau, v) for v, (a, tau, _) in self.rows.items()),
                   key=lambda row: row[0])


def delta_p_search(model: ToricModel, p: int,
                   bound: int = DEFAULT_SEARCH_BOUND) -> DeltaSearchResult:
    """Restricted-candidate minimum of A(v)/s_p(v)**(1/p).

    The candidate set is the primitive box of radius ``bound``, so the
    result is an upper bound for the infimum over all valuations; ties
    resolve to the lexicographically smallest vector.
    """
    return CandidateTable(model, bound).delta(p)


def delta_bar_p_search(model: ToricModel, p: int,
                       bound: int = DEFAULT_SEARCH_BOUND) -> DeltaSearchResult:
    """Unnormalized variant: A(v)/(V * s_p(v))**(1/p).

    Monotone under polytope inclusion with a fixed fan (bigger body,
    smaller value), which is what the dilation property checks exercise.
    """
    return CandidateTable(model, bound).delta(p, normalized=False)


def alpha_candidate(model: ToricModel,
                    bound: int = DEFAULT_SEARCH_BOUND) -> tuple[Fraction, tuple[int, ...]]:
    """Restricted-candidate minimum of A(v)/tau(v), an upper bound for
    the global threshold; exact rational, lexicographic tie-break."""
    return CandidateTable(model, bound).alpha()


def builtin_model(name: str) -> ToricModel:
    """Named desk-scale models.

    p2 (projective plane, hyperplane class), p2-anticanonical,
    p1xp1 (bidegree (1,1)), hirzebruch-<a>, and pn:<n> (projective
    n-space, hyperplane class).
    """
    name = name.strip().lower()
    if name == "p2":
        return ToricModel(RationalPolytope([(0, 0), (1, 0), (0, 1)]))
    if name == "p2-anticanonical":
        return ToricModel(RationalPolytope([(0, 0), (3, 0), (0, 3)]))
    if name == "p1xp1":
        return ToricModel(RationalPolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    if name.startswith("hirzebruch-"):
        try:
            a = int(name.split("-", 1)[1])
        except ValueError:
            raise UnsupportedModelError(f"bad twist in {name!r}") from None
        if a < 1 or a > 12:
            raise UnsupportedModelError("hirzebruch twist must be in 1..12")
        return ToricModel(RationalPolytope([(0, 0), (1, 0), (0, 1),
                                            (1, 1 + a)]))
    if name.startswith("pn:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise UnsupportedModelError(f"bad dimension in {name!r}") from None
        if n < 1 or n > 6:
            raise UnsupportedModelError("pn dimension must be in 1..6")
        verts = [(0,) * n] + [tuple(1 if j == i else 0 for j in range(n))
                              for i in range(n)]
        return ToricModel(RationalPolytope(verts))
    raise UnsupportedModelError(f"unknown builtin model {name!r}")

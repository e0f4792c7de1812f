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
from .geometry import (Halfspace, RationalPolytope, dot, mean_affine_powers,
                       survival_curve)
from .linalg import det, solve_linear_system
from .numeric import as_fraction, check_positive_int, float_root
from .volume_curve import VolumeCurve

if TYPE_CHECKING:  # loaded on first use by the functions that return them
    from .filtration import FlagFiltration
    from .okounkov import ConcaveTransform

DEFAULT_SEARCH_BOUND = 5
# Most integer vectors a candidate box may hold: each candidate costs one
# closed-form row, so the box is refused before it is enumerated.
MAX_CANDIDATE_BOX = 10_000
# Most (candidate, simplex) pairs the moment kernel may visit: a table
# with orders is refused once the triangulation is counted, before the
# first row.
MAX_MOMENT_PAIRS = 1_000_000


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
        N_S = n! vol(S) is the int |det| of S's edge vectors from its
        first vertex."""
        if self._simplices is None:
            index = {w: i for i, w in enumerate(self.vertices)}
            out = []
            for s in self.P.triangulation():
                ix = tuple(index[w] for w in s)
                first = self.vertices[ix[0]]
                edges = [[a - b for a, b in zip(self.vertices[i], first)]
                         for i in ix[1:]]
                out.append((int(abs(det(edges))), ix))
            self._simplices = tuple(out)
        return self._simplices

    def _supports(self) -> tuple:
        """Per-vertex support vectors m_w, in the order of ``vertices``, with
        <m_w, ray> = 1 for every ray of the cone at w, the normals of the
        facets through w; () unless every vertex has one (the Q-Gorenstein
        condition), decided once per model."""
        if self._vertex_supports is None:
            normals = [hs.normal for hs in self.P.halfspaces()]
            cones = [[r for r, m in zip(normals, self.P.incidence) if m >> k & 1]
                     for k in range(len(self.vertices))]
            sols = [solve_linear_system(c, [Fraction(1)] * len(c)) for c in cones]
            self._vertex_supports = () if None in sols else tuple(sols)
        return self._vertex_supports

    @property
    def is_q_gorenstein(self) -> bool:
        return bool(self._supports())

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


class ToricValuation:
    """A torus-invariant valuation: a nonzero primitive integer vector v,
    with ``values``, g_v = <., v> + offset at each of the ``vertices`` of
    the ``model`` it is built on, ``offset`` making their least 0.  A(v),
    tau(v) and every simplex value are read off ``values``."""

    __slots__ = ("v", "values", "offset", "model")

    def __init__(self, model: ToricModel, v: Sequence):
        v = tuple(v)
        # an int entry as it is; any other must be an exact integer
        vec = tuple(x if type(x) is int else as_fraction(x) for x in v)
        if len(vec) != model.n:
            raise StructureError("valuation arity differs from the dimension")
        if any(x.denominator != 1 for x in vec):
            raise DomainError(f"the valuation vector must be integral: {v!r}")
        vec = tuple(int(x) for x in vec)
        if all(x == 0 for x in vec):
            raise DomainError("the valuation vector must be nonzero")
        if math.gcd(*(abs(x) for x in vec)) != 1:
            raise DomainError("the valuation vector must be primitive")
        self.v, self.model = vec, model
        dots = [dot(w, vec) for w in model.vertices]
        self.offset = -min(dots)
        self.values = tuple(d + self.offset for d in dots)

    def g(self, u) -> int | Fraction:
        """The normalized weight <u, v> + offset, nonnegative on P."""
        return dot(u, self.v) + self.offset

    def __repr__(self):
        return f"ToricValuation(v={self.v})"


def _built_on(model: ToricModel, val: ToricValuation) -> ToricValuation:
    """val, when it was built on a model with the vertices of ``model``;
    every function taking (model, val) reads val through it."""
    if val.model is not model and val.model.vertices != model.vertices:
        raise StructureError(f"{val!r} was built on a model with other "
                             "vertices")
    return val


def volume_curve_of(model: ToricModel, val: ToricValuation) -> VolumeCurve:
    """Exact volume curve x -> n! * vol{u in P : g_v(u) >= x}, built and
    validated once per model and valuation."""
    if _built_on(model, val).v not in model._curves:
        weighted = [(N, [val.values[i] for i in s]) for N, s in model.simplices()]
        model._curves[val.v] = VolumeCurve(model.n, sum(N for N, _ in weighted),
                                           survival_curve(weighted, model.n))
    return model._curves[val.v]


def log_discrepancy(model: ToricModel, val: ToricValuation) -> Fraction:
    """A(v) = <m_w, v> on the normal-fan cone containing v, the cone at the
    first (sorted) vertex w where g_v vanishes, the least minimizer of <., v>."""
    supports = model._supports()
    if not supports:
        raise UnsupportedModelError(
            "log discrepancies need a Q-Gorenstein model")
    a = dot(supports[_built_on(model, val).values.index(0)], val.v)
    if a <= 0:
        raise InvariantViolation(f"nonpositive log discrepancy at {val.v}")
    return a


def section_filtration(model: ToricModel, val: ToricValuation,
                       m: int) -> FlagFiltration:
    """Level-m filtration of the lattice-point section space of mP: its
    jumps are the weights <u, v> + m * offset of the lattice points u of
    mP, nonnegative and exact."""
    from .filtration import FlagFiltration
    v = _built_on(model, val).v
    check_positive_int(m, "the level m")
    return FlagFiltration(m, sorted(dot(u, v) + m * val.offset
                                    for u in model.P.dilate(m).lattice_points()))


def concave_transform_of(model: ToricModel, val: ToricValuation) -> ConcaveTransform:
    """The valuation's weight function as a transform on the body P;
    its moments match the volume-curve moments exactly (dual route)."""
    from .okounkov import AffineForm, ConcaveTransform
    form = AffineForm.make(_built_on(model, val).v, val.offset)
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

    ``value`` = min over the candidate box of A(v) / s_p(v)**(1/p), with
    s_p the normalized moment, an upper bound for the infimum over all
    valuations.  ``a`` and ``moment`` = s_p certify the minimizer
    exactly: value**p = a**p / moment.
    """

    p: int
    bound: int
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
    tau(v) and {p: s_p(v)} for each p in ``orders``, the orders its caller
    reads, all off the valuation's vertex values: A(v) at their first zero,
    tau(v) their largest, the moments from one ``mean_affine_powers`` pass
    over the model's simplices (none for empty ``orders``).  Every infimum
    reduces over the rows; ``curve(v)`` builds a volume curve on demand."""

    __slots__ = ("model", "bound", "rows")

    def __init__(self, model: ToricModel, bound: int, orders: Sequence[int] = ()):
        if not model.is_q_gorenstein:
            raise UnsupportedModelError("threshold search needs Q-Gorenstein input")
        self.model = model
        self.bound = bound
        candidates = primitive_candidates(model.n, bound)
        orders = [check_positive_int(p, "search order p") for p in orders]
        if orders:
            pairs = len(candidates) * len(model.P.triangulation())
            if pairs > MAX_MOMENT_PAIRS:
                raise DomainError(
                    f"{len(candidates)} candidates times the model's simplices "
                    f"make {pairs} moment pairs, over the budget of "
                    f"MAX_MOMENT_PAIRS = {MAX_MOMENT_PAIRS}")
        self.rows = {}
        for v in candidates:
            val = ToricValuation(model, v)
            g = val.values
            if max(g) <= 0:
                raise InvariantViolation(f"vanishing support threshold at {v}")
            moments = mean_affine_powers(
                ((N, [g[i] for i in s]) for N, s in model.simplices()),
                model.n, orders) if orders else {}
            self.rows[v] = (log_discrepancy(model, val), max(g), moments)

    def s_p(self, v: tuple[int, ...], p: int) -> Fraction:
        """Exact s_p(v), the mean of g_v**p over P, read off v's row; an
        order the table was not built with raises DomainError."""
        moments = self.rows[v][2]
        if p not in moments:
            raise DomainError(f"the candidate table holds no order {p!r}")
        return moments[p]

    def curve(self, v: tuple[int, ...]) -> VolumeCurve:
        """The volume curve of v; one the model holds needs no valuation."""
        return self.model._curves.get(v) or volume_curve_of(
            self.model, ToricValuation(self.model, v))

    def delta(self, p: int) -> DeltaSearchResult:
        """Minimum of A(v)/s_p(v)**(1/p); ties resolve to the first row."""
        check_positive_int(p, "search order p")
        table = []
        for v, (a, _, _) in self.rows.items():
            moment = self.s_p(v, p)
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
        return DeltaSearchResult(p=p, bound=self.bound, argmin=v, a=a,
                                 moment=moment, table=tuple(table))

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
    return CandidateTable(model, bound, (p,)).delta(p)


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

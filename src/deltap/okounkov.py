"""Moment models on rational polytope bodies.

A body (a full-dimensional :class:`RationalPolytope`) together with a
concave piecewise-linear level function G, given as the minimum of
finitely many affine forms, determines slice bodies {G >= t}, exact
moments of G against normalized Lebesgue measure, and an atomic
pushforward of that measure under G.  These are the convex-geometric
stand-ins for graded linear series filtered by a valuation.

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, InvariantViolation, StructureError
from .geometry import (Halfspace, RationalPolytope, make_point,
                       mean_affine_power, simplex_volume, survival_curve)
from .linalg import primitive_integer_vector
from .numeric import as_fraction, check_positive_int
from .piecewise import PiecewisePolynomial, integrate_monomial_weighted


class AffineForm(NamedTuple):
    """x -> <linear, x> + constant with rational coefficients."""

    linear: tuple[Fraction, ...]
    constant: Fraction

    @classmethod
    def make(cls, linear: Sequence, constant) -> "AffineForm":
        return cls(make_point(linear), as_fraction(constant))

    def evaluate(self, point: Sequence) -> Fraction:
        return sum((a * as_fraction(x) for a, x in zip(self.linear, point)),
                   self.constant)

    def to_json_dict(self) -> dict:
        return {"linear": [str(a) for a in self.linear],
                "constant": str(self.constant)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AffineForm":
        return cls.make(data["linear"], data["constant"])


def _halfspace_for(linear: Sequence[Fraction], rhs: Fraction):
    """{x : <linear, x> >= rhs} canonicalized.

    Returns True when the constraint is vacuous (zero form, rhs <= 0)
    and False when it is infeasible, so callers can prune.
    """
    if all(a == 0 for a in linear):
        return rhs <= 0
    prim = primitive_integer_vector(linear)
    k = next(i for i, a in enumerate(linear) if a != 0)
    scale = Fraction(linear[k], prim[k])
    return Halfspace(prim, rhs / scale)


class ConcaveTransform:
    """A concave piecewise-linear function G = min_i(forms) on a body.

    G >= 0 on the body; it is checked exactly at the body's vertices,
    where a concave function attains its minimum.
    """

    __slots__ = ("body", "forms", "_cells", "_max", "_simplices", "_curve")

    def __init__(self, body: RationalPolytope, forms: Sequence[AffineForm]):
        coerced = []
        for f in forms:
            form = AffineForm.make(f[0], f[1])
            if len(form.linear) != body.dim:
                raise StructureError("affine form arity differs from body dim")
            if form not in coerced:
                coerced.append(form)
        if not coerced:
            raise StructureError("need at least one affine form")
        self.body = body
        self.forms = tuple(coerced)
        self._cells = None
        self._max = None
        self._simplices = None
        self._curve = None
        worst = min(self.value(v) for v in body.vertices)
        if worst < 0:
            raise InvariantViolation(
                f"transform is negative on the body (minimum {worst})",
                witness={"minimum": str(worst)})

    def value(self, point: Sequence) -> Fraction:
        return min(f.evaluate(point) for f in self.forms)

    def min_cells(self) -> tuple[tuple[int, RationalPolytope], ...]:
        """Full-dimensional regions where one form attains the minimum.

        Cells cover the body and overlap only in measure zero, which is
        exactly what per-cell exact integration needs.
        """
        if self._cells is None:
            cells = []
            for i, fi in enumerate(self.forms):
                constraints = list(self.body.halfspaces())
                feasible = True
                for j, fj in enumerate(self.forms):
                    if i == j:
                        continue
                    linear = tuple(b - a for a, b in zip(fi.linear, fj.linear))
                    hs = _halfspace_for(linear, fi.constant - fj.constant)
                    if hs is True:
                        continue
                    if hs is False:
                        feasible = False
                        break
                    constraints.append(hs)
                if not feasible:
                    continue
                cell = RationalPolytope.from_halfspaces(constraints,
                                                        self.body.dim)
                if cell is not None:
                    cells.append((i, cell))
            self._cells = tuple(cells)
        return self._cells

    def max_value(self) -> Fraction:
        """Maximum of the transform over the body (its top level)."""
        if self._max is None:
            self._max = max(self.forms[i].evaluate(v)
                            for i, cell in self.min_cells()
                            for v in cell.vertices)
        return self._max

    def _simplex_values(self) -> tuple:
        """(vol(S), values of G at the vertices of S) over the simplices S
        of the triangulations of the cells, on each of which G is one
        affine form; moment_p and slice_curve both read it."""
        if self._simplices is None:
            self._simplices = tuple(
                (simplex_volume(s), tuple(map(self.forms[idx].evaluate, s)))
                for idx, cell in self.min_cells() for s in cell.triangulation())
        return self._simplices

    def moment_p(self, p: int) -> Fraction:
        """Exact (1/vol) * integral of G**p over the body."""
        check_positive_int(p, "moment order p")
        return mean_affine_power(self._simplex_values(), self.body.dim, p)

    def slice_curve(self) -> PiecewisePolynomial:
        """Exact x -> vol{G >= x} on [0, max level]."""
        if self.max_value() == 0:
            raise DomainError("the zero transform has no slice curve")
        if self._curve is None:
            self._curve = survival_curve(self._simplex_values(), self.body.dim)
        return self._curve

    def moment_from_slices(self, p: int) -> Fraction:
        """The same moment through p * integral of t**(p-1) vol{G >= t};
        an independent route used to cross-check moment_p exactly."""
        check_positive_int(p, "moment order p")
        if self.max_value() == 0:
            return Fraction(0)
        curve = self.slice_curve()
        top = curve.domain[1]
        return (Fraction(p) * integrate_monomial_weighted(curve, p, 0, top)
                / self.body.volume())

    def pushforward(self, resolution: int) -> "SpectralMeasure":
        """Atomic approximation of the distribution of G under normalized
        Lebesgue measure.

        Atoms sit at grid points i*T/resolution with masses given by
        differences of the slice curve (plus the exact mass of the top
        level), so the total mass is one exactly at every resolution and
        the moments converge from below as the resolution grows.
        """
        check_positive_int(resolution, "resolution")
        top = self.max_value()
        if top == 0:
            return SpectralMeasure.from_atoms([(Fraction(0), Fraction(1))])
        vol = self.body.volume()
        grid = [top * Fraction(i, resolution) for i in range(resolution + 1)]
        curve = self.slice_curve()
        slices = [curve(t) for t in grid]
        atoms = [(grid[i], (slices[i] - slices[i + 1]) / vol)
                 for i in range(resolution)]
        atoms.append((top, slices[resolution] / vol))
        return SpectralMeasure.from_atoms(atoms)

    def to_json_dict(self) -> dict:
        return {"body": self.body.to_json_dict(),
                "forms": [f.to_json_dict() for f in self.forms]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConcaveTransform":
        try:
            body = RationalPolytope.from_json_dict(data["body"])
            forms = [AffineForm.from_json_dict(f) for f in data["forms"]]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"malformed transform JSON: {exc}") from None
        return cls(body, forms)

    def __repr__(self):
        return f"ConcaveTransform({self.body!r}, {len(self.forms)} forms)"


class _SpectralFields(NamedTuple):
    atoms: tuple[tuple[Fraction, Fraction], ...]


class SpectralMeasure(_SpectralFields):
    """A probability measure with finitely many nonnegative atoms."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, atoms):
        total = Fraction(0)
        last = None
        for loc, mass in atoms:
            if loc < 0:
                raise InvariantViolation("atom locations must be >= 0")
            if mass <= 0:
                raise InvariantViolation("atom masses must be positive")
            if last is not None and loc <= last:
                raise InvariantViolation("atoms must increase strictly")
            last = loc
            total += mass
        if total != 1:
            raise InvariantViolation(f"total mass is {total}, not 1")
        return super().__new__(cls, atoms)

    @classmethod
    def from_atoms(cls, pairs: Sequence) -> "SpectralMeasure":
        merged: dict[Fraction, Fraction] = {}
        for loc, mass in pairs:
            loc = as_fraction(loc)
            mass = as_fraction(mass)
            if mass:
                merged[loc] = merged.get(loc, Fraction(0)) + mass
        return cls(tuple(sorted(merged.items())))

    def moment_p(self, p: int) -> Fraction:
        if not isinstance(p, int) or isinstance(p, bool) or p < 0:
            raise DomainError("moment order must be a nonnegative integer")
        return sum((mass * loc ** p for loc, mass in self.atoms), Fraction(0))

    def to_json_dict(self) -> dict:
        return {"atoms": [[str(loc), str(mass)] for loc, mass in self.atoms]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpectralMeasure":
        try:
            pairs = [(as_fraction(a), as_fraction(m)) for a, m in data["atoms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"malformed measure JSON: {exc}") from None
        return cls.from_atoms(pairs)

"""Moment models on rational polytope bodies.

A body (a full-dimensional :class:`RationalPolytope`) together with a
concave piecewise-linear level function G, given as the minimum of
finitely many affine forms, determines slice bodies {G >= t} and exact
moments of G against normalized Lebesgue measure, read both directly
and through the slice curve.  These are the convex-geometric
stand-ins for graded linear series filtered by a valuation.

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, InvariantViolation, StructureError
from .geometry import (Halfspace, RationalPolytope, make_point,
                       mean_affine_powers, simplex_volume, survival_curve)
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
                # fi <= fj, as <fj - fi, x> >= fi(0) - fj(0)
                cuts = [Halfspace(tuple(b - a for a, b in zip(fi.linear, fj.linear)),
                                  fi.constant - fj.constant)
                        for j, fj in enumerate(self.forms) if j != i]
                cell = self.body.intersect(cuts) if cuts else self.body
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
        return mean_affine_powers(self._simplex_values(), self.body.dim, (p,))[p]

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

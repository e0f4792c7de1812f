"""Reference computations that the tests hold fast paths to.

``slice_volume`` hulls the slice body {G >= t} of a concave transform
and takes its volume; ``ConcaveTransform.slice_curve`` and
``geometry.survival_curve`` give the same values in closed form.
``integrate_affine_power_over_simplex`` integrates g**p over one
simplex with h_p summed from its definition by ``complete_homogeneous``;
``geometry.mean_affine_powers`` sums the same closed form over a
weighted triangulation, every order from one recurrence per simplex.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

from deltap.geometry import RationalPolytope
from deltap.okounkov import _halfspace_for


def slice_volume(transform, t) -> Fraction:
    """Volume of {G >= t} for the transform G, from a hull of that body."""
    constraints = list(transform.body.halfspaces())
    for form in transform.forms:
        hs = _halfspace_for(form.linear, t - form.constant)
        if hs is True:
            continue
        if hs is False:
            return Fraction(0)
        constraints.append(hs)
    region = RationalPolytope.from_halfspaces(constraints, transform.body.dim)
    return Fraction(0) if region is None else region.volume()


def complete_homogeneous(values, p):
    """h_p(values) from its definition: the sum, over every multiset of p
    of the positions, of the product of the values there, so a repeated
    value counts once per position."""
    return sum(prod(c) for c in combinations_with_replacement(values, p))


def integrate_affine_power_over_simplex(volume, values, p) -> Fraction:
    """Exact ``integral_S g**p`` for affine g over a simplex S.

    With vertex values a_0..a_n the closed form is
    ``vol(S) * n! p! / (n+p)! * h_p(a_0, ..., a_n)``,
    which is well defined for repeated vertex values (unlike the
    divided-difference form of the same identity).
    """
    n = len(values) - 1
    coef = Fraction(factorial(n) * factorial(p), factorial(n + p))
    return volume * coef * complete_homogeneous(values, p)

"""Reference computations that the tests hold fast paths to.

``slice_volume`` hulls the slice body {G >= t} of a concave transform
and takes its volume; ``ConcaveTransform.slice_curve`` and
``geometry.survival_curve`` give the same values in closed form.
"""

from fractions import Fraction

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

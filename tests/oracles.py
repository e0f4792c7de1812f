"""Reference computations that the tests hold fast paths to.

``slice_volume`` hulls the slice body {G >= t} of a concave transform
and takes its volume; ``ConcaveTransform.slice_curve`` and
``geometry.survival_curve`` give the same values in closed form.
``survival_curve_by_divided_differences`` builds each piece of that
curve from one divided-difference table of polynomials per simplex
(``truncated_power_difference``); ``survival_curve`` adds the weights of
simplices with equal sorted values and reads every piece off one
residue coefficient per distinct value and multiplicity.
``integrate_affine_power_over_simplex`` integrates g**p over one
simplex with h_p summed from its definition by ``complete_homogeneous``;
``geometry.mean_affine_powers`` sums the same closed form over a
weighted triangulation, every order from one recurrence per simplex.
``nullspace_orders`` tests flag membership with one nullspace per flag
entry, and ``compatible_basis_by_rank`` keeps a candidate when it raises
a rank; ``FlagFiltration.ord_of`` and ``filtration.compatible_basis``
read both off one pivot pass.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod

from deltap.errors import DomainError, StructureError
from deltap.geometry import Halfspace, RationalPolytope, dot
from deltap.linalg import nullspace, rank, rref
from deltap.piecewise import PiecewisePolynomial, Polynomial


def slice_volume(transform, t) -> Fraction:
    """Volume of {G >= t} for the transform G, from a hull of that body."""
    constraints = [*transform.body.halfspaces(),
                   *(Halfspace(form.linear, t - form.constant)
                     for form in transform.forms)]
    region = RationalPolytope.from_halfspaces(constraints, transform.body.dim)
    return Fraction(0) if region is None else region.volume()


def truncated_power_difference(knots, hi, n) -> Polynomial:
    """[knots](. - t)_+^n as a polynomial in t on the interval ending at
    ``hi``, which holds no knot, from the divided-difference table; knots
    are sorted, and a run of equal knots reads the derivative."""
    def taylor(a, k) -> Polynomial:
        # d^k/dx^k (x - t)_+^n / k! at x = a: C(n, k) (a - t)^(n-k) for a
        # knot at or above hi, zero for one at or below the interval.
        m = n - k
        return Polynomial(comb(n, k) * comb(m, j) * a ** (m - j) * (-1) ** j
                          for j in range(m + 1) if a >= hi)

    row = [taylor(a, 0) for a in knots]
    for k in range(1, n + 1):
        row = [taylor(knots[i], k) if knots[i] == knots[i + k]
               else (row[i + 1] - row[i]).scale(
                   Fraction(1) / (knots[i + k] - knots[i]))
               for i in range(n + 1 - k)]
    return row[0]


def survival_curve_by_divided_differences(simplices, dim) -> PiecewisePolynomial:
    """The survival curve with one divided-difference table per simplex
    and piece, over the breakpoints 0 and every vertex value."""
    breaks = sorted({Fraction(0), *(v for _, vals in simplices for v in vals)})
    weighted = [(w, sorted(vals)) for w, vals in simplices]
    pieces = [sum((truncated_power_difference(knots, hi, dim).scale(w)
                   for w, knots in weighted), Polynomial(()))
              for hi in breaks[1:]]
    return PiecewisePolynomial(breaks, pieces, continuous=True)


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


def nullspace_orders(filt):
    """The order function of a flagged filtration by membership: s lies
    in a flag entry exactly when it is orthogonal to the nullspace of
    the entry's rows, and its order is the largest height it lies at."""
    tests = [(v, nullspace(rows, width=filt.d)) for v, rows in filt.flag]

    def order(s) -> Fraction:
        vec = tuple(Fraction(x) for x in s)
        if not any(vec):
            raise DomainError("the zero vector has no order")
        return next(v for v, comp in reversed(tests)
                    if all(dot(c, vec) == 0 for c in comp))
    return order


def compatible_basis_by_rank(chain, d):
    """The compatible basis by one rank per candidate: the echelon rows
    of each subspace, innermost first, then the standard basis, each
    kept when it raises the rank of those kept; a chain is checked by
    one rank per subspace and one per adjacent pair."""
    subspaces = [tuple(tuple(Fraction(x) for x in r) for r in rows)
                 for rows in chain]
    dims = [rank(rows) for rows in subspaces]
    if any(a <= b for a, b in zip(dims, dims[1:])) or (dims and dims[0] >= d):
        raise StructureError("chain must be strictly decreasing below Q^d")
    for outer, inner, dim in zip(subspaces, subspaces[1:], dims):
        if rank(outer + inner) != dim:
            raise StructureError("chain subspaces are not nested")
    units = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    basis = []
    for candidate in [r for rows in reversed(subspaces)
                      for r in rref(rows)[0]] + units:
        if len(basis) < d and rank(basis + [candidate]) > len(basis):
            basis.append(candidate)
    return tuple(reversed(basis))

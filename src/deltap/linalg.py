"""Small exact linear algebra over the rationals, on one integer kernel.

``_reduce`` clears each row to integers once and runs fraction-free
elimination (Bareiss, Math. Comp. 22, 1968), whose every division is
exact: rank and determinant read the forward pass, and rref the full
Gauss-Jordan pass.
Pivoting is deterministic: first nonzero column, first row at or below.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import StructureError

Vector = tuple[Fraction, ...]


def _cleared(row: Sequence) -> tuple[Sequence[int], int]:
    """An integer multiple of a rational row, and the multiplier; an
    all-int row is its own, with multiplier 1."""
    if all(type(x) is int for x in row):
        return row, 1
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    mult = lcm(*(x.denominator for x in row))
    return [x.numerator * (mult // x.denominator) for x in row], mult


def _reduce(mat: Sequence[Sequence], full: bool = True):
    """Fraction-free elimination of a rational matrix, Gauss-Jordan when
    ``full``, else only below each pivot.

    Returns (rows, pivots, d, sign, scale): the nonzero integer rows, in
    which, when ``full``, each pivot column is ``d`` (the last pivot) on
    its pivot row and 0 elsewhere; the pivot columns; (-1)^(row swaps);
    and the product of the row multipliers that cleared the denominators.
    """
    rows, scale = [], 1
    for row in mat:
        ints, mult = _cleared(row)
        rows.append(ints)
        scale *= mult
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise StructureError("ragged matrix")
    pivots: list[int] = []
    d, sign = 1, 1
    for col in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[col]
        for i in range(0 if full else r + 1, len(rows)):
            if i != r:
                row = rows[i]
                f = row[col]
                rows[i] = [(pv * a - f * b) // d for a, b in zip(row, top)]
        pivots.append(col)
        d = pv
    return rows[:len(pivots)], tuple(pivots), d, sign, scale


def rref(mat: Sequence[Sequence]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows, pivots, d, _, _ = _reduce(mat)
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows), pivots


def rank(mat: Sequence[Sequence]) -> int:
    return len(_reduce(mat, full=False)[1])


def det(mat: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix: sign * d / scale at full rank."""
    if any(len(row) != len(mat) for row in mat):
        raise StructureError("matrix is not square")
    _, pivots, d, sign, scale = _reduce(mat, full=False)
    return Fraction(sign * d, scale) if len(pivots) == len(mat) else Fraction(0)


def solve_square(mat: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """Solve A x = b for square A; None when A is singular."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise StructureError("matrix is not square")
    if len(rhs) != n:
        raise StructureError("right-hand side has wrong length")
    reduced, pivots = rref([[*row, b] for row, b in zip(mat, rhs)])
    if len(reduced) == n and pivots == tuple(range(n)):
        return tuple(row[n] for row in reduced)
    # Singular; the system may still be inconsistent or underdetermined,
    # callers only care that there is no unique solution.
    return None


def solve_linear_system(mat: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """Any exact solution of A x = b (possibly underdetermined); None if
    the system is inconsistent.  Free variables are set to zero."""
    if len(rhs) != len(mat):
        raise StructureError("right-hand side has wrong length")
    if not mat:
        return ()
    width = len(mat[0])
    reduced, pivots = rref([[*row, rhs[i]] for i, row in enumerate(mat)])
    for row, col in zip(reduced, pivots):
        if col == width:
            return None
    x = [Fraction(0)] * width
    for row, col in zip(reduced, pivots):
        x[col] = row[width]
    return tuple(x)


def nullspace(mat: Sequence[Sequence], width: int | None = None) -> tuple[Vector, ...]:
    """Basis of {x : A x = 0}, canonical from the rref (free columns)."""
    if width is None:
        if not mat:
            raise StructureError("cannot infer width of an empty matrix")
        width = len(mat[0])
    reduced, pivots = rref(mat)
    free_cols = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


def primitive_integer_vector(vec: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers (orientation kept)."""
    ints, _ = _cleared(vec)
    g = gcd(*ints)
    if g == 0:
        raise StructureError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)

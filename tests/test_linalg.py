"""Tests for the small exact linear-algebra kit."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap.errors import StructureError
from deltap.linalg import (
    det,
    nullspace,
    primitive_integer_vector,
    rank,
    rref,
    solve_linear_system,
    solve_square,
)

F = Fraction


def test_rank_of_obvious_matrices():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0


def test_solve_square_regular_and_singular():
    sol = solve_square([[2, 1], [1, 3]], [5, 10])
    assert sol == (F(1), F(3))
    assert solve_square([[1, 2], [2, 4]], [1, 1]) is None


def test_solve_linear_system_overdetermined():
    # consistent 3x2 system
    sol = solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert sol == (F(2), F(3))
    # inconsistent variant
    assert solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 3, 6]) is None


def test_solve_linear_system_rejects_wrong_rhs_length():
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(StructureError, match="wrong length"):
            solve_linear_system([[1, 0], [0, 1]], rhs)


def test_nullspace_spans_kernel():
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_primitive_integer_vector():
    assert primitive_integer_vector([F(2, 3), F(4, 3)]) == (1, 2)
    assert primitive_integer_vector([-4, -6]) == (-2, -3)
    assert primitive_integer_vector([0, 5]) == (0, 1)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2,
                max_size=4))
def test_rref_idempotent(row):
    mat = [row, [2 * c for c in row]]
    rows, pivots = rref(mat)
    again, pivots2 = rref([list(r) for r in rows])
    assert rows == again
    assert pivots == pivots2


def _rref_oracle(mat):
    """Fraction Gauss-Jordan with the kernel's pivoting rule; the
    reference the fraction-free kernel must reproduce."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _leibniz_det(mat):
    n = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(
            Fraction(mat[i][perm[i]]) for i in range(n))
    return total


ENTRIES = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def rational_matrices(draw):
    """1-6 by 1-6 matrices of integers and fractions; some rows are
    combinations of earlier ones, so ranks fall short and pivots skip
    columns."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(ENTRIES, min_size=m, max_size=m)) for _ in range(n)]
    for i in range(1, n):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(ENTRIES), draw(ENTRIES)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_kernel_matches_fraction_oracle(mat):
    rows, pivots = _rref_oracle(mat)
    assert rref(mat) == (rows, pivots)
    assert rank(mat) == len(pivots)
    k = min(len(mat), len(mat[0]))
    square = [row[:k] for row in mat[:k]]
    assert det(square) == _leibniz_det(square)

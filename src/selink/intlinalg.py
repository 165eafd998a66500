"""Exact integer linear algebra for small matrices.

Cone construction and lattice bookkeeping need Smith normal form with its
unimodular row transform, exact ranks, determinants and linear solves.  All
but the Smith form come from one routine, ``_echelon``: a fraction-free
(Bareiss) row echelon form in plain Python ints, whose entries are minors
of the input and never need a Fraction.

- ``det_int`` reads the last pivot of a square matrix;
- ``_cramer_numerators`` back-substitutes in integers scaled by the
  determinant of the pivot rows, which gives D x (Cramer's numerators);
- ``solve_exact`` divides those by D, one Fraction per unknown.

The Smith form and the elimination take integer entries only (whatever
``operator.index`` accepts) and reject anything else as a
``DomainError``, so nothing is ever rounded or truncated.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "smith_normal_form",
    "det_int",
    "solve_exact",
    "primitive_vector",
]


def _int_rows(matrix) -> list[list[int]]:
    """The matrix as lists of ints; non-integer entries are a DomainError."""
    try:
        return [[operator.index(x) for x in row] for row in matrix]
    except TypeError:
        raise DomainError("exact elimination needs integer entries") from None


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Return (U, D) with U @ matrix @ V = D diagonal, U and V unimodular.

    The diagonal entries of D are the invariant factors d_1 | d_2 | ...,
    nonnegative, with zeros trailing.  Classic pivot-and-reduce algorithm;
    the row transform U is carried along so callers can read off
    coordinates on the cokernel.  No caller needs the column transform V,
    so it is not formed.
    """
    A = _int_rows(matrix)
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise DomainError("ragged matrix")
    U = _identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    t = 0
    while t < min(m, n):
        # The first entry of least absolute value, row by row, is the pivot.
        nonzero = ((abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j])
        pivot = min(nonzero, default=None)
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        while True:
            changed = False
            for i in range(t + 1, m):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        swap_rows(t, i)
                        changed = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        swap_cols(t, j)
                        changed = True
            if not changed:
                break
        # Divisibility repair: d_t must divide the rest of the submatrix.
        rest = range(t + 1, n)
        stray = next((i for i in range(t + 1, m) if any(A[i][j] % A[t][t] for j in rest)), None)
        if stray is not None:
            add_row(stray, t, 1)
            continue  # re-reduce at the same position
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A


def _echelon(matrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix (Bareiss).

    Returns (rows, pivot_cols).  Elimination steps keep every entry an
    integer: after the step at pivot position k, entry (i, j) below it is
    the (k+1) x (k+1) minor on the pivot rows and columns plus row i and
    column j, so the division by the previous pivot is exact and the
    entries grow only as minors do.  Row swaps negate the row moved down,
    which keeps every leading minor's sign; the last pivot of a square
    nonsingular matrix is therefore its determinant, and the pivot of
    echelon row r is the leading (r+1) x (r+1) minor of the pivot columns.
    """
    rows = _int_rows(matrix)
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise DomainError("ragged matrix")
    pivots = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], [-x for x in rows[r]]
        top = rows[r]
        pv = top[col]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
        pivots.append(col)
        r += 1
    return rows, pivots


def det_int(matrix) -> int:
    """Exact determinant of an integer matrix: the last Bareiss pivot."""
    matrix = list(matrix)
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DomainError("determinant needs a square matrix")
    if n == 0:
        return 1
    rows, pivots = _echelon(matrix)
    return rows[-1][-1] if len(pivots) == n else 0


def _cramer_numerators(rows, ncols: int, rhs: int) -> tuple[int, list[int]]:
    """(D, D x) from echelon rows whose first ncols columns are all pivots.

    D is the determinant of those columns (the last pivot) and x solves
    the system whose right-hand side is column rhs.  D x is integral by
    Cramer's rule, so every division in the back-substitution is exact.
    """
    det = rows[ncols - 1][ncols - 1] if ncols else 1
    y = [0] * ncols
    for r in reversed(range(ncols)):
        row = rows[r]
        s = det * row[rhs] - sum(row[c] * y[c] for c in range(r + 1, ncols))
        y[r] = s // row[r]
    return det, y


def solve_exact(matrix, rhs):
    """Solve A x = b exactly over the rationals, for integer A and b.

    Returns ("unique", x) with x a tuple of Fractions, or
    ("inconsistent", None), or ("underdetermined", None).  A unique
    solution is back-substituted in integers scaled by the determinant D
    of the pivot rows (Cramer's numerators), then divided by D.
    """
    mat = [list(row) for row in matrix]
    b = list(rhs)
    if len(mat) != len(b):
        raise DomainError("matrix and right-hand side differ in length")
    ncols = len(mat[0]) if mat else 0
    rows, pivots = _echelon([row + [bv] for row, bv in zip(mat, b)])
    if ncols in pivots:
        return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    det, y = _cramer_numerators(rows, ncols, ncols)
    return "unique", tuple(Fraction(v, det) for v in y)


def primitive_vector(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    (ints,) = _int_rows([vec])
    g = math.gcd(*ints) if ints else 0
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    return tuple(x // g for x in ints)

"""Exact integer linear algebra for small matrices.

Two routines do the elimination, both in plain Python ints:

- ``hermite_form`` runs Euclid's algorithm down each column and keeps its
  unimodular row transform, whose last rows are a basis of the integer
  left kernel; ``invariant_factors`` reads the Smith diagonal off Hermite
  forms of alternate transposes (Cohen 1993, section 2.4);
- ``_echelon`` is a fraction-free (Bareiss) row echelon form, whose
  entries are minors of the input and never need a Fraction.
  ``_cramer_numerators`` reads an exact solution off it as integers over
  one determinant.

Entries are validated once, at the public boundary: ``hermite_form``
and ``primitive_vector`` take integer entries only (whatever
``operator.index`` accepts; anything else is a ``DomainError``, so nothing
is ever rounded or truncated).  ``_echelon`` trusts the rows it is given:
its callers pass rows they have already checked, of ints and one length.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations

from .errors import DomainError

__all__ = [
    "hermite_form",
    "invariant_factors",
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


def hermite_form(matrix):
    """Return (U, H) with U @ matrix = H in row Hermite form, U unimodular.

    Column by column, the rows at and below the current one run Euclid's
    algorithm: a round pivots on the first entry of least absolute value
    and reduces each row below by floor division.  In the first column,
    whose order fixes the coordinates of every one-row weight matrix's
    cone, a nonzero remainder becomes the pivot at once.  Later columns
    keep one pivot per round: pivots chained through many rows would
    multiply the entries of the columns after them.  The pivot is then
    made positive and the rows above it are reduced modulo it.
    """
    A = _int_rows(matrix)
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise DomainError("ragged matrix")
    U = _identity(m)

    def add_row(src, dst, q):  # row_dst -= q * row_src
        A[dst] = [a - q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def swap_rows(i, j):
        A[i], A[j], U[i], U[j] = A[j], A[i], U[j], U[i]

    t = 0
    for c in range(n):
        while rows := [i for i in range(t, m) if A[i][c]]:
            swap_rows(t, min(rows, key=lambda i: abs(A[i][c])))
            if len(rows) == 1:
                break
            for i in range(t + 1, m):
                if A[i][c]:
                    add_row(t, i, A[i][c] // A[t][c])
                    if A[i][c] and c == 0:
                        swap_rows(t, i)
        else:  # nothing at or below row t in this column
            continue
        if A[t][c] < 0:
            A[t], U[t] = [-x for x in A[t]], [-x for x in U[t]]
        for i in range(t):
            add_row(t, i, A[i][c] // A[t][c])
        t += 1
    return U, A


def invariant_factors(matrix) -> list[int]:
    """The Smith diagonal d_1 | d_2 | ... of an integer matrix, zeros last.

    Each Hermite form of the last one's transpose lowers the corner entry
    to the gcd of its row, or leaves that row and column clear, so the
    rounds end on a diagonal matrix.  The (gcd, lcm) of each pair of its
    entries then orders them by divisibility.
    """
    h = hermite_form(matrix)[1]
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = hermite_form(list(zip(*h)))[1]
    diag = [row[i] for i, row in enumerate(h) if i < len(row)]
    for i, j in combinations(range(len(diag)), 2):
        diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return diag


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
    The rows must be int sequences of one length; they are not checked.
    """
    rows = list(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for col in range(ncols):
        for found in range(r, nrows):
            if rows[found][col]:
                break
        else:  # nothing at or below row r in this column
            continue
        if found != r:
            rows[r], rows[found] = rows[found], [-x for x in rows[r]]
        top = rows[r]
        pv = top[col]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[col]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


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
        s = det * row[rhs] - sum(map(operator.mul, row[r + 1 : ncols], y[r + 1 :]))
        y[r] = s // row[r]
    return det, y


def primitive_vector(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    (ints,) = _int_rows([vec])
    g = math.gcd(*ints) if ints else 0
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    return tuple(x // g for x in ints)

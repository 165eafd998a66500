"""Exact integer linear algebra for small matrices.

Cone construction and lattice bookkeeping need Smith normal form with its
unimodular transforms, exact ranks, determinants, kernels and linear
solves.  All but the Smith form come from one routine, ``_echelon``: a
fraction-free (Bareiss) row echelon form in plain Python ints, whose
entries are minors of the input and never need a Fraction.

- ``det_int`` reads the last pivot of a square matrix;
- ``kernel_vector`` back-substitutes in integers over the pivot rows;
- ``solve_exact`` back-substitutes in integers scaled by the determinant
  of the pivot rows and makes one Fraction per unknown at the end.

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
    "kernel_vector",
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
    """Return (U, D, V) with U @ matrix @ V = D diagonal, U and V unimodular.

    The diagonal entries of D are the invariant factors d_1 | d_2 | ...,
    nonnegative, with zeros trailing.  Classic pivot-and-reduce algorithm;
    the transforms are carried along so callers can read off coordinates
    on the cokernel.
    """
    A = _int_rows(matrix)
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise DomainError("ragged matrix")
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (
                    pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
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
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        swap_cols(t, j)
                        changed = True
            if not changed:
                break
        # Divisibility repair: d_t must divide the rest of the submatrix.
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue  # re-reduce at the same position
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V


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
    det = rows[ncols - 1][ncols - 1] if ncols else 1
    y = [0] * ncols
    for r in reversed(range(ncols)):
        row = rows[r]
        s = det * row[ncols] - sum(row[c] * y[c] for c in range(r + 1, ncols))
        y[r] = s // row[r]
    return "unique", tuple(Fraction(v, det) for v in y)


def kernel_vector(matrix, ncols: int):
    """A primitive integer spanning vector of a one-dimensional kernel.

    Returns None unless the kernel of the (rows x ncols) matrix has
    dimension exactly one.  The kernel is supported on the columns up to
    the single free column j0, and the vector is oriented so that its
    entry at j0 (its last nonzero entry) is positive.
    """
    rows, pivots = _echelon(matrix)
    if ncols - len(pivots) != 1:
        return None
    j0 = next((j for j, col in enumerate(pivots) if j != col), len(pivots))
    # Columns 0..j0-1 are pivots of rows 0..j0-1: back-substitute with
    # x[j0] = 1, scaling x up whenever a pivot does not divide exactly.
    x = [0] * ncols
    x[j0] = 1
    for r in reversed(range(j0)):
        row = rows[r]
        s = sum(row[c] * x[c] for c in range(r + 1, j0 + 1))
        scale = abs(row[r]) // math.gcd(s, row[r])
        if scale != 1:
            x = [v * scale for v in x]
            s *= scale
        x[r] = -s // row[r]
    return primitive_vector(x)


def primitive_vector(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    (ints,) = _int_rows([vec])
    g = math.gcd(*ints) if ints else 0
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    return tuple(x // g for x in ints)

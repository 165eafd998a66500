"""Exact integer linear algebra against Fraction and sympy oracles.

The library computes ranks, determinants and solutions from one
fraction-free (Bareiss) echelon form.  ``rref`` (in ``toric_oracles``) is
the Fraction Gauss-Jordan it replaced, kept as an independent oracle
together with the solve rule below that was built on it.  ``solve_exact``,
the Fraction solve on that echelon form, is in ``toric_oracles`` too, as
the oracle of ``gorenstein_gamma``; the tests below check it there, and
``rank_rational`` and ``det_int``, which read a rank and a determinant
off that echelon form, beside it.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from selink import DomainError
from selink.intlinalg import hermite_form, invariant_factors, primitive_vector
from toric_oracles import det_int, rank_rational, rref, rref_kernel_vector, solve_exact


def rref_solve(matrix, rhs):
    """The three-status solve over ``rref`` of the augmented matrix."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(rows[0]) - 1
    reduced, pivots = rref(rows)
    if ncols in pivots:
        return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = reduced[r][ncols]
    return "unique", tuple(x)


def leibniz_det(matrix):
    """Determinant as the signed sum over permutations."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


int_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)

square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)

# Entries up to 10^6 make the Bareiss intermediates (minors of the input)
# grow to dozens of digits; small entries make zeros and dependencies.
big_entries = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))


@st.composite
def wide_matrices(draw, min_rows=1, max_rows=8, min_cols=2, max_cols=7):
    """Integer matrices, some rows replaced by combinations of earlier ones."""
    nrows = draw(st.integers(min_rows, max_rows))
    ncols = draw(st.integers(min_cols, max_cols))
    rows = [draw(st.lists(big_entries, min_size=ncols, max_size=ncols))]
    for _ in range(nrows - 1):
        if draw(st.booleans()):
            rows.append(draw(st.lists(big_entries, min_size=ncols, max_size=ncols)))
        else:
            a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


@st.composite
def corank_one_matrices(draw):
    """ncols - 1 generic rows plus combinations of them, shuffled."""
    ncols = draw(st.integers(2, 7))
    base = [
        draw(st.lists(big_entries, min_size=ncols, max_size=ncols))
        for _ in range(ncols - 1)
    ]
    rows = list(base)
    for _ in range(draw(st.integers(0, 8 - len(base)))):
        coeffs = draw(
            st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        )
        rows.append([sum(c * b[k] for c, b in zip(coeffs, base)) for k in range(ncols)])
    return draw(st.permutations(rows))


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def single_column_sweep(column):
    """U of the one-column Euclid loop that cone_from_weights has used for k = 1.

    The pivot is the first entry of least absolute value; every row below
    is reduced by floor division, a nonzero remainder swaps in as the pivot
    at once, and the sweeps repeat until nothing changes.  Its last rows
    give the free-quotient coordinates of every one-row weight matrix, so
    the Hermite form must make the same operations on one column.
    """
    a = list(column)
    u = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    if not any(a):
        return u
    p = min((abs(x), i) for i, x in enumerate(a) if x)[1]
    a[0], a[p], u[0], u[p] = a[p], a[0], u[p], u[0]
    changed = True
    while changed:
        changed = False
        for i in range(1, len(a)):
            if a[i]:
                q = a[i] // a[0]
                a[i] -= q * a[0]
                u[i] = [x - q * y for x, y in zip(u[i], u[0])]
                if a[i]:
                    a[0], a[i], u[0], u[i] = a[i], a[0], u[i], u[0]
                    changed = True
    if a[0] < 0:
        u[0] = [-x for x in u[0]]
    return u


class TestHermiteForm:
    @given(int_matrices)
    @settings(max_examples=200, deadline=None)
    def test_transform_and_echelon_form(self, rows):
        u, h = hermite_form(rows)
        assert abs(sympy.Matrix(u).det()) == 1
        assert matmul(u, rows) == h
        # Echelon form: each pivot is positive, right of the pivot above it,
        # with zeros below it and the entries above it reduced modulo it.
        last = -1
        for r, row in enumerate(h):
            if not any(row):
                assert not any(x for later in h[r:] for x in later)
                break
            c = next(j for j, x in enumerate(row) if x)
            assert c > last and row[c] > 0
            assert all(h[i][c] == 0 for i in range(r + 1, len(h)))
            assert all(0 <= h[i][c] < row[c] for i in range(r))
            last = c

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_one_column_keeps_the_euclid_sweep(self, column):
        u, _ = hermite_form([[x] for x in column])
        assert u == single_column_sweep(column)

    @given(int_matrices)
    @settings(max_examples=200, deadline=None)
    def test_invariant_factors_match_sympy(self, rows):
        mine = invariant_factors(rows)
        try:
            snf = sympy_smith(sympy.Matrix(rows))
        except Exception:  # sympy rejects some degenerate shapes
            return
        assert mine == [abs(snf[i, i]) for i in range(min(snf.shape))]

    def test_known_example(self):
        assert invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]

    def test_entries_stay_small_over_many_columns(self):
        # A pivot swapped in at once in every column chains the rows and
        # multiplies the later columns: so run, this 14 x 8 matrix did not
        # finish in 20 s.  Its kernel rows (U[8:]) have about 20 bits here.
        rng = random.Random(2)
        rows = [[rng.randint(-10, 10) for _ in range(8)] for _ in range(14)]
        u, h = hermite_form(rows)
        assert matmul(u, rows) == h
        assert max(abs(x) for row in u[8:] for x in row) < 2**40

    def test_rejects_non_integer_entries(self):
        # int() would truncate these to H = [[1, 0], [0, 2]].
        for helper in (hermite_form, invariant_factors):
            with pytest.raises(DomainError):
                helper([[Fraction(3, 2), 0], [0, 2.7]])


class TestDeterminant:
    @given(square_matrices)
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, rows):
        assert det_int(rows) == sympy.Matrix(rows).det()

    def test_empty_matrix(self):
        assert det_int([]) == 1


class TestRationalSolvers:
    def test_unique_solution(self):
        status, sol = solve_exact([[2, 0], [0, 4]], [1, 1])
        assert status == "unique"
        assert sol == (Fraction(1, 2), Fraction(1, 4))

    def test_inconsistent(self):
        status, sol = solve_exact([[1, 1], [1, 1]], [0, 1])
        assert (status, sol) == ("inconsistent", None)

    def test_underdetermined(self):
        status, sol = solve_exact([[1, 1]], [2])
        assert (status, sol) == ("underdetermined", None)

    def test_rhs_length_mismatch(self):
        with pytest.raises(DomainError):
            solve_exact([[1, 0], [0, 1]], [1])

    @given(square_matrices, st.data())
    @settings(max_examples=100, deadline=None)
    def test_unique_solutions_verify(self, rows, data):
        rhs = data.draw(
            st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows))
        )
        status, sol = solve_exact(rows, rhs)
        if status == "unique":
            for row, b in zip(rows, rhs):
                assert sum(Fraction(a) * x for a, x in zip(row, sol)) == b
        else:
            assert sympy.Matrix(rows).det() == 0

    @given(int_matrices)
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_sympy(self, rows):
        assert rank_rational(rows) == sympy.Matrix(rows).rank()

    @given(int_matrices)
    @settings(max_examples=80, deadline=None)
    def test_rref_pivots(self, rows):
        reduced, pivots = rref(rows)
        assert len(pivots) == sympy.Matrix(rows).rank()
        for r, col in enumerate(pivots):
            assert reduced[r][col] == 1
            for other in range(len(reduced)):
                if other != r:
                    assert reduced[other][col] == 0


class TestKernelAndPrimitive:
    def test_primitive_vector(self):
        assert primitive_vector((4, -6, 8)) == (2, -3, 4)
        with pytest.raises(DomainError):
            primitive_vector((0, 0))

    def test_primitive_rejects_non_integer_entries(self):
        # int() would truncate this to (1, 3).
        with pytest.raises(DomainError):
            primitive_vector([Fraction(3, 2), 3])

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_primitive_gcd_is_one(self, vec):
        if all(x == 0 for x in vec):
            return
        prim = primitive_vector(vec)
        assert math.gcd(*(abs(x) for x in prim)) == 1
        # Parallel to the input.
        for a, b in zip(vec, prim):
            assert a * prim[0] == b * vec[0]


class TestEliminationAgainstOracles:
    """Every helper on the echelon form against rref and sympy."""

    @given(wide_matrices())
    @settings(max_examples=200, deadline=None)
    def test_rank(self, rows):
        rank = rank_rational(rows)
        assert rank == len(rref(rows)[1])
        assert rank == sympy.Matrix(rows).rank()

    @given(st.one_of(wide_matrices(), corank_one_matrices()))
    @settings(max_examples=300, deadline=None)
    def test_rref_kernel_vector_matches_sympy(self, rows):
        # The kernel rule that the subset-kernel ray oracle is built on.
        ncols = len(rows[0])
        vec = rref_kernel_vector(rows, ncols)
        nullspace = sympy.Matrix(rows).nullspace()
        if vec is None:
            assert len(nullspace) != 1
            return
        assert len(nullspace) == 1
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
        assert math.gcd(*vec) == 1
        assert [x for x in vec if x][-1] > 0

    @given(wide_matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_solve_exact(self, rows, data):
        ncols = len(rows[0])
        if data.draw(st.booleans()):
            rhs = data.draw(
                st.lists(big_entries, min_size=len(rows), max_size=len(rows))
            )
        else:  # consistent by construction
            x = data.draw(
                st.lists(st.integers(-50, 50), min_size=ncols, max_size=ncols)
            )
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        status, sol = solve_exact(rows, rhs)
        assert (status, sol) == rref_solve(rows, rhs)
        a = sympy.Matrix(rows)
        rank = a.rank()
        if a.row_join(sympy.Matrix(rhs)).rank() > rank:
            assert status == "inconsistent"
        elif rank < ncols:
            assert status == "underdetermined"
        else:
            assert status == "unique"
            expected, params = a.gauss_jordan_solve(sympy.Matrix(rhs))
            assert params.shape[0] == 0
            assert [sympy.Rational(f.numerator, f.denominator) for f in sol] == list(
                expected
            )

    @given(wide_matrices(min_rows=2, max_rows=7, min_cols=7))
    @settings(max_examples=150, deadline=None)
    def test_det_int(self, rows):
        square = [row[: len(rows)] for row in rows]
        det = det_int(square)
        assert det == sympy.Matrix(square).det()
        assert (det == 0) == (len(rref(square)[1]) < len(square))
        if len(square) <= 6:
            assert det == leibniz_det(square)

    def test_rejects_non_integer_entries(self):
        for helper in (rank_rational, det_int):
            with pytest.raises(DomainError):
                helper([[Fraction(1, 2), 1], [1, 1]])
        with pytest.raises(DomainError):
            solve_exact([[1, 0], [0, 1]], [Fraction(1, 3), 1])

    def test_rejects_ragged_rows(self):
        with pytest.raises(DomainError):
            rank_rational([[1, 2, 3], [4, 5]])

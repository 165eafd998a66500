"""Moment cones, volumes, the optimizer, and weight-matrix quotients.

Volume values are cross-checked against Qhull (scipy.spatial.ConvexHull)
on the slice polytope, a fully independent computation path.
"""

import hashlib
import itertools
import math
import random
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from selink import (
    ConvergenceError,
    DomainError,
    MomentCone,
    ReebVector,
    UnboundedPolytopeError,
    WeightMatrix,
    cone_from_weights,
    gorenstein_gamma,
    minimize_volume,
    read_cone_file,
    read_weight_matrix_file,
    reeb_is_interior,
    reeb_slice_project,
    volume,
    volume_gradient,
    volume_hessian,
)

from selink import intlinalg, toric
from selink.toric import _solve
from toric_oracles import (
    oracle_cone,
    oracle_volume,
    simplex_gradient,
    simplex_hessian,
    solve_exact,
)
from toric_potentials import guillemin_potential, potential_hessian

ORTHANT3 = MomentCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
CONIFOLD = MomentCone(((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)))
DP3_NORMALS = ((1, 1, 0), (1, 1, 1), (1, 0, 1), (1, -1, 0), (1, -1, -1), (1, 0, -1))


def orthant(m: int) -> MomentCone:
    return MomentCone(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))


def hull_volume_oracle(cone: MomentCone, xi) -> float:
    """m! times the Euclidean volume of C intersect {<y, xi> <= 1} via Qhull."""
    xs = [float(x) for x in xi]
    points = [[0.0] * cone.dim]
    for ray in cone.rays:
        s = sum(a * b for a, b in zip(xs, ray))
        points.append([r / s for r in ray])
    return math.factorial(cone.dim) * ConvexHull(points).volume


def random_interior_xi(cone: MomentCone, rng: random.Random):
    coeffs = [rng.uniform(0.2, 2.0) for _ in cone.normals]
    return tuple(
        sum(c * n[i] for c, n in zip(coeffs, cone.normals))
        for i in range(cone.dim)
    )


class TestMomentCone:
    def test_orthant_rays_are_axes(self):
        assert set(ORTHANT3.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_conifold_rays(self):
        assert set(CONIFOLD.rays) == {(0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1)}

    def test_normals_primitivized_and_deduped(self):
        cone = MomentCone(((2, 0, 0), (0, 3, 0), (0, 0, 1), (0, 0, 2)))
        assert cone.normals == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rejects_low_rank(self):
        with pytest.raises(DomainError):
            MomentCone(((1, 0), (-1, 0)))

    def test_rejects_single_ray(self):
        # y_1 = 0 and y_0 >= 0: rank 2, so pointed, but the cone is the
        # single ray (1, 0) and has empty interior.
        with pytest.raises(DomainError, match="empty interior"):
            MomentCone(((0, 1), (0, -1), (1, 0)))

    def test_rejects_halfspace(self):
        # y_1 >= 0 contains the whole y_0-axis.
        with pytest.raises(DomainError, match="not strongly convex"):
            MomentCone(((0, 1),))

    def test_rejects_pointed_cone_inside_a_hyperplane(self):
        # Rank 4 and four extreme rays, yet every point has y_0 = 0.
        normals = (
            (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 0, 1)
        )
        with pytest.raises(DomainError, match="empty interior"):
            MomentCone(normals)

    def test_rejects_zero_cone(self):
        # +-e1 and +-e2 leave only the origin: no extreme ray at all.
        with pytest.raises(DomainError, match="empty interior"):
            MomentCone(((1, 0), (-1, 0), (0, 1), (0, -1)))

    def test_rejects_dimension_one(self):
        with pytest.raises(DomainError):
            MomentCone(((1,),))

    def test_rejects_non_integer_normals(self):
        # int() would truncate this to the orthant.
        with pytest.raises(DomainError):
            MomentCone(((1.9, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_interiority_test(self):
        assert reeb_is_interior(CONIFOLD, (3, 1.5, 1.5))
        assert not reeb_is_interior(CONIFOLD, (1, 1, -5))
        assert not reeb_is_interior(CONIFOLD, (0, 1, 1))  # boundary ray pairing


def cyclic_normals(m: int, count: int):
    """Normals (1, t, ..., t^{m-1}) at count nonzero t, symmetric about 0."""
    ts = [t for t in range(-(count // 2), count - count // 2 + 1) if t]
    return tuple(tuple(t**k for k in range(m)) for t in ts)


def ypq_normals(p: int, q: int):
    return cone_from_weights(WeightMatrix(((p - q, p + q, -p, -p),), 4)).normals


def non_simple_product(base, k: int):
    """base x (k-orthant), with the orthant normals' sum as one more normal.

    That sum vanishes on the whole base face, and two opposite base rays
    share k+1 zero normals without being adjacent.
    """
    dim = len(base[0]) + k
    units = [tuple(int(i == j) for i in range(dim)) for j in range(len(base[0]), dim)]
    redundant = tuple(map(sum, zip(*units)))
    return (*units, redundant, *(n + (0,) * k for n in base))


def positive_combination(normals, coeffs):
    """sum_i c_i n_i; inside the dual cone when every c_i > 0."""
    return tuple(sum(c * n[i] for c, n in zip(coeffs, normals)) for i in range(len(normals[0])))


def assert_matches_oracle(raw_normals):
    """rays, simplices with dets and exact volume, or the error, as the oracle."""
    try:
        expected = oracle_cone(raw_normals)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            MomentCone(raw_normals)
        return
    normals, rays, triangulation, dets = expected
    cone = MomentCone(raw_normals)
    assert cone.normals == normals
    assert cone.rays == rays
    assert cone._simplices == tuple(zip(triangulation, dets))
    # Every ray pairs positively with some normal, so xi is interior.
    xi = tuple(sum(column) for column in zip(*normals))
    assert volume(cone, xi) == oracle_volume(rays, triangulation, dets, xi)
    xi = positive_combination(normals, [Fraction(i + 1, i + 2) for i in range(len(normals))])
    assert volume(cone, xi) == oracle_volume(rays, triangulation, dets, xi)


@st.composite
def small_normal_sets(draw):
    """Small integer normals, with redundant and repeated (after scaling) ones.

    With a positive first coordinate, e_0 pairs positively with every
    normal, so the cone has interior; otherwise many draws are rejected.
    A product with an orthant, whose normals' sum vanishes on the whole
    first factor, gives non-simple cones up to dimension 6: faces that
    lie on more normals than their codimension.
    """
    dim = draw(st.integers(2, 4))
    positive = draw(st.booleans())
    first = st.integers(1, 3) if positive else st.integers(-3, 3)
    normal = st.tuples(first, *[st.integers(-3, 3)] * (dim - 1)).filter(any)
    normals = draw(st.lists(normal, min_size=dim, max_size=dim + 3))
    extra = draw(st.integers(0, 2))
    if extra:
        units = [tuple(int(i == j) for i in range(dim + extra)) for j in range(dim, dim + extra)]
        normals = [n + (0,) * extra for n in normals] + units
        normals.append(tuple(map(sum, zip(*units))))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(normals)), draw(st.sampled_from(normals))
        total = tuple(x + y for x, y in zip(a, b))
        if any(total):
            normals.append(total)  # redundant unless a facet lies on it
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(2, 3))
        normals.append(tuple(k * x for x in draw(st.sampled_from(normals))))
    return tuple(draw(st.permutations(normals)))


class TestCombinatoricsAgainstOracles:
    """Double-description rays and incidence triangulation, checked against
    the subset-kernel enumeration and the rank-based triangulation."""

    @pytest.mark.parametrize("m", [4, 5, 6])
    @pytest.mark.parametrize("count", range(8, 13))
    def test_cyclic_cones(self, m, count):
        assert_matches_oracle(cyclic_normals(m, count))

    @pytest.mark.parametrize(
        "p,q", [(p, q) for p in range(2, 9) for q in range(1, p) if math.gcd(p, q) == 1]
    )
    def test_ypq_cones(self, p, q):
        assert_matches_oracle(ypq_normals(p, q))

    @pytest.mark.parametrize("normals", [CONIFOLD.normals, DP3_NORMALS])
    def test_conifold_and_dp3(self, normals):
        assert_matches_oracle(normals)

    @pytest.mark.parametrize("base", [CONIFOLD.normals, DP3_NORMALS])
    @pytest.mark.parametrize("k", [2, 3])
    def test_non_simple_products(self, base, k):
        assert_matches_oracle(non_simple_product(base, k))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(3, 6),
        st.lists(st.integers(-8, 8), min_size=6, max_size=12, unique=True),
        st.integers(0, 2),
    )
    def test_cyclic_cones_at_random_t(self, m, ts, k):
        # Dimension 3 is one polygon, closed by 3 x 3 minors alone; the
        # polygons of the higher cones divide them by the pivot above.  A
        # product of a polygon with an orthant is not simple.
        normals = tuple(tuple(t**i for i in range(m)) for t in ts)
        if m == 3 and k:
            normals = non_simple_product(normals, k)
        assert_matches_oracle(normals)

    @settings(max_examples=300, deadline=None)
    @given(small_normal_sets())
    def test_random_small_cones(self, normals):
        assert_matches_oracle(normals)

    @settings(max_examples=200, deadline=None)
    @given(small_normal_sets(), st.data())
    def test_exact_volume_at_fraction_xi(self, normals, data):
        # A Fraction xi is scaled to integers by the lcm of its
        # denominators, and the scale comes back as D^dim.
        try:
            normals, rays, triangulation, dets = oracle_cone(normals)
        except DomainError:
            return
        coeff = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=60)
        coeffs = data.draw(st.lists(coeff, min_size=len(normals), max_size=len(normals)))
        xi = positive_combination(normals, coeffs)
        expected = oracle_volume(rays, triangulation, dets, xi)
        cone = MomentCone(normals)
        assert volume(cone, xi) == expected
        assert volume(cone, ReebVector(xi)) == expected

    def test_simplices_make_no_elimination_call(self, monkeypatch):
        # The determinants come out of the triangulation's own recursion;
        # a determinant per simplex would run one echelon form each.
        cone = MomentCone(cyclic_normals(5, 12))
        calls = []
        real = intlinalg._echelon

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(intlinalg, "_echelon", counting)
        monkeypatch.setattr(toric, "_echelon", counting)
        assert len(cone._simplices) > 100
        assert calls == []
        intlinalg._echelon([[2, 1], [1, 1]])  # the patch does see eliminations
        assert len(calls) == 1

    def test_start_rays_come_from_one_elimination(self, monkeypatch):
        # One elimination picks the basis normals and one more, of
        # [B | I], gives every starting ray; one kernel per ray would run
        # dim more.
        calls = []
        real = intlinalg._echelon

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(toric, "_echelon", counting)
        MomentCone(cyclic_normals(5, 12))
        assert len(calls) == 2


class TestVolume:
    def test_orthant_anchor(self):
        for m in range(2, 6):
            assert volume(orthant(m), (1,) * m) == 1

    def test_orthant_closed_form(self):
        xi = (Fraction(3), Fraction(3, 2), Fraction(5, 4))
        assert volume(orthant(3), xi) == Fraction(1, 3 * Fraction(3, 2) * Fraction(5, 4))

    def test_scale_covariance_exact(self):
        xi = (Fraction(2), Fraction(1), Fraction(3))
        for t in (2, Fraction(1, 2), Fraction(7, 3)):
            assert volume(orthant(3), tuple(t * x for x in xi)) == volume(
                orthant(3), xi
            ) / t**3

    def test_conifold_slice_value(self):
        assert volume(CONIFOLD, (3, Fraction(3, 2), Fraction(3, 2))) == Fraction(16, 27)

    def test_float_input_gives_float(self):
        value = volume(CONIFOLD, (3.0, 1.5, 1.5))
        assert isinstance(value, float)
        assert abs(value - 16 / 27) < 1e-12

    def test_float_volume_forms_no_ray_parts(self, monkeypatch):
        # The value needs the simplex terms alone; quotients and ray
        # weights are for the derivatives.
        ts = (-7, -6, -5, -3, -2, 1, 2, 3, 4, 5, 6, 7)
        cone = MomentCone(tuple(tuple(t**k for k in range(6)) for t in ts))
        xi = [float(sum(column)) for column in zip(*cone.normals)]
        expected = float(volume(cone, [int(x) for x in xi]))
        monkeypatch.setattr(toric, "_ray_parts", None)
        assert abs(volume(cone, xi) - expected) <= 1e-12 * expected

    def test_float_dot_adds_left_to_right(self):
        # sum() of floats is compensated from Python 3.12 on and gives 2.0
        # here; the float path must round the same way on every version.
        assert toric._fdot([1.0, 1e100, 1.0, -1e100], [1, 1, 1, 1]) == 0.0
        assert toric._fdot([0.1, 0.2, 0.3], [1.0, 1.0, 1.0]) == (0.1 + 0.2) + 0.3
        exact = toric._fdot([Fraction(1, 3), 2], [3, Fraction(1, 4)])
        assert exact == Fraction(3, 2) and type(exact) is Fraction

    @pytest.mark.parametrize("function", [volume, volume_gradient, volume_hessian])
    def test_float_paths_refuse_integers_outside_float_range(self, function):
        # A ray entry of 10^310 (the float branch of volume is taken for
        # any float in xi), then a Reeb component of 10^400 on Y^{2,1}.
        big = 10**310
        cone = cone_from_weights(WeightMatrix(((1, big, -1, -big),), 4))
        with pytest.raises(DomainError, match="^a ray entry or simplex determinant"):
            function(cone, (1.0, 1.0, 1.0))
        y21 = cone_from_weights(WeightMatrix(((1, 3, -2, -2),), 4))
        with pytest.raises(DomainError, match="^Reeb vector is outside float range$"):
            function(y21, (10**400, 1, 1.0))

    @pytest.mark.parametrize("function", [volume, volume_gradient, volume_hessian])
    @pytest.mark.parametrize("xi", [(3, 1, math.nan), (math.nan, math.nan, math.nan)])
    def test_nan_reeb_covector_is_unbounded(self, function, xi):
        # A NaN support is not positive; it once passed a test for s <= 0
        # and gave NaN values where reeb_is_interior says False.
        assert not reeb_is_interior(CONIFOLD, xi)
        with pytest.raises(UnboundedPolytopeError):
            function(CONIFOLD, xi)

    def test_unbounded_outside_dual_cone(self):
        with pytest.raises(UnboundedPolytopeError):
            volume(orthant(3), (1, 1, 0))
        with pytest.raises(UnboundedPolytopeError):
            volume(CONIFOLD, (0, 1, 1))

    def test_against_qhull_oracle(self):
        rng = random.Random(20260814)
        for cone in (ORTHANT3, CONIFOLD, orthant(4)):
            for _ in range(10):
                xi = random_interior_xi(cone, rng)
                mine = float(volume(cone, xi))
                oracle = hull_volume_oracle(cone, xi)
                assert abs(mine - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_large_cyclic_cone_against_qhull(self):
        # Cyclic cone with 12 normals (1, t, ..., t^5): 72 extreme rays.
        ts = (-7, -6, -5, -3, -2, 1, 2, 3, 4, 5, 6, 7)
        cone = MomentCone(tuple(tuple(t**k for k in range(6)) for t in ts))
        xi = [sum(column) for column in zip(*cone.normals)]
        exact = volume(cone, xi)
        oracle = hull_volume_oracle(cone, xi)
        assert abs(float(exact) - oracle) <= 1e-9 * oracle
        # The simplices are full-dimensional and their volumes, with
        # determinants taken by sympy, add up to the same exact value.
        supports = [sum(a * b for a, b in zip(xi, ray)) for ray in cone.rays]
        total = Fraction(0)
        for simplex, _ in cone._simplices:
            det = sympy.Matrix([cone.rays[j] for j in simplex]).det()
            assert det != 0
            total += Fraction(abs(int(det)), math.prod(supports[j] for j in simplex))
        assert total == exact

    def test_scale_covariance_numeric(self):
        rng = random.Random(7)
        for _ in range(20):
            xi = random_interior_xi(CONIFOLD, rng)
            t = rng.uniform(0.3, 4.0)
            left = float(volume(CONIFOLD, tuple(t * x for x in xi)))
            right = float(volume(CONIFOLD, xi)) / t**3
            assert abs(left - right) <= 1e-9 * max(1.0, abs(right))


class TestDerivatives:
    @pytest.mark.parametrize("cone", [ORTHANT3, CONIFOLD])
    def test_gradient_matches_finite_differences(self, cone):
        rng = random.Random(99)
        h = 1e-6
        for _ in range(10):
            xi = np.array(random_interior_xi(cone, rng), dtype=float)
            grad = volume_gradient(cone, tuple(xi))
            for a in range(cone.dim):
                e = np.zeros(cone.dim)
                e[a] = h
                fd = (
                    float(volume(cone, tuple(xi + e)))
                    - float(volume(cone, tuple(xi - e)))
                ) / (2 * h)
                assert abs(grad[a] - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("cone", [ORTHANT3, CONIFOLD])
    def test_hessian_matches_gradient_differences(self, cone):
        rng = random.Random(5)
        h = 1e-5
        xi = np.array(random_interior_xi(cone, rng), dtype=float)
        hess = np.asarray(volume_hessian(cone, tuple(xi)))
        assert np.allclose(hess, hess.T)
        for a in range(cone.dim):
            e = np.zeros(cone.dim)
            e[a] = h
            fd = (
                np.asarray(volume_gradient(cone, tuple(xi + e)))
                - np.asarray(volume_gradient(cone, tuple(xi - e)))
            ) / (2 * h)
            assert np.allclose(hess[a], fd, rtol=1e-4, atol=1e-6)

    def test_hessian_positive_definite_inside(self):
        rng = random.Random(11)
        for _ in range(10):
            xi = random_interior_xi(CONIFOLD, rng)
            eigs = np.linalg.eigvalsh(volume_hessian(CONIFOLD, xi))
            assert eigs.min() > 0


    @pytest.mark.parametrize(
        "normals",
        [CONIFOLD.normals, DP3_NORMALS, cyclic_normals(4, 8), cyclic_normals(5, 12),
         cyclic_normals(6, 12)],
        ids=["conifold", "dP3", "cyclic-4-8", "cyclic-5-12", "cyclic-6-12"],
    )
    def test_by_ray_sums_match_simplex_sums(self, normals):
        # Gradient and Hessian grouped by ray against the per-simplex sums.
        cone = MomentCone(normals)
        rng = random.Random(13)
        for _ in range(5):
            xi = random_interior_xi(cone, rng)
            expected = np.asarray(simplex_gradient(cone.rays, cone._simplices, xi))
            got = np.asarray(volume_gradient(cone, xi))
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
            expected = np.asarray(simplex_hessian(cone.rays, cone._simplices, xi))
            got = np.asarray(volume_hessian(cone, xi))
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestNewtonStep:
    def test_solve_matches_numpy(self):
        rng = random.Random(17)
        for n in range(1, 8):
            for _ in range(10):
                a = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
                b = [rng.uniform(-2, 2) for _ in range(n)]
                if abs(np.linalg.det(a)) < 1e-3:
                    continue
                assert np.allclose(_solve(a, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)

    def test_solve_pivots_past_zero_diagonal(self):
        assert _solve([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0]) == [3.0, 2.0]

    def test_solve_reports_singular_matrix(self):
        assert _solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]) is None
        assert _solve([[0.0, 1.0], [0.0, 1.0]], [1.0, 1.0]) is None

    @pytest.mark.parametrize(
        "cone",
        [
            CONIFOLD,
            orthant(4),
            MomentCone(((1, 1, 0), (1, 1, 1), (1, 0, 1), (1, -1, 0), (1, -1, -1), (1, 0, -1))),
            cone_from_weights(WeightMatrix(((2, 8, -5, -5),), 4)),
        ],
    )
    def test_bordered_step_matches_tangent_basis_step(self, cone):
        # The Newton step on the slice <xi, gamma> = const, taken in an
        # orthonormal basis of gamma's complement (from an SVD).
        gamma = np.array(gorenstein_gamma(cone).gamma, dtype=float)
        basis = np.linalg.svd(gamma.reshape(1, -1))[2][1:].T
        rng = random.Random(31)
        for _ in range(10):
            xi = random_interior_xi(cone, rng)
            grad = np.asarray(volume_gradient(cone, xi))
            hess = np.asarray(volume_hessian(cone, xi))
            expected = -basis @ np.linalg.solve(basis.T @ hess @ basis, basis.T @ grad)
            bordered = np.block([[hess, gamma[:, None]], [gamma[None, :], np.zeros((1, 1))]])
            step = _solve(bordered.tolist(), [*(-grad), 0.0])[:-1]
            assert np.allclose(step, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max())


class TestGorenstein:
    def test_orthant(self):
        assert gorenstein_gamma(orthant(4)).gamma == (-1, -1, -1, -1)

    def test_conifold(self):
        assert gorenstein_gamma(CONIFOLD).gamma == (-1, 0, 0)

    def test_non_integral(self):
        result = gorenstein_gamma(MomentCone(((1, 0), (2, 3))))
        assert result.gamma is None
        assert result.reason == "non-integral"

    def test_inconsistent(self):
        cone = MomentCone(((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 2)))
        result = gorenstein_gamma(cone)
        assert result.gamma is None
        assert result.reason == "inconsistent"

    def test_underdetermined(self):
        # The normals of a pointed cone have full rank, so only a stand-in
        # with fewer normals than coordinates has this status.
        stand_in = SimpleNamespace(normals=((1, 0, 0), (0, 1, 1)), dim=3)
        assert_gamma_matches_oracle(stand_in)
        assert gorenstein_gamma(stand_in).reason == "underdetermined"

    def test_every_status_against_the_fraction_solve(self):
        cones = [
            *golden_cones(),
            MomentCone(((1, 0), (2, 3))),
            MomentCone(((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 2))),
        ]
        reasons = {assert_gamma_matches_oracle(cone) for cone in cones}
        assert reasons == {None, "non-integral", "inconsistent"}

    @settings(max_examples=200, deadline=None)
    @given(small_normal_sets())
    def test_random_cones_against_the_fraction_solve(self, normals):
        try:
            cone = MomentCone(normals)
        except DomainError:
            return
        assert_gamma_matches_oracle(cone)

    def test_slice_projection_exact(self):
        gamma = (-1, 0, 0)
        xi = reeb_slice_project(CONIFOLD, gamma, (Fraction(2), Fraction(1), Fraction(1)))
        assert xi == (Fraction(3), Fraction(3, 2), Fraction(3, 2))
        assert sum(a * b for a, b in zip(xi, gamma)) == -3

    def test_slice_projection_rejects_wrong_side(self):
        with pytest.raises(DomainError):
            reeb_slice_project(CONIFOLD, (-1, 0, 0), (0, 1, 1))

    @pytest.mark.parametrize("xi", [(math.nan, 1, 1), (math.nan, math.nan, math.nan)])
    def test_slice_projection_rejects_nan_pairing(self, xi):
        # A NaN pairing fails every comparison, so a guard written as
        # pairing >= 0 lets it through.
        with pytest.raises(DomainError, match="^<xi, gamma> = nan is not negative"):
            reeb_slice_project(CONIFOLD, (-1, 0, 0), xi)

    def test_slice_projection_rejects_wrong_length_gamma(self):
        # zip() would drop the third entry of xi and return a point.
        message = "^Gorenstein vector has length 2, cone needs 3$"
        with pytest.raises(DomainError, match=message):
            reeb_slice_project(CONIFOLD, (-1, 0), (3, 1, 1))


def assert_gamma_matches_oracle(cone):
    """gorenstein_gamma as the Fraction solve of <normal, gamma> = -1 reads it."""
    status, sol = solve_exact(cone.normals, [-1] * len(cone.normals))
    if status == "unique" and any(f.denominator != 1 for f in sol):
        status = "non-integral"
    result = gorenstein_gamma(cone)
    if status == "unique":
        assert result.gamma == tuple(int(f) for f in sol) and result.reason is None
    else:
        assert result.gamma is None and result.reason == status
    return result.reason


class TestMinimize:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_orthant_minimum_is_uniform(self, m):
        result = minimize_volume(orthant(m))
        assert max(abs(x - 1) for x in result.reeb.components) < 1e-8
        assert abs(result.value - 1) < 1e-9
        assert result.grad_norm < 1e-8

    def test_orthant_restarts_agree(self):
        rng = random.Random(42)
        values, points = [], []
        for _ in range(5):
            start = random_interior_xi(orthant(3), rng)
            result = minimize_volume(orthant(3), start=start)
            values.append(result.value)
            points.append(result.reeb.components)
        for v in values:
            assert abs(v - values[0]) < 1e-8
        for p in points:
            assert max(abs(a - b) for a, b in zip(p, points[0])) < 1e-8

    def test_conifold_minimum(self):
        result = minimize_volume(CONIFOLD)
        assert abs(result.value - 16 / 27) < 1e-10
        assert max(abs(a - b) for a, b in zip(result.reeb.components, (3, 1.5, 1.5))) < 1e-7

    def test_conifold_restarts_agree(self):
        rng = random.Random(1234)
        for _ in range(5):
            start = random_interior_xi(CONIFOLD, rng)
            result = minimize_volume(CONIFOLD, start=start)
            assert abs(result.value - 16 / 27) < 1e-8

    def test_minimizer_stationary_and_locally_minimal(self):
        result = minimize_volume(CONIFOLD)
        xi_star = np.array(result.reeb.components)
        gamma = np.array((-1.0, 0.0, 0.0))
        base = float(volume(CONIFOLD, tuple(xi_star)))
        rng = random.Random(3)
        for _ in range(12):
            # Random direction inside the slice hyperplane <xi, gamma> const.
            direction = np.array([rng.gauss(0, 1) for _ in range(3)])
            direction -= direction @ gamma / (gamma @ gamma) * gamma
            direction /= np.linalg.norm(direction)
            perturbed = tuple(xi_star + 1e-3 * direction)
            assert float(volume(CONIFOLD, perturbed)) > base

    def test_segment_convexity_probe(self):
        gamma = (-1, 0, 0)
        rng = random.Random(8)
        for _ in range(10):
            a = reeb_slice_project(CONIFOLD, gamma, random_interior_xi(CONIFOLD, rng))
            b = reeb_slice_project(CONIFOLD, gamma, random_interior_xi(CONIFOLD, rng))
            end_max = max(float(volume(CONIFOLD, a)), float(volume(CONIFOLD, b)))
            for i in range(1, 11):
                t = i / 11
                mid = tuple((1 - t) * x + t * y for x, y in zip(a, b))
                assert float(volume(CONIFOLD, mid)) <= end_max + 1e-12

    def test_explicit_gamma_accepted(self):
        result = minimize_volume(CONIFOLD, gamma=(-1, 0, 0))
        assert abs(result.value - 16 / 27) < 1e-10

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (7, 4)])
    def test_ypq_minimum_matches_martelli_sparks_yau(self, p, q):
        # Vol(Y^{p,q}) / Vol(S^5) in closed form (hep-th/0503183).
        root = math.sqrt(4 * p * p - 3 * q * q)
        expected = q * q * (2 * p + root) / (3 * p * p * (3 * q * q - 2 * p * p + p * root))
        cone = cone_from_weights(WeightMatrix(((p - q, p + q, -p, -p),), 4))
        assert abs(minimize_volume(cone).value - expected) <= 1e-9 * expected

    def test_dp3_minimum(self):
        hexagon = ((1, 1, 0), (1, 1, 1), (1, 0, 1), (1, -1, 0), (1, -1, -1), (1, 0, -1))
        result = minimize_volume(MomentCone(hexagon))
        assert abs(result.value - 2 / 9) < 1e-10
        assert max(abs(a - b) for a, b in zip(result.reeb.components, (3, 0, 0))) < 1e-7

    def test_integers_outside_float_range(self):
        # Each is refused where it would enter float arithmetic.
        with pytest.raises(DomainError, match="^start point is outside float range$"):
            minimize_volume(CONIFOLD, start=(10**400, 1, 1))
        with pytest.raises(DomainError, match="^Gorenstein vector is outside float range$"):
            minimize_volume(CONIFOLD, gamma=(-(10**400), 0, 0))
        big = 10**310
        cone = cone_from_weights(WeightMatrix(((1, big, -1, -big),), 4))
        assert gorenstein_gamma(cone).gamma == (-1, -1, -1)
        with pytest.raises(DomainError, match="^a ray entry or simplex determinant"):
            minimize_volume(cone)
        # Rays (N,1,0), (0,N,1), (1,0,N) fit in floats at N = 10^110; their
        # determinant N^3 + 1 does not.
        n = 10**110
        cone = MomentCone(((1, -n, n * n), (n * n, 1, -n), (-n, n * n, 1)))
        assert max(abs(x) for ray in cone.rays for x in ray) == n
        with pytest.raises(DomainError, match="^a ray entry or simplex determinant"):
            minimize_volume(cone, gamma=(-1, -1, -1), start=(1, 1, 1))

    def test_cone_without_gamma_needs_explicit_slice(self):
        cone = MomentCone(((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 2)))
        with pytest.raises(DomainError):
            minimize_volume(cone)

    def test_each_point_forms_one_table(self, monkeypatch):
        # Y^{2,1} takes 3 Newton steps and accepts every full step: the
        # table is formed at the start and at each accepted point, and the
        # Hessian only where the convergence test fails.
        cone = cone_from_weights(WeightMatrix(((1, 3, -2, -2),), 4))
        counts = {"_float_table": 0, "_hessian": 0}
        for name in counts:
            real = getattr(toric, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(toric, name, counting)
        assert minimize_volume(cone).iterations == 3
        assert counts == {"_float_table": 4, "_hessian": 3}

    def test_ray_parts_once_per_accepted_point(self, monkeypatch):
        # Quotients and ray weights are derived once per point the
        # optimizer accepts, and shared by its gradient and Hessian.
        cone = cone_from_weights(WeightMatrix(((1, 3, -2, -2),), 4))
        calls = []
        real = toric._ray_parts

        def counting(cone, table):
            calls.append(table)
            return real(cone, table)

        monkeypatch.setattr(toric, "_ray_parts", counting)
        result = minimize_volume(cone, start=(7, 1, 1))
        assert result.iterations == 10
        assert len(calls) == 11
        assert len({id(table) for table in calls}) == 11

    def test_rejects_wrong_length_gamma_before_any_work(self, monkeypatch):
        # zip() against xi once dropped the fourth entry, and the budget
        # ran out into a ConvergenceError.
        monkeypatch.setattr(toric, "_float_table", None)
        message = "^Gorenstein vector has length 4, cone needs 3$"
        with pytest.raises(DomainError, match=message):
            minimize_volume(CONIFOLD, (-1, 0, 0, 5))

    @pytest.mark.parametrize("grad_tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_grad_tol_not_positive_and_finite(self, monkeypatch, grad_tol):
        # Refused before the first iteration; a zero or NaN tolerance
        # could never be met and would run out the iteration budget.
        monkeypatch.setattr(toric, "_float_table", None)
        with pytest.raises(DomainError, match="^grad_tol must be positive and finite"):
            minimize_volume(CONIFOLD, grad_tol=grad_tol)

    def test_exhausted_budget_raises_convergence_error(self, monkeypatch):
        # This quotient needs 3 Newton iterations; a budget of 1 runs out.
        monkeypatch.setattr(toric, "_MAX_ITERATIONS", 1)
        cone = cone_from_weights(WeightMatrix(((1, 3, -2, -2),), 4))
        with pytest.raises(ConvergenceError) as info:
            minimize_volume(cone)
        assert info.value.iterations == 1
        assert len(info.value.last_point) == 3
        assert reeb_is_interior(cone, info.value.last_point)
        assert info.value.last_value == volume(cone, info.value.last_point)
        assert math.isfinite(info.value.grad_norm) and info.value.grad_norm > 0


def golden_cones():
    """The conifold, dP3, Y^{p,q} for p <= 6 and the bench pools' cyclic shapes."""
    yield CONIFOLD
    yield MomentCone(DP3_NORMALS)
    for p in range(2, 7):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield cone_from_weights(WeightMatrix(((p - q, p + q, -p, -p),), 4))
    for m, count in ((4, 8), (4, 12), (5, 8), (5, 12), (6, 8), (6, 10), (6, 12)):
        yield MomentCone(cyclic_normals(m, count))


def test_toric_pipeline_is_bit_identical():
    # Rays, incidences, simplices, the exact volume at the sum of the
    # normals, gamma and every field of the minimum, float digits included.
    digest = hashlib.sha256()
    for cone in golden_cones():
        xi0 = tuple(map(sum, zip(*cone.normals)))
        gamma = gorenstein_gamma(cone)
        minimum = None if gamma.gamma is None else minimize_volume(cone)
        record = (*cone._incidences, cone._simplices, volume(cone, xi0), gamma, minimum)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == "921ecc9c4597836a2afff0c1432bf562ec9f683afacddf4060dff59d29bb6786"


class TestGuilleminPotential:
    def test_interior_evaluation_finite(self):
        value = guillemin_potential(CONIFOLD, (3, 1.5, 1.5), (0.3, 0.1, 0.1))
        assert np.isfinite(value)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            guillemin_potential(ORTHANT3, (1, 1, 1), (0, 0.5, 0.5))

    def test_hessian_positive_definite(self):
        rng = random.Random(21)
        xi = (3, 1.5, 1.5)
        count = 0
        while count < 20:
            y = tuple(rng.uniform(0.01, 1.0) for _ in range(3))
            if any(
                sum(a * b for a, b in zip(n, y)) <= 0 for n in CONIFOLD.normals
            ) or sum(a * b for a, b in zip(xi, y)) >= 1:
                continue
            eigs = np.linalg.eigvalsh(potential_hessian(CONIFOLD, xi, y))
            assert eigs.min() > 0
            count += 1


class TestWeightMatrices:
    def test_conifold_quotient_reproduces_invariants(self):
        cone = cone_from_weights(WeightMatrix(((1, 1, -1, -1),), 4))
        assert len(cone.normals) == 4
        assert len(cone.rays) == 4
        gamma = gorenstein_gamma(cone).gamma
        assert gamma is not None
        result = minimize_volume(cone)
        # Minimal normalized volume is a lattice invariant; must match the
        # standard conifold presentation.
        assert abs(result.value - 16 / 27) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_weight_matrix_gives_orthant(self, n):
        # No rows: the Hermite form of the n x 0 transpose is U = I, and
        # there is no torsion, so no warning (conftest fails on a stray one).
        omega = WeightMatrix(rows=(), n=n)
        orthant = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert cone_from_weights(omega).normals == orthant

    def test_non_integer_entries_rejected(self):
        # int() would truncate this to the conifold row (1, 1, -1, -1).
        with pytest.raises(DomainError):
            WeightMatrix(((1.7, 1, -1, -1),), 4)

    def test_zero_minor_rejected(self):
        with pytest.raises(DomainError):
            cone_from_weights(WeightMatrix(((1, 0, -1, 0),), 4))

    def test_torsion_quotient_warns(self):
        with pytest.warns(UserWarning):
            cone_from_weights(WeightMatrix(((2, 4, -2, -4),), 4))

    def test_cokernel_invariants(self):
        # The warning names the invariant factors.  A torsion-free quotient
        # warns nothing: conftest fails a test on a stray UserWarning.
        with pytest.warns(UserWarning, match=r"torsion \(2,\)"):
            cone_from_weights(WeightMatrix(((2, 4, -2, -4),), 4))

    def test_gorenstein_follows_from_zero_row_sums(self):
        # Random CY weight rows with nonzero minors always give cones
        # admitting an integral Gorenstein vector.
        rng = random.Random(17)
        found = 0
        while found < 15:
            row = [rng.randint(-4, 4) for _ in range(4)]
            row[-1] = -sum(row[:-1])
            if any(x == 0 for x in row):
                continue
            g = math.gcd(*row)
            row = [x // g for x in row]
            omega = WeightMatrix((tuple(row),), 4)
            cone = cone_from_weights(omega)
            assert gorenstein_gamma(cone).gamma is not None
            found += 1


# k >= 2 weight matrices with nonzero minors, and their recorded torsion,
# ray count and exact volume at the sum of the normals.  None of these
# depends on the basis chosen for the free quotient.
RECORDED_QUOTIENTS = [
    (((2, 1, -2, 0, -1), (-1, -2, -1, -2, 6)), (), 4, Fraction(171, 10472)),
    (((1, -3, -2, 2, 0, 2), (-3, 0, -2, 3, 1, 1)), (), 8, Fraction(239, 16302)),
    (((0, 3, 3, -3, -3), (3, 3, -2, 0, -4)), (3,), 5, Fraction(33, 1120)),
    (
        ((2, -3, -3, 1, 1, 2), (2, -1, -1, 3, 2, -5), (-3, -1, 3, 0, -1, 2)),
        (),
        5,
        Fraction(32686, 17986169),
    ),
    (
        ((-1, -1, 0, -3, -3, 8), (2, 1, 2, 0, -2, -3), (-1, 1, -2, 1, 1, 0)),
        (2,),
        5,
        Fraction(69, 10400),
    ),
    (((2, 0, -2, 2, 2, -4), (-2, 3, 1, 1, 2, -5)), (2,), 8, Fraction(251, 13860)),
    (((-3, -1, -3, -2, 9), (1, 2, -2, 1, -2)), (), 3, Fraction(1, 108)),
    (((0, 3, 1, 3, -7), (-2, 1, 3, -1, -1)), (2,), 4, Fraction(11, 540)),
    (((4, 2, -4, 0, -2), (-2, -4, -2, -4, 12)), (2, 2), 4, Fraction(171, 10472)),
    (((0, 6, 2, 6, -14), (-4, 2, 6, -2, -2)), (2, 4), 4, Fraction(11, 540)),
    (((0, 6, 6, -6, -6), (6, 6, -4, 0, -8)), (2, 6), 5, Fraction(33, 1120)),
]


@st.composite
def full_rank_weights(draw):
    """k x n integer matrices of rank k, 2 <= k < n <= 6."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(2, n - 1))
    entries = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    assume(sympy.Matrix(rows).rank() == k)
    return tuple(map(tuple, rows))


class TestQuotientLattice:
    def test_calabi_yau_rows_keep_their_normals(self):
        # Every row (a, b, c, -a-b-c) with entries in [-6, 6] and no zero
        # entry: the normals hash to a recorded value, so one-row quotients
        # keep the coordinates that catalogs and goldens print.
        cones = []
        for a, b, c in itertools.product(range(-6, 7), repeat=3):
            row = (a, b, c, -a - b - c)
            if 0 in row:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the torsion warning
                cones.append(cone_from_weights(WeightMatrix((row,), 4)).normals)
        assert len(cones) == 1638
        digest = hashlib.sha256(repr(cones).encode()).hexdigest()
        assert digest == "982c2b114be335ca56a62af737f8830a5ef2f31ea616137c7ebe207ce682053d"

    @pytest.mark.parametrize("rows, torsion, rays, exact", RECORDED_QUOTIENTS)
    def test_recorded_quotients(self, rows, torsion, rays, exact):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cone = cone_from_weights(WeightMatrix(rows, len(rows[0])))
        warned = f"quotient lattice has torsion {torsion}; using the free quotient"
        warned += " (orbifold lattice)"
        assert [str(w.message) for w in caught] == ([warned] if torsion else [])
        assert len(cone.rays) == rays
        assert volume(cone, [sum(column) for column in zip(*cone.normals)]) == exact

    @given(full_rank_weights())
    @settings(max_examples=150, deadline=None)
    def test_free_quotient_rows_are_a_saturated_kernel_basis(self, rows):
        # cone_from_weights reads the free quotient off the last n - k rows
        # of U in U omega^T = H, and the torsion off the block H[:k].
        k, n = len(rows), len(rows[0])
        u, h = intlinalg.hermite_form(list(zip(*rows)))
        torsion = tuple(d for d in intlinalg.invariant_factors(h[:k]) if d > 1)
        basis = u[k:]
        assert len(basis) == n - k
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows for vec in basis)
        minors = (
            sympy.Matrix([[vec[c] for c in cols] for vec in basis]).det()
            for cols in itertools.combinations(range(n), n - k)
        )
        assert math.gcd(*minors) == 1
        snf = sympy_smith(sympy.Matrix(rows))
        assert torsion == tuple(abs(snf[i, i]) for i in range(k) if abs(snf[i, i]) > 1)


class TestSizeBounds:
    def test_dimension_bound(self):
        bound = toric._MAX_DIMENSION
        assert bound == 64
        assert cone_from_weights(WeightMatrix((), bound)).dim == bound
        assert orthant(bound).dim == bound
        with pytest.raises(DomainError, match="^n = 65 columns exceeds the safety bound of 64$"):
            WeightMatrix((), bound + 1)
        message = "^dimension 65 exceeds the safety bound of 64$"
        with pytest.raises(DomainError, match=message):
            orthant(bound + 1)

    def test_dimension_is_checked_before_the_rows(self, monkeypatch):
        monkeypatch.setattr(toric, "_int_rows", None)
        monkeypatch.setattr(toric, "primitive_vector", None)
        with pytest.raises(DomainError, match="safety bound"):
            WeightMatrix(((1,) * 1000,), 1000)
        with pytest.raises(DomainError, match="safety bound"):
            MomentCone(((1,) * 1000,))

    def test_minor_work_cap_boundary(self, monkeypatch):
        # The conifold row has C(4, 1) = 4 minors of (1 + 1)^3 = 8 units.
        omega = WeightMatrix(((1, 1, -1, -1),), 4)
        monkeypatch.setattr(toric, "_MAX_MINOR_WORK", 32)
        assert len(cone_from_weights(omega).normals) == 4
        monkeypatch.setattr(toric, "_MAX_MINOR_WORK", 31)
        with pytest.raises(DomainError, match="^the C\\(4, 1\\) = 4 minors"):
            cone_from_weights(omega)

    def test_minor_work_cap_before_any_determinant(self, monkeypatch):
        # C(30, 10) = 3.0e7 minors would take over an hour.
        monkeypatch.setattr(toric, "_echelon", None)
        rows = tuple(tuple(range(j, j + 30)) for j in range(10))
        message = "^the C\\(30, 10\\) = 30045015 minors of the weight matrix cost more "
        with pytest.raises(DomainError, match=message):
            cone_from_weights(WeightMatrix(rows, 30))

    def test_minor_work_cap_counts_entry_length(self, monkeypatch):
        # The elimination's entries grow to about k * 2048 bits here, so
        # each unit counts (k * 2048 / 1024)^2 = 4 times: 4 minors of 8
        # units at 2048-bit entries are 128.
        omega = WeightMatrix(((2**2047, 1, -1, -1),), 4)
        monkeypatch.setattr(toric, "_MAX_MINOR_WORK", 128)
        assert len(cone_from_weights(omega).normals) == 4
        monkeypatch.setattr(toric, "_MAX_MINOR_WORK", 127)
        message = "^the C\\(4, 1\\) = 4 minors .* units at 2048-bit entries$"
        with pytest.raises(DomainError, match=message):
            cone_from_weights(omega)

    def test_long_entries_are_refused_before_any_determinant(self, monkeypatch):
        # 4 x 31 passes with two-digit entries in about a second; with
        # 300-digit entries its check took 10 s.
        monkeypatch.setattr(toric, "_echelon", None)
        rows = tuple(tuple(10**299 + j ** (i + 1) for j in range(31)) for i in range(4))
        message = "^the C\\(31, 4\\) = 31465 minors .* units at 994-bit entries$"
        with pytest.raises(DomainError, match=message):
            cone_from_weights(WeightMatrix(rows, 31))

    def test_simplex_work_cap_boundary(self, monkeypatch):
        # The conifold has 2 simplices of dimension 3, 6 units.
        monkeypatch.setattr(toric, "_MAX_SIMPLEX_WORK", 6)
        assert len(MomentCone(CONIFOLD.normals)._simplices) == 2
        monkeypatch.setattr(toric, "_MAX_SIMPLEX_WORK", 5)
        message = "^the triangulation of the cone has more than 1 simplices of dimension 3, "
        with pytest.raises(DomainError, match=message):
            MomentCone(CONIFOLD.normals)._simplices

    def test_refused_triangulation_is_refused_again_at_once(self, monkeypatch):
        # The cone keeps the refusal: the volume and the minimizer called
        # after it raise the same error without triangulating again.
        cone = MomentCone(cyclic_normals(5, 12))
        calls = []
        real = toric._eliminate

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(toric, "_eliminate", counting)
        monkeypatch.setattr(toric, "_MAX_SIMPLEX_WORK", 100)
        message = "the triangulation of the cone has more than 20 simplices of dimension 5, "
        xi = [sum(column) for column in zip(*cone.normals)]
        with pytest.raises(DomainError, match="^" + message) as first:
            volume(cone, xi)
        assert calls
        made = len(calls)
        with pytest.raises(DomainError) as second:
            minimize_volume(cone)
        with pytest.raises(DomainError) as third:
            volume(cone, xi)
        assert str(second.value) == str(third.value) == str(first.value)
        assert len(calls) == made
        monkeypatch.setattr(toric, "_MAX_SIMPLEX_WORK", 5 * 10**5)
        assert len(MomentCone(cone.normals)._simplices) > 20  # a new cone starts afresh

    def test_simplex_work_cap_is_far_above_the_cyclic_cones(self):
        # Cyclic (6, 12) is the largest triangulation in the benchmark pools.
        cone = MomentCone(cyclic_normals(6, 12))
        assert len(cone._simplices) == 341
        assert 341 * 6 * 200 < toric._MAX_SIMPLEX_WORK


class TestFileFormats:
    def test_cone_round_trip(self, tmp_path):
        path = tmp_path / "cone.txt"
        path.write_text("# conifold\n1 0 0\n1 1 0\n\n1 1 1\n1 0 1\n")
        assert read_cone_file(path).normals == CONIFOLD.normals

    def test_cone_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\nx y\n")
        with pytest.raises(DomainError):
            read_cone_file(path)

    def test_weight_matrix_round_trip(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 4\n1 1 -1 -1\n")
        omega = read_weight_matrix_file(path)
        assert omega.rows == ((1, 1, -1, -1),)

    def test_weight_matrix_header_mismatch(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 4\n1 1 -1 -1\n")
        with pytest.raises(DomainError):
            read_weight_matrix_file(path)

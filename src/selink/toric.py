"""Moment cones of toric contact structures and Reeb volume minimization.

A good moment cone C in R^m (m = n+1) is the intersection of half-spaces
<y, lambda_i> >= 0 with primitive integer facet normals, full-dimensional
and strongly convex.  Reeb covectors live in the interior of the dual
cone; each one cuts C down to a compact polytope

    P_xi = C intersect { <y, xi> <= 1 },

and the normalized volume used throughout is

    V(xi) = m! * EuclideanVolume(P_xi),

anchored so the standard orthant with xi = (1, ..., 1) gives exactly 1
(and 1 / prod xi_i for a general Reeb covector).  V scales as t^{-m} and
is convex on the Reeb interior; on a Gorenstein cone its restriction to
the affine slice <xi, gamma> = -m has a unique minimum, the volume
minimizing Reeb vector field.

Combinatorics is exact: extreme rays are computed from (m-1)-fold facet
intersections in integer arithmetic, and the cone is decomposed once into
simplicial subcones whose index structure does not depend on xi.  The
volume is then a finite sum

    V(xi) = sum over simplices |det(r_1 ... r_m)| / prod <xi, r_j>,

evaluated in exact rationals for rational xi and in floats inside the
optimizer, with closed-form gradient and Hessian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    UnboundedPolytopeError,
)
from .intlinalg import (
    det_int,
    kernel_vector,
    primitive_vector,
    rank_rational,
    smith_normal_form,
    solve_exact,
)

__all__ = [
    "MomentCone",
    "ReebVector",
    "WeightMatrix",
    "GorensteinResult",
    "VolumeMinimum",
    "cy_condition",
    "cone_from_weights",
    "cokernel_invariants",
    "gorenstein_gamma",
    "reeb_slice_project",
    "volume",
    "volume_gradient",
    "volume_hessian",
    "reeb_is_interior",
    "minimize_volume",
    "guillemin_potential",
    "potential_hessian",
    "read_cone_file",
    "read_weight_matrix_file",
]


@dataclass(frozen=True)
class MomentCone:
    """C = {y : <y, normal_i> >= 0}, full-dimensional and strongly convex.

    Normals are normalized to primitive integer vectors and deduplicated
    on construction; validity is checked immediately (rank for strong
    convexity, then the exact extreme rays, whose sum must pair strictly
    positively with every normal).
    """

    normals: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.normals:
            raise DomainError("a cone needs at least one facet normal")
        dim = len(self.normals[0])
        if dim < 2:
            raise DomainError("ambient dimension must be at least 2")
        cleaned = {}  # first-seen order
        for row in self.normals:
            if len(row) != dim:
                raise DomainError("facet normals of mixed dimension")
            cleaned[primitive_vector(row)] = None
        object.__setattr__(self, "normals", tuple(cleaned))
        if rank_rational(self.normals) < dim:
            raise DomainError("cone is not strongly convex (contains a line)")
        # The rays' sum lies in the relative interior of this pointed cone; a
        # normal vanishing there vanishes on every ray, so the interior is empty.
        centre = [sum(column) for column in zip(*self.rays)]
        if any(sum(a * b for a, b in zip(n, centre)) <= 0 for n in self.normals):
            raise DomainError("cone is not full-dimensional (empty interior)")

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    @cached_property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        """Primitive generators of the extreme rays, lexicographically sorted.

        A ray of a pointed cone is extreme iff its active facet normals
        have rank dim-1, so candidates come from kernels of (dim-1)-subsets
        of normals, oriented into the cone.  Each kernel is found by
        fraction-free integer elimination (``kernel_vector``), one per
        subset.  Computed on construction.
        """
        dim = self.dim
        found = set()
        for subset in combinations(self.normals, dim - 1):
            vec = kernel_vector(subset, dim)
            if vec is None:
                continue
            dots = [sum(a * b for a, b in zip(normal, vec)) for normal in self.normals]
            if all(d >= 0 for d in dots):
                found.add(vec)
            elif all(d <= 0 for d in dots):
                found.add(tuple(-x for x in vec))
        return tuple(sorted(found))

    @cached_property
    def _triangulation(self) -> tuple[tuple[int, ...], ...]:
        """Decomposition into simplicial subcones, as tuples of ray indices.

        Recursive pulling triangulation on the face lattice.  Faces are
        identified by their ray index sets; the facets of a face are its
        intersections with the cone's facet hyperplanes that cut it down
        by exactly one dimension.  All decisions are exact integer/rational
        arithmetic, so near-parallel facets cannot flip the combinatorics.
        """
        rays = self.rays
        dots = [
            [sum(a * b for a, b in zip(normal, ray)) for ray in rays]
            for normal in self.normals
        ]

        def triangulate(face: tuple[int, ...], d: int):
            if len(face) == d:
                return [face]
            anchor = face[0]
            seen = set()
            simplices = []
            for row in dots:
                sub = tuple(j for j in face if row[j] == 0)
                if anchor in sub or len(sub) < d - 1 or sub == face:
                    continue
                if sub in seen:
                    continue
                seen.add(sub)
                if rank_rational([rays[j] for j in sub]) != d - 1:
                    continue
                for tau in triangulate(sub, d - 1):
                    simplices.append(tau + (anchor,))
            return simplices

        return tuple(triangulate(tuple(range(len(rays))), self.dim))

    @cached_property
    def _simplex_dets(self) -> tuple[int, ...]:
        rays = self.rays
        return tuple(
            abs(det_int([rays[j] for j in simplex])) for simplex in self._triangulation
        )

    @cached_property
    def _ray_matrix(self) -> np.ndarray:
        return np.array(self.rays, dtype=float)

    @cached_property
    def _normal_matrix(self) -> np.ndarray:
        return np.array(self.normals, dtype=float)


@dataclass(frozen=True)
class ReebVector:
    """A covector in the interior of the dual cone; entries exact or float."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise DomainError("empty Reeb vector")

    def __len__(self) -> int:
        return len(self.components)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.components)


def _coerce_xi(cone: MomentCone, xi) -> tuple:
    if isinstance(xi, ReebVector):
        xi = xi.components
    xi = tuple(xi)
    if len(xi) != cone.dim:
        raise DomainError(f"Reeb vector has length {len(xi)}, cone needs {cone.dim}")
    return xi


def reeb_is_interior(cone: MomentCone, xi) -> bool:
    """True iff <xi, r> > 0 for every extreme ray r (interior of dual cone)."""
    xi = _coerce_xi(cone, xi)
    return all(sum(a * b for a, b in zip(xi, ray)) > 0 for ray in cone.rays)


def volume(cone: MomentCone, xi):
    """Normalized volume m! * vol(C intersect {<y, xi> <= 1}).

    Exact Fraction for integer/Fraction input, float otherwise.  Raises
    UnboundedPolytopeError when xi is not strictly inside the dual cone.
    """
    xi = _coerce_xi(cone, xi)
    exact = all(isinstance(x, (int, Fraction)) for x in xi)
    supports = [sum(a * b for a, b in zip(xi, ray)) for ray in cone.rays]
    if any(s <= 0 for s in supports):
        raise UnboundedPolytopeError(
            "Reeb covector does not cut the cone to a bounded polytope"
        )
    total = Fraction(0) if exact else 0.0
    for det, simplex in zip(cone._simplex_dets, cone._triangulation):
        denom = 1
        for j in simplex:
            denom *= supports[j]
        total += Fraction(det, denom) if exact else det / denom
    return total


def volume_gradient(cone: MomentCone, xi) -> np.ndarray:
    """Closed-form gradient of the normalized volume (float)."""
    xi = np.asarray(_coerce_xi(cone, xi), dtype=float)
    r = cone._ray_matrix
    s = r @ xi
    if s.min() <= 0:
        raise UnboundedPolytopeError("Reeb covector outside the dual cone interior")
    grad = np.zeros(cone.dim)
    for det, simplex in zip(cone._simplex_dets, cone._triangulation):
        idx = list(simplex)
        coeff = det / np.prod(s[idx])
        grad -= coeff * (r[idx] / s[idx, None]).sum(axis=0)
    return grad


def volume_hessian(cone: MomentCone, xi) -> np.ndarray:
    xi = np.asarray(_coerce_xi(cone, xi), dtype=float)
    r = cone._ray_matrix
    s = r @ xi
    if s.min() <= 0:
        raise UnboundedPolytopeError("Reeb covector outside the dual cone interior")
    hess = np.zeros((cone.dim, cone.dim))
    for det, simplex in zip(cone._simplex_dets, cone._triangulation):
        idx = list(simplex)
        coeff = det / np.prod(s[idx])
        q = r[idx] / s[idx, None]
        qs = q.sum(axis=0)
        hess += coeff * (np.outer(qs, qs) + q.T @ q)
    return hess


@dataclass(frozen=True)
class GorensteinResult:
    gamma: tuple[int, ...] | None
    reason: str | None = None  # "inconsistent" | "underdetermined" | "non-integral"


def gorenstein_gamma(cone: MomentCone) -> GorensteinResult:
    """The integral vector with <normal_j, gamma> = -1 for every facet, if any.

    The solution of the linear system must be unique, integral and (then
    automatically) primitive; otherwise the failure reason is reported.
    """
    status, sol = solve_exact(cone.normals, [-1] * len(cone.normals))
    if status != "unique":
        return GorensteinResult(None, status)
    if any(f.denominator != 1 for f in sol):
        return GorensteinResult(None, "non-integral")
    gamma = tuple(int(f) for f in sol)
    if math.gcd(*gamma) != 1:
        raise InternalConsistencyError(f"Gorenstein vector {gamma} is not primitive")
    return GorensteinResult(gamma)


def reeb_slice_project(cone: MomentCone, gamma, xi):
    """Rescale xi onto the affine slice <xi, gamma> = -dim.

    Exact for exact input.  A nonnegative pairing means xi cannot be
    scaled onto the slice and is rejected.
    """
    xi = _coerce_xi(cone, xi)
    gamma = tuple(gamma)
    pairing = sum(a * b for a, b in zip(xi, gamma))
    if pairing >= 0:
        raise DomainError(
            f"<xi, gamma> = {pairing} is not negative; cannot project to the slice"
        )
    exact = all(isinstance(x, (int, Fraction)) for x in xi)
    scale = Fraction(-cone.dim, pairing) if exact else -cone.dim / pairing
    return tuple(x * scale for x in xi)


@dataclass(frozen=True)
class VolumeMinimum:
    reeb: ReebVector
    value: float
    iterations: int
    grad_norm: float


def _tangent_basis(gamma: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the hyperplane orthogonal to gamma."""
    m = gamma.size
    _, _, vt = np.linalg.svd(gamma.reshape(1, m))
    return vt[1:].T


def minimize_volume(
    cone: MomentCone,
    gamma=None,
    *,
    start=None,
    grad_tol: float = 1e-8,
    max_iter: int = 10_000,
) -> VolumeMinimum:
    """Find the volume-minimizing Reeb covector on the Gorenstein slice.

    Newton steps on the slice (the volume is strictly convex there) with
    steepest-descent fallback, Armijo backtracking and a hard interior
    guard; converged when the projected gradient norm drops below
    grad_tol.  Exhausting the iteration budget raises ConvergenceError
    with diagnostics.
    """
    if gamma is None:
        result = gorenstein_gamma(cone)
        if result.gamma is None:
            raise DomainError(f"cone has no Gorenstein vector ({result.reason})")
        gamma = result.gamma
    g = np.asarray([float(x) for x in gamma])
    r = cone._ray_matrix
    if start is None:
        start = cone._normal_matrix.sum(axis=0)
    xi = np.asarray([float(x) for x in _coerce_xi(cone, start)])
    if not reeb_is_interior(cone, tuple(xi)):
        raise DomainError("start point is not interior to the dual cone")
    xi = np.asarray(reeb_slice_project(cone, tuple(g), tuple(xi)))
    basis = _tangent_basis(g)

    def value_at(point: np.ndarray) -> float:
        s = r @ point
        if s.min() <= 0:
            return math.inf
        total = 0.0
        for det, simplex in zip(cone._simplex_dets, cone._triangulation):
            total += det / np.prod(s[list(simplex)])
        return total

    current = value_at(xi)
    grad_norm = math.inf
    for iteration in range(1, max_iter + 1):
        grad = volume_gradient(cone, tuple(xi))
        tangent_grad = grad - (grad @ g) / (g @ g) * g
        grad_norm = float(np.linalg.norm(tangent_grad))
        if grad_norm < grad_tol:
            return VolumeMinimum(
                reeb=ReebVector(tuple(float(x) for x in xi)),
                value=current,
                iterations=iteration - 1,
                grad_norm=grad_norm,
            )
        step = None
        hess = volume_hessian(cone, tuple(xi))
        reduced = basis.T @ hess @ basis
        try:
            step = -basis @ np.linalg.solve(reduced, basis.T @ grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or grad @ step > -1e-14 * grad_norm:
            step = -tangent_grad
        slope = float(grad @ step)
        alpha = 1.0
        while alpha > 1e-18:
            candidate = xi + alpha * step
            candidate_value = value_at(candidate)
            if candidate_value <= current + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                "line search stalled",
                iterations=iteration,
                last_point=xi,
                last_value=current,
                grad_norm=grad_norm,
            )
        xi = candidate
        current = candidate_value
    raise ConvergenceError(
        "iteration budget exhausted",
        iterations=max_iter,
        last_point=xi,
        last_value=current,
        grad_norm=grad_norm,
    )


def guillemin_potential(cone: MomentCone, xi, y) -> float:
    """Canonical symplectic potential of the cone at the point y.

    G(y) = 1/2 [ sum_i l_i log l_i + l_xi log l_xi - l_inf log l_inf ]
    with l_i = <y, normal_i>, l_xi = <y, xi>, l_inf = sum_i l_i.  Needs y
    strictly inside the cone and <y, xi> > 0.
    """
    xi = _coerce_xi(cone, xi)
    y = tuple(y)
    if len(y) != cone.dim:
        raise DomainError(f"point has length {len(y)}, cone needs {cone.dim}")
    supports = [float(sum(a * b for a, b in zip(normal, y))) for normal in cone.normals]
    l_xi = float(sum(a * b for a, b in zip(xi, y)))
    if any(s <= 0 for s in supports) or l_xi <= 0:
        raise DomainError("potential needs a point strictly inside the cone")
    l_inf = sum(supports)
    total = sum(s * math.log(s) for s in supports)
    return 0.5 * (total + l_xi * math.log(l_xi) - l_inf * math.log(l_inf))


def potential_hessian(cone: MomentCone, xi, y) -> np.ndarray:
    """Hessian of the potential: sum normal x normal / (2 l_i) + xi x xi /
    (2 l_xi) - lambda_sum x lambda_sum / (2 l_inf)."""
    xi_t = _coerce_xi(cone, xi)
    y = tuple(y)
    a = cone._normal_matrix
    xi_v = np.asarray([float(x) for x in xi_t])
    y_v = np.asarray([float(v) for v in y])
    supports = a @ y_v
    l_xi = float(xi_v @ y_v)
    if supports.min() <= 0 or l_xi <= 0:
        raise DomainError("Hessian needs a point strictly inside the cone")
    lam_sum = a.sum(axis=0)
    hess = (a.T / (2.0 * supports)) @ a
    hess += np.outer(xi_v, xi_v) / (2.0 * l_xi)
    hess -= np.outer(lam_sum, lam_sum) / (2.0 * supports.sum())
    return hess


# ---------------------------------------------------------------------------
# Symplectic quotient construction: cones from weight matrices.


@dataclass(frozen=True)
class WeightMatrix:
    """Integer k x n matrix of torus weights for a symplectic quotient."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise DomainError("weight matrix needs n >= 1 columns")
        for row in rows:
            if len(row) != self.n:
                raise DomainError(f"row {row} does not have {self.n} entries")
        if len(rows) >= self.n:
            raise DomainError("need strictly fewer rows than columns (k < n)")

    @property
    def k(self) -> int:
        return len(self.rows)


def cy_condition(omega) -> bool:
    """True iff every row of the weight matrix sums to zero.

    This is the condition for the quotient cone to be Calabi-Yau (trivial
    first Chern class of the transverse structure).
    """
    rows = omega.rows if isinstance(omega, WeightMatrix) else omega
    return all(sum(row) == 0 for row in rows)


def _check_minors(omega: WeightMatrix):
    k = omega.k
    for cols in combinations(range(omega.n), k):
        minor = [[row[c] for c in cols] for row in omega.rows]
        if det_int(minor) == 0:
            raise DomainError(
                f"weight matrix has a vanishing {k} x {k} minor at columns {cols}; "
                "the quotient is not a good toric contact structure"
            )


def cokernel_invariants(omega: WeightMatrix) -> tuple[int, ...]:
    """Invariant factors (> 1) of the torsion of Z^n / rowspan(omega)."""
    if omega.k == 0:
        return ()
    transpose = [[omega.rows[i][j] for i in range(omega.k)] for j in range(omega.n)]
    _, d, _ = smith_normal_form(transpose)
    return tuple(d[i][i] for i in range(omega.k) if d[i][i] > 1)


def cone_from_weights(omega: WeightMatrix) -> MomentCone:
    """Moment cone of the symplectic quotient of C^n by the weight torus.

    The facet normals are the images of the standard basis under the
    projection Z^n -> Z^n / rowspan(omega), expressed in coordinates on
    the free quotient via Smith normal form, made primitive and
    deduplicated.  Requires every k x k minor of omega to be nonzero.  A
    torsion cokernel (orbifold lattice) is reported as a warning; the
    normals then live in the free quotient lattice.
    """
    k, n = omega.k, omega.n
    if k == 0:
        return MomentCone(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    _check_minors(omega)
    transpose = [[omega.rows[i][j] for i in range(k)] for j in range(n)]
    u, d, _ = smith_normal_form(transpose)
    torsion = tuple(d[i][i] for i in range(k) if d[i][i] > 1)
    if torsion:
        warnings.warn(
            f"quotient lattice has torsion {torsion}; using the free quotient "
            "(orbifold lattice)",
            stacklevel=2,
        )
    # MomentCone makes the images primitive and drops repeats.
    images = (tuple(u[r][alpha] for r in range(k, n)) for alpha in range(n))
    return MomentCone(tuple(images))


# ---------------------------------------------------------------------------
# File formats used by the CLI and scripts.


def read_cone_file(path) -> MomentCone:
    """One facet normal per line, whitespace-separated integers.

    Blank lines and lines starting with '#' are ignored.
    """
    normals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                normals.append(tuple(int(tok) for tok in line.split()))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: expected integers, got {line!r}")
    if not normals:
        raise DomainError(f"{path}: no facet normals found")
    return MomentCone(tuple(normals))


def read_weight_matrix_file(path) -> WeightMatrix:
    """Header line 'k n', then k rows of n integers each."""
    with open(path) as fh:
        lines = [
            line.strip()
            for line in fh
            if line.strip() and not line.strip().startswith("#")
        ]
    if not lines:
        raise DomainError(f"{path}: empty weight matrix file")
    try:
        k, n = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise DomainError(f"{path}: header must be 'k n', got {lines[0]!r}")
    if len(lines) - 1 != k:
        raise DomainError(f"{path}: header promises {k} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise DomainError(f"{path}: expected integers, got {line!r}")
        rows.append(row)
    return WeightMatrix(tuple(rows), n=n)

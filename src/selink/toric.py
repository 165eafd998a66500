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

Combinatorics is exact: extreme rays are computed in integer arithmetic by
the double-description method, adding one facet normal at a time, and the
cone is decomposed once into simplicial subcones, read off the ray-facet
incidences, whose index structure does not depend on xi.  The
volume is then a finite sum

    V(xi) = sum over simplices |det(r_1 ... r_m)| / prod <xi, r_j>.

The determinants are read off the triangulation's own recursion: one
fraction-free elimination is carried down it, so a simplex only finishes
its last small block.  For rational xi the sum is exact, over one common
denominator, with a single Fraction at the end; inside the optimizer it
is taken in floats.  One pass over the simplices at a point gives its
float volume and simplex terms, which is all a line-search candidate
needs.  At a point the optimizer accepts, the per-ray quotients and
weights are derived from those terms once, and the closed-form gradient
and Hessian, whose single-ray parts are grouped by ray, are read off
them.  The float path is plain Python: a Newton step needs one linear
solve of size m+1, done by Gaussian elimination.  Every float sum is
added left to right by hand, never by sum(), which is compensated from
Python 3.12 on, so the results do not depend on the Python version.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    UnboundedPolytopeError,
)
from .intlinalg import (
    _cramer_numerators,
    _echelon,
    _identity,
    _int_rows,
    det_int,
    primitive_vector,
    smith_normal_form,
    solve_exact,
)
from .links import _index, parse_int

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
        # Computing the rays checks strong convexity first.  Their sum lies in
        # the relative interior of this pointed cone; a normal vanishing there
        # vanishes on every ray, so the interior is empty.
        centre = [sum(column) for column in zip(*self.rays)]
        if any(_fdot(n, centre) <= 0 for n in self.normals):
            raise DomainError("cone is not full-dimensional (empty interior)")

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        """Primitive generators of the extreme rays, lexicographically sorted."""
        return self._incidences[0]

    @cached_property
    def _incidences(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The sorted extreme rays, and per normal the bitmask of rays on it.

        Double description (Motzkin et al. 1953; Fukuda-Prodon 1996).  The
        first dim independent normals, the pivot columns of one elimination
        of the transposed normals, are the rows of a basis B; fewer than dim
        pivots means the cone contains a line.  The simplicial cone of B has
        one ray off each row k: column k of adj(B) = det(B) B^-1, times the
        sign of det B and made primitive.  One elimination of [B | I] gives
        them all.  The other normals h are added one at a time in input
        order: rays with <h, r> >= 0 stay, and every adjacent pair with
        <h, p> > 0 > <h, q> adds the primitive vector <h, p> q - <h, q> p.
        Each ray carries its zero set over the normals added so far as a
        bitmask; two rays are adjacent when their common zero set has at
        least dim-2 members and lies in no third ray's zero set.  Computed
        on construction.
        """
        dim = self.dim
        normals = self.normals
        basis = _echelon(list(zip(*normals)))[1]
        if len(basis) < dim:
            raise DomainError("cone is not strongly convex (contains a line)")
        added = sum(1 << i for i in basis)
        echelon = _echelon([[*normals[i], *e] for i, e in zip(basis, _identity(dim))])[0]
        rays = []  # (primitive vector, zero set)
        for k, i in enumerate(basis):
            det, column = _cramer_numerators(echelon, dim, dim + k)
            vec = primitive_vector([x if det > 0 else -x for x in column])
            rays.append((vec, added & ~(1 << i)))
        for i, h in enumerate(normals):
            if added >> i & 1:
                continue
            kept, pos, neg = [], [], []
            for vec, zeros in rays:
                s = _fdot(h, vec)
                if s > 0:
                    pos.append((vec, zeros, s))
                    kept.append((vec, zeros))
                elif s < 0:
                    neg.append((vec, zeros, s))
                else:
                    kept.append((vec, zeros | 1 << i))
            all_zeros = [zeros for _, zeros in rays]
            for p, zp, sp in pos:
                for q, zq, sq in neg:
                    common = zp & zq
                    if common.bit_count() < dim - 2:
                        continue
                    if sum(common & z == common for z in all_zeros) > 2:
                        continue
                    vec = [sp * b - sq * a for a, b in zip(p, q)]
                    g = math.gcd(*vec)
                    kept.append((tuple(x // g for x in vec), common | 1 << i))
            rays = kept
        rays.sort()
        masks = [0] * len(normals)
        for j, (_, zeros) in enumerate(rays):
            for i in range(len(normals)):
                if zeros >> i & 1:
                    masks[i] |= 1 << j
        return tuple(vec for vec, _ in rays), tuple(masks)

    @cached_property
    def _simplices(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Simplicial subcones as (ray indices, |determinant|) pairs.

        Recursive pulling triangulation on the face lattice.  A face is the
        bitmask of its ray indices, and each normal has the bitmask of the
        rays it vanishes on.  The facets of a face are its inclusion-maximal
        proper intersections with those masks, so the face lattice is read
        off the exact incidences and needs no further arithmetic.  Each face
        is coned from its lowest ray (the anchor) over the facets that miss
        it, taken in the order of the normals.

        Every simplex below a face contains the anchors above it, so the
        determinants come out of one fraction-free (Bareiss 1968)
        elimination carried down the recursion.  A face that is not a
        simplex pivots once on its anchor's reduced row, at its first
        nonzero column not yet used, and reduces only the rows of the rays
        in the facets it recurses into; that pivot is the divisor one level
        down.  A simplicial face finishes its own square block the same way,
        row by row, and its last pivot is the determinant up to sign.
        """
        rays, masks = self._incidences

        # rows[j] is ray j reduced by the anchors above the face, over the d
        # columns they left unused; prev is the last of their pivots.
        def triangulate(face: int, d: int, rows, prev: int):
            if face.bit_count() == d:  # a simplex, pulled from its lowest ray too
                members = _set_bits(face)
                block = [rows[j] for j in members]
                while len(block) > 1:
                    prev, block = _eliminate(block[0], block[1:], prev)
                return [(members, abs(block[0][0]))]
            anchor = (face & -face).bit_length() - 1
            subs = dict.fromkeys(face & mask for mask in masks)  # in normal order
            subs.pop(face, None)
            facets = []  # by decreasing size: a facet is in no larger one
            for sub in sorted(subs, key=int.bit_count, reverse=True):
                if all(sub & f != sub for f in facets):
                    facets.append(sub)
            below = [sub for sub in subs if sub in facets and not sub >> anchor & 1]
            union = 0
            for sub in below:
                union |= sub
            used = _set_bits(union)
            pivot, reduced = _eliminate(rows[anchor], [rows[j] for j in used], prev)
            reduced = dict(zip(used, reduced))
            simplices = []
            for sub in below:
                for tau, det in triangulate(sub, d - 1, reduced, pivot):
                    simplices.append((tau + (anchor,), det))
            return simplices

        return tuple(triangulate((1 << len(rays)) - 1, self.dim, rays, 1))


def _set_bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _eliminate(top, rows, prev: int):
    """One fraction-free step: pivot on top at its first nonzero entry.

    Returns the pivot and the rows with that column eliminated and dropped.
    Each new entry is a minor of the original rows, so the division by the
    previous pivot prev is exact.
    """
    c = top.index(next(filter(None, top)))  # the first nonzero entry
    pivot = top[c]
    rest = top[:c] + top[c + 1 :]
    reduced = []
    for row in rows:
        f = row[c]
        reduced.append(
            [(pivot * a - f * b) // prev for a, b in zip(row[:c] + row[c + 1 :], rest)]
        )
    return pivot, reduced


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
    return all(_fdot(xi, ray) > 0 for ray in cone.rays)


def _fdot(u, v):
    """The dot product added left to right by hand, from an int 0.

    Exact for exact entries.  For floats it rounds as sum() did up to
    Python 3.11; from 3.12 on sum() of floats is compensated and would
    round differently, so no float reduction here goes through sum().
    """
    total = 0
    for a, b in zip(u, v):
        total += a * b
    return total


def _supports(cone: MomentCone, xi) -> list:
    """<xi, r> for every extreme ray r; all must be positive."""
    supports = [_fdot(xi, ray) for ray in cone.rays]
    if any(s <= 0 for s in supports):
        raise UnboundedPolytopeError(
            "Reeb covector does not cut the cone to a bounded polytope"
        )
    return supports


def volume(cone: MomentCone, xi):
    """Normalized volume m! * vol(C intersect {<y, xi> <= 1}).

    Exact Fraction for integer/Fraction input, float otherwise.  Raises
    UnboundedPolytopeError when xi is not strictly inside the dual cone.
    The exact sum is taken over one common denominator.  A Fraction xi is
    first scaled to integers by the lcm D of its denominators; V is
    homogeneous of degree -m, so V(xi) = D^m V(D xi).
    """
    xi = _coerce_xi(cone, xi)
    if not all(isinstance(x, (int, Fraction)) for x in xi):
        return _float_table(cone, xi)[0]
    scale = math.lcm(*(x.denominator for x in xi))
    supports = _supports(cone, [x.numerator * (scale // x.denominator) for x in xi])
    denoms = [math.prod(supports[j] for j in simplex) for simplex, _ in cone._simplices]
    common = math.lcm(*denoms)
    total = sum(
        det * (common // denom) for (_, det), denom in zip(cone._simplices, denoms)
    )
    return Fraction(total * scale**cone.dim, common)


def _float_table(cone: MomentCone, xi):
    """(volume, supports, terms): the float volume at xi and its summands.

    The terms are det / prod_j <xi, r_j>, one per simplex, and the volume
    adds them in simplex order by hand: sum() of floats is compensated from
    Python 3.12 on and would round differently.
    """
    supports = _supports(cone, xi)
    terms = []
    total = 0.0
    for simplex, det in cone._simplices:
        denom = 1
        for j in simplex:
            denom *= supports[j]
        term = det / denom
        terms.append(term)
        total += term
    return total, supports, terms


def _ray_parts(cone: MomentCone, table):
    """(quotients, weights) of a _float_table, for the derivatives.

    A simplex's term has gradient -term * qs, with qs the sum over its rays
    of q_r = r / <xi, r>, and Hessian term * (qs qs^T + sum_j q_j q_j^T).
    The single-ray parts group by ray, with weight W_r the summed term of
    the simplices that contain r, added in simplex order.
    """
    _, supports, terms = table
    quotients = [[a / s for a in ray] for ray, s in zip(cone.rays, supports)]
    weights = [0.0] * len(supports)
    for (simplex, _), term in zip(cone._simplices, terms):
        for j in simplex:
            weights[j] += term
    return quotients, weights


def _gradient(parts) -> tuple[float, ...]:
    """-sum_r W_r q_r, from the _ray_parts of a point."""
    quotients, weights = parts
    return tuple(-_fdot(weights, column) for column in zip(*quotients))


def _hessian(cone: MomentCone, table, parts) -> tuple[tuple[float, ...], ...]:
    """sum_r W_r q_r q_r^T, plus term * qs qs^T per simplex, at one point."""
    dim = cone.dim
    terms = table[2]
    quotients, weights = parts
    hess = [[0.0] * dim for _ in range(dim)]

    def add_outer(scale, v):  # hess += scale * v v^T, upper triangle
        for a in range(dim):
            sa = scale * v[a]
            row = hess[a]
            for b in range(a, dim):
                row[b] += sa * v[b]

    for w, q in zip(weights, quotients):
        add_outer(w, q)
    for (simplex, _), term in zip(cone._simplices, terms):
        qs = [0.0] * dim  # column sums, ray by ray in simplex order
        for j in simplex:
            for a, x in enumerate(quotients[j]):
                qs[a] += x
        add_outer(term, qs)
    for a in range(dim):
        for b in range(a):
            hess[a][b] = hess[b][a]
    return tuple(map(tuple, hess))


def volume_gradient(cone: MomentCone, xi) -> tuple[float, ...]:
    """Closed-form gradient of the normalized volume (float)."""
    table = _float_table(cone, [float(x) for x in _coerce_xi(cone, xi)])
    return _gradient(_ray_parts(cone, table))


def volume_hessian(cone: MomentCone, xi) -> tuple[tuple[float, ...], ...]:
    """Closed-form Hessian of the normalized volume (float, symmetric)."""
    table = _float_table(cone, [float(x) for x in _coerce_xi(cone, xi)])
    return _hessian(cone, table, _ray_parts(cone, table))


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
    pairing = _fdot(xi, gamma)
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


def _solve(matrix, rhs) -> list[float] | None:
    """Solve matrix @ x = rhs by Gaussian elimination with partial pivoting.

    Returns None when a pivot is exactly zero (a singular matrix).
    """
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(rows[i][col]))
        if rows[pivot][col] == 0.0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for row in rows[col + 1 :]:
            factor = row[col] / head[col]
            for k in range(col, n + 1):
                row[k] -= factor * head[k]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - _fdot(rows[i][i + 1 : n], x[i + 1 :])) / rows[i][i]
    return x


# Newton iterations minimize_volume may take before it gives up.
_MAX_ITERATIONS = 10_000


def minimize_volume(
    cone: MomentCone,
    gamma=None,
    *,
    start=None,
    grad_tol: float = 1e-8,
) -> VolumeMinimum:
    """Find the volume-minimizing Reeb covector on the Gorenstein slice.

    Newton steps on the slice (the volume is strictly convex there) with
    steepest-descent fallback, Armijo backtracking and a hard interior
    guard; converged when the projected gradient norm drops below
    grad_tol, which must be positive and finite.  The Newton step solves the bordered system

        [[H, gamma], [gamma^T, 0]] @ (step, lambda) = (-grad, 0),

    which keeps the step on the slice; a zero pivot falls back to
    steepest descent.  Exhausting the budget of ``_MAX_ITERATIONS`` steps
    raises ConvergenceError with diagnostics.
    """
    if not 0 < grad_tol < math.inf:
        raise DomainError(f"grad_tol must be positive and finite, got {grad_tol}")
    if gamma is None:
        result = gorenstein_gamma(cone)
        if result.gamma is None:
            raise DomainError(f"cone has no Gorenstein vector ({result.reason})")
        gamma = result.gamma
    g = [float(x) for x in gamma]
    if start is None:
        start = [sum(column) for column in zip(*cone.normals)]
    xi = tuple(float(x) for x in _coerce_xi(cone, start))
    if not reeb_is_interior(cone, xi):
        raise DomainError("start point is not interior to the dual cone")
    xi = reeb_slice_project(cone, g, xi)
    g_norm2 = _fdot(g, g)
    table = _float_table(cone, xi)
    current = table[0]
    grad_norm = math.inf
    for iteration in range(1, _MAX_ITERATIONS + 1):
        parts = _ray_parts(cone, table)
        grad = _gradient(parts)
        along = _fdot(grad, g) / g_norm2
        tangent_grad = [a - along * b for a, b in zip(grad, g)]
        grad_norm = math.hypot(*tangent_grad)
        if grad_norm < grad_tol:
            return VolumeMinimum(
                reeb=ReebVector(xi),
                value=current,
                iterations=iteration - 1,
                grad_norm=grad_norm,
            )
        hess = _hessian(cone, table, parts)
        bordered = [[*row, b] for row, b in zip(hess, g)] + [[*g, 0.0]]
        solution = _solve(bordered, [-a for a in grad] + [0.0])
        step = None if solution is None else solution[:-1]
        if step is None or _fdot(grad, step) > -1e-14 * grad_norm:
            step = [-a for a in tangent_grad]
        slope = _fdot(grad, step)
        alpha = 1.0
        while alpha > 1e-18:
            candidate = tuple(x + alpha * s for x, s in zip(xi, step))
            try:
                trial = _float_table(cone, candidate)
            except UnboundedPolytopeError:
                pass
            else:
                if trial[0] <= current + 1e-4 * alpha * slope:
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
        xi, table = candidate, trial
        current = table[0]
    raise ConvergenceError(
        "iteration budget exhausted",
        iterations=_MAX_ITERATIONS,
        last_point=xi,
        last_value=current,
        grad_norm=grad_norm,
    )


# ---------------------------------------------------------------------------
# Symplectic quotient construction: cones from weight matrices.


@dataclass(frozen=True)
class WeightMatrix:
    """Integer k x n matrix of torus weights for a symplectic quotient."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        rows = tuple(map(tuple, _int_rows(self.rows)))
        n = _index(self.n, "n")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
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
# File formats used by the CLI.


def _integer_lines(path) -> list[tuple[int, ...]]:
    """The integers on each line; blank lines and '#' lines are skipped.

    Each token is read by parse_int, so an error names ``path:lineno``.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            words = line.split()
            if words and not words[0].startswith("#"):
                rows.append(tuple(parse_int(word, f"{path}:{lineno}") for word in words))
    return rows


def read_cone_file(path) -> MomentCone:
    """One facet normal per line, whitespace-separated integers.

    Blank lines and lines starting with '#' are ignored.
    """
    normals = _integer_lines(path)
    if not normals:
        raise DomainError(f"{path}: no facet normals found")
    return MomentCone(tuple(normals))


def read_weight_matrix_file(path) -> WeightMatrix:
    """Header line 'k n', then k rows of n integers each."""
    lines = _integer_lines(path)
    if not lines:
        raise DomainError(f"{path}: empty weight matrix file")
    header, *rows = lines
    if len(header) != 2:
        got = " ".join(map(str, header))
        raise DomainError(f"{path}: header must be 'k n', got {got!r}")
    k, n = header
    if len(rows) != k:
        raise DomainError(f"{path}: header promises {k} rows, found {len(rows)}")
    return WeightMatrix(tuple(rows), n=n)

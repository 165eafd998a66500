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
the double-description method.  One elimination picks dim independent
normals, one more gives the rays of their simplicial cone, each made
primitive by one gcd, and the other normals are added one at a time, with
each slack <h, r> an exact integer sum.  The cone is decomposed once into
simplicial subcones, read off the ray-facet incidences, whose index
structure does not depend on xi.  The volume is then a finite sum

    V(xi) = sum over simplices |det(r_1 ... r_m)| / prod <xi, r_j>.

The determinants are read off the triangulation's own recursion: one
fraction-free elimination is carried down it.  By Sylvester's identity a
3 x 3 block of its rows is the simplex's determinant times the square of
the pivot above, so a triangle of a polygon face costs one 3 x 3
determinant and one exact division, and any other simplex finishes its
own small block.  A triangulation of more than ``_MAX_SIMPLEX_WORK``
units, simplices times dimension, is refused.  For rational xi the sum
is exact, over one common denominator, with a single Fraction at the
end; inside the optimizer it is taken in floats, from ray entries and
determinants converted once per call.  One pass over the simplices at a
point gives its float volume and simplex terms, which is all a
line-search candidate needs.  At a point the optimizer accepts, the
per-ray quotients and weights are derived from those terms once, and the
closed-form gradient and Hessian, whose single-ray parts are grouped by
ray, are read off them.  The float path is plain Python: a Newton step
needs one linear solve of size m+1, done by Gaussian elimination.  Every
float sum is added left to right by hand, in ``_fdot`` or a local loop,
never by sum(), which is compensated from Python 3.12 on, so the results
do not depend on the Python version; only integer sums use sum().
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from operator import mul

from . import _EXPORTS, _Value
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
    hermite_form,
    invariant_factors,
    primitive_vector,
)
from .links import _index, parse_int

__all__ = list(_EXPORTS["toric"])

# Most coordinates a cone or weight matrix may have, like links._MAX_WEIGHTS.
# The orthant of dimension 1000 took more than a minute to build.
_MAX_DIMENSION = 64

# Most work MomentCone._simplices may take, counted as simplices times the
# dimension.  A unit takes about 2 us (Python 3.11 on a Xeon core); the
# slowest admitted cones, such as the product of simplices with weight row
# (1 x 9, -1 x 10) at 437580 units, take about a second.
_MAX_SIMPLEX_WORK = 5 * 10**5


class MomentCone(_Value):
    """C = {y : <y, normal_i> >= 0}, full-dimensional and strongly convex.

    Normals are normalized to primitive integer vectors and deduplicated
    on construction; validity is checked immediately (rank for strong
    convexity, then the exact extreme rays, whose sum must pair strictly
    positively with every normal).  The rays and the triangulation are
    cached in the instance ``__dict__`` beside the normals.
    """

    __match_args__ = ("normals",)
    normals: tuple[tuple[int, ...], ...]

    def __init__(self, normals):
        if not normals:
            raise DomainError("a cone needs at least one facet normal")
        dim = len(normals[0])
        if dim < 2:
            raise DomainError("ambient dimension must be at least 2")
        if dim > _MAX_DIMENSION:
            raise DomainError(f"dimension {dim} exceeds the safety bound of {_MAX_DIMENSION}")
        cleaned = {}  # first-seen order
        for row in normals:
            if len(row) != dim:
                raise DomainError("facet normals of mixed dimension")
            cleaned[primitive_vector(row)] = None
        self.__dict__["normals"] = tuple(cleaned)
        # Computing the rays checks strong convexity first.  Their sum lies in
        # the relative interior of this pointed cone; a normal vanishing there
        # vanishes on every ray, so the interior is empty.
        centre = [sum(column) for column in zip(*self.rays)]
        if any(sum(map(mul, n, centre)) <= 0 for n in self.normals):
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
        one ray off each row k: column k of adj(B) = det(B) B^-1, divided by
        its gcd times the sign of det B.  One elimination of [B | I] gives
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
            g = math.gcd(*column) if det > 0 else -math.gcd(*column)
            rays.append((tuple(x // g for x in column), added & ~(1 << i)))
        for i, h in enumerate(normals):
            if added >> i & 1:
                continue
            kept, pos, neg = [], [], []
            for vec, zeros in rays:
                s = sum(map(mul, h, vec))
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
                    containing = 0  # p and q, and any third ray breaks adjacency
                    for z in all_zeros:
                        if common & z == common:
                            containing += 1
                            if containing > 2:
                                break
                    else:
                        vec = [sp * b - sq * a for a, b in zip(p, q)]
                        g = math.gcd(*vec)
                        kept.append((tuple(x // g for x in vec), common | 1 << i))
            rays = kept
        rays.sort()
        masks = [0] * len(normals)
        for j, (_, zeros) in enumerate(rays):
            for i in _set_bits(zeros):
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
        it, taken in the order of the normals; a simplex lists its own rays
        in ascending order, then the anchors above it, deepest first.

        Every simplex below a face contains the anchors above it, so the
        determinants come out of one fraction-free (Bareiss 1968)
        elimination carried down the recursion.  A face of dimension d > 3
        pivots once on its anchor's reduced row, at its first nonzero
        column not yet used, and reduces only the rows of the rays in the
        facets below it; that pivot is the divisor one level down.  Each
        entry of a reduced row is a minor of the rays, so by Sylvester's
        identity a 3 x 3 block of reduced rows is the determinant times
        prev**2, prev the last pivot, and the division is exact.  A
        polygon (d = 3) needs no pivot: its edges are its two-ray
        intersections with the masks, and each triangle with the anchor is
        one 3 x 3 determinant over prev**2.  A simplicial facet is finished
        in its parent, by Bareiss steps down to such a 3 x 3 block.

        Every simplex is appended once to one list, with the anchors passed
        down as a tuple.  Past ``_MAX_SIMPLEX_WORK`` units, simplices times
        the dimension, the triangulation is refused.  The cone keeps the
        refusal's text, so a later call raises the same DomainError at once.
        """
        refusal = self.__dict__.get("_refusal")
        if refusal is not None:
            raise DomainError(refusal)
        rays, masks = self._incidences
        dim = self.dim
        most = _MAX_SIMPLEX_WORK // dim
        out = []

        def check():
            if len(out) > most:
                refusal = (
                    f"the triangulation of the cone has more than {most} simplices of "
                    f"dimension {dim}, past the limit of {_MAX_SIMPLEX_WORK} units"
                )
                self.__dict__["_refusal"] = refusal
                raise DomainError(refusal)

        # rows[j] is ray j reduced by the anchors above the face, over the d
        # columns they left unused; prev is the last of their pivots.
        def triangulate(face: int, d: int, rows, prev: int, tail: tuple[int, ...]):
            anchor = (face & -face).bit_length() - 1
            tail = (anchor, *tail)
            subs = dict.fromkeys(face & mask for mask in masks)  # in normal order
            if d == 3:  # a polygon: its edges are the two-ray faces
                top = rows[anchor]
                square = prev * prev
                for edge in subs:
                    if edge.bit_count() == 2 and not edge >> anchor & 1:
                        low = edge & -edge
                        a, b = low.bit_length() - 1, (edge ^ low).bit_length() - 1
                        out.append(((a, b, *tail), abs(_det3(top, rows[a], rows[b])) // square))
                check()
                return
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
            for sub in below:
                if sub.bit_count() == d - 1:  # a simplex
                    members = _set_bits(sub)
                    det = _simplex_det([reduced[j] for j in members], pivot)
                    out.append(((*members, *tail), det))
                else:
                    triangulate(sub, d - 1, reduced, pivot, tail)
                check()

        if len(rays) == dim:
            return ((tuple(range(dim)), _simplex_det(rays, 1)),)
        triangulate((1 << len(rays)) - 1, dim, rays, 1, ())
        return tuple(out)


def _set_bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _simplex_det(block, prev: int) -> int:
    """|det| of a simplex from its rows reduced by the anchors above it.

    prev is the last of their pivots.  Bareiss steps take the block down
    to three rows, whose determinant is det * prev^2 by Sylvester's
    identity; a cone of dimension 2 is a single 2 x 2 block.
    """
    while len(block) > 3:
        prev, block = _eliminate(block[0], block[1:], prev)
    if len(block) == 2:
        (a0, a1), (b0, b1) = block
        return abs(a0 * b1 - a1 * b0) // prev
    return abs(_det3(*block)) // (prev * prev)


def _det3(u, v, w) -> int:
    """The 3 x 3 determinant of the rows u, v, w."""
    (x, y, z), (a0, a1, a2), (b0, b1, b2) = u, v, w
    return x * (a1 * b2 - a2 * b1) - y * (a0 * b2 - a2 * b0) + z * (a0 * b1 - a1 * b0)


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


class ReebVector(_Value):
    """A covector in the interior of the dual cone; entries exact or float."""

    __match_args__ = ("components",)
    components: tuple

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise DomainError("empty Reeb vector")
        self.__dict__["components"] = components


def _coerce_xi(cone: MomentCone, xi, what: str = "Reeb vector") -> tuple:
    if isinstance(xi, ReebVector):
        xi = xi.components
    xi = tuple(xi)
    if len(xi) != cone.dim:
        raise DomainError(f"{what} has length {len(xi)}, cone needs {cone.dim}")
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


def _supports(rays, xi) -> list:
    """<xi, r> for every ray r, added as _fdot adds; each must be > 0, so not NaN."""
    supports = []
    for ray in rays:
        s = 0
        for a, b in zip(xi, ray):
            s += a * b
        if not s > 0:
            raise UnboundedPolytopeError(
                "Reeb covector does not cut the cone to a bounded polytope"
            )
        supports.append(s)
    return supports


def volume(cone: MomentCone, xi):
    """Normalized volume m! * vol(C intersect {<y, xi> <= 1}).

    Exact Fraction for integer/Fraction input, float otherwise.  Raises
    UnboundedPolytopeError when xi is not strictly inside the dual cone;
    in floats, a ray entry, simplex determinant or xi beyond float range
    is a DomainError.
    The exact sum is taken over one common denominator.  A Fraction xi is
    first scaled to integers by the lcm D of its denominators; V is
    homogeneous of degree -m, so V(xi) = D^m V(D xi).
    """
    xi = _coerce_xi(cone, xi)
    if not all(isinstance(x, (int, Fraction)) for x in xi):
        return _checked_float_table(cone, xi)[1][0]
    scale = math.lcm(*(x.denominator for x in xi))
    supports = _supports(cone.rays, [x.numerator * (scale // x.denominator) for x in xi])
    denoms = [math.prod(map(supports.__getitem__, simplex)) for simplex, _ in cone._simplices]
    common = math.lcm(*denoms)
    total = sum(det * (common // denom) for (_, det), denom in zip(cone._simplices, denoms))
    return Fraction(total * scale**cone.dim, common)


def _float_table(fcone, xi):
    """(volume, supports, terms): the float volume at xi and its summands.

    fcone is a _float_cone.  The terms are det / prod_j <xi, r_j>, one per
    simplex, the product taken left to right, and the volume adds them in
    simplex order by hand: sum() of floats is compensated from Python 3.12
    on and would round differently.
    """
    rays, simplices = fcone
    supports = _supports(rays, xi)
    terms = []
    total = 0.0
    for simplex, det in simplices:
        denom = 1  # math.prod takes longer on these few floats
        for j in simplex:
            denom *= supports[j]
        term = det / denom
        terms.append(term)
        total += term
    return total, supports, terms


def _ray_parts(fcone, table):
    """(quotients, weights) of a _float_table, for the derivatives.

    A simplex's term has gradient -term * qs, with qs the sum over its rays
    of q_r = r / <xi, r>, and Hessian term * (qs qs^T + sum_j q_j q_j^T).
    The single-ray parts group by ray, with weight W_r the summed term of
    the simplices that contain r, added in simplex order.
    """
    rays, simplices = fcone
    _, supports, terms = table
    quotients = [[a / s for a in ray] for ray, s in zip(rays, supports)]
    weights = [0.0] * len(supports)
    for (simplex, _), term in zip(simplices, terms):
        for j in simplex:
            weights[j] += term
    return quotients, weights


def _gradient(parts) -> tuple[float, ...]:
    """-sum_r W_r q_r, from the _ray_parts of a point, added ray by ray."""
    quotients, weights = parts
    grad = []
    for column in zip(*quotients):
        total = 0
        for w, x in zip(weights, column):
            total += w * x
        grad.append(-total)
    return tuple(grad)


def _hessian(fcone, table, parts) -> tuple[tuple[float, ...], ...]:
    """sum_r W_r q_r q_r^T, plus term * qs qs^T per simplex, at one point.

    The upper triangle adds (scale * v[a]) * v[b] by ray, then by simplex.
    """
    quotients, weights = parts
    dim = len(quotients[0])
    sums = []  # qs per simplex: column sums, ray by ray in simplex order
    for simplex, _ in fcone[1]:
        qs = [0.0] * dim
        for j in simplex:
            for a, x in enumerate(quotients[j]):
                qs[a] += x
        sums.append(qs)
    hess = [[0.0] * dim for _ in range(dim)]
    upper = [(a, row, range(a, dim)) for a, row in enumerate(hess)]
    for scale, v in chain(zip(weights, quotients), zip(table[2], sums)):
        for a, row, columns in upper:
            sa = scale * v[a]
            for b in columns:
                row[b] += sa * v[b]
    for a in range(dim):
        for b in range(a):
            hess[a][b] = hess[b][a]
    return tuple(map(tuple, hess))


def volume_gradient(cone: MomentCone, xi) -> tuple[float, ...]:
    """Closed-form gradient of the normalized volume (float)."""
    fcone, table = _checked_float_table(cone, xi)
    return _gradient(_ray_parts(fcone, table))


def volume_hessian(cone: MomentCone, xi) -> tuple[tuple[float, ...], ...]:
    """Closed-form Hessian of the normalized volume (float, symmetric)."""
    fcone, table = _checked_float_table(cone, xi)
    return _hessian(fcone, table, _ray_parts(fcone, table))


class GorensteinResult(_Value):
    __match_args__ = ("gamma", "reason")
    gamma: tuple[int, ...] | None
    reason: str | None  # "inconsistent" | "underdetermined" | "non-integral"

    def __init__(self, gamma, reason=None):
        fields = self.__dict__
        fields["gamma"] = gamma
        fields["reason"] = reason


def gorenstein_gamma(cone: MomentCone) -> GorensteinResult:
    """The integral vector with <normal_j, gamma> = -1 for every facet, if any.

    The solution of the linear system must be unique, integral and (then
    automatically) primitive; otherwise the failure reason is reported.
    One elimination of [normals | -1] gives Cramer's numerators D gamma
    over the determinant D, so gamma is integral iff D divides them all.
    """
    dim = cone.dim
    rows, pivots = _echelon([[*normal, -1] for normal in cone.normals])
    if dim in pivots:
        return GorensteinResult(None, "inconsistent")
    if len(pivots) < dim:
        return GorensteinResult(None, "underdetermined")
    det, numerators = _cramer_numerators(rows, dim, dim)
    if any(v % det for v in numerators):
        return GorensteinResult(None, "non-integral")
    gamma = tuple(v // det for v in numerators)
    if math.gcd(*gamma) != 1:
        raise InternalConsistencyError(f"Gorenstein vector {gamma} is not primitive")
    return GorensteinResult(gamma)


def reeb_slice_project(cone: MomentCone, gamma, xi):
    """Rescale xi onto the affine slice <xi, gamma> = -dim.

    Exact for exact input.  A pairing that is not negative (NaN included)
    means xi cannot be scaled onto the slice and is rejected.
    """
    xi = _coerce_xi(cone, xi)
    gamma = _coerce_xi(cone, gamma, "Gorenstein vector")
    pairing = _fdot(xi, gamma)
    if not pairing < 0:
        raise DomainError(
            f"<xi, gamma> = {pairing} is not negative; cannot project to the slice"
        )
    exact = all(isinstance(x, (int, Fraction)) for x in xi)
    scale = Fraction(-cone.dim, pairing) if exact else -cone.dim / pairing
    return tuple(x * scale for x in xi)


class VolumeMinimum(_Value):
    __match_args__ = ("reeb", "value", "iterations", "grad_norm")
    reeb: ReebVector
    value: float
    iterations: int
    grad_norm: float

    def __init__(self, reeb, value, iterations, grad_norm):
        fields = self.__dict__
        fields["reeb"] = reeb
        fields["value"] = value
        fields["iterations"] = iterations
        fields["grad_norm"] = grad_norm


def _solve(matrix, rhs) -> list[float] | None:
    """Solve matrix @ x = rhs by Gaussian elimination with partial pivoting.

    Returns None when a pivot is exactly zero (a singular matrix).  The
    pivot is the first entry of largest absolute value; the rows below it
    are reduced right of its column, since nothing reads that column again.
    """
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot, best = col, abs(rows[col][col])
        for i in range(col + 1, n):
            size = abs(rows[i][col])
            if size > best:
                pivot, best = i, size
        if rows[pivot][col] == 0.0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        lead = head[col]
        for row in rows[col + 1 :]:
            factor = row[col] / lead
            for k in range(col + 1, n + 1):
                row[k] -= factor * head[k]
    x = [0.0] * n
    for i in reversed(range(n)):
        row = rows[i]
        s = 0  # added as _fdot adds
        for k in range(i + 1, n):
            s += row[k] * x[k]
        x[i] = (row[n] - s) / row[i]
    return x


def _floats(values, what: str) -> tuple[float, ...]:
    """The values as floats; an integer beyond float range is a DomainError."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise DomainError(f"{what} is outside float range") from None


def _float_cone(cone: MomentCone):
    """(rays, simplices) with float ray entries and simplex determinants.

    Formed once per public float call, not in _float_table, which the line
    search calls for every candidate.  An int times or over a float is
    converted as float() converts it, so no product or quotient changes.
    """
    try:
        rays = [tuple(map(float, ray)) for ray in cone.rays]
        return rays, [(simplex, float(det)) for simplex, det in cone._simplices]
    except OverflowError:
        raise DomainError(
            "a ray entry or simplex determinant of the cone is outside float range"
        ) from None


def _checked_float_table(cone: MomentCone, xi):
    """The _float_cone and its _float_table at a caller's xi, once both fit in floats."""
    fcone = _float_cone(cone)
    return fcone, _float_table(fcone, _floats(_coerce_xi(cone, xi), "Reeb vector"))


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
    steepest descent.  A start point, Gorenstein vector, ray entry or
    simplex determinant beyond float range is a DomainError.  So is a
    grad_tol that floats cannot reach, where an accepted step leaves xi
    as it was.  A stalled line search, or exhausting the budget of
    ``_MAX_ITERATIONS`` steps, raises ConvergenceError with diagnostics.
    """
    if not 0 < grad_tol < math.inf:
        raise DomainError(f"grad_tol must be positive and finite, got {grad_tol}")
    if gamma is None:
        result = gorenstein_gamma(cone)
        if result.gamma is None:
            raise DomainError(f"cone has no Gorenstein vector ({result.reason})")
        gamma = result.gamma
    else:
        gamma = _coerce_xi(cone, gamma, "Gorenstein vector")
    fcone = _float_cone(cone)
    g = _floats(gamma, "Gorenstein vector")
    if start is None:
        start = [sum(column) for column in zip(*cone.normals)]
    xi = _floats(_coerce_xi(cone, start), "start point")
    if not reeb_is_interior(cone, xi):
        raise DomainError("start point is not interior to the dual cone")
    xi = reeb_slice_project(cone, g, xi)
    g_norm2 = _fdot(g, g)
    table = _float_table(fcone, xi)
    current = table[0]
    grad_norm = math.inf
    for iteration in range(1, _MAX_ITERATIONS + 1):
        parts = _ray_parts(fcone, table)
        grad = _gradient(parts)
        along = _fdot(grad, g) / g_norm2
        tangent_grad = [a - along * b for a, b in zip(grad, g)]
        grad_norm = math.hypot(*tangent_grad)
        if grad_norm < grad_tol:
            return VolumeMinimum(ReebVector(xi), current, iteration - 1, grad_norm)
        hess = _hessian(fcone, table, parts)
        bordered = [[*row, b] for row, b in zip(hess, g)] + [[*g, 0.0]]
        solution = _solve(bordered, [-a for a in grad] + [0.0])
        step = None if solution is None else solution[:-1]
        slope = None if step is None else _fdot(grad, step)
        if slope is None or slope > -1e-14 * grad_norm:
            step = [-a for a in tangent_grad]
            slope = _fdot(grad, step)
        alpha = 1.0
        while alpha > 1e-18:
            candidate = tuple([x + alpha * s for x, s in zip(xi, step)])
            try:
                trial = _float_table(fcone, candidate)
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
        if candidate == xi:  # floats no longer move xi; later steps would repeat this one
            raise DomainError(
                f"grad_tol={grad_tol!r} is out of float reach: the steps stopped "
                f"moving xi at projected gradient norm {grad_norm!r}"
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


class WeightMatrix(_Value):
    """Integer k x n matrix of torus weights for a symplectic quotient."""

    __match_args__ = ("rows", "n")
    rows: tuple[tuple[int, ...], ...]
    n: int

    def __init__(self, rows, n):
        n = _index(n, "n")
        if n > _MAX_DIMENSION:
            raise DomainError(f"n = {n} columns exceeds the safety bound of {_MAX_DIMENSION}")
        rows = tuple(map(tuple, _int_rows(rows)))
        if n < 1:
            raise DomainError("weight matrix needs n >= 1 columns")
        for row in rows:
            if len(row) != n:
                raise DomainError(f"row {row} does not have {n} entries")
        if len(rows) >= n:
            raise DomainError("need strictly fewer rows than columns (k < n)")
        fields = self.__dict__
        fields["rows"] = rows
        fields["n"] = n

    @property
    def k(self) -> int:
        return len(self.rows)


# Most work _check_minors may take: C(n, k) determinants of (k + 1)^3 units
# each.  For two-digit entries a unit takes 0.1-0.3 us (Python 3.11 on a
# Xeon core), and the slowest admitted check, 4 x 31, takes about a second.
# The elimination's entries grow to about k times the bits of the longest
# entry; past 1024 bits, 16 words, a unit costs the square of that length.
_MAX_MINOR_WORK = 4 * 10**6


def _check_minors(omega: WeightMatrix):
    k = omega.k
    count = math.comb(omega.n, k)
    bits = max((abs(x).bit_length() for row in omega.rows for x in row), default=0)
    growth = max(1, k * bits / 1024) ** 2
    if count * (k + 1) ** 3 * growth > _MAX_MINOR_WORK:
        size = f" at {bits}-bit entries" if growth > 1 else ""
        raise DomainError(
            f"the C({omega.n}, {k}) = {count} minors of the weight matrix cost more "
            f"than the limit of {_MAX_MINOR_WORK} units{size}"
        )
    for cols in combinations(range(omega.n), k):  # WeightMatrix rows are ints
        minor = [[row[c] for c in cols] for row in omega.rows]
        if len(_echelon(minor)[1]) < k:
            raise DomainError(
                f"weight matrix has a vanishing {k} x {k} minor at columns {cols}; "
                "the quotient is not a good toric contact structure"
            )


def cone_from_weights(omega: WeightMatrix) -> MomentCone:
    """Moment cone of the symplectic quotient of C^n by the weight torus.

    The facet normals are the images of the standard basis under the
    projection Z^n -> Z^n / rowspan(omega), made primitive and
    deduplicated.  One Hermite form U omega^T = H gives both parts of the
    quotient: the last n - k rows of U, a basis of the integer kernel of
    omega, are coordinates on its free part, and the invariant factors > 1
    of the k x k block H[:k] are its torsion.  A torsion cokernel (orbifold
    lattice) is reported as a warning; the normals then live in the free
    quotient lattice.  Requires every k x k minor of omega to be nonzero,
    checked within ``_MAX_MINOR_WORK``.
    """
    _check_minors(omega)
    u, h = hermite_form([[row[j] for row in omega.rows] for j in range(omega.n)])
    torsion = tuple(d for d in invariant_factors(h[: omega.k]) if d > 1)
    if torsion:
        warnings.warn(
            f"quotient lattice has torsion {torsion}; using the free quotient "
            "(orbifold lattice)",
            stacklevel=2,
        )
    # MomentCone makes the images primitive and drops repeats.
    return MomentCone(tuple(zip(*u[omega.k :])))


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

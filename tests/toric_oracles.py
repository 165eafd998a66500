"""Definitional ray enumeration and triangulation of a moment cone, for tests.

The package finds extreme rays by double description and reads the face
lattice off the final ray-facet incidences.  The routines below are the
direct definitions they replace: a ray of a pointed cone is extreme iff
its active normals have rank dim-1, so every (dim-1)-subset of normals is
tried by an exact kernel; and a facet of a face is an intersection with a
facet hyperplane whose rays have rank one less than the face.  They are
slow (C(F, dim-1) kernels, one rank per candidate face) and serve as
oracles only.  So do the per-simplex determinants, Fraction volume sum
and float derivatives that the package now reads off one elimination down
the triangulation and sums by ray, and the rank that it reads off the
echelon form's pivots.
"""

import math
from fractions import Fraction
from itertools import combinations

from selink import DomainError
from selink.intlinalg import _echelon, det_int, kernel_vector, primitive_vector


def rank_rational(matrix) -> int:
    """Rank over the rationals of an integer matrix."""
    return len(_echelon(matrix)[1])


def subset_kernel_rays(normals) -> tuple[tuple[int, ...], ...]:
    """Primitive extreme rays, sorted, from kernels of (dim-1)-subsets."""
    dim = len(normals[0])
    found = set()
    for subset in combinations(normals, dim - 1):
        vec = kernel_vector(subset, dim)
        if vec is None:
            continue
        dots = [sum(a * b for a, b in zip(normal, vec)) for normal in normals]
        if all(d >= 0 for d in dots):
            found.add(vec)
        elif all(d <= 0 for d in dots):
            found.add(tuple(-x for x in vec))
    return tuple(sorted(found))


def rank_triangulation(normals, rays) -> tuple[tuple[int, ...], ...]:
    """Pulling triangulation whose facets are found by exact ranks."""
    dim = len(normals[0])
    dots = [
        [sum(a * b for a, b in zip(normal, ray)) for ray in rays]
        for normal in normals
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

    return tuple(triangulate(tuple(range(len(rays))), dim))


def oracle_cone(raw_normals):
    """(normals, rays, triangulation, dets) as MomentCone defines them.

    Applies the same cleaning and validity checks, with the same
    DomainError texts, but enumerates and triangulates definitionally.
    """
    dim = len(raw_normals[0])
    normals = tuple(dict.fromkeys(primitive_vector(row) for row in raw_normals))
    if rank_rational(normals) < dim:
        raise DomainError("cone is not strongly convex (contains a line)")
    rays = subset_kernel_rays(normals)
    centre = [sum(column) for column in zip(*rays)]
    if any(sum(a * b for a, b in zip(n, centre)) <= 0 for n in normals):
        raise DomainError("cone is not full-dimensional (empty interior)")
    triangulation = rank_triangulation(normals, rays)
    dets = tuple(abs(det_int([rays[j] for j in simplex])) for simplex in triangulation)
    return normals, rays, triangulation, dets


def oracle_volume(rays, triangulation, dets, xi) -> Fraction:
    """Exact normalized volume as the sum of the simplex terms."""
    supports = [sum(a * b for a, b in zip(xi, ray)) for ray in rays]
    total = Fraction(0)
    for det, simplex in zip(dets, triangulation):
        denom = 1
        for j in simplex:
            denom *= supports[j]
        total += Fraction(det, denom)
    return total


def _simplex_terms(rays, simplices, xi):
    """Per simplex, its float term det / prod <xi, r_j> and its q_j = r_j / <xi, r_j>."""
    xi = [float(x) for x in xi]
    supports = [sum(a * b for a, b in zip(xi, ray)) for ray in rays]
    quotients = [[a / s for a in ray] for ray, s in zip(rays, supports)]
    for simplex, det in simplices:
        yield (
            det / math.prod(supports[j] for j in simplex),
            [quotients[j] for j in simplex],
        )


def simplex_gradient(rays, simplices, xi) -> tuple[float, ...]:
    """Gradient of the volume, summed simplex by simplex: -sum term * sum_j q_j."""
    grad = [0.0] * len(xi)
    for term, q in _simplex_terms(rays, simplices, xi):
        for a, column in enumerate(zip(*q)):
            grad[a] -= term * sum(column)
    return tuple(grad)


def simplex_hessian(rays, simplices, xi) -> tuple[tuple[float, ...], ...]:
    """Hessian of the volume, simplex by simplex: term * (qs qs^T + sum_j q_j q_j^T)."""
    dim = len(xi)
    hess = [[0.0] * dim for _ in range(dim)]
    for term, q in _simplex_terms(rays, simplices, xi):
        qs = [sum(column) for column in zip(*q)]
        for a in range(dim):
            for b in range(dim):
                hess[a][b] += term * (qs[a] * qs[b] + sum(v[a] * v[b] for v in q))
    return tuple(map(tuple, hess))

"""Guillemin's canonical symplectic potential of a moment cone, for tests.

The potential and its Hessian are not part of the package: only the
acceptance and toric tests evaluate them, as an independent check that
the cone data describe a strictly convex Kaehler potential.
"""

import math

import numpy as np

from selink import DomainError, MomentCone
from selink.toric import _coerce_xi


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
    a = np.array(cone.normals, dtype=float)
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

"""Exception hierarchy shared across the package.

Two failure classes are kept apart deliberately.  A DomainError means the
caller handed us something outside an operation's domain (bad exponents,
a non-coprime pair, a Reeb vector outside the dual cone) and maps to CLI
exit code 1.  An InternalConsistencyError means a computation produced
something that should be impossible for valid input (a fractional Betti
number, a torsion chain that is not divisible); the result cannot be trusted
and the CLI exits with code 2.
"""

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class DomainError(ValueError):
    """Input rejected before or during a computation."""


class InternalConsistencyError(RuntimeError):
    """A result contradicted an invariant that holds for all valid input."""


class NotSmaleFormError(DomainError):
    """Torsion is not a doubled group, so no spin Smale name exists."""


class UnboundedPolytopeError(DomainError):
    """The Reeb covector fails to cut the cone down to a bounded polytope."""


class ConvergenceError(InternalConsistencyError):
    """The volume minimizer exhausted its iteration budget."""

    def __init__(self, message, *, iterations, last_point, last_value, grad_norm):
        self.iterations = iterations
        self.last_point = tuple(last_point)
        self.last_value = last_value
        self.grad_norm = grad_norm
        super().__init__(
            f"{message} (iterations={iterations}, value={last_value!r}, "
            f"projected gradient norm={grad_norm!r})"
        )

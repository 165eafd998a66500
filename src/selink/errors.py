"""Exception hierarchy shared across the package.

Two failure classes are kept apart deliberately.  A DomainError means the
caller handed us something outside an operation's domain (bad exponents,
a non-coprime pair, a Reeb vector outside the dual cone) and maps to CLI
exit code 1.  An InternalConsistencyError means a computation produced
something that should be impossible for valid input (a fractional Betti
number, a torsion division with remainder); the result cannot be trusted
and the CLI exits with code 2.
"""

__all__ = [
    "DomainError",
    "InternalConsistencyError",
    "TorsionDivisionError",
    "NotSmaleFormError",
    "UnboundedPolytopeError",
    "ConvergenceError",
]


class DomainError(ValueError):
    """Input rejected before or during a computation."""


class InternalConsistencyError(RuntimeError):
    """A result contradicted an invariant that holds for all valid input."""


class TorsionDivisionError(InternalConsistencyError):
    """Non-exact division while building the torsion table.

    The inductive gcd quotients are integers for every input class the
    algorithm is known or conjectured to cover, so a remainder here means
    either a genuine counterexample or a bug.  The offending index subset
    is kept for diagnosis.
    """

    def __init__(self, subset, numerator, denominator):
        self.subset = tuple(subset)
        self.numerator = numerator
        self.denominator = denominator
        super().__init__(
            f"torsion table entry for subset {self.subset} is not integral: "
            f"{numerator} / {denominator} leaves a remainder"
        )


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

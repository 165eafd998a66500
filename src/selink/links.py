"""Presentations of links of weighted homogeneous hypersurface singularities.

A weighted homogeneous polynomial f on C^{n+1} with weights w = (w_0, ..., w_n)
and degree d has an isolated singularity at the origin (we trust the caller on
this; no quasi-smoothness check is attempted), and its link

    L = f^{-1}(0) intersected with the unit sphere S^{2n+1}

is an (n-2)-connected (2n-1)-manifold carrying a natural Sasakian structure.
Everything downstream (homology, existence verdicts, five-dimensional names)
is a function of the pair (w, d) only, so that pair is the core datum here.

Two presentations are supported: a raw weight/degree pair, and a
Brieskorn-Pham exponent tuple a = (a_0, ..., a_n) standing for the polynomial
z_0^{a_0} + ... + z_n^{a_n}, from which weights and degree are derived.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalConsistencyError

__all__ = [
    "LINK_TYPES",
    "WeightedLink",
    "BPExponents",
    "FractionalWeights",
    "bp_to_link",
    "fractional_weights",
    "classify_type",
    "parse_presentation",
    "as_link",
]

LINK_TYPES = ("positive", "negative", "null")


def _index(value, what: str) -> int:
    """The value as an int; a float, Fraction or string is a DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class WeightedLink:
    """A link presented by positive integer weights and a degree.

    The sign of the index |w| - d splits links into positive / negative /
    null classes (anti-canonical, canonical, null Sasakian structures);
    see classify_type.
    """

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self):
        weights = tuple(_index(w, "weight") for w in self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", _index(self.degree, "degree"))
        if len(weights) < 3:
            raise DomainError(f"need at least 3 weights, got {len(weights)}")
        if any(w < 1 for w in weights):
            raise DomainError(f"weights must be positive integers: {weights}")
        if self.degree < 1:
            raise DomainError(f"degree must be a positive integer: {self.degree}")

    @property
    def n(self) -> int:
        """Complex dimension of the hypersurface; the link has dimension 2n-1."""
        return len(self.weights) - 1

    @property
    def link_dim(self) -> int:
        return 2 * self.n - 1

    @property
    def index(self) -> int:
        """|w| - d.  Positive for Fano-type (anti-canonical) links."""
        return sum(self.weights) - self.degree

    def canonical_key(self) -> tuple[tuple[int, ...], int]:
        """The weight multiset and the degree; keys MODULI_REFERENCE."""
        return (tuple(sorted(self.weights)), self.degree)

    def presentation(self) -> str:
        return "w={} d={}".format(",".join(map(str, self.weights)), self.degree)


@dataclass(frozen=True)
class BPExponents:
    """Brieskorn-Pham exponents a_i >= 2 for z_0^{a_0} + ... + z_n^{a_n}."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(_index(a, "exponent") for a in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 3:
            raise DomainError(f"need at least 3 exponents, got {len(exps)}")
        if any(a < 2 for a in exps):
            raise DomainError(f"exponents must all be >= 2: {exps}")

    @property
    def n(self) -> int:
        return len(self.exponents) - 1

    def pairwise_coprime(self) -> bool:
        exps = self.exponents
        return all(
            math.gcd(exps[i], exps[j]) == 1
            for i in range(len(exps))
            for j in range(i + 1, len(exps))
        )

    def reciprocal_sum(self) -> Fraction:
        return sum((Fraction(1, a) for a in self.exponents), Fraction(0))

    def presentation(self) -> str:
        return "bp={}".format(",".join(map(str, self.exponents)))


def bp_to_link(bp: BPExponents) -> WeightedLink:
    """Weights w_i = d / a_i with d = lcm(a_0, ..., a_n), so a_i * w_i = d."""
    if not isinstance(bp, BPExponents):
        bp = BPExponents(tuple(bp))
    d = math.lcm(*bp.exponents)
    weights = tuple(d // a for a in bp.exponents)
    if any(a * w != d for a, w in zip(bp.exponents, weights)):
        raise InternalConsistencyError(f"a * w != {d} for {bp.presentation()}")
    return WeightedLink(weights, d)


@dataclass(frozen=True)
class FractionalWeights:
    """Reduced fractions u_i / v_i = d / w_i.

    These determine the homology of the link completely (free part always,
    torsion at least conjecturally), so they are the interface between a
    presentation and the homology machinery.
    """

    numerators: tuple[int, ...]  # u_i
    denominators: tuple[int, ...]  # v_i

    def __post_init__(self):
        if len(self.numerators) != len(self.denominators):
            raise DomainError("numerators and denominators differ in length")
        for u, v in zip(self.numerators, self.denominators):
            if u < 1 or v < 1:
                raise DomainError(f"fractional weight {u}/{v} is not positive")
            if math.gcd(u, v) != 1:
                raise DomainError(f"fractional weight {u}/{v} is not reduced")

    def __len__(self) -> int:
        return len(self.numerators)


def fractional_weights(link: WeightedLink) -> FractionalWeights:
    """u_i = d/gcd(d, w_i), v_i = w_i/gcd(d, w_i); then u_i w_i = d v_i."""
    d = link.degree
    nums, dens = [], []
    for w in link.weights:
        g = math.gcd(d, w)
        nums.append(d // g)
        dens.append(w // g)
    if any(u * w != d * v for u, v, w in zip(nums, dens, link.weights)):
        raise InternalConsistencyError(f"u * w != d * v for {link.presentation()}")
    return FractionalWeights(tuple(nums), tuple(dens))


def classify_type(link: WeightedLink) -> str:
    """'positive', 'negative' or 'null' by the sign of the index |w| - d."""
    if link.index > 0:
        return "positive"
    if link.index < 0:
        return "negative"
    return "null"


def _is_int_token(text: str) -> bool:
    # Not str.isdigit, which also passes digits such as "²" that int() refuses.
    return text.removeprefix("-").isdecimal()


def _parse_int_list(value: str, token: str, position: int) -> tuple[int, ...]:
    parts = value.split(",")
    out = []
    for part in parts:
        part = part.strip()
        if not _is_int_token(part):
            raise DomainError(
                f"token {token!r} at position {position}: {part!r} is not an integer"
            )
        out.append(int(part))
    return tuple(out)


def parse_presentation(text: str) -> BPExponents | WeightedLink:
    """Parse the presentation grammar used by the CLI and catalog files.

    Whitespace-separated key=value tokens with comma-separated integer
    lists: either ``bp=2,3,5`` or ``w=1,1,1,4,6 d=12``.  Malformed input
    raises DomainError naming the offending token and its position.
    """
    fields: dict[str, object] = {}
    tokens = text.split()
    if not tokens:
        raise DomainError("empty presentation")
    for position, token in enumerate(tokens):
        if "=" not in token:
            raise DomainError(
                f"token {token!r} at position {position}: expected key=value"
            )
        key, _, value = token.partition("=")
        if key in fields:
            raise DomainError(f"token {token!r} at position {position}: duplicate key")
        if key == "bp" or key == "w":
            fields[key] = _parse_int_list(value, token, position)
        elif key == "d":
            if not _is_int_token(value):
                raise DomainError(
                    f"token {token!r} at position {position}: degree must be an integer"
                )
            fields[key] = int(value)
        else:
            raise DomainError(
                f"token {token!r} at position {position}: unknown key {key!r}"
            )
    if "bp" in fields:
        if len(fields) != 1:
            raise DomainError("bp=... cannot be combined with other keys")
        return BPExponents(fields["bp"])
    if "w" in fields and "d" in fields:
        return WeightedLink(fields["w"], fields["d"])
    raise DomainError(f"incomplete presentation {text!r}: need bp=... or w=... d=...")


def as_link(presentation: BPExponents | WeightedLink) -> WeightedLink:
    """Coerce either presentation to its link."""
    if isinstance(presentation, BPExponents):
        return bp_to_link(presentation)
    return presentation

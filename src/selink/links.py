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

This module also holds the package's two integer readers.  ``parse_int``
reads text (presentation tokens here, and the CLI arguments and toric
files elsewhere) as an optional '-' and decimal digits; ``_index`` takes a
Python value that is an integer and rejects a float, Fraction or string.
Both reject anything else as a DomainError.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
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


def _shown(text: str) -> str:
    """repr(text), cut to 40 characters so that an error line stays short."""
    return repr(text if len(text) <= 40 else text[:37] + "...")


def parse_int(text: str, context: str) -> int:
    """The integer written as an optional '-' and decimal digits.

    Anything else, such as '+3', ' 3', '2_2', '--5' or '²' (which
    str.isdigit passes), is a DomainError that names the context, and so
    is a number longer than int() reads (sys.get_int_max_str_digits).
    """
    digits = text.removeprefix("-")
    if not digits.isdecimal():
        raise DomainError(f"{context}: {_shown(text)} is not an integer")
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"{context}: {len(digits)} digits, over the limit of {limit}") from None


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
    """Brieskorn-Pham exponents a_i >= 2 for z_0^{a_0} + ... + z_n^{a_n}.

    Their link is built with them: d = lcm(a), w_i = d / a_i, so a_i w_i = d.
    """

    exponents: tuple[int, ...]
    link: WeightedLink = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exps = tuple(_index(a, "exponent") for a in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 3:
            raise DomainError(f"need at least 3 exponents, got {len(exps)}")
        if any(a < 2 for a in exps):
            raise DomainError(f"exponents must all be >= 2: {exps}")
        d = math.lcm(*exps)
        weights = tuple(d // a for a in exps)
        if any(a * w != d for a, w in zip(exps, weights)):
            raise InternalConsistencyError(f"a * w != {d} for {self.presentation()}")
        object.__setattr__(self, "link", WeightedLink(weights, d))

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
    """The link of bp (a BPExponents or a sequence of exponents), bp.link."""
    if not isinstance(bp, BPExponents):
        bp = BPExponents(tuple(bp))
    return bp.link


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
        context = f"token {_shown(token)} at position {position}"
        key, equals, value = token.partition("=")
        if not equals:
            raise DomainError(f"{context}: expected key=value")
        if key in fields:
            raise DomainError(f"{context}: duplicate key")
        if key == "bp" or key == "w":
            fields[key] = tuple(parse_int(part, context) for part in value.split(","))
        elif key == "d":
            fields[key] = parse_int(value, context)
        else:
            raise DomainError(f"{context}: unknown key {_shown(key)}")
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
        return presentation.link
    return presentation

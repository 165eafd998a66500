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
Python value that is an integer and rejects a float, Fraction or string,
and ``_indices`` takes a sequence of them in one pass.  Both reject
anything else as a DomainError.
"""

from __future__ import annotations

import math
import operator
import sys

from . import _EXPORTS, _Value
from .errors import DomainError

__all__ = list(_EXPORTS["links"])

# Choice lists the CLI parser offers, kept here so that building it loads
# neither homology nor existence: link types, the polynomial classes for
# which the torsion algorithm is proven, and the verdict statuses.
LINK_TYPES = ("positive", "negative", "null")
PROVEN_SOURCES = ("bp", "chain")
STATUSES = ("se_exists", "obstructed", "unknown", "eta_einstein_exists")

# Most weights (or exponents) a link may have.  Each link layer is linear in
# their number or has a work cap of its own; at 64, it takes milliseconds.
_MAX_WEIGHTS = 64


def _shown(text: str) -> str:
    """repr(text), cut to 40 characters so that an error line stays short."""
    return repr(text if len(text) <= 40 else text[:37] + "...")


def _short_numbers(text: str) -> str:
    """text with each run of more than 40 digits cut to its first 37 and '...'.

    Applied where a DomainError's text leaves the program, so that an
    input of thousands of digits does not fill the error line.
    """
    import re

    return re.sub(r"[0-9]{41,}", lambda run: run[0][:37] + "...", text)


def parse_int(text: str, context: str) -> int:
    """The integer written as an optional '-' and decimal digits.

    Anything else, such as '+3', ' 3', '2_2', '--5' or '²' (which
    str.isdigit passes), is a DomainError that names the context, and so
    is a number longer than int() reads (sys.get_int_max_str_digits).
    """
    try:
        return _read_int(text)
    except DomainError as exc:
        raise DomainError(f"{context}: {exc}") from None


def _read_int(text: str) -> int:
    """parse_int without the context, which a caller adds when it raises."""
    digits = text.removeprefix("-")
    if not digits.isdecimal():
        raise DomainError(f"{_shown(text)} is not an integer")
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"{len(digits)} digits, over the limit of {limit}") from None


def _index(value, what: str) -> int:
    """The value as an int; a float, Fraction or string is a DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _indices(values, what: str) -> tuple[int, ...]:
    """``_index`` of each value, in one pass; the first non-integer is named."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(_index(value, what) for value in values)


def _check_length(values, what: str) -> None:
    """At least 3 and at most ``_MAX_WEIGHTS`` values, else a DomainError."""
    if not 3 <= len(values) <= _MAX_WEIGHTS:
        bound = "least 3" if len(values) < 3 else f"most {_MAX_WEIGHTS}"
        raise DomainError(f"need at {bound} {what}, got {len(values)}")


class WeightedLink(_Value):
    """A link presented by positive integer weights and a degree.

    The sign of the index |w| - d splits links into positive / negative /
    null classes (anti-canonical, canonical, null Sasakian structures);
    see classify_type.
    """

    __match_args__ = ("weights", "degree")
    weights: tuple[int, ...]
    degree: int
    # Derived from the two fields above, so left out of ==, the hash and
    # the repr; stored once, since every stage of a record reads them.
    n: int  # complex dimension of the hypersurface; the link has dimension 2n-1
    index: int  # |w| - d, positive for Fano-type (anti-canonical) links

    def __init__(self, weights, degree):
        weights = _indices(weights, "weight")
        degree = _index(degree, "degree")
        _check_length(weights, "weights")
        if min(weights) < 1:
            raise DomainError(f"weights must be positive integers: {weights}")
        if degree < 1:
            raise DomainError(f"degree must be a positive integer: {degree}")
        fields = self.__dict__
        fields["weights"] = weights
        fields["degree"] = degree
        fields["n"] = len(weights) - 1
        fields["index"] = sum(weights) - degree

    @property
    def link_dim(self) -> int:
        return 2 * self.n - 1

    def canonical_key(self) -> tuple[tuple[int, ...], int]:
        """The weight multiset and the degree; keys MODULI_REFERENCE."""
        return (tuple(sorted(self.weights)), self.degree)

    def presentation(self) -> str:
        return "w={} d={}".format(",".join(map(str, self.weights)), self.degree)


class BPExponents(_Value):
    """Brieskorn-Pham exponents a_i >= 2 for z_0^{a_0} + ... + z_n^{a_n}.

    Their link is built with them: d = lcm(a) and w_i = d / a_i.  Each a_i
    divides d, so a_i w_i = d by construction; the tests check it on the
    census and on random exponents.  The link is derived, so it is left out
    of the repr, ==, and the hash.
    """

    __match_args__ = ("exponents",)
    exponents: tuple[int, ...]
    link: WeightedLink

    def __init__(self, exponents):
        exps = _indices(exponents, "exponent")
        _check_length(exps, "exponents")
        if min(exps) < 2:
            raise DomainError(f"exponents must all be >= 2: {exps}")
        d = math.lcm(*exps)
        fields = self.__dict__
        fields["exponents"] = exps
        fields["link"] = WeightedLink(tuple(map(d.__floordiv__, exps)), d)

    @property
    def n(self) -> int:
        return len(self.exponents) - 1

    def pairwise_coprime(self) -> bool:
        """lcm = product exactly when no two exponents share a factor."""
        return self.link.degree == math.prod(self.exponents)

    def presentation(self) -> str:
        return "bp={}".format(",".join(map(str, self.exponents)))


def fractional_weights(link: WeightedLink) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reduced fractions u_i / v_i = d / w_i, as the pair (u, v).

    u_i = d/gcd(d, w_i) and v_i = w_i/gcd(d, w_i), so u_i w_i = d v_i, and
    every u_i and v_i is positive.  That identity holds by construction,
    since g = gcd(d, w_i) divides both d and w_i exactly, so it is not
    checked here; the tests check it on the census and on random (w, d).
    These fractions determine the homology of the link completely (free
    part always, torsion at least conjecturally), so they are the
    interface between a presentation and the homology machinery.
    """
    d = link.degree
    nums, dens = [], []
    for w in link.weights:
        g = math.gcd(d, w)
        nums.append(d // g)
        dens.append(w // g)
    return tuple(nums), tuple(dens)


def classify_type(link: WeightedLink) -> str:
    """'positive', 'negative' or 'null' by the sign of the index |w| - d."""
    index = link.index
    if index > 0:
        return "positive"
    if index < 0:
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
        key, equals, value = token.partition("=")
        try:
            if not equals:
                raise DomainError("expected key=value")
            if key in fields:
                raise DomainError("duplicate key")
            if key == "bp" or key == "w":
                fields[key] = tuple(map(_read_int, value.split(",")))
            elif key == "d":
                fields[key] = _read_int(value)
            else:
                raise DomainError(f"unknown key {_shown(key)}")
        except DomainError as exc:
            raise DomainError(f"token {_shown(token)} at position {position}: {exc}") from None
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

"""Shared strategies and helpers.

Random presentations must describe genuine links: an arbitrary (w, d)
pair need not admit any weighted-homogeneous polynomial with an isolated
singularity, and the exact formulas are only guaranteed integral on
actual links.  Both generators below therefore produce Fermat-type data
(every a_i = d/w_i a positive integer), optionally rescaled, which
always bounds a genuine presentation; the rescaling (t*w, t*d) leaves
the fractional weights unchanged.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import sympy
from hypothesis import strategies as st

import selink
from selink import BPExponents, WeightedLink, bp_to_link

SRC = str(Path(selink.__file__).resolve().parent.parent)


@st.composite
def bp_exponent_tuples(draw, min_len=3, max_len=5, max_exponent=12):
    k = draw(st.integers(min_len, max_len))
    return tuple(draw(st.integers(2, max_exponent)) for _ in range(k))


@st.composite
def bp_exponents(draw, **kwargs):
    return BPExponents(draw(bp_exponent_tuples(**kwargs)))


@st.composite
def bp_links(draw, **kwargs):
    return bp_to_link(draw(bp_exponents(**kwargs)))


@st.composite
def fermat_type_links(draw, min_n=2, max_n=4, max_degree=48, max_scale=4):
    """(w, d) with every w_i dividing d, then scaled by t."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(2, max_degree))
    divisors = [k for k in range(1, d) if d % k == 0]
    weights = tuple(draw(st.sampled_from(divisors)) for _ in range(n + 1))
    t = draw(st.integers(1, max_scale))
    return WeightedLink(tuple(t * w for w in weights), t * d)


@st.composite
def coprime_triples(draw, max_exponent=30):
    a0 = draw(st.integers(2, max_exponent))
    a1 = draw(st.integers(2, max_exponent).filter(lambda x: math.gcd(x, a0) == 1))
    a2 = draw(
        st.integers(2, max_exponent).filter(
            lambda x: math.gcd(x, a0) == 1 and math.gcd(x, a1) == 1
        )
    )
    return (a0, a1, a2)


def random_fermat_link(rng: random.Random, min_n=2, max_n=4, max_degree=48) -> WeightedLink:
    """Seeded non-hypothesis variant for fixed-count sampling loops."""
    n = rng.randint(min_n, max_n)
    d = rng.randint(2, max_degree)
    divisors = [k for k in range(1, d + 1) if d % k == 0 and k < d] or [1]
    weights = tuple(rng.choice(divisors) for _ in range(n + 1))
    t = rng.randint(1, 4)
    return WeightedLink(tuple(t * w for w in weights), t * d)


def random_coprime_triple(rng: random.Random, max_exponent=30) -> tuple[int, int, int]:
    while True:
        a = (rng.randint(2, max_exponent), rng.randint(2, max_exponent), rng.randint(2, max_exponent))
        if (
            math.gcd(a[0], a[1]) == 1
            and math.gcd(a[0], a[2]) == 1
            and math.gcd(a[1], a[2]) == 1
        ):
            return a


def primary_parts(orders) -> tuple[int, ...]:
    """Primary decomposition of a product of cyclic groups of these orders.

    Two finite abelian groups are isomorphic iff these sorted multisets of
    prime powers agree, which is how golden values quoted in mixed forms
    are compared.
    """
    out = []
    for m in orders:
        for p, e in sympy.factorint(m).items():
            out.append(p**e)
    return tuple(sorted(out))


def catalogs_equal(text_a: str, text_b: str) -> bool:
    """Same header apart from its timestamp, and identical record lines."""

    def split(text: str) -> tuple[dict, str]:
        header, _, records = text.partition("\n")
        header = json.loads(header or "{}")
        header.pop("timestamp", None)
        return header, records

    return split(text_a) == split(text_b)


def pytest_configure(config):
    # An advisory that reaches a test outside pytest.warns fails it.
    config.addinivalue_line("filterwarnings", "error::UserWarning")


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter (with extra flags) that imports this selink."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )

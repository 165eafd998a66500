"""Workload inputs, stored references and independent oracles.

Nothing here imports selink, so the harness can check outputs without
loading the program it measures.

``queries`` and ``toric`` draw a fixed number of items per input class
from pools whose expected outputs were recorded once (see
make_reference.py); the seed picks the items and their order.  Each pool
is stored in order of the cost measured when it was recorded, and the
seed draws one item from each of ``count`` consecutive strata, so every
seed gives a pass of nearly the same cost profile and runs with different
seeds can be compared.  The counts are chosen so that the median and the
tail percentile each fall inside one class, not on a boundary between two
classes of very different cost.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from itertools import combinations_with_replacement
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
CENSUS_REFERENCE = REFERENCE_DIR / "census.jsonl.gz"
POOLS_REFERENCE = REFERENCE_DIR / "pools.json"

# (length, max exponent) enumerations run by `batch` in the census workload.
CENSUS_ENUMS = ((3, 30), (4, 12))

# Catalog fields that legitimately differ between runs or tool versions.
VOLATILE_FIELDS = ("timestamp", "version")

# Items per pass for each query class, each drawn from its pool in
# reference/pools.json unless noted.
QUERY_COUNTS = {
    "verdict": 60,  # decide_existence + smale_name + table_lookup, length 4
    "casson_family": 8,  # (2, 3, 6k +- 1), closed-form oracle, no pool
    "moduli": 8,  # degrees 2*10^4 .. 10^5
    "homology_9": 6,
    "casson_medium": 4,
    "homology_10": 20,  # the p90 tail falls in this class
    "casson_large": 2,
    "homology_11": 3,
    "homology_12": 1,
}
CASSON_FAMILY_MAX_K = 50

# Cones per pass for each toric class.
TORIC_COUNTS = {
    "ypq": 22,
    "conifold": 1,
    "dP3": 1,
    "cyclic_4_8": 1,
    "cyclic_4_12": 1,
    "cyclic_5_8": 1,
    "cyclic_5_12": 10,  # the p75 tail falls in this class
    "cyclic_6_8": 1,
    "cyclic_6_10": 1,
    "cyclic_6_12": 1,
}
YPQ_MAX_P = 15

FACET_CONES = {
    "conifold": ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    "dP3": ((1, 1, 0), (1, 1, 1), (1, 0, 1), (1, -1, 0), (1, -1, -1), (1, 0, -1)),
}
# Minimal normalized volumes: T^{1,1} and the link of the cone over dP3.
FACET_MINIMA = {"conifold": 16 / 27, "dP3": 2 / 9}

# Float tolerances of the existing test suite for optimizer output.
VALUE_RTOL = 1e-9
XI_ATOL = 1e-7


def load_pools() -> dict:
    with open(POOLS_REFERENCE) as fh:
        return json.load(fh)


def load_census_reference() -> list[dict]:
    with gzip.open(CENSUS_REFERENCE, "rt") as fh:
        return [json.loads(line) for line in fh]


def census_enumeration(length: int, max_exponent: int) -> list[str]:
    """Presentations in `batch` order: nondecreasing tuples, lexicographic."""
    return [
        "bp=" + ",".join(map(str, tup))
        for tup in combinations_with_replacement(range(2, max_exponent + 1), length)
    ]


def census_presentations() -> list[str]:
    return [text for enum in CENSUS_ENUMS for text in census_enumeration(*enum)]


def comparable(record: dict) -> dict:
    """A catalog record without the fields that vary between runs."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def exponents_of(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split("=", 1)[1].split(","))


# ------------------------------------------------------------------ oracles


def pairwise_coprime(a) -> bool:
    return all(math.gcd(a[i], a[j]) == 1 for i in range(len(a)) for j in range(i + 1, len(a)))


def casson_family_value(a) -> int | None:
    """lambda(Sigma(2, 3, 6k +- 1)) = -k; None outside the family."""
    if sorted(a)[:2] != [2, 3]:
        return None
    c = sorted(a)[2]
    if c % 6 not in (1, 5) or c < 5:
        return None
    return -((c + 1) // 6)


def betti_oracle(exponents) -> int:
    """Middle Betti number of a Brieskorn-Pham link by the Milnor-Orlik count.

    b = #{(k_0..k_n) : 0 < k_i < a_i, sum k_i / a_i an integer}, counted by
    a dynamic program over the sum's residue modulo lcm(a).
    """
    period = math.lcm(*exponents)
    counts = [0] * period
    counts[0] = 1
    for a in exponents:
        step = period // a
        nxt = [0] * period
        for r, c in enumerate(counts):
            if c:
                for k in range(1, a):
                    nxt[(r + k * step) % period] += c
        counts = nxt
    return counts[0]


def msy_volume(p: int, q: int) -> float:
    """Minimal normalized volume of Y^{p,q} (Martelli-Sparks-Yau, hep-th/0503183)."""
    s = math.sqrt(4 * p * p - 3 * q * q)
    return q * q * (2 * p + s) / (3 * p * p * (3 * q * q - 2 * p * p + p * s))


def census_oracle_failure(record: dict) -> str | None:
    """Closed-form checks that hold for every census record they apply to."""
    a = exponents_of(record["presentation"])
    if len(a) == 3 and pairwise_coprime(a):
        if record["betti"] != 0 or record["torsion"]:
            return f"{record['presentation']}: coprime triple is not a homology sphere"
        expected = casson_family_value(a)
        if expected is not None and record["casson"] != expected:
            return f"{record['presentation']}: casson {record['casson']} != {expected}"
    return None


def check_census_record(index: int, record: dict, reference: list[dict]) -> str | None:
    got = comparable(record)
    if index >= len(reference) or got != reference[index]:
        return f"record {index} ({record.get('presentation')}) differs from the reference"
    return census_oracle_failure(got)


# ------------------------------------------------------------ seeded lists


def stratified(rng: random.Random, pool: list, count: int, cls: str) -> list[dict]:
    """One item from each of ``count`` equal slices of a cost-ordered pool."""
    size = len(pool) // count
    return [dict(rng.choice(pool[i * size : (i + 1) * size]), **{"class": cls}) for i in range(count)]


def queries_list(seed: int, pools: dict) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for cls, count in QUERY_COUNTS.items():
        if cls == "casson_family":
            for k in rng.sample(range(1, CASSON_FAMILY_MAX_K + 1), count):
                c = 6 * k + rng.choice((-1, 1))
                items.append({"class": cls, "kind": "casson", "exponents": [2, 3, c]})
        else:
            items.extend(stratified(rng, pools[cls], count, cls))
    rng.shuffle(items)
    return items


def ypq_pairs() -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(2, YPQ_MAX_P + 1)
        for q in range(1, p)
        if math.gcd(p, q) == 1
    ]


def toric_list(seed: int, pools: dict) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for cls, count in TORIC_COUNTS.items():
        if cls == "ypq":
            for p, q in rng.sample(ypq_pairs(), count):
                items.append({"class": cls, "kind": "ypq", "p": p, "q": q})
        elif cls in FACET_CONES:
            items.append(dict(pools["facets"][cls], **{"class": cls}))
        else:
            items.extend(stratified(rng, pools[cls], count, cls))
    rng.shuffle(items)
    return items


def cyclic_normals(m: int, ts) -> list[list[int]]:
    """Facet normals (1, t, ..., t^{m-1}) of a cyclic cone."""
    return [[t**i for i in range(m)] for t in ts]


# ------------------------------------------------------------ output checks


def check_query(item: dict, got) -> str | None:
    label = f"{item['class']} {item.get('text') or item.get('exponents')}"
    if item["kind"] == "casson":
        expected = casson_family_value(item["exponents"])
        if expected is None:
            expected = item["expect"]
        return None if got == expected else f"{label}: got {got}, expected {expected}"
    if got != item["expect"]:
        return f"{label}: got {got}, expected {item['expect']}"
    if item["kind"] == "homology" and got["betti"] != betti_oracle(exponents_of(item["text"])):
        return f"{label}: Betti number disagrees with the Milnor-Orlik count"
    return None


def check_cone(item: dict, got: dict) -> str | None:
    label = item["class"] + (f" ({item['p']},{item['q']})" if item["kind"] == "ypq" else "")
    closed_form = (
        msy_volume(item["p"], item["q"]) if item["kind"] == "ypq" else FACET_MINIMA.get(item["class"])
    )
    if closed_form is not None and abs(got["min"] - closed_form) > VALUE_RTOL * closed_form:
        return f"{label}: minimum {got['min']!r}, closed form {closed_form!r}"
    expect = item.get("expect")
    if expect is None:
        return None
    for key in ("rays", "volume_xi0", "gamma"):
        if got[key] != expect[key]:
            return f"{label}: {key} {got[key]!r}, expected {expect[key]!r}"
    if abs(got["min"] - expect["min"]) > VALUE_RTOL * abs(expect["min"]):
        return f"{label}: minimum {got['min']!r}, reference {expect['min']!r}"
    if any(abs(a - b) > XI_ATOL * max(1.0, abs(b)) for a, b in zip(got["xi"], expect["xi"])):
        return f"{label}: minimizer {got['xi']}, reference {expect['xi']}"
    return None

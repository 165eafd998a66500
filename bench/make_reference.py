"""Record the expected outputs the benchmark checks against.

Writes ``reference/census.jsonl.gz`` (every computed field of every census
record, in `batch` order) and ``reference/pools.json`` (the input pools of
the queries and toric workloads with the outputs computed for them).  The
references pin the answers of the code they were recorded from; a later
version must reproduce them, so this script refuses to overwrite them.

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import gzip
import json
import math
import random
import sys
import warnings
from time import perf_counter

import workload_inputs as wi
import workload_ops as ops
from selink.errors import DomainError, InternalConsistencyError
from span_trace import NullTracer

POOL_SEED = 806_0373

# Pool sizes: a multiple (3 or more) of the per-pass count, so seeds draw
# different items from every stratum.
HOMOLOGY_POOLS = {9: 18, 10: 60, 11: 9, 12: 4}
CYCLIC_POOLS = {(4, 8): 4, (4, 12): 4, (5, 8): 4, (5, 12): 30, (6, 8): 4, (6, 10): 4, (6, 12): 4}
CYCLIC_T_RANGE = range(-7, 8)


def coprime_triple(rng, a0, low, high):
    while True:
        a1, a2 = sorted(rng.sample(range(low, high + 1), 2))
        if wi.pairwise_coprime((a0, a1, a2)):
            return [a0, a1, a2]


def answered(draw, compute, size):
    """Draw distinct inputs until ``size`` of them have an answer.

    The pool is returned in order of cost, the faster of two timed calls.
    """
    timed, seen = [], set()
    while len(timed) < size:
        item = draw()
        key = json.dumps(item, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        costs = []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(2):
                    t0 = perf_counter()
                    item["expect"] = compute(item)
                    costs.append(perf_counter() - t0)
        except (DomainError, InternalConsistencyError, UserWarning):
            continue
        timed.append((min(costs), len(timed), item))
    return [item for _, _, item in sorted(timed)]


def build_pools(rng: random.Random) -> dict:
    pools: dict = {}
    for m, size in HOMOLOGY_POOLS.items():
        pools[f"homology_{m}"] = answered(
            lambda: {
                "kind": "homology",
                "text": "bp=" + ",".join(map(str, sorted(rng.randint(2, 8) for _ in range(m)))),
            },
            ops.query_plain,
            size,
        )
    pools["casson_large"] = answered(
        lambda: {"kind": "casson", "exponents": coprime_triple(rng, 7, 1500, 2000)},
        ops.query_plain,
        6,
    )
    pools["casson_medium"] = answered(
        lambda: {"kind": "casson", "exponents": coprime_triple(rng, rng.choice((2, 3, 5)), 600, 1200)},
        ops.query_plain,
        12,
    )

    def moduli_draw():
        while True:
            a = sorted(rng.randint(2, 60) for _ in range(rng.choice((4, 5))))
            if 20_000 <= math.lcm(*a) <= 100_000:
                return {"kind": "moduli", "text": "bp=" + ",".join(map(str, a))}

    pools["moduli"] = answered(moduli_draw, ops.query_plain, 24)
    pools["verdict"] = answered(
        lambda: {
            "kind": "verdict",
            "text": "bp=" + ",".join(map(str, sorted(rng.randint(2, 30) for _ in range(4)))),
        },
        ops.query_plain,
        120,
    )
    for (m, k), size in CYCLIC_POOLS.items():
        pools[f"cyclic_{m}_{k}"] = answered(
            lambda: {"kind": "cyclic", "m": m, "ts": sorted(rng.sample(CYCLIC_T_RANGE, k))},
            lambda item: ops.solve_cone(NullTracer(), 0, item),
            size,
        )
    pools["facets"] = {}
    for name, normals in wi.FACET_CONES.items():
        item = {"kind": "facets", "name": name, "normals": [list(n) for n in normals]}
        item["expect"] = ops.solve_cone(NullTracer(), 0, item)
        pools["facets"][name] = item
    return pools


def main() -> int:
    if wi.CENSUS_REFERENCE.exists() or wi.POOLS_REFERENCE.exists():
        print("references exist; they pin the recorded answers and are not rewritten", file=sys.stderr)
        return 1
    wi.REFERENCE_DIR.mkdir(exist_ok=True)
    records = [ops.census_plain(text) for text in wi.census_presentations()]
    with gzip.GzipFile(wi.CENSUS_REFERENCE, "wb", mtime=0) as fh:
        for record in records:
            fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
    pools = build_pools(random.Random(POOL_SEED))
    with open(wi.POOLS_REFERENCE, "w") as fh:
        json.dump(pools, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness itself, not of selink.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
import workload_inputs as wi
import workload_ops as ops
from machine_speed import REFERENCE_S, SpeedSampler, scale
from percentiles import LADDER, MIN_BEYOND, percentile, tail_percentile
from selink import BPExponents, casson_invariant, link_homology
from span_trace import Recorder, summarize

ROOT = wi.BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ------------------------------------------------------------ tail percentile


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_rule(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for n in range(20, 3000, 7):
        p = tail_percentile(n)
        values = list(range(n))
        assert sum(v > percentile(values, p) for v in values) >= MIN_BEYOND
        higher = [q for q in LADDER if Fraction(q) > Fraction(str(p))]
        if higher:
            assert n * (100 - Fraction(higher[0])) / 100 < MIN_BEYOND


# ------------------------------------------------------------ machine speed


def test_scale_is_reference_time_over_loop_time():
    assert scale([REFERENCE_S] * 3) == pytest.approx(1.0)
    assert scale([2 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(0.5)


def test_speed_sampler_samples_while_a_child_runs():
    with SpeedSampler(period_s=0.01) as sampler:
        time.sleep(0.1)
    assert len(sampler.samples) >= 4
    assert 0 < sampler.factor() < 100


# ------------------------------------------------------------- metric names


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["census", "queries", "toric"]
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ------------------------------------------------------------------ oracles


def test_msy_closed_form():
    assert abs(wi.msy_volume(2, 1) - 0.28664) < 1e-5


@pytest.mark.parametrize("item", [{"kind": "ypq", "class": "ypq", "p": 2, "q": 1},
                                  {"kind": "ypq", "class": "ypq", "p": 5, "q": 3}])
def test_ypq_minimum_matches_the_closed_form(item):
    got = ops.solve_cone(Recorder(), 0, item)
    assert wi.check_cone(item, got) is None
    assert wi.check_cone(item, dict(got, min=got["min"] * (1 + 1e-6))) is not None


@pytest.mark.parametrize("name", sorted(wi.FACET_CONES))
def test_facet_cone_minima(name):
    item = dict(wi.load_pools()["facets"][name], **{"class": name})
    assert wi.check_cone(item, ops.solve_cone(Recorder(), 0, item)) is None


def test_casson_family_oracle():
    for k in range(1, 8):
        for c in (6 * k - 1, 6 * k + 1):
            assert wi.casson_family_value((2, 3, c)) == -k == casson_invariant((2, 3, c))
    assert wi.casson_family_value((2, 5, 7)) is None


@pytest.mark.parametrize("exponents", [(2, 3, 5), (3, 3, 3, 3, 3), (2, 2, 2, 2), (2, 3, 4, 6), (3, 4, 6, 8, 8)])
def test_betti_oracle_matches_link_homology(exponents):
    assert wi.betti_oracle(exponents) == link_homology(BPExponents(exponents)).betti


def test_coprime_triples_are_homology_spheres():
    for triple in ((2, 3, 5), (2, 5, 7), (3, 4, 5), (7, 11, 13)):
        assert wi.betti_oracle(triple) == 0
    good = {"presentation": "bp=2,3,7", "betti": 0, "torsion": [], "casson": -1}
    assert wi.census_oracle_failure(good) is None
    assert wi.census_oracle_failure(dict(good, betti=2)) is not None
    assert wi.census_oracle_failure(dict(good, casson=-2)) is not None


# ------------------------------------------------------------ seeded inputs


def test_seeded_lists_are_deterministic():
    pools = wi.load_pools()
    for make, counts in ((wi.queries_list, wi.QUERY_COUNTS), (wi.toric_list, wi.TORIC_COUNTS)):
        assert make(5, pools) == make(5, pools)
        assert make(5, pools) != make(6, pools)
        for seed in (0, 1, 2):
            classes = [item["class"] for item in make(seed, pools)]
            assert {c: classes.count(c) for c in counts} == counts


def test_tail_and_median_fall_inside_one_query_class():
    n = sum(wi.QUERY_COUNTS.values())
    cheap = wi.QUERY_COUNTS["verdict"] + wi.QUERY_COUNTS["casson_family"]
    assert (n - 1) * 0.5 + 1 < cheap
    assert tail_percentile(n) is not None


# -------------------------------------------------------------------- tracing


def test_self_time_excludes_child_spans():
    spans = [["request", 0, None, 0.0, 1.0, False], ["toric.rays", 0, 0, 0.2, 0.5, True]]
    summary = summarize(spans)
    assert summary["request"]["self_s"] == pytest.approx(0.7)
    assert summary["toric.rays"] == {"calls": 1, "busy_s": pytest.approx(0.3), "self_s": pytest.approx(0.3), "errors": 1}


def traced_run():
    pools = wi.load_pools()
    queries = [q for q in wi.queries_list(3, pools)
               if q["class"] in ("verdict", "casson_family", "casson_medium", "moduli", "homology_9")]
    cones = [c for c in wi.toric_list(3, pools) if c["class"] in ("ypq", "conifold", "dP3", "cyclic_4_8")]
    recorder = Recorder()
    for i, text in enumerate(wi.census_enumeration(3, 8)):
        real, replay = ops.census_traced(recorder, i, text)
        assert wi.comparable(replay.to_dict()) == real
    for i, item in enumerate(queries):
        assert wi.check_query(item, ops.query_traced(recorder, i, item)) is None
    for i, item in enumerate(cones):
        assert wi.check_cone(item, ops.solve_cone(recorder, i, item)) is None
    return recorder.counts, [span[:3] for span in recorder.spans]


def test_work_counts_repeat_exactly_across_traced_runs():
    first, second = traced_run(), traced_run()
    assert first == second
    counts = first[0]
    assert set(counts) == set(run.WORK_COUNTS)
    assert all(value > 0 for value in counts.values())


def test_span_names_are_per_layer_calls():
    _, spans = traced_run()
    assert {name for name, _, _ in spans} - {"request"} <= set(run.LAYER_CALLS)


# --------------------------------------------------------------- harness


PROBE = """
import resource, sys
from pathlib import Path
import run
probe = run.Run(Path(sys.argv[1]), "queries", 0)
probe.workdir = Path(sys.argv[1])
big = probe.child([sys.executable, "-c", "b = b'x' * (96 * 2**20)"])
small = probe.child([sys.executable, "-c", "pass"])
children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(big.rss_mb, small.rss_mb, children, big.code, small.code)
"""


def test_wait4_attributes_peak_rss_to_one_child(tmp_path):
    # A child's peak RSS counts the image it was forked from, so the probe
    # runs the two-child sequence from a small interpreter, as run.py is.
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        cwd=wi.BENCH_DIR, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(wi.BENCH_DIR)},
    )
    rss_big, rss_small, children, code_big, code_small = map(float, proc.stdout.split())
    assert code_big == code_small == 0
    assert rss_big > rss_small + 64
    # The process-wide mark over reaped children still reports the first,
    # larger child after the second one has ended.
    assert children >= rss_big - 1


def test_parse_importtime_counts_outermost_entries_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy",
        "import time:       500 |        550 |   scipy.optimize",
        "import time:        10 |        900 | selink",
    ])
    assert run.parse_importtime(text) == pytest.approx(
        {"selink": 900e-6, "numpy": 300e-6, "scipy": 550e-6, "sympy": 0.0}
    )


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

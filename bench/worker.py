"""One pass over a workload's input list in a fresh interpreter.

Run by run.py as a child process, so its wall time and peak RSS belong to
one process.  Prints one JSON object on stdout: per-operation latencies
(plain mode) or the per-layer span summary (traced mode), plus the number
of operations attempted and the failures found by the output checks.

    PYTHONPATH=src python3 bench/worker.py --workload queries --seed 1 \
        --trace 0 --workdir .bench_work/manual
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

import workload_inputs as wi
import workload_ops as ops
from machine_speed import scale, speed_loop_s
from span_trace import NullTracer, Recorder, summarize

# Machine speed is sampled after at least this much operation time, so
# every latency is scaled by the speed measured just before and after it.
SPEED_EVERY_S = 0.05

# Spans that are not stages of run_pipeline, for the pipeline overhead.
_NOT_STAGES = {
    "request",
    "catalog.run_pipeline",
    "catalog.enumerate_bp",
    "catalog.write_catalog",
    "catalog.read_catalog",
    "catalog.export_table",
}


def _items(workload: str, seed: int):
    if workload == "census":
        return wi.census_presentations()
    pools = wi.load_pools()
    return wi.queries_list(seed, pools) if workload == "queries" else wi.toric_list(seed, pools)


def plain_pass(workload: str, items, reference) -> dict:
    """Wall latency of every item, its scale to reference seconds, the speed
    loop times of the pass, and the output-check failures."""
    latencies, scales, failures = [], [], []
    loops = [speed_loop_s()]
    pending, since = 0, 0.0
    for i, item in enumerate(items):
        t0 = perf_counter()
        if workload == "census":
            got = ops.census_plain(item)
        elif workload == "queries":
            got = ops.query_plain(item)
        else:
            got = ops.solve_cone(NullTracer(), i, item)
        latencies.append(perf_counter() - t0)
        if workload == "census":
            failure = wi.check_census_record(i, got, reference)
        elif workload == "queries":
            failure = wi.check_query(item, got)
        else:
            failure = wi.check_cone(item, got)
        if failure:
            failures.append(failure)
        pending += 1
        since += latencies[-1]
        if since >= SPEED_EVERY_S or i == len(items) - 1:
            loops.append(speed_loop_s())
            scales.extend([scale(loops[-2:])] * pending)
            pending, since = 0, 0.0
    return {"latencies": latencies, "scales": scales, "loops": loops, "failures": failures}


def traced_pass(workload: str, items, reference, workdir: Path) -> tuple[list[str], Recorder, float, float]:
    """Every item with spans recorded and, alternately before or after, without.

    Returns the output-check failures, the recorder, and the time spent in
    the untraced and in the traced calls.  Running both forms of one item
    back to back makes their difference the cost of tracing, not of drift
    in machine load between two passes.
    """
    recorder, null = Recorder(), NullTracer()
    clock = {id(recorder): 0.0, id(null): 0.0}

    def both(i, fn, *args):
        order = (null, recorder) if i % 2 == 0 else (recorder, null)
        results = {}
        for tracer in order:
            t0 = perf_counter()
            results[id(tracer)] = fn(tracer, *args)
            clock[id(tracer)] += perf_counter() - t0
        return results[id(recorder)], results[id(null)]

    failures = []
    if workload == "census":
        enumerated, _ = both(0, ops.census_enumerations)
        if enumerated != items:
            failures.append("enumerate_bp order differs from the batch enumeration")
        replayed = []
        for i, text in enumerate(items):
            (real, replay), _ = both(i, ops.census_traced, i, text)
            failure = wi.check_census_record(i, real, reference)
            if failure is None and wi.comparable(replay.to_dict()) != real:
                failure = f"record {i} ({text}): stage replay differs from run_pipeline"
            if failure:
                failures.append(failure)
            replayed.append(replay)
        start = 0
        for length, max_exponent in wi.CENSUS_ENUMS:
            tag = f"{length}_{max_exponent}"
            count = len(wi.census_enumeration(length, max_exponent))
            chunk = replayed[start : start + count]
            start += count
            path = workdir / f"trace_{tag}.jsonl"
            (back, table), _ = both(0, ops.catalog_round_trip, chunk, path)
            if [r.to_dict() for r in back] != [r.to_dict() for r in chunk]:
                failures.append(f"catalog {tag} does not read back as written")
            (workdir / f"expected_{tag}.tsv").write_text(table)
    else:
        op, check = (
            (ops.query_traced, wi.check_query)
            if workload == "queries"
            else (ops.solve_cone, wi.check_cone)
        )
        for i, item in enumerate(items):
            got, untraced = both(i, op, i, item)
            failure = check(item, got) or check(item, untraced)
            if failure:
                failures.append(failure)
    return failures, recorder, clock[id(null)], clock[id(recorder)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("census", "queries", "toric"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    items = _items(args.workload, args.seed)
    reference = wi.load_census_reference() if args.workload == "census" else None
    # The inputs and references are the benchmark's data, not the program's:
    # keep the cyclic garbage collector from walking them during the pass.
    gc.freeze()
    out: dict = {"attempted": len(items)}
    if not args.trace:
        out.update(plain_pass(args.workload, items, reference))
    else:
        failures, recorder, null_s, traced_s = traced_pass(args.workload, items, reference, args.workdir)
        layers = summarize(recorder.spans)
        stage_busy = sum(s["busy_s"] for name, s in layers.items() if name not in _NOT_STAGES)
        run_pipeline = layers.get("catalog.run_pipeline")
        out.update(
            failures=failures,
            layers=layers,
            counts=recorder.counts,
            spans=len(recorder.spans),
            null_pass_s=null_s,
            traced_pass_s=traced_s,
            pipeline_overhead_s=run_pipeline["busy_s"] - stage_busy if run_pipeline else 0.0,
        )
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

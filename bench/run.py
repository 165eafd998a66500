"""selink benchmark: census, queries and toric workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: every operation starts
when the previous one has finished.  The program runs from ``src`` (set as
PYTHONPATH), in child processes so that start-up, wall time and peak RSS
belong to one process each.  Every output is checked (see
workload_inputs.py); a failed check, a non-zero exit or a crash counts as
a failed operation.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is the result
object; the line before it holds machine information and run details.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workload_inputs as wi
from machine_speed import SpeedSampler, scale
from percentiles import median, percentile, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "cli_cold_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

IMPORTED_PACKAGES = ("selink", "numpy", "scipy", "sympy")
LAYER_CALLS = (
    "links.parse_presentation",
    "links.as_link",
    "homology.betti_number",
    "homology.orlik_table",
    "homology.torsion_orders",
    "existence.decide_existence",
    "dimension.smale_name",
    "dimension.table_lookup",
    "dimension.casson_invariant",
    "dimension.moduli_dimension",
    "catalog.enumerate_bp",
    "catalog.run_pipeline",
    "catalog.write_catalog",
    "catalog.read_catalog",
    "catalog.export_table",
    "toric.MomentCone",
    "toric.cone_from_weights",
    "toric.rays",
    "toric.volume",
    "toric.gorenstein_gamma",
    "toric.minimize_volume",
)
WORK_COUNTS = (
    "homology.orlik_table.subset_pairs",
    "dimension.moduli_dimension.dp_cells",
    "dimension.casson_invariant.grid_cells",
    "toric.rays.kernel_solves",
    "toric.minimize_volume.iterations",
)


def per_layer_units() -> dict[str, str]:
    units = {f"import.{pkg}_s": "s" for pkg in IMPORTED_PACKAGES}
    for call in LAYER_CALLS:
        units[f"{call}.calls"] = "count"
        units[f"{call}.busy_s"] = "s"
        units[f"{call}.errors"] = "count"
    units.update({name: "count" for name in WORK_COUNTS})
    units.update(
        {
            "catalog.pipeline_overhead_s": "s",
            "request.self_s": "s",
            "trace.spans": "count",
            "trace.overhead_s": "s",
            "cli.batch_j2.records_per_s": "1/s",
            "cli.export_table.rows_per_s": "1/s",
        }
    )
    return units


PER_LAYER = per_layer_units()

SETUP_REPEATS = 5
CLI_COLD_PER_ROUND = 2
IMPORTTIME_REPEATS = 3
# Every child is killed once the run has lasted this long, so the whole
# run ends within 180 s even when the program hangs.
HARD_LIMIT_S = 170.0

CLI_COLD = {
    "census": ["verdict", "bp=2,3,5"],
    "queries": ["homology", "bp=3,3,3,3,3"],
    "toric": ["toric", "minimize", "{dP3}"],
}
CLI_COLD_EXPECT = {
    "census": "type=positive status=se_exists rule=ghigi_kollar margin=1/30\n",
    "queries": "b=10 torsion=Z/3 proven\n",
}


class Child(NamedTuple):
    """A finished child process."""

    wall_s: float
    scale: float  # wall seconds to reference seconds, see machine_speed.py
    rss_mb: float
    code: int
    out: str
    err: str

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


class Run:
    """One benchmark invocation: its paths, environment and tally of operations."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()
        self.workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.children = 0

    # -------------------------------------------------------- child processes

    def child(self, argv: list[str]) -> Child:
        """Run one child to completion, timing it and sampling machine speed.

        The RSS comes from os.wait4 on this child alone; getrusage's
        RUSAGE_CHILDREN keeps a high-water mark over every child reaped so
        far and cannot attribute memory to one run.  A child's peak also
        counts the image it was forked from, so this process must stay
        smaller than the children it measures; its own peak is reported
        with the run details.
        """
        self.children += 1
        out_path = self.workdir / f"child{self.children}.out"
        err_path = self.workdir / f"child{self.children}.err"
        timeout = max(1.0, HARD_LIMIT_S - (perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err, SpeedSampler() as speed:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall, speed.factor(), usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(), err_path.read_text(),
        )

    def checked_child(self, argv: list[str], label: str) -> Child | None:
        """A child counted as one operation; None when it exits non-zero."""
        self.attempted += 1
        child = self.child(argv)
        if child.code != 0:
            tail = child.err.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: exit {child.code} {tail[0]}")
            return None
        return child

    def python(self, *args: str) -> list[str]:
        return [sys.executable, *args]

    def cli(self, *args: str) -> list[str]:
        return self.python("-m", "selink.cli", *args)

    def worker(self, trace: int):
        argv = self.python(
            str(BENCH_DIR / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--trace", str(trace),
            "--workdir", str(self.workdir),
        )
        child = self.checked_child(argv, f"worker {self.workload}")
        if child is None:
            return None
        report = json.loads(child.out)
        self.attempted += report["attempted"]
        self.failures.extend(report["failures"])
        return child, report

    # ------------------------------------------------------------ operations

    def import_module(self) -> str:
        return "selink.toric" if self.workload == "toric" else "selink.cli"

    def setup_samples(self) -> list[Child]:
        """Fresh-interpreter import of what the workload calls."""
        argv = self.python("-c", f"import {self.import_module()}")
        children = [self.checked_child(argv, "import") for _ in range(SETUP_REPEATS)]
        return [child for child in children if child is not None]

    def cli_cold(self) -> Child | None:
        args = [a.format(dP3=self.workdir / "dP3.txt") for a in CLI_COLD[self.workload]]
        child = self.checked_child(self.cli(*args), "cli " + " ".join(args))
        if child is None:
            return None
        out = child.out
        if self.workload == "toric":
            fields = dict(tok.split("=", 1) for tok in out.split())
            ok = abs(float(fields["volume"]) - wi.FACET_MINIMA["dP3"]) < 1e-10
        else:
            ok = out == CLI_COLD_EXPECT[self.workload]
        if not ok:
            self.failures.append(f"cli {' '.join(args)}: unexpected output {out!r}")
        return child

    def batch(self, jobs: int, reference: list[dict]):
        """`batch` over every census enumeration: its children and catalogs."""
        children, catalogs, offset = [], [], 0
        for length, max_exponent in wi.CENSUS_ENUMS:
            path = self.workdir / f"batch_j{jobs}_{length}_{max_exponent}.jsonl"
            argv = self.cli(
                "batch", "--length", str(length), "--max-exponent", str(max_exponent),
                "--jobs", str(jobs), "-o", str(path),
            )
            child = self.checked_child(argv, f"batch {length},{max_exponent} --jobs {jobs}")
            if child is None:
                return None
            children.append(child)
            count = len(wi.census_enumeration(length, max_exponent))
            self.check_catalog(path, offset, count, reference)
            catalogs.append((path, f"{length}_{max_exponent}"))
            offset += count
        return children, catalogs

    def check_catalog(self, path: Path, offset: int, count: int, reference: list[dict]):
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if header.get("format") != "selink-catalog":
            self.failures.append(f"{path.name}: bad header {header!r}")
        records = [json.loads(line) for line in lines[1:]]
        if len(records) != count:
            self.failures.append(f"{path.name}: {len(records)} records, expected {count}")
        for i, record in enumerate(records):
            self.attempted += 1
            failure = wi.check_census_record(offset + i, record, reference)
            if failure:
                self.failures.append(failure)

    def export_tables(self, catalogs) -> float:
        """export-table on each catalog, checked against the in-process export."""
        total = 0.0
        for path, tag in catalogs:
            tsv = self.workdir / f"export_{tag}.tsv"
            argv = self.cli("export-table", str(path), "-o", str(tsv))
            child = self.checked_child(argv, f"export-table {tag}")
            if child is None:
                continue
            total += child.wall_s
            if tsv.read_text() != (self.workdir / f"expected_{tag}.tsv").read_text():
                self.failures.append(f"export-table {tag}: output differs from export_table()")
        return total

    def import_times(self) -> dict[str, list[float]]:
        """Cumulative import time per package, from -X importtime."""
        samples: dict[str, list[float]] = {pkg: [] for pkg in IMPORTED_PACKAGES}
        argv = self.python("-X", "importtime", "-c", f"import {self.import_module()}")
        for _ in range(IMPORTTIME_REPEATS):
            child = self.checked_child(argv, "import -X importtime")
            if child is not None:
                for pkg, seconds in parse_importtime(child.err).items():
                    samples[pkg].append(seconds)
        return samples


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing each package in IMPORTED_PACKAGES.

    -X importtime prints nested imports before the import that caused them,
    indented two spaces deeper.  A package's time is the cumulative time of
    its outermost entries, those not nested in another entry of the same
    package.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1])))
    totals = {pkg: 0.0 for pkg in IMPORTED_PACKAGES}
    enclosing: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        top = name.split(".")[0]
        if top in totals and all(outer.split(".")[0] != top for _, outer in enclosing):
            totals[top] += cumulative / 1e6
        enclosing.append((depth, name))
    return totals


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_info() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **versions,
    }


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, untraced, in reference seconds (see machine_speed.py)."""
    reference = wi.load_census_reference() if run.workload == "census" else None
    setup = run.setup_samples()
    cold, latencies, raw_latencies, throughput, rss, per_pass = [], [], [], [], [], None
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        rounds += 1
        for _ in range(CLI_COLD_PER_ROUND):
            child = run.cli_cold()
            if child is not None:
                cold.append(child)
        if run.workload == "census":
            batch = run.batch(1, reference)
            if batch is not None:
                children = batch[0]
                throughput.append(len(reference) / sum(c.ref_s for c in children))
                rss.append(max(c.rss_mb for c in children))
        worker = run.worker(trace=0)
        if worker is not None:
            child, report = worker
            per_pass = len(report["latencies"])
            raw_latencies.extend(report["latencies"])
            latencies.extend(t * f for t, f in zip(report["latencies"], report["scales"]))
            if run.workload != "census":
                # The speed loops timed between operations inside the
                # worker track its speed better than samples taken beside it.
                throughput.append(per_pass / (child.wall_s * scale(report["loops"])))
                rss.append(child.rss_mb)
    tail_p = tail_percentile(per_pass or 0)

    def med(children, attr="ref_s"):
        return median([getattr(c, attr) for c in children]) if children else None

    metrics = {
        "setup_s": med(setup),
        "cli_cold_s": med(cold),
        "op_p50_s": percentile(latencies, 50) if latencies else None,
        "op_tail_s": percentile(latencies, tail_p) if latencies and tail_p else None,
        "throughput_per_s": median(throughput) if throughput else None,
        "peak_rss_mb": median(rss) if rss else None,
    }
    details = {
        "rounds": rounds,
        "setup_wall_s": [c.wall_s for c in setup],
        "cli_cold_wall_s": [c.wall_s for c in cold],
        "scales": [c.scale for c in setup + cold],
        "ops_per_pass": per_pass,
        "latency_samples": len(latencies),
        "tail_percentile": tail_p,
        "wall_medians": {
            "setup_s": med(setup, "wall_s"),
            "cli_cold_s": med(cold, "wall_s"),
            "op_p50_s": percentile(raw_latencies, 50) if raw_latencies else None,
            "op_tail_s": percentile(raw_latencies, tail_p) if raw_latencies and tail_p else None,
        },
        "throughput_samples": throughput,
        "rss_samples_mb": rss,
    }
    return metrics, details


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run."""
    imports = run.import_times()
    metrics = {f"import.{pkg}_s": median(v) if v else None for pkg, v in imports.items()}
    reference = wi.load_census_reference() if run.workload == "census" else None
    reports, j2_rates, export_rates = [], [], []
    deadline = perf_counter() + seconds
    while not reports or perf_counter() < deadline:
        worker = run.worker(trace=1)
        if worker is None:
            break
        reports.append(worker[1])
        if run.workload == "census":
            batch = run.batch(2, reference)
            if batch is not None:
                j2_rates.append(len(reference) / sum(c.wall_s for c in batch[0]))
                export_s = run.export_tables(batch[1])
                if export_s > 0:
                    export_rates.append(len(reference) / export_s)
    if not reports:
        return metrics, {"rounds": 0}
    first = reports[0]
    for report in reports[1:]:
        if report["counts"] != first["counts"] or report["spans"] != first["spans"]:
            run.failures.append("work counts differ between traced passes")

    def median_of(stat):
        return median([stat(r) for r in reports])

    for call in LAYER_CALLS:
        stat = first["layers"].get(call, {})
        metrics[f"{call}.calls"] = stat.get("calls", 0)
        metrics[f"{call}.busy_s"] = median_of(lambda r: r["layers"].get(call, {}).get("busy_s", 0.0))
        metrics[f"{call}.errors"] = stat.get("errors", 0)
    for name in WORK_COUNTS:
        metrics[name] = first["counts"].get(name, 0)
    metrics["catalog.pipeline_overhead_s"] = median_of(lambda r: r["pipeline_overhead_s"])
    metrics["request.self_s"] = median_of(lambda r: r["layers"].get("request", {}).get("self_s", 0.0))
    metrics["trace.spans"] = first["spans"]
    metrics["trace.overhead_s"] = median_of(lambda r: r["traced_pass_s"] - r["null_pass_s"])
    metrics["cli.batch_j2.records_per_s"] = median(j2_rates) if j2_rates else 0.0
    metrics["cli.export_table.rows_per_s"] = median(export_rates) if export_rates else 0.0
    details = {
        "rounds": len(reports),
        "import_samples_s": imports,
        "null_pass_s": [r["null_pass_s"] for r in reports],
        "traced_pass_s": [r["traced_pass_s"] for r in reports],
        "self_s": {name: stat["self_s"] for name, stat in first["layers"].items()},
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("census", "queries", "toric"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "selink" / "__init__.py").is_file():
        print(f"error: no selink sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    run.workdir.mkdir(parents=True, exist_ok=True)
    info = {"machine": machine_info(), "loadavg_start": loadavg()}
    try:
        if args.workload == "toric":
            normals = wi.FACET_CONES["dP3"]
            (run.workdir / "dP3.txt").write_text("\n".join(" ".join(map(str, n)) for n in normals) + "\n")
        if args.trace:
            metrics, details = measure_traced(run, args.seconds)
            units = PER_LAYER
        else:
            metrics, details = measure(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass
    for name in units:
        if name != "ok_ratio" and metrics.get(name) is None:
            run.failures.append(f"metric {name} could not be measured")
    attempted = max(run.attempted, 1)
    if not args.trace:
        metrics["ok_ratio"] = (attempted - len(run.failures)) / attempted
    details["harness_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info.update(loadavg_end=loadavg(), details=details, failures=run.failures[:20])
    print(json.dumps(info))
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": metrics[name] if metrics.get(name) is not None else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""msulab benchmark: time to curve (and to measures, and to m*) per workload.

    python3 bench/run.py --workload mc-small-m [--seed 20170707] [--seconds 15] [--trace 0|1]

Workloads are listed in BENCHMARK.json and defined in workloads.py. One run
is one single-threaded process that:

1. times several cold set-ups in child processes (`setup_s`, trace 0 only);
2. sets the workload up itself, then repeats its unit of work until
   `--seconds` have passed, checking every unit's outputs;
3. prints machine facts, each metric by name and unit, an output digest,
   and last a JSON line {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
run alternates plain and traced units; the traced ones wrap each msulab
layer boundary (layers.py) and give per-layer calls, self time and counts,
reported per unit, plus the tracer's own cost as `trace.overhead_ratio`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded numpy: set before the first import of numpy below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import layers  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
WORKDIR = CHECKOUT / ".bench_work"
SETUP_PROBES = 5

# name -> unit of every metric a plain run reports
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_workloads():
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import msulab from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads


def per_layer_metrics() -> dict[str, str]:
    """Every metric a traced run reports, name -> unit."""
    metrics: dict[str, str] = {}
    for span in layers.SPANS:
        metrics[f"{span}.calls"] = "count"
        metrics[f"{span}.self_s"] = "s"
    for counter in layers.COUNTERS:
        metrics[counter] = "bytes" if counter.endswith("bytes_computed") else "count"
    metrics["sample.joint_counts.distinct_ratio"] = "ratio"
    metrics["trace.wall_s"] = "s"
    metrics["trace.unattributed_s"] = "s"
    metrics["trace.overhead_ratio"] = "ratio"
    return metrics


def machine_facts() -> dict:
    import numpy
    import scipy

    import msulab

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "msulab": msulab.__version__,
        "git_commit": git_commit(CHECKOUT),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def probe_setup(workloads, name: str, seed: int) -> None:
    """Child side of a set-up probe: set up, then print the clock."""
    WORKDIR.mkdir(exist_ok=True)
    workloads.WORKLOADS[name](seed, WORKDIR)
    print(time.perf_counter(), flush=True)


def time_setups(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Cold-process set-up times, child start to its first timed call:
    (raw, scaled to an unloaded host)."""
    times, scaled = [], []
    before = speed.probe(speed.SETUP_WEIGHTS)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]) - start)
        after = speed.probe(speed.SETUP_WEIGHTS)
        scaled.append(speed.scale(times[-1], [before, after]))
        before = after
    return times, scaled


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that the speed
    probes time the CPU the work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Checker:
    """Counts failed operations of each unit against the expected outputs."""

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.weights = workload.keys()
        self.expected = None if reference is None else reference["outputs"]
        self.against = "reference" if reference is not None else "first unit"
        self.problems = [] if reference is None else workload.input_problems(reference)
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, outputs: dict[str, str] | None) -> None:
        wl = self.workload
        self.attempted += sum(self.weights.values())
        if outputs is None:
            self.failed += sum(self.weights.values())
            return
        prints = {key: wl.fingerprint(text) for key, text in outputs.items()}
        failures = {"are not operations of the workload": set(outputs) - set(self.weights)}
        if self.first is None:
            self.first = prints
            failures["fail the reference-free checks"] = wl.validate(outputs)
            if self.expected is None:
                self.expected = prints
        failures[f"differ from the {self.against}"] = {
            key for key in self.weights if prints.get(key) != self.expected.get(key)
        }
        for what, keys in failures.items():
            if keys:
                shown = ", ".join(sorted(keys)[:5])
                self.problems.append(f"{len(keys)} outputs {what}: {shown}")
        bad = set().union(*failures.values())
        self.failed += sum(self.weights.get(key, 1) for key in bad)

    def digest(self) -> str:
        text = json.dumps(self.first or {}, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def run_unit(unit):
    """Call one unit: (wall seconds, outputs, or None if it raised)."""
    start = time.perf_counter()
    try:
        outputs = unit()
    except Exception:  # a failing unit is counted as failed ops, and the run goes on
        traceback.print_exc()
        outputs = None
    return time.perf_counter() - start, outputs


def measure(workload, checker: Checker, seconds: float) -> tuple[list[float], list[float]]:
    """Units until `seconds` pass: (raw walls, walls scaled to an unloaded host)."""
    walls, scaled = [], []
    before = speed.probe(workload.speed_weights)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        with speed.Sampler(workload.speed_weights) as sampler:
            wall, outputs = run_unit(workload.unit)
        after = speed.probe(workload.speed_weights)
        checker.check(outputs)
        walls.append(wall)
        scaled.append(speed.scale(wall - sampler.spent, [before, *sampler.samples, after]))
        before = after
    return walls, scaled


def measure_traced(workload, checker: Checker, seconds: float):
    """After a warm-up unit, alternate plain and traced units: (plain walls,
    traced walls, per-unit layer numbers, unmeasured names with reasons)."""
    spans = tracer.Tracer()
    plain, traced, units = [], [], []
    # One untimed unit first, so first-call costs do not skew the plain/traced ratio.
    checker.check(run_unit(workload.unit)[1])
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, outputs = run_unit(workload.unit)
        checker.check(outputs)
        plain.append(wall)

        spans.reset()
        histograms = layers.install(spans)
        try:
            wall, outputs = run_unit(spans.wrap(tracer.ROOT, workload.unit))
        finally:
            spans.restore()
        checker.check(outputs)
        traced.append(wall)

        stats = spans.stats()
        unit: dict[str, float] = {}
        for span in layers.SPANS:
            found = stats.get(span, tracer.SpanStats(0, 0.0))
            unit[f"{span}.calls"] = found.calls
            unit[f"{span}.self_s"] = found.self_s
        for counter in layers.COUNTERS:
            unit[counter] = spans.counts.get(counter, 0)
        keyed = unit["sample.joint_counts.calls"]
        # No joint_counts call keys no histogram: the ratio reads 0, not undefined.
        unit["sample.joint_counts.distinct_ratio"] = histograms.distinct / keyed if keyed else 0.0
        _, root_start, root_end, _ = next(s for s in spans.spans if s and s[0] == tracer.ROOT)
        unit["trace.wall_s"] = root_end - root_start
        unit["trace.unattributed_s"] = stats[tracer.ROOT].self_s
        units.append(unit)
    for site in sorted(set(spans.missing_sites)):
        print(f"# trace site not found, calls through it are not traced: {site}")
    return plain, traced, units, dict(spans.unmeasured)


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    if isinstance(value, int):
        shown = f"{value} {unit}"
    else:
        shown = f"{value:.6g} {unit}"
    print(f"metric {name} = {shown}{'  (' + note + ')' if note else ''}")


def _spread(values: list[float]) -> str:
    return f"median of {len(values)} units; min {min(values):.4f}, max {max(values):.4f}"


def run_plain(workload, checker: Checker, seconds: float, setups) -> dict:
    """End-to-end metrics of an untraced run. Times are scaled to an
    unloaded host (speed.py); the raw medians are printed next to them."""
    raw_setups, setups = setups
    raw_walls, walls = measure(workload, checker, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls)
    ops = sum(checker.weights.values())
    values = {
        "setup_s": (
            statistics.median(setups),
            f"median of {len(setups)} cold processes; raw {statistics.median(raw_setups):.4f} s",
        ),
        "wall_s": (wall, f"{_spread(walls)}; raw {statistics.median(raw_walls):.4f} s"),
        "ops_per_s": (ops / wall, f"{ops} ops per unit over the median unit"),
        "peak_rss_mb": (peak_mb, "peak resident set of this process"),
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        value, note = values[name]
        _print_metric(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_traced(workload, checker: Checker, seconds: float) -> dict:
    """Per-layer metrics: per traced unit, mean over the run's traced units."""
    plain, traced, units, unmeasured = measure_traced(workload, checker, seconds)
    for name, why in sorted(unmeasured.items()):
        print(f"# unmeasured {name}: {why}")
    metrics = {}
    for name, unit in per_layer_metrics().items():
        note = ""
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain)
        elif _is_unmeasured(name, unmeasured):
            # The result line holds numbers only; the note says this 0 is "not traced".
            value, note = 0, "unmeasured"
        else:
            series = [u[name] for u in units]
            value = statistics.fmean(series)
            if unit in ("count", "bytes"):
                if len(set(series)) > 1:
                    print(f"warning: {name} did not repeat across units: {series}", file=sys.stderr)
                elif value.is_integer():
                    value = int(value)
        _print_metric(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}
    layer_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    print(f"# traced wall_s {metrics['trace.wall_s']['value']:.6f} = layer self times "
          f"{layer_sum:.6f} + unattributed {metrics['trace.unattributed_s']['value']:.6f} "
          f"(per traced unit, mean of {len(units)})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20170707)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        probe_setup(workloads, args.workload, args.seed)
        return 0

    facts = machine_facts()
    facts["pinned_cpu"] = pin_to_one_cpu()
    print("# machine " + json.dumps(facts, sort_keys=True))
    setups = time_setups(args.workload, args.seed) if args.trace == 0 else None
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    checker = Checker(workload, workloads.load_reference(workload))
    print(f"# workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"# outputs checked against the {checker.against}"
          + ("" if checker.against == "reference" else " and reference-free checks"))

    try:
        if args.trace == 0:
            metrics = run_plain(workload, checker, args.seconds, setups)
        else:
            metrics = run_traced(workload, checker, args.seconds)
    finally:
        workload.close()

    failed, attempted = checker.failed, checker.attempted
    for problem in checker.problems:
        print(f"error: {problem}", file=sys.stderr)
    print(f"metric error_rate = {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
    print(f"# outputs sha256 {checker.digest()} ({len(checker.weights)} outputs per unit)")
    result = {
        "correct": failed == 0 and not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _is_unmeasured(metric: str, unmeasured: dict) -> bool:
    span = layers.COUNTERS.get(metric) or metric.rsplit(".", 1)[0]
    counted = not metric.endswith((".calls", ".self_s"))
    return span in unmeasured or (counted and tracer.counter_name(span) in unmeasured)


if __name__ == "__main__":
    sys.exit(main())

"""Compare two checkouts on benchmark workloads or presets, in interleaved pairs of runs.

    python3 tools/bench_pairs.py BEFORE AFTER --workload measure-csv [--workload mc-small-m ...]
        [--seconds 4] [--seed N] [--pairs 10] [--metric wall_s]
    python3 tools/bench_pairs.py BEFORE AFTER --presets fig-b2,fig-e2 [--replicates 100]
        [--seed N] [--pairs 10]

For each workload in turn, each pair runs
`python3 bench/run.py --workload W --seconds S [--seed N]` once in each
checkout, one after the other; the side that runs first alternates from pair
to pair, so a drift of the host's speed falls on both sides alike. Each
run's result is the JSON line that `bench/run.py` prints last. For each side
this prints the `--metric` (`wall_s` unless named) of every run, their
median and quartiles, and how many pairs that side won (the better value,
in the metric's `better` direction where BEFORE's `BENCHMARK.json` declares
one, else the lower), and the median of each other metric the runs report;
then the gap between the two medians. Then, for each end-to-end metric that
BEFORE's `BENCHMARK.json` declares, it prints AFTER's median against BEFORE's and
flags it where it is worse, in the metric's `better` direction, by more
than the metric's `bound`; last, every run that reported `correct: false`,
failed ops, no result at all, or no value of the metric compared. The
script itself writes no file.

With `--presets`, each pair runs one child process in each checkout, the
side that runs first alternating as above. The child imports msulab from
the checkout's `src/` and pins itself to one CPU, the same one on both
sides. It runs each named preset once at one replicate, untimed, and then
times `run_experiment` in process at `--replicates` replicates (100 unless
given) and the preset's own seed unless `--seed` is given: `ROUNDS` (3)
rounds, each timing every preset once, in order, so a slow stretch of the
host falls on one round rather than on one preset. Each preset's result
line gives its least time of the rounds as the metric
`wall_s_per_replicate`, the wall time of a run over its replicates, and raw
as `wall_s`, every round's time per replicate (`timings`), and the
`replicates` and `master_seed` it ran at. This child is the one timer of a
preset: `tools/bench_file.py` takes its preset times from it too. For each
preset this prints the same report on `wall_s_per_replicate`, shown in ms.
Giving BEFORE twice, as both checkouts, prints the A/A floor: the gap and
the spread that two runs of the same code show on this host, to quote
beside any gap between two different checkouts.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
# Rounds of timings a `--presets` child takes of each preset; it reports the least.
ROUNDS = 3
# The child of `--presets`, and the only timer of a preset: argv is the CPU,
# the rounds, the replicates, the seed ("" for each preset's own) and the
# presets; it prints one result line a preset, once every round is done.
PRESET_TIMER = """
import dataclasses, json, os, sys, time
cpu, rounds, replicates, seed, *names = sys.argv[1:]
os.sched_setaffinity(0, {int(cpu)})
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from msulab import preset, run_experiment
replicates = int(replicates)
configs = {}
for name in names:
    config = dataclasses.replace(preset(name), replicates=replicates)
    run_experiment(dataclasses.replace(config, replicates=1))  # first calls pay for lazy imports: untimed
    configs[name] = dataclasses.replace(config, master_seed=int(seed)) if seed else config
walls = {name: [] for name in names}
for _ in range(int(rounds)):
    for name, config in configs.items():
        start = time.perf_counter()
        run_experiment(config)
        walls[name].append(time.perf_counter() - start)
for name, config in configs.items():
    timings = [wall / replicates for wall in walls[name]]
    metrics = {"wall_s_per_replicate": {"value": min(walls[name]) / replicates, "unit": "s"}}
    print(json.dumps({"preset": name, "correct": True, "failed": 0, "replicates": replicates,
        "master_seed": config.master_seed, "wall_s": min(walls[name]), "timings": timings, "metrics": metrics}))
"""


def result_of(stdout: str) -> dict | None:
    """The result a `bench/run.py` run printed last: its last line that is a
    JSON object with `metrics`; None if there is none."""
    for line in reversed(stdout.splitlines()):
        try:
            result = json.loads(line)
        except ValueError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    return None


def metric(result: dict | None, name: str) -> float | None:
    """A result's value of the metric `name`, None if it has none."""
    try:
        return float(result["metrics"][name]["value"])
    except (TypeError, KeyError, ValueError):
        return None


def problem(result: dict | None, timed: str = "wall_s") -> str | None:
    """Why a run's result is not a clean one, None if it is: `timed` names
    the metric it must report."""
    if result is None:
        return "no result line"
    if metric(result, timed) is None:
        return f"no {timed}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return f"correct: {json.dumps(result.get('correct'))}, {result.get('failed')} failed ops"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(
    pairs: list[tuple[dict | None, dict | None]], end_to_end: list[dict] = (), compared: str = "wall_s"
) -> list[str]:
    """The report of (before, after) result pairs, one line a list entry;
    `end_to_end` is the metric list of `BENCHMARK.json` whose bounds are
    checked (`bound_checks`), and `compared` the metric whose pairs are won,
    shown in ms where the runs give its unit as seconds."""
    lines = []
    lower = next((spec["better"] for spec in end_to_end if spec["name"] == compared), "lower") == "lower"
    units = {(result or {}).get("metrics", {}).get(compared, {}).get("unit") for pair in pairs for result in pair}
    scale, unit, label = (1e3, " ms", f"{compared} (ms)") if "s" in units else (1, "", compared)
    values = {side: [metric(pair[i], compared) for pair in pairs] for i, side in enumerate(SIDES)}
    won = {side: 0 for side in SIDES}
    for before, after in zip(values["before"], values["after"]):
        if before is not None and after is not None and before != after:
            won["before" if (before < after) == lower else "after"] += 1
    medians = {}
    for index, side in enumerate(SIDES):
        shown = " ".join("-" if v is None else f"{v * scale:.2f}" for v in values[side])
        lines.append(f"{side} {label}, pair by pair: {shown}")
        clean = [v for v in values[side] if v is not None]
        if clean:
            q1, medians[side], q3 = quartiles(clean)
            lines.append(
                f"{side}: median {medians[side] * scale:.2f}{unit}, quartiles {q1 * scale:.2f}-{q3 * scale:.2f}{unit}"
                f" (IQR {(q3 - q1) * scale:.2f}{unit}), won {won[side]} of {len(pairs)} pairs"
            )
        else:
            lines.append(f"{side}: no run reported {compared}")
        others = {}  # every other metric the runs report, by name
        for result in (pair[index] for pair in pairs):
            for name, reported in (result or {}).get("metrics", {}).items():
                if name != compared:
                    others.setdefault(name, []).append(reported["value"])
        if others:
            shown = ", ".join(f"{name} {statistics.median(v):.4g}" for name, v in sorted(others.items()))
            lines.append(f"{side} medians: {shown}")
    if len(medians) == 2:
        gap = medians["before"] - medians["after"]
        lines.append(f"median gap (before - after): {gap * scale:.2f}{unit} ({gap / medians['before']:+.1%} of before)")
    lines += bound_checks(pairs, end_to_end)
    for i, pair in enumerate(pairs, 1):
        for side, result in zip(SIDES, pair):
            if (why := problem(result, compared)) is not None:
                lines.append(f"problem: pair {i}, {side}: {why}")
    return lines


def bound_checks(pairs: list[tuple[dict | None, dict | None]], end_to_end: list[dict]) -> list[str]:
    """One line per metric of `end_to_end` (each a `BENCHMARK.json` entry with
    `name`, `unit`, `better` and `bound`): the after median against the
    before median, flagged where it is worse, in the `better` direction, by
    more than `bound`, a fraction of the before median."""
    lines = []
    for spec in end_to_end:
        name, unit, bound = spec["name"], spec["unit"], spec["bound"]
        medians = []
        for side in range(2):
            values = [v for pair in pairs if (v := metric(pair[side], name)) is not None]
            medians.append(statistics.median(values) if values else None)
        before, after = medians
        if before is None or after is None:
            lines.append(f"bound {name}: not reported by both sides")
            continue
        worse = after - before if spec["better"] == "lower" else before - after
        change = f" ({(after - before) / before:+.1%})" if before else ""
        verdict = f"WORSE by more than its bound {bound:.0%}" if worse > bound * abs(before) else "within its bound"
        lines.append(f"bound {name}: median {before:.4g} -> {after:.4g} {unit}{change}, {spec['better']} is better: {verdict}")
    return lines


def run(checkout: Path, workload: str, seconds: float, seed: int | None) -> dict | None:
    """One `bench/run.py` run in `checkout`, and its result line."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        print(f"# {checkout}: exit {done.returncode}: {done.stderr.strip()[-500:]}", file=sys.stderr)
    return result_of(done.stdout)


def time_presets(checkout: Path, presets: list[str], replicates: int, seed: int | None, cpu: int) -> list[dict | None]:
    """One `PRESET_TIMER` child in `checkout`, and each preset's result line
    (None where it printed none)."""
    command = [sys.executable, "-c", PRESET_TIMER, str(cpu), str(ROUNDS), str(replicates)]
    command.append("" if seed is None else str(seed))
    threads = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads}
    done = subprocess.run(command + presets, cwd=checkout, capture_output=True, text=True, env=env)
    if done.returncode:
        print(f"# {checkout}: exit {done.returncode}: {done.stderr.strip()[-500:]}", file=sys.stderr)
    results = {}
    for line in done.stdout.splitlines():
        result = result_of(line)
        if result is not None:
            results[result.get("preset")] = result
    return [results.get(name) for name in presets]


def interleaved(pairs: int, timed, label: str, shown) -> list[tuple]:
    """`pairs` pairs of (BEFORE's, AFTER's) results of `timed(side)`, the
    side that runs first alternating from pair to pair; each pair is shown
    on stderr, as `shown` gives its results."""
    done = []
    for i in range(pairs):
        results = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            results[side] = timed(side)
        done.append(tuple(results))
        print(f"# {label} pair {i + 1} of {pairs}: {shown(results)}", file=sys.stderr, flush=True)
    return done


def _ms(result: dict | None, name: str) -> str:
    value = metric(result, name)
    return "-" if value is None else f"{value * 1e3:.2f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="the checkout compared against")
    parser.add_argument("after", type=Path, help="the checkout with the change")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", action="append", help="a workload; repeat for several")
    what.add_argument("--presets", help="comma-separated presets, timed in process")
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--replicates", type=int, default=100, help="replicates a preset run (default 100)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="wall_s", help="the metric whose pairs are won (default wall_s)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.replicates < 1:
        parser.error("--replicates must be at least 1")
    checkouts = (args.before.resolve(), args.after.resolve())
    for checkout in checkouts:
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{checkout} holds no bench/run.py")
    seed = "default" if args.seed is None else args.seed
    if args.presets is not None:
        presets = [name for name in args.presets.split(",") if name]
        cpu = min(os.sched_getaffinity(0))
        runs = interleaved(
            args.pairs,
            lambda side: time_presets(checkouts[side], presets, args.replicates, args.seed, cpu),
            "presets",
            lambda results: ", ".join(
                f"{name} {_ms(b, 'wall_s_per_replicate')} vs {_ms(a, 'wall_s_per_replicate')}"
                for name, b, a in zip(presets, *results)
            ) + " ms a replicate",
        )
        for j, name in enumerate(presets):
            print(f"preset {name}, {args.replicates} replicates a run, seed {seed}, pinned to CPU {cpu}")
            pairs = [(before[j], after[j]) for before, after in runs]
            print("\n".join(summary(pairs, [], "wall_s_per_replicate")), flush=True)
        return 0
    try:
        end_to_end = json.loads((args.before / "BENCHMARK.json").read_text())["end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot read the end-to-end metrics of {args.before / 'BENCHMARK.json'}: {exc}")
    for workload in args.workload:
        pairs = interleaved(
            args.pairs,
            lambda side: run(checkouts[side], workload, args.seconds, args.seed),
            workload,
            lambda results: " vs ".join(_ms(result, "wall_s") for result in results) + " ms",
        )
        print(f"workload {workload}, {args.seconds} s a run, seed {seed}")
        print("\n".join(summary(pairs, end_to_end, args.metric)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

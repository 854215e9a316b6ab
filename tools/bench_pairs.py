"""Compare two checkouts on benchmark workloads, in interleaved pairs of runs.

    python3 tools/bench_pairs.py BEFORE AFTER --workload measure-csv [--workload mc-small-m ...]
        [--seconds 4] [--seed N] [--pairs 10] [--metric wall_s]

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
failed ops, or no result at all. The script itself writes no file.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")


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


def wall_s(result: dict | None) -> float | None:
    """A result's `wall_s` in seconds, None if it has none."""
    return metric(result, "wall_s")


def problem(result: dict | None) -> str | None:
    """Why a run's result is not a clean one, None if it is."""
    if result is None:
        return "no result line"
    if wall_s(result) is None:
        return "no wall_s"
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
            if (why := problem(result)) is not None:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="the checkout compared against")
    parser.add_argument("after", type=Path, help="the checkout with the change")
    parser.add_argument("--workload", required=True, action="append", help="a workload; repeat for several")
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="wall_s", help="the metric whose pairs are won (default wall_s)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.before, args.after):
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{checkout} holds no bench/run.py")
    try:
        end_to_end = json.loads((args.before / "BENCHMARK.json").read_text())["end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot read the end-to-end metrics of {args.before / 'BENCHMARK.json'}: {exc}")
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)  # which side runs first alternates
            results: list[dict | None] = [None, None]
            for side in order:
                checkout = (args.before, args.after)[side]
                results[side] = run(checkout.resolve(), workload, args.seconds, args.seed)
            pairs.append((results[0], results[1]))
            walls = " vs ".join("-" if wall_s(r) is None else f"{wall_s(r) * 1e3:.2f}" for r in results)
            print(f"# {workload} pair {i + 1} of {args.pairs}: {walls} ms", file=sys.stderr, flush=True)
        print(f"workload {workload}, {args.seconds} s a run, seed {args.seed if args.seed is not None else 'default'}")
        print("\n".join(summary(pairs, end_to_end, args.metric)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

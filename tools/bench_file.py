"""Write a BENCH file: every benchmark workload's result and each preset's
wall time per replicate, with where and how they were measured.

    python3 tools/bench_file.py BENCH_36.json

For each workload in `BENCHMARK.json`, in its order, this runs
`python3 bench/run.py --workload W --seconds S` in this checkout, S being
`BENCHMARK.json`'s `run_seconds`, and keeps the JSON result line the run
prints last (`bench_pairs.run`). A run that `bench_pairs.problem` flags (no
result, `correct: false` or failed ops) is refused: the script names it,
exits 1 and writes nothing.

Then it pins itself to one CPU (`os.sched_setaffinity`) and times
`run_experiment` in process, at each preset's own seed and a fixed replicate
count (`PRESET_REPLICATES`), as a `bench_pairs.py --presets` child does:
`bench_pairs.ROUNDS` rounds, each timing every preset once, in order, so a
slow stretch of the host falls on one round rather than on one preset. Each
preset's record is its least wall time of the rounds, and per replicate,
with every round's time per replicate listed beside it (`timings`). Each
preset first runs once at one replicate, untimed, so its time carries no
first-call costs (lazy imports, caches). Last it records
the commit, whether the tree differs from it, the git tree id of `src/` as
measured (uncommitted edits to tracked files included, by `git stash
create`), Python, NumPy and the CPU count, and writes the file. The tree id ties the file to its code: it equals
`git rev-parse C:src` for any commit C whose `src/` is the code measured.
Standard library plus msulab from `src/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Mapping

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path.insert(0, str(TOOLS))
import bench_pairs  # noqa: E402

# preset -> replicates it is timed at: the acceptance and small-m presets at
# 20, the large-m ones, whose datasets hold millions of cells, at 3
PRESET_REPLICATES = {
    "fig-b2": 20, "fig-f1": 20, "fig-f2": 20, "fig-g": 20, "fig-h": 3, "fig-xor-2": 3, "fig-xor-4": 3,
}


def workload_results(results: Mapping[str, dict | None]) -> dict[str, dict]:
    """Each workload's result line (workload -> the line, None where the run
    printed none); ValueError names every run that is not clean."""
    refused = [f"{workload}: {why}" for workload, result in results.items() if (why := bench_pairs.problem(result))]
    if refused:
        raise ValueError("refused: " + "; ".join(refused))
    return dict(results)


def preset_times(replicates: Mapping[str, int]) -> dict[str, dict]:
    """Each preset's least wall time of `bench_pairs.ROUNDS` rounds at its
    replicate count, in this process, after an untimed run at one
    replicate; each round times every preset once, in order."""
    sys.path.insert(0, str(ROOT / "src"))
    from msulab import preset, run_experiment

    configs = {}
    for name, count in replicates.items():
        run_experiment(dataclasses.replace(preset(name), replicates=1))  # first-call costs: untimed
        configs[name] = dataclasses.replace(preset(name), replicates=count)
    walls = {name: [] for name in configs}
    for _ in range(bench_pairs.ROUNDS):
        for name, config in configs.items():
            start = time.perf_counter()
            run_experiment(config)
            walls[name].append(time.perf_counter() - start)
            print(f"# {name}: {config.replicates} replicates in {walls[name][-1]:.3f} s", file=sys.stderr, flush=True)
    return {
        name: {
            "replicates": config.replicates, "master_seed": config.master_seed, "wall_s": min(walls[name]),
            "wall_s_per_replicate": min(walls[name]) / config.replicates,
            "timings": [wall / config.replicates for wall in walls[name]],
        }
        for name, config in configs.items()
    }


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(cpu: int) -> dict:
    """Where the numbers were measured: commit, interpreter, NumPy, CPUs."""
    import numpy

    return {
        "commit": _git("rev-parse", "HEAD"),
        "tree_differs_from_commit": _git("status", "--porcelain", "--untracked-files=no") != "",
        "src_tree": _git("rev-parse", f"{_git('stash', 'create') or 'HEAD'}:src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "presets_pinned_to_cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the BENCH file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {}
    for entry in spec["workloads"]:
        print(f"# {entry['name']}: {seconds} s", file=sys.stderr, flush=True)
        results[entry["name"]] = bench_pairs.run(ROOT, entry["name"], seconds, None)
    try:
        workloads = workload_results(results)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before NumPy is first imported here
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    document = {
        "command": f"python3 tools/bench_file.py {args.out.name}",
        "workload_seconds": seconds,
        "workloads": workloads,
        "presets": preset_times(PRESET_REPLICATES),
        "provenance": provenance(cpu),
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write a BENCH file: every benchmark workload's result and each preset's
wall time per replicate, with where and how they were measured.

    python3 tools/bench_file.py BENCH_36.json

For each workload in `BENCHMARK.json`, in its order, this runs
`python3 bench/run.py --workload W --seconds S` in this checkout, S being
`BENCHMARK.json`'s `run_seconds`, and keeps the JSON result line the run
prints last (`bench_pairs.run`). A run that `bench_pairs.problem` flags (no
result, `correct: false` or failed ops) is refused: the script names it,
exits 1 and writes nothing.

Then it times the presets of `PRESET_REPLICATES`, each at its own seed
and replicate count, with `bench_pairs.time_presets`: one `--presets` child
of `tools/bench_pairs.py` per count, pinned to this process's first CPU,
which times them as that tool's docstring says. Each preset's record is
copied from the child's result line: `replicates`, `master_seed`, `wall_s`,
`wall_s_per_replicate` and `timings`. A preset without a clean result is
refused as a workload run is. Last it records the commit, whether the tree
differs from it, the git tree id of `src/` as measured (uncommitted edits
to tracked files included, by `git stash create`), Python, NumPy and the
CPU count, and writes the file. The tree id ties the file to its code: it
equals `git rev-parse C:src` for any commit C whose `src/` is the code
measured. Standard library, plus NumPy for its version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
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


def clean_results(results: Mapping[str, dict | None], timed: str = "wall_s") -> dict[str, dict]:
    """The result lines, by run (a workload or a preset; None where the run
    printed none), each of which must report the metric `timed`;
    ValueError names every run that is not clean."""
    refused = [f"{run}: {why}" for run, result in results.items() if (why := bench_pairs.problem(result, timed))]
    if refused:
        raise ValueError("refused: " + "; ".join(refused))
    return dict(results)


def preset_records(replicates: Mapping[str, int], cpu: int) -> dict[str, dict]:
    """Each preset's record at its replicate count, by count, from one
    `bench_pairs.time_presets` child per count, pinned to `cpu`; ValueError
    names every preset without a clean result."""
    results = {}
    for count in dict.fromkeys(replicates.values()):
        names = [name for name, n in replicates.items() if n == count]
        print(f"# presets at {count} replicates: {', '.join(names)}", file=sys.stderr, flush=True)
        results.update(zip(names, bench_pairs.time_presets(ROOT, names, count, None, cpu)))
    return {
        name: {**{key: result[key] for key in ("replicates", "master_seed", "wall_s")},
               "wall_s_per_replicate": bench_pairs.metric(result, "wall_s_per_replicate"), "timings": result["timings"]}
        for name, result in clean_results(results, "wall_s_per_replicate").items()
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
    cpu = min(os.sched_getaffinity(0))
    try:
        workloads = clean_results(results)
        presets = preset_records(PRESET_REPLICATES, cpu)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = {
        "command": f"python3 tools/bench_file.py {args.out.name}",
        "workload_seconds": seconds,
        "workloads": workloads,
        "presets": presets,
        "provenance": provenance(cpu),
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests for the scripts under `tools/`."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from msulab import CATALOG, preset

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_src_lines_totals_are_the_sums_of_the_modules():
    out = subprocess.run(
        [sys.executable, str(SRC_LINES)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0].split() == ["module", "physical", "code"]
    modules = [line.split() for line in out[1:-1]]
    assert {name for name, _, _ in modules} >= {"__init__.py", "cli.py", "harness.py"}
    total = out[-1].split()
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in modules)
    assert all(0 < int(code) <= int(physical) for _, physical, code in modules)


def test_src_lines_leaves_out_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""Module
docstring."""

# a comment
def f(x):  # a trailing comment
    """One line."""
    text = """not a
    docstring"""
    return x, text
'''
    assert tool.count(source) == (9, 4)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SRC_LINES.with_name("bench_pairs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run_output(wall_s, correct=True, failed=0):
    """What `bench/run.py` prints: metric lines, then its JSON result line."""
    result = {"correct": correct, "attempted": 40, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "setup_s": {"value": 0.5, "unit": "s"}}}
    return f"# machine {{}}\nmetric wall_s = {wall_s}\n{json.dumps(result)}\n"


def test_bench_pairs_reads_the_last_result_line():
    tool = _bench_pairs()
    result = tool.result_of(_run_output(0.0995))
    assert tool.metric(result, "wall_s") == 0.0995 and tool.problem(result) is None
    assert tool.result_of("metric wall_s = 1\nTraceback (most recent call last):\n") is None
    assert tool.problem(None) == "no result line"
    assert tool.problem(tool.result_of(_run_output(0.1, correct=False, failed=3))) == "correct: false, 3 failed ops"


def test_bench_pairs_summary_counts_wins_quartiles_and_problems():
    tool = _bench_pairs()
    before = [0.100, 0.102, 0.098, 0.101, 0.099]
    after = [0.090, 0.091, 0.099, 0.092, 0.089]
    pairs = [(tool.result_of(_run_output(b)), tool.result_of(_run_output(a))) for b, a in zip(before, after)]
    pairs[3] = (pairs[3][0], tool.result_of(_run_output(0.092, correct=False, failed=2)))
    pairs.append((tool.result_of(_run_output(0.1)), None))  # the after run printed no result
    lines = tool.summary(pairs)
    assert lines[0] == "before wall_s (ms), pair by pair: 100.00 102.00 98.00 101.00 99.00 100.00"
    # inclusive quartiles of 98, 99, 100, 100, 101, 102: 99.25, 100, 100.75
    assert lines[1] == "before: median 100.00 ms, quartiles 99.25-100.75 ms (IQR 1.50 ms), won 1 of 6 pairs"
    assert lines[2] == "before medians: setup_s 0.5"
    assert lines[3] == "after wall_s (ms), pair by pair: 90.00 91.00 99.00 92.00 89.00 -"
    assert lines[4] == "after: median 91.00 ms, quartiles 90.00-92.00 ms (IQR 2.00 ms), won 4 of 6 pairs"
    assert lines[5] == "after medians: setup_s 0.5"
    assert lines[6] == "median gap (before - after): 9.00 ms (+9.0% of before)"
    assert lines[7:] == ["problem: pair 4, after: correct: false, 2 failed ops", "problem: pair 6, after: no result line"]


def test_bench_pairs_counts_wins_on_a_named_metric(monkeypatch, capsys):
    tool = _bench_pairs()
    end_to_end = json.loads((SRC_LINES.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]

    def result(wall, setup, ops):
        metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"), "ops_per_s": (ops, "1/s")}
        return {"correct": True, "failed": 0, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    # after is slower on wall_s in every pair, but sets up faster in 2 of 3
    # and does more ops in 2 of 3 (higher is better there)
    pairs = [(result(0.1, 0.30, 10.0), result(0.2, 0.10, 11.0)),
             (result(0.1, 0.32, 10.0), result(0.2, 0.12, 12.0)),
             (result(0.1, 0.20, 10.0), result(0.2, 0.40, 9.0))]
    lines = tool.summary(pairs, end_to_end, "setup_s")
    assert lines[:3] == [
        "before setup_s (ms), pair by pair: 300.00 320.00 200.00",
        "before: median 300.00 ms, quartiles 250.00-310.00 ms (IQR 60.00 ms), won 1 of 3 pairs",
        "before medians: ops_per_s 10, wall_s 0.1",
    ]
    assert lines[4] == "after: median 120.00 ms, quartiles 110.00-260.00 ms (IQR 150.00 ms), won 2 of 3 pairs"
    assert lines[6] == "median gap (before - after): 180.00 ms (+60.0% of before)"
    assert lines[7:] == tool.bound_checks(pairs, end_to_end)
    ops = tool.summary(pairs, end_to_end, "ops_per_s")
    assert ops[0] == "before ops_per_s, pair by pair: 10.00 10.00 10.00"
    assert ops[1].endswith("won 1 of 3 pairs") and ops[4].endswith("won 2 of 3 pairs")
    assert ops[6] == "median gap (before - after): -1.00 (-10.0% of before)"
    # wall_s stays the default, and main passes the named metric on
    assert tool.summary(pairs, end_to_end)[1].endswith("won 3 of 3 pairs")
    outputs = iter([result(0.1, 0.30, 10.0), result(0.2, 0.10, 11.0)])
    monkeypatch.setattr(tool, "run", lambda checkout, workload, seconds, seed: next(outputs))
    root = SRC_LINES.parents[1]
    assert tool.main([str(root), str(root), "--workload", "measure-csv", "--pairs", "1", "--metric", "setup_s"]) == 0
    assert "after: median 100.00 ms, quartiles 100.00-100.00 ms (IQR 0.00 ms), won 1 of 1 pairs" in capsys.readouterr().out


def test_bench_pairs_flags_only_a_metric_worse_than_its_bound():
    tool = _bench_pairs()
    end_to_end = json.loads((SRC_LINES.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]

    def result(wall, rss, ops):
        metrics = {"wall_s": wall, "peak_rss_mb": rss, "ops_per_s": ops}
        return {"correct": True, "failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}

    # after: wall_s 5% worse (bound 20%), peak_rss_mb 12% worse (bound 10%),
    # ops_per_s 25% worse (bound 20%, higher is better); no run gave setup_s
    pairs = [(result(0.100, 100.0, 10.0), result(0.105, 112.0, 7.5))] * 3
    assert tool.bound_checks(pairs, end_to_end) == [
        "bound setup_s: not reported by both sides",
        "bound wall_s: median 0.1 -> 0.105 s (+5.0%), lower is better: within its bound",
        "bound ops_per_s: median 10 -> 7.5 1/s (-25.0%), higher is better: WORSE by more than its bound 20%",
        "bound peak_rss_mb: median 100 -> 112 MB (+12.0%), lower is better: WORSE by more than its bound 10%",
    ]
    assert tool.summary(pairs, end_to_end)[-4:] == tool.bound_checks(pairs, end_to_end)


def test_bench_pairs_times_presets_in_process_in_each_checkout(capsys, monkeypatch):
    # BEFORE given twice: the A/A comparison, here at one replicate a run
    tool = _bench_pairs()
    root = str(SRC_LINES.parents[1])
    children = []  # each child's result lines
    timed = tool.time_presets
    monkeypatch.setattr(tool, "time_presets", lambda *args: children.append(timed(*args)) or children[-1])
    assert tool.main([root, root, "--presets", "fig-b1,fig-e1", "--replicates", "1", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("preset ")] == [
        f"preset {name}, 1 replicates a run, seed default, pinned to CPU {min(tool.os.sched_getaffinity(0))}"
        for name in ("fig-b1", "fig-e1")
    ]
    for side in tool.SIDES:
        runs = [line for line in out if line.startswith(f"{side} wall_s_per_replicate (ms), pair by pair: ")]
        assert len(runs) == 2 and all(len(line.split(": ")[1].split()) == 2 for line in runs)
        assert sum(line.startswith(f"{side}: median ") and line.endswith("of 2 pairs") for line in out) == 2
    assert sum(line.startswith("median gap (before - after): ") for line in out) == 2
    assert not [line for line in out if line.startswith("problem")]
    # each child times every preset in 3 rounds and reports the least time
    assert tool.ROUNDS == 3 and len(children) == 4
    for results in children:
        assert [result["preset"] for result in results] == ["fig-b1", "fig-e1"]
        for result in results:
            assert len(result["timings"]) == 3
            assert result["metrics"]["wall_s_per_replicate"]["value"] == min(result["timings"])


def test_bench_pairs_flags_a_preset_that_gave_no_result():
    tool = _bench_pairs()
    root = SRC_LINES.parents[1]
    cpu = min(tool.os.sched_getaffinity(0))
    (result,) = tool.time_presets(root, ["fig-b1"], 1, 7, cpu)
    assert result["preset"] == "fig-b1" and tool.problem(result, "wall_s_per_replicate") is None
    assert tool.problem(result) == "no wall_s"
    # the child stops at an unknown preset: it and every later one gave nothing
    assert tool.time_presets(root, ["no-such-preset", "fig-b1"], 1, None, cpu) == [None, None]
    lines = tool.summary([(result, None)], [], "wall_s_per_replicate")
    assert lines[-1] == "problem: pair 1, after: no result line"


def _bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", SRC_LINES.with_name("bench_file.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_file_keeps_each_clean_result_line():
    tool = _bench_file()
    read = tool.bench_pairs.result_of
    results = tool.workload_results({"mc-small-m": read(_run_output(0.006)), "chi2-mstar": read(_run_output(0.0006))})
    assert list(results) == ["mc-small-m", "chi2-mstar"]
    assert results["chi2-mstar"] == json.loads(_run_output(0.0006).splitlines()[-1])
    assert set(tool.PRESET_REPLICATES) <= set(CATALOG)


def test_bench_file_times_each_preset_in_rounds_and_keeps_the_least(capsys):
    tool = _bench_file()
    times = tool.preset_times({"fig-b1": 2, "fig-e1": 1})
    assert list(times) == ["fig-b1", "fig-e1"]
    for name, record in times.items():
        assert record["replicates"] == {"fig-b1": 2, "fig-e1": 1}[name]
        assert record["master_seed"] == preset(name).master_seed
        assert len(record["timings"]) == tool.bench_pairs.ROUNDS == 3
        assert record["wall_s_per_replicate"] == min(record["timings"])
        assert record["wall_s"] / record["replicates"] == record["wall_s_per_replicate"]
    # each round times every preset once, in order
    progress = [line.split(":")[0] for line in capsys.readouterr().err.splitlines()]
    assert progress == ["# fig-b1", "# fig-e1"] * 3


def test_bench_file_refuses_every_flagged_run_and_writes_nothing(monkeypatch, tmp_path):
    tool = _bench_file()
    outputs = {
        "mc-small-m": _run_output(0.006),
        "mc-large-m": _run_output(0.07, correct=False, failed=2),
        "measure-csv": "Traceback (most recent call last):\n",
    }
    with pytest.raises(ValueError, match=(
        "^refused: mc-large-m: correct: false, 2 failed ops; measure-csv: no result line$"
    )):
        tool.workload_results({workload: tool.bench_pairs.result_of(stdout) for workload, stdout in outputs.items()})
    # main runs each workload of BENCHMARK.json for its run_seconds, in this
    # checkout; here each run's result is read from canned output
    runs = []

    def run(checkout, workload, seconds, seed):
        runs.append((checkout, workload, seconds, seed))
        return tool.bench_pairs.result_of(outputs.get(workload, ""))

    monkeypatch.setattr(tool.bench_pairs, "run", run)
    out = tmp_path / "BENCH.json"
    assert tool.main([str(out)]) == 1
    assert not out.exists()
    spec = json.loads((tool.ROOT / "BENCHMARK.json").read_text())
    assert runs == [(tool.ROOT, w["name"], spec["run_seconds"], None) for w in spec["workloads"]]

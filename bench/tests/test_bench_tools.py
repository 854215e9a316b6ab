"""Tests of the benchmark's own machinery: tracer arithmetic, reference
checks, input reproducibility, and BENCHMARK.json consistency."""

from __future__ import annotations

import itertools
import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_nested_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 4.0, 5.5, 1),
        ("b", 7.0, 9.0, 0),
        ("leaf", 7.5, 8.0, 4),
    ]
    stats = tracer.self_times(spans)
    assert stats["root"] == tracer.SpanStats(1, 3.0)
    assert stats["a"] == tracer.SpanStats(1, 2.5)
    assert stats["b"] == tracer.SpanStats(1, 1.5)
    assert stats["leaf"] == tracer.SpanStats(3, 3.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_covered_merges_overlapping_and_clips_children():
    assert tracer.covered([(2.0, 4.0), (3.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 5.0
    assert tracer.covered([], 0.0, 10.0) == 0.0


def test_tracer_records_parents_and_self_time_with_a_fake_clock():
    ticks = itertools.count()
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda: inner(1) + inner(2))
    assert t.wrap(tracer.ROOT, outer)() == 5
    # clock reads: root 0, outer 1, inner 2-3, inner 4-5, outer end 6, root end 7
    spans = [s for s in t.spans if s is not None]
    assert [(name, parent) for name, _, _, parent in spans] == [
        (tracer.ROOT, -1), ("outer", 0), ("inner", 1), ("inner", 1)
    ]
    stats = t.stats()
    assert stats[tracer.ROOT].self_s == 2.0
    assert stats["outer"].self_s == 3.0
    assert stats["inner"] == tracer.SpanStats(2, 2.0)


def test_missing_sites_blank_a_layer_instead_of_raising():
    module = types.ModuleType("bench_fake_module")
    module.present = lambda: 1
    original = module.present
    sys.modules[module.__name__] = module
    try:
        t = tracer.Tracer()
        t.patch("fake.partly", [(module.__name__, "present"), (module.__name__, "moved")])
        t.patch("fake.gone", [(module.__name__, "gone")])
        t.patch("fake.nomodule", [("bench_no_such_module", "f")])
        assert module.present is not original and module.present() == 1
        assert set(t.unmeasured) == {"fake.gone", "fake.nomodule"}
        assert f"{module.__name__}.moved" in t.missing_sites
        t.restore()
        assert module.present is original
    finally:
        del sys.modules[module.__name__]


def test_failing_counter_marks_counters_unmeasured_without_raising():
    t = tracer.Tracer()

    def counter(tr, result, args, kwargs):
        raise KeyError("moved")

    assert t.wrap("f", lambda: 3, counter)() == 3
    assert tracer.counter_name("f") in t.unmeasured


def test_sampler_probes_during_a_block_and_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler((1.0, 0.0)) as sampler:
        deadline = time.perf_counter() + 3 * speed.INTERVAL
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 2 and all(s > 0 for s in sampler.samples)
    assert 0 < sampler.spent < 3 * speed.INTERVAL
    assert signal.getsignal(signal.SIGALRM) is previous
    assert speed.scale(2.0, [1.0, 3.0]) == 1.0


def _small_m(tmp_path):
    workload = workloads.SmallM(workloads.DEFAULT_SEED, tmp_path)
    return workload, workload.unit()


def test_reference_check_catches_a_perturbed_curve_line(tmp_path):
    workload, outputs = _small_m(tmp_path)
    reference = workloads.load_reference(workload)
    assert reference is not None

    clean = run.Checker(workload, reference)
    clean.check(outputs)
    assert (clean.failed, clean.problems) == (0, [])

    key = "fig-b2:40"
    fields = outputs[key].splitlines()[0].split(",")
    fields[2] = repr(float(fields[2]) + 1e-15)
    perturbed = dict(outputs)
    perturbed[key] = ",".join(fields) + "\n" + "".join(outputs[key].splitlines(True)[1:])
    assert perturbed[key] != outputs[key]

    checker = run.Checker(workload, reference)
    checker.check(perturbed)
    assert checker.failed == workload.keys()[key]
    assert checker.problems and key in checker.problems[0]


def test_later_units_must_repeat_the_first(tmp_path):
    workload, outputs = _small_m(tmp_path)
    checker = run.Checker(workload, None)
    checker.check(outputs)
    changed = dict(outputs)
    changed["fig-b2:8"] = changed["fig-b2:9"]
    checker.check(changed)
    assert checker.failed == workload.keys()["fig-b2:8"]


def test_measure_csv_input_is_byte_identical_for_a_seed():
    _, text = workloads.measure_input(workloads.DEFAULT_SEED)
    _, again = workloads.measure_input(workloads.DEFAULT_SEED)
    assert text == again
    recorded = json.loads(workloads.REFERENCE.read_text())["workloads"]["measure-csv"]
    assert workloads.sha256(text) == recorded["input_sha256"]
    _, other = workloads.measure_input(workloads.DEFAULT_SEED + 1)
    assert other != text


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)

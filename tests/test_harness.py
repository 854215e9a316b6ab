"""Tests for the Monte Carlo experiment harness and the preset catalog."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import re
import threading
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest

from msulab import (
    CATALOG,
    CardinalityProfile,
    ExperimentConfig,
    GeneratorKind,
    GroupSpec,
    InvalidInputError,
    SampleSizePolicy,
    Sweep,
    TrackedSubset,
    config_from_json,
    preset,
    run_experiment,
)
from msulab import dataset, harness, measures, presets
from msulab import sample as sample_module
from msulab.dataset import CLASS_COLUMN, generate_replicates
from msulab.harness import CountRule, MeasureStats, resolve_point
from msulab.ingest import csv_field
from oracle_utils import expected_plugin_entropy, kononenko_cell_probs, kononenko_first_half_prob


def _group(name, family, count, cardinality=2):
    return {"name": name, "family": family, "count": count, "cardinality": cardinality}


def _constructed(data):
    """The config a JSON config mapping describes, built by calling the config
    classes: the Python way in, which must check what `config_from_json` does."""
    def group(g):
        count = g["count"]
        return GroupSpec(**{**g, "count": CountRule(**count) if isinstance(count, dict) else count})

    def each(build, value):  # a value that is not a list goes to the class as it is
        return [build(v) for v in value] if isinstance(value, list) else value

    policy = data.get("sample_size_policy")
    if isinstance(policy, dict):
        policy = SampleSizePolicy(**policy)
    return ExperimentConfig(**{
        **data,
        "sweep": Sweep(**data["sweep"]),
        "groups": each(group, data["groups"]),
        "tracked": each(lambda t: TrackedSubset(**t), data["tracked"]),
        "sample_size_policy": policy,
    })


def _rejected_both_ways(data, match, python=True):
    """`config_from_json(data)` and, unless `python` is false (for a key only
    JSON has), `_constructed(data)` raise the same error."""
    for build in (config_from_json, _constructed) if python else (config_from_json,):
        with pytest.raises(InvalidInputError, match=match):
            build(data)


def _layout_values(config, plan, replicates):
    """Each of a plan's points' measure values, in its order: measure name ->
    one value per replicate, from running the plan."""
    values = {
        measure: dict(zip(plan.measures[measure], matrix.tolist()))
        for measure, matrix in harness._run_layout(config, plan, replicates).items()
    }
    return [{name: tuple(values[name, cols][m]) for name, cols in own} for _, m, own in plan.points]


def _mean_std(values):
    """The mean and standard deviation of one point's replicate values:
    `harness._mean_std` of a one-row matrix."""
    (mean,), (std,) = harness._mean_std(np.array([values], dtype=np.float64))
    return mean, std


def _alone(config, point):
    """The plan of one resolved point, planned on its own."""
    (plan,) = harness._plans(config, {0: point})
    return plan


def run_replicate(config, sweep_value, replicate_index):
    """Measure values of one replicate of one sweep point, run on its own."""
    plan = _alone(config, resolve_point(config, sweep_value))
    (values,) = _layout_values(config, plan, [replicate_index])
    return {label: value for label, (value,) in values.items()}


def _measured_columns(config, sweep_value):
    """Each measure of one sweep point run on its own, name -> the names of
    the attribute columns that `_run_layout` takes it over, in order; the
    class is the last column of each."""
    plan = _alone(config, resolve_point(config, sweep_value))
    taken = []
    real = harness.msu_values

    def spying(sample, subset, *args):
        *columns, last = (sample.column_names[c] for c in subset)
        assert last == CLASS_COLUMN
        taken.append(tuple(columns))
        return real(sample, subset, *args)

    with mock.patch.object(harness, "msu_values", spying):
        (values,) = _layout_values(config, plan, [0])
    return dict(zip(values, taken))


def _spy_batches(monkeypatch):
    """The stream ids of each batch `generate_replicates` generates from
    here on, one list a batch, and the m and attribute columns of each."""
    batches = []

    def spying(m, class_card, blocks, rngs, *args):
        columns = sum(len(b.names) for b in blocks if b is not None)
        batches.append(([rng.stream_id for rng in rngs], m, columns))
        return generate_replicates(m, class_card, blocks, rngs, *args)

    monkeypatch.setattr(harness, "generate_replicates", spying)
    return batches


def _curve_sha256(config):
    buffer = io.StringIO()
    run_experiment(config).write_csv(buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def _desk(config, replicates, sweep_values=None):
    updates = {"replicates": replicates}
    if sweep_values is not None:
        updates["sweep"] = Sweep(tuple(sweep_values))
    return dataclasses.replace(config, **updates)


class TestResolvePoint:
    def test_fixed_policy(self):
        point = resolve_point(preset("fig-f1"), 2)
        assert point.m == 5000
        assert point.counts == (2, 2)
        measured = _measured_columns(preset("fig-f1"), 2)
        assert [n for cols in measured.values() for n in cols] == ["mk1", "mk2", "u1", "u2"]

    def test_computed_policy_uses_evaluated_subset(self):
        # tracked subsets are two attributes plus the class: 10 * 2 * card^2
        assert resolve_point(preset("fig-f2"), 2).m == 80
        assert resolve_point(preset("fig-f2"), 10).m == 2000
        assert resolve_point(preset("fig-f2"), 40).m == 32000

    def test_cardinality_sweep_reaches_groups(self):
        point = resolve_point(preset("fig-f1"), 30)
        assert point.cards == (30, 30)

    def test_sample_size_sweep_sets_m(self):
        assert resolve_point(preset("fig-e2"), 113).m == 113

    def test_count_sweep_windows(self):
        cfg = preset("fig-g")
        names_at = lambda s: [n for cols in _measured_columns(cfg, s).values() for n in cols]
        assert "upad1" not in names_at(2)
        assert "upad1" in names_at(3)
        # beyond the shared window only the individually-informative subset remains
        assert list(_measured_columns(cfg, 15)) == ["msu_informative"]
        assert "xor1" not in names_at(15)

    @pytest.mark.parametrize("m", [0, -3])
    def test_infeasible_sample_size_rejected(self, m):
        # with no policy m is the sweep value, checked as every m is
        message = f"sample size must be at least 1, got {m}"
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            resolve_point(preset("fig-e2"), m)
        curve = run_experiment(_desk(preset("fig-e2"), 2, [m, 12]))
        assert curve.errors == ((m, message),)
        assert curve.sample_sizes == (None, 12)

    @pytest.mark.parametrize("name", ["fig-c", "fig-g", "fig-xor-1", "chi-scan"])
    def test_sweep_value_checked_where_the_config_has_not(self, name):
        # `_layout` takes the value as checked; a direct caller's is checked
        # here, or a float or a bool would resolve, or a string leak a TypeError
        for bad in (8.5, True, "x", None):
            with pytest.raises(InvalidInputError, match="^sweep value must be an integer"):
                resolve_point(preset(name), bad)

    def test_measures_list_each_msu_then_its_su(self):
        assert list(_measured_columns(preset("fig-a1"), 4).items()) == [
            ("msu_set", ("mk1", "u1")), ("su_mk1", ("mk1",)), ("su_u1", ("u1",)),
        ]

    def test_computed_size_is_the_largest_over_the_measures(self):
        cfg = config_from_json({
            "name": "mixed", "sweep": {"values": [1]},
            "groups": [_group("b", "kononenko", 1, 8), _group("c", "uniform", 2)],
            "tracked": [{"label": "narrow", "groups": ["c"], "with_su": True},
                        {"label": "wide", "groups": ["b"]}],
            "sample_size_policy": {"computed": 10},
        })
        # 10 x 8 x 2 for b beside the class, not 10 x 2 x 2 for c
        assert resolve_point(cfg, 1).m == 160

    def test_point_where_no_subset_has_columns_is_an_error(self):
        cfg = config_from_json({
            "name": "empty", "sweep": {"values": [10]},
            "groups": [_group("u", "uniform", 0)],
            "tracked": [{"label": "set", "groups": ["u"]}],
        })
        with pytest.raises(InvalidInputError, match="no tracked subset has columns at sweep value 10"):
            resolve_point(cfg, 10)

    @pytest.mark.parametrize("name", ["fig-xor-2", "fig-h", "chi-scan"])
    def test_a_profile_holds_one_pair_per_group(self, monkeypatch, name):
        # a group's columns make one (cardinality, count) pair, not one
        # entry each
        built = []

        def spy(attributes, class_card):
            built.append(profile := CardinalityProfile(attributes, class_card))
            return profile

        monkeypatch.setattr(harness, "CardinalityProfile", spy)
        config = preset(name)
        subsets = [sub.groups for sub in config.tracked]
        for value in config.sweep.values:
            built.clear()
            if config.representativeness_scan:  # profiles all the point's groups, and no subset
                run_experiment(_desk(config, 1, [value]))
                expected = [config.groups]
            else:
                resolve_point(config, value)
                expected = subsets
            assert len(built) == len(expected)
            for profile, groups in zip(built, expected):
                assert len(profile.attributes) <= len(groups), (value, profile)

    def test_ten_million_columns_skipped_without_a_per_column_profile(self):
        cfg = config_from_json({
            "name": "wide", "replicates": 1,
            "sweep": {"values": [10_000_000]},
            "groups": [_group("u", "uniform", {"offset": 0})],
            "tracked": [{"label": "set", "groups": ["u"]}],
            "sample_size_policy": {"computed": 10},
        })
        curves = []
        thread = threading.Thread(target=lambda: curves.append(run_experiment(cfg)), daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert curves, "run_experiment did not return"
        assert curves[0].errors == ((10_000_000, (
            "sample size must not exceed 9223372036854775807, got at least 2**10000004"
        )),)

    @staticmethod
    def _wide(count, cardinality, factor=10, scan=False):
        return config_from_json({
            "name": "wide", "replicates": 1,
            "sweep": {"values": [count]},
            "groups": [_group("u", "uniform", {"offset": 0}, cardinality)],
            "tracked": [{"label": "set", "groups": ["u"]}],
            "sample_size_policy": {"computed": factor},
            "representativeness_scan": scan,
        })

    @pytest.mark.parametrize("factor", [10, 10.5])
    @pytest.mark.parametrize("cardinality, exponent", [(3, 158_496_254), (2, 100_000_004)])
    def test_a_hundred_million_columns_skipped_within_a_second(self, cardinality, exponent, factor):
        # 10 * 2 * 3**(10**8) took 111 s to build as an int before it was
        # rejected; a log2 bound now names its bit length: floor(log2(20) +
        # 10**8 * log2(3)) = 158,496,254, and floor(log2(21) + ...) at a
        # factor of 10.5 is the same
        curve = self._run_within_a_second(self._wide(100_000_000, cardinality, factor))
        assert curve.errors == ((100_000_000, (
            f"sample size must not exceed 9223372036854775807, got at least 2**{exponent}"
        )),)

    @pytest.mark.parametrize("cardinality, exponent", [(3, 158_496_251), (2, 100_000_001)])
    def test_a_hundred_million_columns_scanned_within_a_second(self, cardinality, exponent):
        # the report names 2 * 3**(10**8) cells by a float log2 bound, and
        # 2 * 2**(10**8) by its bits counted in integers, with no space built
        curve = self._run_within_a_second(self._wide(100_000_000, cardinality, scan=True))
        assert curve.errors == ((100_000_000, (
            f"a joint space of at least 2**{exponent} cells exceeds the 4503599627370496 "
            "the float statistic resolves"
        )),)

    @staticmethod
    def _run_within_a_second(cfg):
        curves = []
        thread = threading.Thread(target=lambda: curves.append(run_experiment(cfg)), daemon=True)
        thread.start()
        thread.join(timeout=1)
        assert curves, "run_experiment did not return within a second"
        return curves[0]

    @pytest.mark.parametrize("count", [58, 59, 60, 200, 1000])
    @pytest.mark.parametrize("factor", [8, 10, 12.5])
    def test_a_point_past_int64_is_named_as_its_built_m_names_it(self, count, factor, monkeypatch):
        # a point past 2**64 is named from the bound, with no m built: at 8,
        # m = 8 * 2 * 2**count is a power of two, whose bits are counted in
        # integers, and at 10 and 12.5 a float places them
        built = []
        rule = harness.heuristic_sample_size
        monkeypatch.setattr(harness, "heuristic_sample_size", lambda *a: built.append(rule(*a)) or built[-1])
        m = math.ceil(factor * 2 * 2**count)
        (error,) = run_experiment(self._wide(count, 2, factor)).errors
        if m > 2**63 - 1:
            assert error == (count, f"sample size must not exceed 9223372036854775807, got {sample_module._shown(m)}")
        else:
            assert error[1].endswith(f"a generated dataset holds at most {dataset.MAX_DATASET_CELLS}")
        assert built == ([] if m >= 2**64 else [m])

    def test_a_scan_names_a_huge_point_by_its_own_rule(self):
        curve = run_experiment(self._wide(100, 3, scan=True))
        assert curve.errors == ((100, (
            "a joint space of at least 2**159 cells exceeds the 4503599627370496 the float statistic resolves"
        )),)


class TestResolver:
    """`_resolver` gives, at every sweep value, the point `resolve_point`
    gives, and lays a sample-size sweep out once."""

    @pytest.mark.parametrize("name", [name for name in CATALOG if name != "chi-scan"])
    def test_every_point_is_the_one_resolve_point_gives(self, name):
        config = preset(name)
        resolve = harness._resolver(config)
        for value in config.sweep.values:
            assert resolve(value) == resolve_point(config, value)

    def test_a_sample_size_sweep_is_laid_out_once(self, monkeypatch):
        values = []
        layout = harness._layout
        monkeypatch.setattr(harness, "_layout", lambda config, value: values.append(value) or layout(config, value))
        run_experiment(_desk(preset("fig-b2"), 1))
        assert values == [8]
        # a fixed m along the sweep is checked once, and shared
        fixed = dataclasses.replace(_desk(preset("fig-b1"), 1), sample_size_policy=SampleSizePolicy(fixed=20))
        assert run_experiment(fixed).sample_sizes == (20,) * len(fixed.sweep.values)
        # counts and cardinalities that follow the sweep are laid out at each point
        values.clear()
        run_experiment(_desk(preset("fig-g"), 1))
        assert values == list(preset("fig-g").sweep.values)

    @pytest.mark.parametrize("sweep", [(8, 10**8, 9), (10**8, 8, 9)])
    def test_a_skipped_point_keeps_its_message(self, sweep):
        # the point past MAX_DATASET_CELLS is skipped, whether or not it is
        # the point the layout is worked out at
        config = _desk(preset("fig-b2"), 1, sweep)
        curve = run_experiment(config)
        assert curve.sample_sizes == tuple(None if v == 10**8 else v for v in sweep)
        with pytest.raises(InvalidInputError) as skipped:
            resolve_point(config, 10**8)
        assert curve.errors == ((10**8, str(skipped.value)),)
        alone = run_experiment(_desk(config, 1, [v for v in sweep if v != 10**8]))
        assert {name: [s for s in series if s is not None] for name, series in curve.measures.items()} == alone.measures


class TestCountRule:
    def test_window_gates_count(self):
        rule = CountRule(window=(2, 13))
        assert rule.resolve(2) == 2
        assert rule.resolve(13) == 13
        assert rule.resolve(14) == 0

    def test_offset(self):
        assert CountRule(offset=-2, window=(2, 13)).resolve(5) == 3
        assert CountRule(offset=-2, window=(2, 13)).resolve(2) == 0

    def test_binary_equivalent(self):
        rule = CountRule(binary_equivalent=True)
        assert rule.resolve(4) == 4
        assert rule.resolve(16) == 8
        assert rule.resolve(64) == 12
        assert rule.resolve(2**62) == 124
        for value in (6, 2**53 + 1):  # 2**53 + 1 is 2**53 as a float
            with pytest.raises(InvalidInputError):
                rule.resolve(value)

    @pytest.mark.parametrize("value", [0, -4])
    def test_binary_equivalent_needs_positive_sweep_value(self, value):
        with pytest.raises(InvalidInputError, match=f"sweep value {value} has no binary-equivalent"):
            CountRule(binary_equivalent=True).resolve(value)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"window": (4, 2)}, r"count window \[4, 2\] is reversed"),
            ({"offset": -2, "window": (9, 3)}, r"count window \[9, 3\] is reversed"),
            ({"fixed": 2, "binary_equivalent": True}, "either fixed or binary_equivalent"),
            ({"fixed": 2, "offset": 1}, "offset applies only"),
            ({"binary_equivalent": True, "offset": -2}, "offset applies only"),
        ],
        ids=["reversed", "reversed-with-offset", "fixed-and-binary", "offset-and-fixed",
             "offset-and-binary"],
    )
    def test_contradictory_rule_rejected_when_built(self, fields, match):
        with pytest.raises(InvalidInputError, match=match):
            CountRule(**fields)

    def test_one_value_window_and_zero_offset_accepted(self):
        assert CountRule(window=(3, 3)).resolve(3) == 3
        assert CountRule(fixed=2, offset=0).resolve(7) == 2
        assert CountRule(binary_equivalent=True, offset=0).resolve(16) == 8


class TestRunReplicate:
    def test_deterministic(self):
        cfg = preset("fig-b2")
        assert run_replicate(cfg, 80, 0) == run_replicate(cfg, 80, 0)

    def test_replicates_differ(self):
        cfg = preset("fig-b2")
        assert run_replicate(cfg, 80, 0) != run_replicate(cfg, 80, 1)

    def test_measure_labels(self):
        values = run_replicate(preset("fig-b2"), 80, 0)
        assert sorted(values) == ["msu_set", "su_xor1", "su_xor2"]

    def test_informative_pair_measurably_informative(self):
        cfg = config_from_json({
            "name": "mk-pair",
            "sweep": {"values": [100_000]},
            "groups": [_group("mk", "kononenko", 2), _group("u", "uniform", 0)],
            "tracked": [{"label": "informative", "groups": ["mk"]},
                        {"label": "noninformative", "groups": ["u"]}],
        })
        values = run_replicate(cfg, 100_000, 0)
        # population value for this layout is about 0.13
        assert values["msu_informative"] > 0.05
        # the value the rule-based form of this layout gave
        assert values == {"msu_informative": 0.13347752499870144}

    def test_values_lie_in_unit_interval(self):
        cfg = preset("fig-g")
        for s in (2, 5, 13, 18):
            for r in range(3):
                for v in run_replicate(cfg, s, r).values():
                    assert 0.0 <= v <= 1.0


class TestRunExperiment:
    def test_single_point_single_replicate(self):
        cfg = _desk(preset("fig-e2"), 1, sweep_values=(25,))
        curve = run_experiment(cfg)
        assert curve.sweep_values == (25,)
        assert curve.sample_sizes == (25,)
        stats = curve.measures["msu_informative"][0]
        assert stats.n == 1 and stats.std == 0.0

    @pytest.mark.parametrize("config", [None, "fig-b2", {"name": "x"}])
    def test_a_config_of_another_type_rejected(self, config):
        message = f"^config must be an ExperimentConfig, got {type(config).__name__}$"
        with pytest.raises(InvalidInputError, match=message):
            run_experiment(config)

    def test_mean_matches_replicates(self):
        cfg = _desk(preset("fig-e2"), 7, sweep_values=(40,))
        curve = run_experiment(cfg)
        values = [run_replicate(cfg, 40, r)["msu_noninformative"] for r in range(7)]
        assert curve.measures["msu_noninformative"][0].mean == pytest.approx(
            sum(values) / 7, abs=1e-15
        )

    def test_point_errors_do_not_abort_sweep(self):
        cfg = _desk(preset("fig-e2"), 2, sweep_values=(0, 30))
        curve = run_experiment(cfg)
        assert len(curve.errors) == 1 and curve.errors[0][0] == 0
        assert curve.sample_sizes == (None, 30)
        assert curve.measures["msu_informative"][0] is None
        assert curve.measures["msu_informative"][1] is not None

    def test_rerun_identical(self):
        cfg = _desk(preset("fig-xor-1"), 3, sweep_values=(1, 4))
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.measures == b.measures

    def test_noninformative_mean_near_zero_at_150_rows(self):
        cfg = _desk(preset("fig-e2"), 100, sweep_values=(150,))
        curve = run_experiment(cfg)
        assert abs(curve.measures["msu_noninformative"][0].mean) <= 0.02

    def test_noise_attribute_sweep_shapes(self):
        cfg = _desk(preset("fig-xor-2"), 3, sweep_values=(1, 2, 3))
        curve = run_experiment(cfg)
        # evaluated set grows by one uniform attribute per point
        assert curve.sample_sizes == (160, 320, 640)
        assert all(s is not None for s in curve.measures["msu_set"])

    def test_paired_cardinality_layouts(self):
        cfg = _desk(preset("fig-d"), 2, sweep_values=(4, 16))
        curve = run_experiment(cfg)
        assert sorted(curve.measures) == ["msu_binary", "msu_wide"]
        point = resolve_point(cfg, 16)
        assert [g.name for g in cfg.groups] == ["bin", "wide"]
        assert point.counts == (8, 2) and point.cards == (2, 16)

    def test_csv_quotes_names_so_csv_reader_reads_them_back(self):
        # a label or group name may hold a comma, a quote or a line break;
        # every row still reads back as 6 fields, with the names intact
        cfg = config_from_json({
            "name": "names", "replicates": 2,
            "sweep": {"values": [10, 20]},
            "groups": [_group("a,b", "uniform", 1), _group('q"\r', "kononenko", 1)],
            "tracked": [{"label": "s,t\nu", "groups": ["a,b", 'q"\r'], "with_su": True}],
        })
        curve = run_experiment(cfg)
        buffer = io.StringIO()
        curve.write_csv(buffer)
        header, *rows = csv.reader(io.StringIO(buffer.getvalue(), newline=""))
        assert len(header) == 6 and len(rows) == 6 and all(len(row) == 6 for row in rows)
        assert [row[1] for row in rows] == list(curve.measures) * 2
        assert set(curve.measures) == {"msu_s,t\nu", "su_a,b1", 'su_q"\r1'}

    def test_representativeness_scan(self):
        curve = run_experiment(preset("chi-scan"))
        assert [s.mean for s in curve.measures["cells"]] == [8.0, 16.0, 32.0]
        assert [s.mean for s in curve.measures["m_star"]] == [99.0, 375.0, 1394.0]
        assert [s.mean for s in curve.measures["heuristic_m"]] == [80.0, 160.0, 320.0]


class TestBiasControlRegimes:
    def test_computed_size_keeps_noninformative_flat_under_count_growth(self):
        # desk-scale slice of the computed-size attribute-count sweep
        cfg = _desk(preset("fig-h"), 40, sweep_values=(2, 4, 6, 8))
        curve = run_experiment(cfg)
        for mean in curve.mean_series("msu_noninformative"):
            assert mean < 0.05

    def test_added_noise_attributes_drain_collective_information(self):
        # computed-size variant: the evaluated set's value decreases toward zero
        cfg = _desk(preset("fig-xor-2"), 60, sweep_values=(1, 2, 3, 4, 5))
        means = run_experiment(cfg).mean_series("msu_set")
        assert all(b < a for a, b in zip(means, means[1:]))
        assert means[-1] < means[0] / 2


class TestAggregation:
    def test_order_insensitive(self):
        rng = random.Random(5)
        values = [rng.random() for _ in range(500)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert _mean_std(values) == _mean_std(shuffled)

    def test_std_is_sample_std(self):
        mean, std = _mean_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(1.0, abs=1e-15)

    def test_squares_are_libm_pow(self):
        # the curve bytes rest on `(x - mean) ** 2`, libm's pow, which
        # rounds a few squares otherwise than `x * x` (about 0.09% of
        # uniform doubles on glibc 2.36): [-x, x] has deviations -x and x
        rng = random.Random(2)
        draws = (rng.random() for _ in range(100_000))
        x = next((x for x in draws if math.sqrt(2 * x**2) != math.sqrt(2 * (x * x))), None)
        if x is None:
            pytest.skip("this libm squares every searched value as x * x does")
        assert _mean_std([-x, x]) == (0.0, math.sqrt(2 * x**2))


def _csv_line_by_line(curve):
    """The reference writer: the curve's CSV written a line at a time, with
    each float's `repr`."""
    out = io.StringIO()
    out.write("sweep_value,measure_name,mean,stddev,n_replicates,sample_size_used\n")
    names = {measure: csv_field(measure) for measure in curve.measures}
    for i, v in enumerate(curve.sweep_values):
        size = curve.sample_sizes[i]
        size_text = "" if size is None else str(size)
        for measure, name in names.items():
            s = curve.measures[measure][i]
            if s is None:
                continue
            out.write(f"{v},{name},{s.mean!r},{s.std!r},{s.n},{size_text}\n")
    return out.getvalue()


class TestWriteCsv:
    """`BiasCurve.write_csv` writes, byte for byte, what the line-by-line
    reference writes."""

    @staticmethod
    def _written(curve):
        buffer = io.StringIO()
        curve.write_csv(buffer)
        return buffer.getvalue()

    @pytest.mark.parametrize("name", CATALOG)
    def test_every_preset(self, name):
        curve = run_experiment(_desk(preset(name), 2))
        assert self._written(curve) == _csv_line_by_line(curve)

    def test_a_skipped_point_a_missing_measure_and_a_quoted_name(self):
        data = {
            "name": "quoted",
            "sweep": {"values": [8, 9, 10, 10**8]},
            "groups": [_group("xor", "xor_pair", 2), _group("u", "uniform", {"window": [9, 10**8]})],
            "tracked": [
                {"label": 'x,"y"', "groups": ["xor"], "with_su": True},
                {"label": "u", "groups": ["u"]},
            ],
            "replicates": 2,
        }
        curve = run_experiment(config_from_json(data))
        assert curve.sample_sizes == (8, 9, 10, None) and len(curve.errors) == 1
        assert curve.measures["msu_u"][0] is None and curve.measures["msu_u"][1] is not None
        written = self._written(curve)
        assert written == _csv_line_by_line(curve)
        assert '\n8,"msu_x,""y""",' in written and "\n8,msu_u," not in written
        # a point with statistics and no sample size, floats of every kind
        stats = [MeasureStats(5e-324, 1e300, 3), MeasureStats(1 / 3, 0.0, 1)]
        curve = harness.BiasCurve("made", (1, 2, 3), (None, 7, None), {"a\rb": [stats[0], None, stats[1]], "c": [None] * 3})
        assert self._written(curve) == _csv_line_by_line(curve) == (
            "sweep_value,measure_name,mean,stddev,n_replicates,sample_size_used\n"
            '1,"a\rb",5e-324,1e+300,3,\n3,"a\rb",0.3333333333333333,0.0,1,\n'
        )


class TestAggregateMatrix:
    """`harness._mean_std` of a run's (values x replicates) matrix gives each
    row, bit for bit, the floats of the scalar formulas."""

    @staticmethod
    def _scalar(v):
        n = len(v)
        mean = math.fsum(v) / n
        return mean, math.sqrt(math.fsum((x - mean) ** 2 for x in v) / (n - 1)) if n > 1 else 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("rows", [1, 255, 256, 700])
    def test_rows_match_the_scalar_formula(self, rows, n):
        rng = np.random.default_rng(rows * 1000 + n)
        matrix = rng.random((rows, n)) ** rng.integers(1, 40, size=(rows, 1))  # values down to tiny ones
        matrix[rng.random((rows, n)) < 0.1] = 0.0  # degenerate replicates measure 0
        matrix[0] = 0.37  # a row of equal values
        if n >= 3 and rows > 1:
            # deviations -1, 1 and 2**-51 about a mean of exactly 2: squares
            # 102 binades apart, past what an int64 sum holds, so fsummed
            matrix[1] = [1.0, 3.0, 2.0 + 2.0**-51] + [2.0] * (n - 3)
            squares = [(x - 2.0) ** 2 for x in matrix[1].tolist()]
            assert not measures._int64_sums(np.array([squares]))[1].all()
        if rows > 2:
            matrix[2] = [2.0**-1000] * (n - 1) + [1.0]  # a least exponent below -969
        means, stds = harness._mean_std(matrix)
        want = [self._scalar(row) for row in matrix.tolist()]
        assert [x.hex() for x in means] == [mean.hex() for mean, _ in want]
        assert [x.hex() for x in stds] == [std.hex() for _, std in want]
        assert all(type(x) is float for x in means + stds)

    def test_a_run_without_points(self):
        means, stds = harness._mean_std(np.empty((0, 3)))
        assert means == stds == []
        config = _desk(preset("fig-b2"), 2, (10**12, 10**13))
        curve = run_experiment(config)  # every point is skipped
        assert curve.measures == {} and len(curve.errors) == 2


class TestPresets:
    def test_catalog_complete(self):
        expected = {
            "fig-a1", "fig-a2", "fig-e1", "fig-e2", "fig-b1", "fig-b2", "fig-c",
            "fig-d", "fig-f1", "fig-f2", "fig-g", "fig-h",
            "fig-xor-1", "fig-xor-2", "fig-xor-3", "fig-xor-4", "chi-scan",
        }
        assert set(CATALOG) == expected

    @pytest.mark.parametrize("name", [[], ["fig-b2"], {}, None, "fig-z"])
    def test_unknown_preset_rejected(self, name):
        with pytest.raises(InvalidInputError, match=re.escape(f"unknown preset {name!r}; catalog: fig-a1,")):
            preset(name)

    def test_all_presets_construct_and_resolve(self):
        for name in CATALOG:
            cfg = preset(name)
            resolve_point(cfg, cfg.sweep.values[0])

    def test_fig_f1_fixed_size(self):
        assert preset("fig-f1").sample_size_policy == SampleSizePolicy(fixed=5000)

    def test_fig_xor_1_noise_sweep(self):
        cfg = preset("fig-xor-1")
        assert cfg.groups[1] == GroupSpec("u", GeneratorKind.UNIFORM, CountRule(window=(1, 13)), 2)
        assert cfg.sweep.values == tuple(range(1, 14))
        assert cfg.sample_size_policy == SampleSizePolicy(fixed=600)

    def test_fig_g_uses_both_rules(self):
        # individually (Kononenko) and collectively (XOR) informative groups
        families = [g.family for g in preset("fig-g").groups]
        assert families == [GeneratorKind.KONONENKO, GeneratorKind.UNIFORM,
                            GeneratorKind.XOR_PAIR, GeneratorKind.UNIFORM]

    @pytest.mark.parametrize("name", CATALOG)
    def test_round_trips_through_json_text(self, name):
        mapping = presets._PRESETS[name]
        assert config_from_json(json.loads(json.dumps(mapping))) == preset(name)

    def test_fig_b2_point_count(self):
        assert len(preset("fig-b2").sweep.values) == 143

    def test_fig_a_class_cards(self):
        assert preset("fig-a1").class_card == 10
        assert preset("fig-a2").class_card == 2

    def test_unknown_preset_lists_catalog(self):
        with pytest.raises(InvalidInputError, match="fig-f1"):
            preset("fig-z9")

    def test_default_replicates(self):
        assert preset("fig-f1").replicates == 1000

    @pytest.mark.parametrize("name", CATALOG)
    def test_every_group_and_subset_has_columns_somewhere(self, name):
        # a group with no columns at any point, or a subset never measured,
        # would be dead layout
        cfg = preset(name)
        points = [resolve_point(cfg, v) for v in cfg.sweep.values]
        for i, group in enumerate(cfg.groups):
            assert any(p.counts[i] for p in points), group.name
        position = {g.name: i for i, g in enumerate(cfg.groups)}
        measured = {t.label for t in cfg.tracked for p in points if any(p.counts[position[g]] for g in t.groups)}
        assert {t.label for t in cfg.tracked} <= measured


# Two Kononenko and two uniform binary attributes, measured as two subsets.
MK_LAYOUT = {
    "groups": [_group("mk", "kononenko", 2), _group("u", "uniform", 2)],
    "tracked": [{"label": "informative", "groups": ["mk"]},
                {"label": "noninformative", "groups": ["u"]}],
}


class TestConfigJson:
    BASE = {"name": "x", "sweep": {"values": [10]}, **MK_LAYOUT}

    def test_round_trip(self):
        text = json.dumps(
            {
                "name": "custom",
                "sweep": {"start": 8, "stop": 20},
                "groups": [_group("mk", "kononenko", 2), _group("u", "uniform", 1)],
                "tracked": [{"label": "informative", "groups": ["mk"], "with_su": False},
                            {"label": "noninformative", "groups": ["u"]}],
                "class_card": 2,
                "sample_size_policy": None,
                "replicates": 4,
                "master_seed": 99,
            }
        )
        cfg = config_from_json(text)
        assert cfg.groups == (
            GroupSpec("mk", GeneratorKind.KONONENKO, 2, 2),
            GroupSpec("u", GeneratorKind.UNIFORM, 1, 2),
        )
        assert cfg.tracked == (TrackedSubset("informative", ("mk",)),
                               TrackedSubset("noninformative", ("u",)))
        assert cfg.sweep.values == tuple(range(8, 21))
        assert cfg.replicates == 4
        curve = run_experiment(cfg)
        assert len(curve.sweep_values) == 13
        # the curve this experiment gave in its rule-based form
        assert _curve_sha256(cfg) == "5b08f1d388825f35fcde140a5dc5a608128c4d41aa012783992e7f3481ef19ef"

    def test_policy_forms(self):
        base = {
            "name": "c", "sweep": {"values": [3]},
            "groups": [_group("u", "uniform", 2, "sweep")],
            "tracked": [{"label": "set", "groups": ["u"]}],
        }
        fixed = config_from_json({**base, "sample_size_policy": {"fixed": 50}})
        assert fixed.sample_size_policy == SampleSizePolicy(fixed=50)
        computed = config_from_json({**base, "sample_size_policy": {"computed": 5}})
        assert computed.sample_size_policy == SampleSizePolicy(computed=5.0)
        # one form, and no key beside it: every other key in a config is an error too
        for policy in ({"fixed": 50, "computed": 5}, {"fixed": 50, "note": "x"}, {}, {"m": 50}, [50]):
            with pytest.raises(InvalidInputError, match="unknown sample size policy"):
                config_from_json({**base, "sample_size_policy": policy})

    def test_count_rules(self):
        cfg = config_from_json({
            **self.BASE,
            "groups": [
                _group("a", "uniform", {"window": [2, 9]}),
                _group("b", "uniform", {"fixed": 2, "offset": 0, "window": [2, 9]}),
                _group("c", "uniform", {"offset": -2}),
                _group("d", "uniform", {"binary_equivalent": True}),
            ],
            "tracked": [{"label": "set", "groups": ["a", "b", "c", "d"]}],
        })
        assert [g.count for g in cfg.groups] == [
            CountRule(window=(2, 9)),
            CountRule(fixed=2, window=(2, 9)),
            CountRule(offset=-2),
            CountRule(binary_equivalent=True),
        ]

    def test_missing_field_reported(self):
        for field in ("name", "groups", "tracked"):
            data = {k: v for k, v in self.BASE.items() if k != field}
            with pytest.raises(InvalidInputError, match=field):
                config_from_json(data)

    def test_bad_rule_reported(self):
        # the scalar rule form is gone: groups and tracked subsets are the only layout
        with pytest.raises(InvalidInputError, match="unknown experiment config field.*rule"):
            config_from_json({**self.BASE, "rule": "mk"})

    def test_non_object_rejected(self):
        for text in ("[1, 2]", "5", '"config"', "null"):
            with pytest.raises(InvalidInputError, match="JSON object"):
                config_from_json(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError, match="replicate"):
            config_from_json({**self.BASE, "replicate": 5})
        # a sweep is given by its values or by start/stop, not both
        sweep = {"values": [10], "start": 8, "stop": 9}
        with pytest.raises(InvalidInputError, match=r"unknown sweep field\(s\): start, stop"):
            config_from_json({**self.BASE, "sweep": sweep})
        # a sweep is its values: a kind no longer says what they drive
        with pytest.raises(InvalidInputError, match=r"^unknown sweep field\(s\): kind$"):
            config_from_json({**self.BASE, "sweep": {"kind": "sample_size", "values": [10]}})

    def test_boolean_count_rejected(self):
        for value in (True, False):
            with pytest.raises(InvalidInputError, match="replicates"):
                config_from_json({**self.BASE, "replicates": value})

    def test_theta_ref_is_an_unknown_field(self):
        # nothing reads a reference value, so the key is no longer part of the schema
        with pytest.raises(InvalidInputError, match="unknown experiment config field.*theta_ref"):
            config_from_json({**self.BASE, "theta_ref": 0.5})

    @pytest.mark.parametrize(
        "group, match",
        [
            ({"count": True}, "group count"),
            ({"count": 1.5}, "group count"),
            ({"cardinality": 2.5}, "group cardinality"),
            ({"cardinality": "wide"}, "group cardinality"),
            ({"family": "gaussian"}, "gaussian"),
            ({"count": {"window": [2]}}, "count window"),
            ({"count": {"window": [2, 4.5]}}, "count window"),
            ({"count": {"fixed": False}}, "count fixed"),
            ({"count": {"offset": 0.5}}, "count offset"),
            ({"count": {"binary_equivalent": 1}}, "binary_equivalent"),
            ({"count": {"step": 2}}, "unknown group count field.*step"),
            ({"colour": "red"}, "unknown group field.*colour"),
            ({"count": {"window": [4, 2]}}, r"count window \[4, 2\] is reversed"),
            ({"count": {"fixed": 2, "binary_equivalent": True}}, "either fixed or binary_equivalent"),
            ({"count": {"fixed": 2, "offset": 1}}, "offset applies only"),
            ({"family": None}, "unknown family None"),
            ({"family": "Uniform"}, "unknown family 'Uniform'"),
            ({"count": False}, "group count must be an integer, got False"),
            ({"cardinality": True}, "group cardinality must be an integer, got True"),
            ({"count": {"window": "ab"}}, "count window must be a list or tuple"),
            ({"count": {"offset": True}}, "count offset must be an integer, got True"),
        ],
    )
    def test_group_fields_checked(self, group, match):
        data = {**self.BASE, "groups": [{**_group("mk", "kononenko", 2), **group}],
                "tracked": [{"label": "set", "groups": ["mk"]}]}
        # an unknown key is a JSON error; Python names its keyword arguments itself
        _rejected_both_ways(data, match, python=not match.startswith("unknown group"))

    @pytest.mark.parametrize(
        "group, match",
        [
            (_group("u", "uniform", -1), "^a fixed count must not be negative, got -1$"),
            (_group("u", "uniform", {"fixed": -1}), "^a fixed count must not be negative, got -1$"),
            (_group("u", "uniform", 1, 1), "^group cardinality must be at least 2, got 1$"),
            (_group("u", "uniform", 1, 2**63),
             r"^group cardinality must not exceed 9223372036854775807 \(int64 codes\), "
             r"got 9223372036854775808$"),
            (_group("u", "xor_pair", 3),
             r"^an xor_pair group must have a fixed count of 2, got CountRule\(fixed=3,"),
            (_group("u", "xor_pair", {"offset": 0}), "^an xor_pair group must have a fixed count of 2"),
            (_group("u", "xor_pair", 2, 3), "^an xor_pair group must have cardinality 2, got 3$"),
            (_group("u", "xor_pair", 2, "sweep"), "^an xor_pair group must have cardinality 2, got 'sweep'$"),
        ],
        ids=["count-negative", "count-fixed-negative", "cardinality-1", "cardinality-2**63",
             "xor-count-3", "xor-count-offset", "xor-cardinality-3", "xor-cardinality-sweep"],
    )
    def test_group_failing_at_every_point_rejected_when_built(self, group, match):
        # each of these once built, and then named no column or failed at
        # every point where the group has columns
        data = {**self.BASE, "groups": [group], "tracked": [{"label": "set", "groups": ["u"]}]}
        _rejected_both_ways(data, match)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"class_card": 1}, "^class cardinality must be at least 2, got 1$"),
            ({"class_card": 2**70},
             r"^class cardinality must not exceed 9223372036854775807 \(int64 codes\), "
             r"got at least 2\*\*70$"),
            ({"groups": [_group("u", "uniform", 2)], "tracked": [{"label": "set", "groups": ["u", "u"]}]},
             r"^tracked groups must not repeat, got \['u', 'u'\]$"),
        ],
        ids=["class-card-1", "class-card-2**70", "tracked-group-twice"],
    )
    def test_config_failing_at_every_point_rejected_when_built(self, changes, match):
        # a class past the int64 codes, or a subset that names a group twice,
        # once built and then skipped every point; a class cardinality below
        # 2 is checked by the same rule, which names the value
        _rejected_both_ways({**self.BASE, **changes}, match)

    @pytest.mark.parametrize(
        "subset, match",
        [
            ({"with_su": "yes"}, "with_su"),
            # a subset is measured wherever its groups have columns: no window
            ({"window": [2, 9]}, r"unknown tracked subset field\(s\): window"),
            ({"window": None}, r"unknown tracked subset field\(s\): window"),
            ({"groups": "mk"}, "tracked groups"),
            ({"label": "s", "groups": ["mk"], "weight": 1}, "unknown tracked subset field"),
            ({"groups": "xor"}, "tracked groups must be a list or tuple, got 'xor'"),
            ({"groups": {"mk": 1}}, "tracked groups must be a list or tuple"),
            ({"with_su": 1}, "with_su must be true or false, got 1"),
            ({"with_su": None}, "with_su must be true or false, got None"),
        ],
    )
    def test_tracked_fields_checked(self, subset, match):
        data = {**self.BASE, "tracked": [{"label": "s", "groups": ["mk"], **subset}]}
        _rejected_both_ways(data, match, python=not match.startswith("unknown tracked"))

    def test_scan_flag_must_be_boolean(self):
        with pytest.raises(InvalidInputError, match="representativeness_scan"):
            config_from_json({**self.BASE, "representativeness_scan": 1})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("master_seed", -3, "non-negative"),
            ("xor_noise", 0.7, "noise"),
            ("xor_noise", -0.1, "noise"),
            ("kononenko_k", -1, "informativeness"),
            ("kononenko_k", 0, "informativeness"),
            ("kononenko_k", math.inf, "kononenko_k must be a finite number, got inf"),
            ("kononenko_k", True, "kononenko_k must be a finite number, got True"),
            ("xor_noise", math.nan, "xor_noise must be a finite number, got nan"),
            ("xor_noise", [0.1], "xor_noise must be a finite number"),
            ("replicates", True, "replicates must be an integer, got True"),
            ("class_card", False, "class_card must be an integer, got False"),
            ("representativeness_scan", 1, "representativeness_scan must be true or false, got 1"),
            ("representativeness_scan", "false", "representativeness_scan must be true or false"),
            ("sweep", {"values": 5}, "sweep values must be a list or tuple, got 5"),
            ("sweep", {"values": "12"}, "sweep values must be a list or tuple"),
            ("sweep", {"values": [True]}, "sweep value must be an integer, got True"),
            ("sample_size_policy", {"computed": "10"}, "computed factor must be a finite number"),
        ],
    )
    def test_config_wide_values_rejected_when_built(self, field, value, match):
        _rejected_both_ways({**self.BASE, field: value}, match)

    @pytest.mark.parametrize(
        "groups, match",
        [
            ([_group("x", "xor_pair", 2), _group("y", "xor_pair", 2)], "at most one xor_pair group"),
            ([_group("a", "uniform", 11), _group("a1", "uniform", 1)], "'a1' is 'a' followed by digits"),
            ([_group("u12", "uniform", 1), _group("u", "uniform", 2)], "'u12' is 'u' followed by digits"),
        ],
    )
    def test_layout_failing_at_every_point_rejected_when_built(self, groups, match):
        data = {**self.BASE, "groups": groups,
                "tracked": [{"label": "set", "groups": [g["name"] for g in groups]}]}
        with pytest.raises(InvalidInputError, match=match):
            config_from_json(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replicates", "2"),
            ("master_seed", "5"),
            ("class_card", "2"),
            ("kononenko_k", "1"),
            ("xor_noise", "0.05"),
            ("sample_size_policy", {"computed": "10"}),
            ("sweep", {"values": ["20"]}),
            ("sweep", {"start": "8", "stop": 10}),
            ("groups", [{**_group("mk", "kononenko", 2), "count": "1"}]),
            ("groups", [{**_group("mk", "kononenko", 2), "cardinality": "2"}]),
            ("groups", [{**_group("mk", "kononenko", {"fixed": "2"})}]),
        ],
    )
    def test_numeric_strings_rejected(self, field, value):
        # a sweep's start/stop pair is a JSON form only
        _rejected_both_ways({**self.BASE, field: value}, "must be an integer|must be a finite number",
                            python="start" not in value)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"name": 5}, "experiment name must be a string, got 5"),
            ({"groups": [{**_group("mk", "kononenko", 2), "name": None}],
              "tracked": [{"label": "s", "groups": ["None"]}]}, "group name must be a string, got None"),
            ({"tracked": [{"label": 7, "groups": ["mk"]}]}, "tracked label must be a string, got 7"),
            ({"tracked": [{"label": "s", "groups": [1]}]}, "tracked group must be a string, got 1"),
            ({"tracked": [{"label": "s", "groups": [None]}]}, "tracked group must be a string, got None"),
            ({"groups": [{**_group("mk", "kononenko", 2), "name": 5}]}, "group name must be a string, got 5"),
            ({"name": None}, "experiment name must be a string, got None"),
            ({"groups": "mk"}, "groups must be a list or tuple of GroupSpec, got 'mk'"),
            ({"tracked": "mk"}, "tracked must be a list or tuple of TrackedSubset, got 'mk'"),
        ],
        ids=["config-name", "group-name", "tracked-label", "tracked-group", "tracked-group-null",
             "group-name-number", "config-name-null", "groups-string", "tracked-string"],
    )
    def test_non_string_names_rejected(self, changes, match):
        _rejected_both_ways({**self.BASE, **changes}, match)

    def test_whole_number_floats_in_json_text_are_integers(self):
        # JSON has one number type; a mapping built in Python follows the Python rule
        text = json.dumps({**self.BASE, "replicates": 3.0, "sweep": {"values": [1e3]}})
        assert '"replicates": 3.0' in text and '"values": [1000.0]' in text
        cfg = config_from_json(text.replace("1000.0", "1e3"))
        assert (cfg.replicates, cfg.sweep.values) == (3, (1000,))
        assert type(cfg.replicates) is int and type(cfg.sweep.values[0]) is int
        cfg = config_from_json('{"name": "x", "sweep": {"start": 8.0, "stop": 1e1},'
                               ' "groups": [{"name": "u", "family": "uniform", "count": 2.0,'
                               ' "cardinality": 4e0}], "tracked": [{"label": "s", "groups": ["u"]}],'
                               ' "kononenko_k": 2.0, "xor_noise": 0.0}')
        assert cfg.sweep.values == (8, 9, 10)
        assert cfg.groups == (GroupSpec("u", GeneratorKind.UNIFORM, 2, 4),)
        assert (cfg.kononenko_k, cfg.xor_noise) == (2.0, 0.0)
        assert all(type(v) is float for v in (cfg.kononenko_k, cfg.xor_noise))
        with pytest.raises(InvalidInputError, match="replicates must be an integer, got 3.0"):
            config_from_json({**self.BASE, "replicates": 3.0})
        with pytest.raises(InvalidInputError, match="replicates must be an integer, got 2.5"):
            config_from_json(json.dumps({**self.BASE, "replicates": 2.5}))

    def test_integers_are_numbers(self):
        cfg = config_from_json({**self.BASE, "kononenko_k": 2, "xor_noise": 0})
        assert (cfg.kononenko_k, cfg.xor_noise) == (2.0, 0.0)
        assert all(type(v) is float for v in (cfg.kononenko_k, cfg.xor_noise))

    @pytest.mark.parametrize(
        "changes",
        [
            {"sample_size_policy": {"fixed": 40}},
            {"sample_size_policy": None, "sweep": {"values": [10]}},
        ],
    )
    def test_scan_needs_computed_policy(self, changes):
        data = {**presets._PRESETS["chi-scan"], **changes}
        with pytest.raises(InvalidInputError, match="computed sample size policy"):
            config_from_json(data)

    def test_xor_group_needs_binary_class(self):
        data = {**self.BASE, "groups": [_group("xor", "xor_pair", 2)],
                "tracked": [{"label": "set", "groups": ["xor"]}]}
        assert config_from_json(data).class_card == 2
        with pytest.raises(InvalidInputError, match="class cardinality 2"):
            config_from_json({**data, "class_card": 3})


class TestConfigValidation:
    GROUPS = (GroupSpec("mk", GeneratorKind.KONONENKO, 2, 2),)
    TRACKED = (TrackedSubset("informative", ("mk",)),)

    def test_cardinality_sweep_needs_range_field(self):
        # a sweep drives the cardinality of the groups whose cardinality is
        # "sweep"; the cataloged cardinality sweeps are the presets with one
        swept = [name for name in CATALOG if any(g.cardinality == "sweep" for g in preset(name).groups)]
        assert swept == ["fig-a1", "fig-a2", "fig-c", "fig-d", "fig-f1", "fig-f2"]

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(InvalidInputError, match="unique"):
            ExperimentConfig(
                name="bad",
                sweep=Sweep((10,)),
                groups=self.GROUPS + (GroupSpec("mk", GeneratorKind.UNIFORM, 1, 2),),
                tracked=self.TRACKED,
            )

    def test_tracked_subset_naming_unknown_group_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown group.*noise"):
            ExperimentConfig(
                name="bad",
                sweep=Sweep((10,)),
                groups=self.GROUPS,
                tracked=self.TRACKED + (TrackedSubset("u", ("mk", "noise")),),
            )

    def test_duplicate_tracked_labels_rejected(self):
        # both would report as msu_s, the first subset's values lost
        groups = self.GROUPS + (GroupSpec("u", GeneratorKind.UNIFORM, 1, 2),)
        with pytest.raises(InvalidInputError, match=r"labels must be unique, got \['s', 's'\]"):
            ExperimentConfig(
                name="bad",
                sweep=Sweep((10,)),
                groups=groups,
                tracked=(TrackedSubset("s", ("mk",)), TrackedSubset("s", ("u",))),
            )
        with pytest.raises(InvalidInputError, match="labels must be unique"):
            config_from_json({
                "name": "bad",
                "sweep": {"values": [10]},
                "groups": [_group("mk", "kononenko", 2), _group("u", "uniform", 1)],
                "tracked": [{"label": "s", "groups": ["mk"]}, {"label": "s", "groups": ["u"]}],
            })

    @pytest.mark.parametrize(
        "factor",
        [0.0, math.nan, math.inf, pytest.param(10**400, id="int-past-float"),
         pytest.param(-(10**5000), id="int-too-long-to-print")],
    )
    def test_computed_factor_must_be_finite_and_positive(self, factor):
        with pytest.raises(InvalidInputError, match="factor"):
            SampleSizePolicy(computed=factor)

    @pytest.mark.parametrize(
        "m, shown", [(0, "0"), pytest.param(-(10**5000), r"at most -2\*\*16609", id="int-too-long-to-print")]
    )
    def test_fixed_sample_size_must_be_positive(self, m, shown):
        with pytest.raises(InvalidInputError, match=f"^fixed sample size must be at least 1, got {shown}$"):
            SampleSizePolicy(fixed=m)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Sweep((10.7, 20)),
            lambda: Sweep(("12", 20)),
            lambda: GroupSpec("a", GeneratorKind.UNIFORM, count=2.9, cardinality=3),
            lambda: GroupSpec("a", GeneratorKind.UNIFORM, count=2, cardinality=3.5),
            lambda: GroupSpec("a", GeneratorKind.UNIFORM, count=None, cardinality=3),
            lambda: SampleSizePolicy(fixed=2.5),
            lambda: CountRule(fixed=1.5),
            lambda: CountRule(offset=0.5),
            lambda: CountRule(window=(1, 2.5)),
            lambda: CountRule(window=(1, 2, 3)),
            lambda: run_experiment(_desk(preset("fig-b2"), 2.5)),
            lambda: dataclasses.replace(preset("fig-b2"), class_card=2.0),
            lambda: dataclasses.replace(preset("fig-b2"), master_seed=1.5),
            lambda: resolve_point(preset("fig-b2"), 8.5),
            # a bool is an int subclass, but a flag is not a count
            lambda: SampleSizePolicy(fixed=True),
            lambda: dataclasses.replace(preset("fig-b2"), replicates=True),
            lambda: GroupSpec("a", GeneratorKind.UNIFORM, count=True, cardinality=3),
            lambda: CountRule(window=(False, 3)),
        ],
        ids=["sweep-float", "sweep-string", "count", "cardinality", "count-none", "fixed-m",
             "rule-fixed", "rule-offset", "rule-window", "rule-window-triple", "replicates",
             "class-card", "master-seed", "resolve-point", "fixed-m-bool", "replicates-bool",
             "count-bool", "rule-window-bool"],
    )
    def test_integer_fields_are_not_truncated(self, build):
        # the rule of column indices and prefixes: an integer, or rejected
        with pytest.raises(InvalidInputError, match="must be an integer|must be a .* pair"):
            build()

    def test_numpy_integer_fields_accepted(self):
        config = dataclasses.replace(
            preset("fig-b2"),
            sweep=Sweep((np.int64(8), np.uint8(12))),
            groups=(GroupSpec("mk", GeneratorKind.KONONENKO, np.int32(2), np.uint16(2)),),
            tracked=(TrackedSubset("informative", ("mk",)),),
            replicates=np.int64(2),
            class_card=np.uint8(2),
            master_seed=np.uint32(7),
        )
        assert (config.replicates, config.class_card, config.master_seed) == (2, 2, 7)
        assert config.sweep.values == (8, 12)
        assert (config.groups[0].count, config.groups[0].cardinality) == (CountRule(fixed=2), 2)
        rule = CountRule(fixed=np.int8(1), window=(np.int64(1), np.int16(3)))
        assert (rule.fixed, rule.window, SampleSizePolicy(fixed=np.int64(9)).fixed) == (1, (1, 3), 9)
        assert all(
            type(v) is int
            for v in (config.replicates, config.master_seed, *config.sweep.values, *rule.window)
        )
        assert run_experiment(config).sample_sizes == (8, 12)

    def test_family_given_by_name_is_the_enum(self):
        # a family named by its string once fell through to Kononenko columns
        by_name = GroupSpec("u", "uniform", 2, 2)
        assert by_name == GroupSpec("u", GeneratorKind.UNIFORM, 2, 2)
        assert by_name.family is GeneratorKind.UNIFORM
        configs = [
            dataclasses.replace(
                preset("fig-b2"), replicates=20, sweep=Sweep((50, 2000)),
                groups=(GroupSpec("u", family, 2, 2),), tracked=(TrackedSubset("u", ("u",)),),
            )
            for family in ("uniform", GeneratorKind.UNIFORM)
        ]
        assert configs[0] == configs[1]
        assert _curve_sha256(configs[0]) == _curve_sha256(configs[1])
        # two independent binary columns and a binary class: the MSU is near 0
        # (a Kononenko pair's was 0.127 at 2,000 rows)
        assert run_experiment(configs[0]).mean_series("msu_u")[1] < 0.01

    @pytest.mark.parametrize("family", ["gaussian", "UNIFORM", "", 0, None])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(InvalidInputError, match="unknown family"):
            GroupSpec("u", family, 2, 2)

    @pytest.mark.parametrize("policy", [5000, "computed", SampleSizePolicy])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(InvalidInputError, match="unknown sample size policy"):
            ExperimentConfig(
                name="bad",
                sweep=Sweep((2, 4)),
                groups=(GroupSpec("mk", GeneratorKind.KONONENKO, 2, "sweep"),),
                tracked=self.TRACKED,
                sample_size_policy=policy,
            )


def _json_sample_size_sweep():
    # unsorted, with a repeated value and an infeasible 0
    return config_from_json({
        "name": "json-sweep",
        "groups": [_group("mk", "kononenko", 2, 3), _group("u", "uniform", 1, 3)],
        "tracked": [{"label": "informative", "groups": ["mk"]},
                    {"label": "noninformative", "groups": ["u"]}],
        "class_card": 3, "replicates": 3,
        "sweep": {"values": [40, 12, 0, 25, 12, 100]},
    })


def test_json_sample_size_sweep_gives_the_rule_based_curve():
    digest = "f69755cb325db22b43cbc1dce8465c5becdb9c4f409e0d7f378e4e3b19466252"
    assert _curve_sha256(_json_sample_size_sweep()) == digest


class TestNestedEngine:
    """run_experiment reads sweep points as row prefixes of one dataset per
    replicate; it must agree bit for bit with recomputing each point alone."""

    @pytest.mark.parametrize(
        "config",
        [_desk(preset("fig-b2"), 3), _desk(preset("fig-e1"), 4), _json_sample_size_sweep()],
        ids=["fig-b2", "fig-e1", "json"],
    )
    def test_matches_isolated_recomputation(self, config):
        curve = run_experiment(config)
        expected_errors = []
        for i, value in enumerate(config.sweep.values):
            try:
                resolve_point(config, value)
            except InvalidInputError as exc:
                expected_errors.append((value, str(exc)))
                assert curve.sample_sizes[i] is None
                assert all(series[i] is None for series in curve.measures.values())
                continue
            assert curve.sample_sizes[i] == value
            reps = [run_replicate(config, value, r) for r in range(config.replicates)]
            assert list(reps[0]) == [m for m in curve.measures if curve.measures[m][i] is not None]
            for label in reps[0]:
                mean, std = _mean_std([rep[label] for rep in reps])
                assert curve.measures[label][i] == MeasureStats(mean, std, config.replicates)
        assert list(curve.errors) == expected_errors

    def test_sample_size_sweep_builds_one_dataset_per_replicate(self, monkeypatch):
        batches = _spy_batches(monkeypatch)
        run_experiment(_desk(preset("fig-b2"), 4))
        assert [m for ids, m, _ in batches for _ in ids] == [150] * 4

    @pytest.mark.parametrize("name", ["fig-g", "fig-xor-1", "fig-xor-3"])
    def test_count_sweep_matches_isolated_recomputation(self, name):
        config = _desk(preset(name), 2)
        curve = run_experiment(config)
        points = {i: resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
        for plan in harness._plans(config, points):
            shared = _layout_values(config, plan, range(2))
            for (i, _, _), values in zip(plan.points, shared):
                (alone,) = _layout_values(config, _alone(config, points[i]), range(2))
                assert list(values.items()) == list(alone.items())  # labels in order, every float
                assert curve.sample_sizes[i] == points[i].m
                for label, reps in alone.items():
                    assert curve.measures[label][i] == MeasureStats(*_mean_std(reps), 2)
        assert not curve.errors

    def test_measures_follow_the_sweep_not_the_nested_sets(self):
        # points 1 and 3 share a nested set (no XOR pair at either) and point
        # 2 has its own, so the sets are measured in the order 1, 3, 2; each
        # measure still takes its place from the first point that lists it.
        config = config_from_json({
            "name": "order",
            "sweep": {"values": [1, 2, 3]},
            "groups": [
                _group("u", "uniform", 2),
                _group("xor", "xor_pair", {"fixed": 2, "window": [2, 2]}),
                _group("late", "uniform", {"fixed": 1, "window": [3, 3]}),
            ],
            "tracked": [{"label": label, "groups": [name]}
                        for label, name in (("u", "u"), ("set", "xor"), ("late", "late"))],
            "sample_size_policy": {"fixed": 40},
            "replicates": 3,
        })
        points = {i: resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
        assert [[i for i, _, _ in plan.points] for plan in harness._plans(config, points)] == [[0, 2], [1]]
        curve = run_experiment(config)
        assert list(curve.measures) == ["msu_u", "msu_set", "msu_late"]
        present = {label: [s is not None for s in series] for label, series in curve.measures.items()}
        assert present == {
            "msu_u": [True] * 3, "msu_set": [False, True, False], "msu_late": [False, False, True]
        }
        buffer = io.StringIO()
        curve.write_csv(buffer)
        rows = [tuple(row[:2]) for row in csv.reader(io.StringIO(buffer.getvalue()))][1:]
        assert rows == [("1", "msu_u"), ("2", "msu_u"), ("2", "msu_set"), ("3", "msu_u"), ("3", "msu_late")]

    def test_measures_of_one_point_keep_its_order(self):
        # as above, but `late` has columns at points 2 and 3: it is first met
        # in the set of points 1 and 3, measured before point 2's, yet first
        # listed at point 2, after `set`, and takes its place from there
        config = config_from_json({
            "name": "order",
            "sweep": {"values": [1, 2, 3]},
            "groups": [
                _group("u", "uniform", 2),
                _group("xor", "xor_pair", {"fixed": 2, "window": [2, 2]}),
                _group("late", "uniform", {"fixed": 1, "window": [2, 3]}),
            ],
            "tracked": [{"label": label, "groups": [name]}
                        for label, name in (("u", "u"), ("set", "xor"), ("late", "late"))],
            "sample_size_policy": {"fixed": 40},
            "replicates": 3,
        })
        points = {i: resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
        assert [[i for i, _, _ in plan.points] for plan in harness._plans(config, points)] == [[0, 2], [1]]
        curve = run_experiment(config)
        assert list(curve.measures) == ["msu_u", "msu_set", "msu_late"]
        buffer = io.StringIO()
        curve.write_csv(buffer)
        rows = [tuple(row[:2]) for row in csv.reader(io.StringIO(buffer.getvalue()))][1:]
        assert rows == [
            ("1", "msu_u"), ("2", "msu_u"), ("2", "msu_set"), ("2", "msu_late"), ("3", "msu_u"), ("3", "msu_late")
        ]

    @pytest.mark.parametrize(
        "name, per_replicate",
        [("fig-xor-1", 1), ("fig-g", 2), ("fig-b2", 1), ("fig-f1", 10)],
    )
    def test_datasets_per_replicate(self, monkeypatch, name, per_replicate):
        batches = _spy_batches(monkeypatch)
        run_experiment(_desk(preset(name), 2))
        assert sorted(r for ids, _, _ in batches for r in ids) == [0] * per_replicate + [1] * per_replicate

    @pytest.mark.parametrize(
        "name, columns, joints",
        [("fig-xor-2", 16, 13), ("fig-h", 40, 36), ("fig-b2", 3, 3), ("fig-g", 61, 43)],
    )
    def test_each_column_counted_once_per_replicate(self, monkeypatch, name, columns, joints):
        # one count per histogram, at its own prefixes. A dense joint gives
        # every marginal, of which the table keeps those it lacks; a
        # renumbered one (fig-g's widest) gives none, and only the members
        # the table lacks are counted alone, once each. The table then holds
        # every column's marginals, the class included.
        calls, samples, missed = [], [], set()
        counts = measures.prefix_counts

        def counting(sample, subset, bounds, rows, members):
            at = (id(sample), bounds, rows)
            calls.append((subset, *at))
            lacked = [c for c in subset if ((c,), bounds, rows) not in sample._entropies]
            for joint, columns in counts(sample, subset, bounds, rows, members):
                if len(subset) > 1 and not columns:
                    missed.update(((c,), *at) for c in lacked)
                yield joint, columns

        def generating(m, class_card, blocks, rngs, *args):
            assert len(rngs) == 1  # one replicate: a batch is its dataset
            samples.append(generate_replicates(m, class_card, blocks, rngs, *args))
            return samples[-1]

        monkeypatch.setattr(measures, "prefix_counts", counting)
        monkeypatch.setattr(harness, "generate_replicates", generating)
        run_experiment(_desk(preset(name), 1))
        assert len(calls) == len(set(calls))
        assert len([c for c in calls if len(c[0]) > 1]) == joints
        assert {c for c in calls if len(c[0]) == 1} == missed
        assert bool(missed) == (name == "fig-g")
        singles = [{s for s, *_ in sample._entropies if len(s) == 1} for sample in samples]
        assert [len(s) for s in singles] == [sample.n_columns for sample in samples]
        assert sum(map(len, singles)) == columns

    def test_each_measure_checks_its_prefixes_once(self, monkeypatch):
        # fig-b2 measures 3 subsets at 143 prefixes: each measure validates
        # its prefixes once, and `prefix_counts` takes them checked
        calls = []
        check = sample_module.normalize_prefixes

        def counting(sample, prefixes, period=None):
            calls.append(len(prefixes))
            return check(sample, prefixes, period)

        monkeypatch.setattr(measures, "normalize_prefixes", counting)
        monkeypatch.setattr(sample_module, "normalize_prefixes", counting)
        run_experiment(_desk(preset("fig-b2"), 1))
        assert calls == [143] * 3

    def test_union_past_the_cell_cap_is_split_into_its_points(self, monkeypatch):
        # the point at 1 needs 160 rows for its 8-value attribute, the points
        # at 2 and 3, where it has no column, need 40 for a binary one: one
        # dataset for all three (160 x 6 = 960 cells) is smaller than theirs
        # together (640 + 160 + 200), but past a cap of 900 that each of them
        # stays under
        data = {
            "name": "capped", "replicates": 2,
            "sweep": {"values": [1, 2, 3]},
            "groups": [
                _group("a", "uniform", {"offset": 0}),
                _group("b", "kononenko", {"fixed": 1, "window": [1, 1]}, 8),
                _group("c", "uniform", {"fixed": 1}),
            ],
            "tracked": [
                {"label": "wide", "groups": ["b"]},
                {"label": "narrow", "groups": ["c"]},
            ],
            "sample_size_policy": {"computed": 10},
        }
        batches = _spy_batches(monkeypatch)
        built = lambda: [(m, columns) for ids, m, columns in batches for _ in ids]
        uncapped = run_experiment(config_from_json(data))
        assert built() == [(160, 5)] * 2
        batches.clear()
        monkeypatch.setattr(harness, "MAX_DATASET_CELLS", 900)
        capped = run_experiment(config_from_json(data))
        assert sorted(built()) == [(40, 3)] * 2 + [(40, 4)] * 2 + [(160, 3)] * 2
        assert capped.measures == uncapped.measures and not capped.errors

    def test_point_past_the_cell_cap_is_skipped_before_any_draw(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("nothing may be drawn")

        for name in ("fill_uniform", "fill_kononenko", "fill_xor_pair"):
            monkeypatch.setattr(dataset, name, failing)
        cfg = config_from_json({
            "name": "huge", "replicates": 2,
            "sweep": {"values": [1_048_576]},
            "groups": [_group("u", "uniform", 2, "sweep")],
            "tracked": [{"label": "set", "groups": ["u"]}],
            "sample_size_policy": {"computed": 10},
        })
        curve = run_experiment(cfg)
        assert curve.errors == ((1_048_576, (
            "21990232555520 rows x 3 columns (class included) make 65970697666560 cells; "
            "a generated dataset holds at most 268435456"
        )),)
        assert curve.measures == {}

    @pytest.mark.parametrize(
        "card, shown",
        [(2**63, "9223372036854775808"),
         pytest.param(10**5000, r"at least 2\*\*16609", id="int-too-long-to-print")],
    )
    def test_a_fixed_cardinality_past_int64_is_rejected_when_built(self, card, shown):
        # it would fail at every point, so the group rejects it
        data = {
            "name": "wide", "replicates": 1,
            "sweep": {"values": [1]},
            "groups": [_group("u", "uniform", 1, card)],
            "tracked": [{"label": "set", "groups": ["u"]}],
            "sample_size_policy": {"fixed": 20},
        }
        _rejected_both_ways(data, rf"^group cardinality must not exceed \d+ \(int64 codes\), got {shown}$")

    def test_a_swept_cardinality_of_1_skips_only_its_point(self):
        cfg = config_from_json({
            "name": "narrow", "replicates": 2,
            "sweep": {"values": [1, 2, 3]},
            "groups": [_group("u", "uniform", 2, "sweep")],
            "tracked": [{"label": "set", "groups": ["u"]}],
            "sample_size_policy": {"fixed": 20},
        })
        curve = run_experiment(cfg)
        assert curve.errors == ((1, "cardinality must be at least 2, got 1"),)
        assert curve.sample_sizes == (None, 20, 20)
        assert curve.measures["msu_set"][0] is None
        assert None not in curve.measures["msu_set"][1:]

    def test_an_uncovered_sweep_value_too_long_to_print_skips_only_its_point(self):
        # Python formats no int of more than 4,300 digits, so the skip's
        # message names the value by the power of two it passes
        huge = 10**5000
        cfg = ExperimentConfig(
            "far", Sweep((4, huge)), (GroupSpec("u", "uniform", CountRule(window=(1, 10)), 2),),
            (TrackedSubset("set", ("u",)),), replicates=2,
        )
        curve = run_experiment(cfg)
        assert curve.errors == ((huge, "no tracked subset has columns at sweep value at least 2**16609"),)
        assert curve.sample_sizes == (4, None)
        assert curve.measures["msu_set"][0] is not None and curve.measures["msu_set"][1] is None

    def test_union_dataset_never_larger_than_the_points_own(self, monkeypatch):
        # the point with the largest m measures one 200-value attribute; the
        # widest point has 39 more columns but needs 40 rows, so one dataset
        # for both (4,000 x 43 cells) would outgrow their own (4,000 x 3 and
        # 40 x 42 cells)
        data = {
            "name": "guard", "replicates": 2,
            "sweep": {"values": [1, 40]},
            "groups": [
                _group("a", "uniform", {"offset": 0}),
                _group("b", "kononenko", {"fixed": 1, "window": [1, 1]}, 200),
                _group("c", "uniform", {"fixed": 1, "window": [40, 40]}),
            ],
            "tracked": [
                {"label": "wide", "groups": ["b"]},
                {"label": "narrow", "groups": ["c"]},
            ],
            "sample_size_policy": {"computed": 10},
        }
        batches = _spy_batches(monkeypatch)
        buffer = io.StringIO()
        run_experiment(config_from_json(data)).write_csv(buffer)
        assert sorted((m, columns) for ids, m, columns in batches for _ in ids) == [(40, 41)] * 2 + [(4000, 2)] * 2
        header, *lines = buffer.getvalue().splitlines(keepends=True)
        alone = []
        for value in data["sweep"]["values"]:
            single = io.StringIO()
            one_point = {**data, "sweep": {**data["sweep"], "values": [value]}}
            run_experiment(config_from_json(one_point)).write_csv(single)
            alone += single.getvalue().splitlines(keepends=True)[1:]
        assert lines == alone


def _hexed(layout_values):
    """A layout's values, every float as its hex text."""
    return [{label: [v.hex() for v in values] for label, values in point.items()} for point in layout_values]


class TestBatches:
    """Replicates generated and measured as one sample give, bit for bit,
    the floats they give one at a time."""

    @pytest.mark.parametrize("name", [name for name in CATALOG if name != "chi-scan"])
    def test_one_batch_matches_one_replicate_at_a_time(self, monkeypatch, name):
        config = _desk(preset(name), 3)
        points = {i: resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
        batches = _spy_batches(monkeypatch)
        for plan in harness._plans(config, points):
            # one replicate a batch, then all three in one batch
            alone = _layout_values(config, dataclasses.replace(plan, batch=1), range(3))
            batched = _layout_values(config, dataclasses.replace(plan, batch=3), range(3))
            assert _hexed(batched) == _hexed(alone)
            assert [ids for ids, _, _ in batches[-4:]] == [[0], [1], [2], [0, 1, 2]]

    def test_batch_boundary(self, monkeypatch):
        # fig-b1 is one layout of 50 rows and 3 columns: 150 cells a replicate
        batches = _spy_batches(monkeypatch)
        sizes = lambda: [len(ids) for ids, _, _ in batches]
        per_batch = min(harness._BATCH_CELLS // 150, harness._BATCH_REPLICATES)
        assert per_batch > 1
        config = _desk(preset("fig-b1"), per_batch + 1)
        curve = run_experiment(config)
        assert sizes() == [per_batch, 1]
        assert [r for ids, _, _ in batches for r in ids] == list(range(per_batch + 1))
        cases = ((0, [1] * 5), (299, [1] * 5), (300, [2, 2, 1]), (750, [5]), (10**6, [5]))
        for batch_cells, expected in cases:
            batches.clear()
            monkeypatch.setattr(harness, "_BATCH_CELLS", batch_cells)
            assert run_experiment(_desk(config, 5)) == run_experiment(_desk(config, 5))
            assert sizes() == expected * 2
        monkeypatch.setattr(harness, "_BATCH_CELLS", 0)
        assert run_experiment(config) == curve


class TestPlan:
    """`_plan` works out what a set of nested points measures from the
    config and the points alone, and generates nothing."""

    @pytest.mark.parametrize("name", [name for name in CATALOG if name != "chi-scan"])
    def test_every_preset_is_planned_without_generating(self, monkeypatch, name):
        def generate(*args):
            raise AssertionError("a plan generates nothing")

        monkeypatch.setattr(harness, "generate_replicates", generate)
        config = preset(name)
        points = {i: resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
        plans = harness._plans(config, points)
        # every resolved point is in exactly one plan
        assert sorted(i for plan in plans for i, _, _ in plan.points) == sorted(points)
        for plan in plans:
            indices = [i for i, _, _ in plan.points]
            nested = [points[i] for i in indices]
            assert plan.m == max(p.m for p in nested)
            widest = [max(counts) for counts in zip(*(p.counts for p in nested))]
            (cards,) = {p.cards for p in nested}
            assert plan.blocks == tuple(
                dataset.block(g.name, g.family, n, card) if n else None
                for g, n, card in zip(config.groups, widest, cards)
            )
            # each group's first column in the dataset
            first = dict(zip((g.name for g in config.groups), accumulate(widest, initial=0)))
            expected = []
            for i, p in zip(indices, nested):
                count = dict(zip(first, p.counts))
                own = []
                for sub in config.tracked:
                    columns = [(g, c) for g in sub.groups for c in range(count[g])]
                    if columns:
                        own.append((f"msu_{sub.label}", tuple(first[g] + c for g, c in columns)))
                        if sub.with_su:
                            own += [(f"su_{g}{c + 1}", (first[g] + c,)) for g, c in columns]
                expected.append((i, p.m, tuple(own)))
            assert plan.points == tuple(expected)
            listed = {measure for _, _, own in expected for measure in own}
            assert plan.measures == {
                measure: tuple(sorted({m for _, m, own in expected if measure in own})) for measure in listed
            }
            assert plan.columns == sum(widest)
            assert plan.batch == min(max(1, harness._BATCH_CELLS // (plan.m * (1 + sum(widest)))), harness._BATCH_REPLICATES)

    def test_a_run_takes_the_batch_of_its_plan(self, monkeypatch):
        # fig-b2 is one plan; every batch of its run holds `plan.batch`
        # replicates but the last, which holds the rest
        config = _desk(preset("fig-b2"), 100)
        points = {i: resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
        (plan,) = harness._plans(config, points)
        batches = _spy_batches(monkeypatch)
        run_experiment(config)
        sizes = [len(ids) for ids, _, _ in batches]
        assert sizes[:-1] == [plan.batch] * (len(sizes) - 1) and sum(sizes) == 100
        assert sizes == [72, 28]

    @pytest.mark.parametrize("name, sets", [("fig-b2", 1), ("fig-g", 2)])
    def test_each_nested_set_is_planned_once(self, monkeypatch, name, sets):
        calls = []
        plan = harness._plan
        monkeypatch.setattr(harness, "_plan", lambda *args: calls.append(args) or plan(*args))
        config = _desk(preset(name), 1)
        run_experiment(config)
        assert len(calls) == sets
        assert sorted(i for _, points in calls for i in points) == list(range(len(config.sweep.values)))


def _independent_msu(cards, m):
    """The ratio of exact plug-in expectations that predicts the mean MSU of
    m rows of independent uniform columns of cardinalities `cards`:
    n/(n - 1) (sum E[Hi] - E[Hjoint]) / sum E[Hi]."""
    n, cells = len(cards), math.prod(cards)
    total = math.fsum(expected_plugin_entropy([1 / c] * c, m) for c in cards)
    joint = expected_plugin_entropy([1 / cells] * cells, m)
    return n / (n - 1) * (total - joint) / total


FIG_B2_REPLICATES = 2000


@pytest.fixture(scope="module")
def fig_b2():
    """fig-b2 at FIG_B2_REPLICATES replicates, whose SU and MSU curves are
    both held against ratio predictions."""
    return run_experiment(dataclasses.replace(preset("fig-b2"), replicates=FIG_B2_REPLICATES))


class TestRatioPrediction:
    """Curves of independent uniform columns against the ratio of exact
    plug-in expectations (`oracle_utils.expected_plugin_entropy`).

    The ratio of expectations is not the expectation of the ratio, but it
    predicts each point's mean within 4 standard errors. Nested points
    share their replicates, so their z values are correlated.
    """

    FIG_D_REPLICATES = 300
    FIG_F2_REPLICATES = 300

    def test_non_informative_su_curves(self, fig_b2):
        # Each member of fig-b2's XOR pair is independent of the class at any
        # noise, and both are uniform binary, so each SU is that of two
        # independent uniform binary columns: 2 (E[Hx] + E[Hc] - E[Hxc]) /
        # (E[Hx] + E[Hc]) predicts its mean. At 2,000 replicates the largest
        # |z| over the curves' 286 points was 2.50 (2.96 at 500 replicates,
        # 2.95 at 1,000).
        curve = fig_b2
        assert curve.sweep_values == tuple(range(8, 151))
        for m, *stats in zip(curve.sweep_values, curve.measures["su_xor1"], curve.measures["su_xor2"]):
            prediction = _independent_msu([2, 2], m)  # an SU is the MSU of two columns
            for s in stats:
                assert s.n == FIG_B2_REPLICATES
                z = (s.mean - prediction) / (s.std / math.sqrt(s.n))
                assert abs(z) < 4, (m, s.mean, prediction, z)

    def test_paired_cardinality_msu_curves(self):
        # fig-d: a pair of uniform columns of the swept cardinality V, or
        # 2 log2 V uniform binary ones, each set beside the uniform binary
        # class, at 5,000 rows. The largest |z| over the 10 point-measures
        # was 1.46 at 300 replicates and 1.62 at 1,000.
        config = dataclasses.replace(preset("fig-d"), replicates=self.FIG_D_REPLICATES)
        curve = run_experiment(config)
        assert curve.sweep_values == (4, 8, 16, 32, 64) and set(curve.sample_sizes) == {5000}
        pairs = zip(curve.measures["msu_binary"], curve.measures["msu_wide"])
        for v, (binary, wide) in zip(curve.sweep_values, pairs):
            bits = 2 * round(math.log2(v))
            for stats, cards in ((binary, [2] * bits + [2]), (wide, [v, v, 2])):
                assert stats.n == self.FIG_D_REPLICATES
                prediction = _independent_msu(cards, 5000)
                z = (stats.mean - prediction) / (stats.std / math.sqrt(stats.n))
                assert abs(z) < 4, (v, cards, stats.mean, prediction, z)

    def test_non_informative_pair_under_the_10x_rule(self):
        # fig-f2's non-informative subset: two uniform columns of the swept
        # cardinality V beside the uniform binary class, at m = 10 x 2 V^2
        # rows. The largest |z| over the 10 cardinalities was 1.65 at 300
        # replicates and 2.28 at 1,000.
        config = dataclasses.replace(preset("fig-f2"), replicates=self.FIG_F2_REPLICATES)
        curve = run_experiment(config)
        assert curve.sweep_values == (2, 4, 5, 8, 10, 16, 20, 30, 32, 40)
        for v, m, stats in zip(curve.sweep_values, curve.sample_sizes, curve.measures["msu_noninformative"]):
            assert m == 20 * v * v and stats.n == self.FIG_F2_REPLICATES
            prediction = _independent_msu([v, v, 2], m)
            z = (stats.mean - prediction) / (stats.std / math.sqrt(stats.n))
            assert abs(z) < 4, (v, m, stats.mean, prediction, z)


def _xor_msu(noise, m, uniform=0):
    """The ratio of exact plug-in expectations that predicts the mean MSU of
    m rows of a noisy XOR triple (a uniform binary pair and a class that is
    their XOR but for a flip of probability `noise`) beside `uniform`
    independent uniform binary columns: n/(n - 1) (sum E[Hi] - E[Hjoint]) /
    sum E[Hi], every one of the n columns uniform binary."""
    n, cells = 3 + uniform, 4 * 2**uniform
    total = n * expected_plugin_entropy([0.5, 0.5], m)
    joint = expected_plugin_entropy([(1 - noise) / cells] * cells + [noise / cells] * cells, m)
    return n / (n - 1) * (total - joint) / total


class TestXorRatioPrediction:
    """Curves of an XOR pair, alone or with uniform columns, against the
    ratio of exact plug-in expectations (`_xor_msu`), to 4 standard errors.

    fig-b2's largest |z| over its 143 points was 2.23 at 2,000 replicates
    (1.08 at 1,000); fig-xor-1's over its 13 points was 2.02 at 1,000
    replicates (1.54 at 500). An oracle noise of 0.06 against the
    generator's 0.05 gives fig-b2 a largest |z| of 25.9.
    """

    FIG_XOR_1_REPLICATES = 1000

    @staticmethod
    def _z(stats, prediction):
        return (stats.mean - prediction) / (stats.std / math.sqrt(stats.n))

    def test_xor_pair_over_sample_size(self, fig_b2):
        assert fig_b2.sweep_values == tuple(range(8, 151)) and preset("fig-b2").xor_noise == 0.05
        for m, stats in zip(fig_b2.sweep_values, fig_b2.measures["msu_set"]):
            assert stats.n == FIG_B2_REPLICATES
            z = self._z(stats, _xor_msu(0.05, m))
            assert abs(z) < 4, (m, stats.mean, z)

    def test_a_wrong_noise_is_caught(self, fig_b2):
        # the same curve against an oracle whose class flips with 0.06
        worst = max(
            abs(self._z(stats, _xor_msu(0.06, m)))
            for m, stats in zip(fig_b2.sweep_values, fig_b2.measures["msu_set"])
        )
        assert worst > 4

    def test_xor_pair_beside_uniform_columns(self):
        # fig-xor-1: the pair and s uniform binary columns at 600 rows
        config = dataclasses.replace(preset("fig-xor-1"), replicates=self.FIG_XOR_1_REPLICATES)
        curve = run_experiment(config)
        assert curve.sweep_values == tuple(range(1, 14)) and set(curve.sample_sizes) == {600}
        for s, stats in zip(curve.sweep_values, curve.measures["msu_set"]):
            assert stats.n == self.FIG_XOR_1_REPLICATES
            z = self._z(stats, _xor_msu(config.xor_noise, 600, uniform=s))
            assert abs(z) < 4, (s, stats.mean, z)


def _kononenko_msu(k, m, n=2, class_card=2):
    """The ratio of exact plug-in expectations that predicts the mean MSU of
    m rows of n binary Kononenko columns of informativeness k beside their
    uniform class: (n + 1)/n (sum E[Hi] - E[Hjoint]) / sum E[Hi]. Each column
    is in its lower half with probability the mean of the classes' q."""
    q = math.fsum(kononenko_first_half_prob(i, k, class_card) for i in range(1, class_card + 1))
    q /= class_card
    total = expected_plugin_entropy([1 / class_card] * class_card, m)
    total += n * expected_plugin_entropy([q, 1 - q], m)
    joint = expected_plugin_entropy(kononenko_cell_probs(n, k, class_card), m)
    return (n + 1) / n * (total - joint) / total


FIG_E2_REPLICATES = 1000


@pytest.fixture(scope="module")
def fig_e2():
    return run_experiment(dataclasses.replace(preset("fig-e2"), replicates=FIG_E2_REPLICATES))


class TestKononenkoRatioPrediction:
    """fig-e2's informative curve, two binary Kononenko columns and the
    binary class over m = 8..150, against the ratio of exact plug-in
    expectations (`_kononenko_msu`), to 4 standard errors.

    The largest |z| over its 143 points was 1.77 at 1,000 replicates (1.84
    at 500). An oracle k of 1.1 against the generator's 1.0 gives a largest
    |z| of 21.3.
    """

    @staticmethod
    def _worst_z(curve, k):
        return max(
            abs((s.mean - _kononenko_msu(k, m)) / (s.std / math.sqrt(s.n)))
            for m, s in zip(curve.sweep_values, curve.measures["msu_informative"])
        )

    def test_informative_pair_over_sample_size(self, fig_e2):
        config = preset("fig-e2")
        assert (config.kononenko_k, config.class_card) == (1.0, 2)
        assert fig_e2.sweep_values == fig_e2.sample_sizes == tuple(range(8, 151))
        assert {s.n for s in fig_e2.measures["msu_informative"]} == {FIG_E2_REPLICATES}
        assert self._worst_z(fig_e2, 1.0) < 4

    def test_a_wrong_k_is_caught(self, fig_e2):
        assert self._worst_z(fig_e2, 1.1) > 4

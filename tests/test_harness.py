"""Tests for the Monte Carlo experiment harness and the preset catalog."""

import dataclasses
import hashlib
import io
import json
import math
import random

import pytest

from msulab import (
    CATALOG,
    ComputedSampleSize,
    ExperimentConfig,
    FixedSampleSize,
    GeneratorKind,
    GroupSpec,
    InvalidInputError,
    Sweep,
    TrackedSubset,
    bias,
    config_from_json,
    preset,
    run_experiment,
    run_replicate,
)
from msulab import harness, presets
from msulab.dataset import generate_dataset
from msulab.harness import CountRule, MeasureStats, _mean_std, resolve_point


def _group(name, family, count, cardinality=2):
    return {"name": name, "family": family, "count": count, "cardinality": cardinality}


def _curve_sha256(config):
    buffer = io.StringIO()
    run_experiment(config).write_csv(buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def _desk(config, replicates, sweep_values=None):
    updates = {"replicates": replicates}
    if sweep_values is not None:
        updates["sweep"] = Sweep(config.sweep.kind, tuple(sweep_values))
    return dataclasses.replace(config, **updates)


class TestResolvePoint:
    def test_fixed_policy(self):
        point = resolve_point(preset("fig-f1"), 2)
        assert point.m == 5000
        names = [n for b in point.blocks if b is not None for n in b.names]
        assert names == ["mk1", "mk2", "u1", "u2"]

    def test_computed_policy_uses_evaluated_subset(self):
        # tracked subsets are two attributes plus the class: 10 * 2 * card^2
        assert resolve_point(preset("fig-f2"), 2).m == 80
        assert resolve_point(preset("fig-f2"), 10).m == 2000
        assert resolve_point(preset("fig-f2"), 40).m == 32000

    def test_cardinality_sweep_reaches_groups(self):
        point = resolve_point(preset("fig-f1"), 30)
        cards = {b.names[0]: b.cardinality for b in point.blocks if b is not None}
        assert cards == {"mk1": 30, "u1": 30}

    def test_sample_size_sweep_sets_m(self):
        assert resolve_point(preset("fig-e2"), 113).m == 113

    def test_count_sweep_windows(self):
        cfg = preset("fig-g")
        names_at = lambda s: [
            n for b in resolve_point(cfg, s).blocks if b is not None for n in b.names
        ]
        assert "upad1" not in names_at(2)
        assert "upad1" in names_at(3)
        # beyond the shared window only the individually-informative subset remains
        late = resolve_point(cfg, 15)
        assert [label for label, _, _ in late.tracked] == ["informative"]
        assert "xor1" not in names_at(15)

    def test_infeasible_sample_size_rejected(self):
        with pytest.raises(InvalidInputError):
            resolve_point(preset("fig-e2"), 0)


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
        with pytest.raises(InvalidInputError):
            rule.resolve(6)


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
            "sweep": {"kind": "sample_size", "values": [100_000]},
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
        by_name = {b.names[0]: b for b in point.blocks if b is not None}
        assert len(by_name["bin1"].names) == 8 and by_name["bin1"].cardinality == 2
        assert len(by_name["wide1"].names) == 2 and by_name["wide1"].cardinality == 16

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


class TestBias:
    def test_zero_when_theta_is_mean(self):
        cfg = _desk(preset("fig-b2"), 5, sweep_values=(30,))
        curve = run_experiment(cfg)
        mean = curve.measures["msu_set"][0].mean
        assert bias(curve, mean, "msu_set") == [0.0]

    def test_against_population_value(self):
        cfg = _desk(preset("fig-b2"), 100, sweep_values=(80,))
        curve = run_experiment(cfg)
        assert abs(bias(curve, 0.3568, "msu_set")[0]) < 0.05

    def test_zero_theta_returns_means(self):
        cfg = _desk(preset("fig-e2"), 5, sweep_values=(20,))
        curve = run_experiment(cfg)
        assert bias(curve, 0.0, "msu_noninformative") == curve.mean_series("msu_noninformative")

    def test_nonfinite_theta_rejected(self):
        cfg = _desk(preset("fig-e2"), 1, sweep_values=(20,))
        curve = run_experiment(cfg)
        with pytest.raises(InvalidInputError):
            bias(curve, math.inf, "msu_informative")


class TestPresets:
    def test_catalog_complete(self):
        expected = {
            "fig-a1", "fig-a2", "fig-e1", "fig-e2", "fig-b1", "fig-b2", "fig-c",
            "fig-d", "fig-f1", "fig-f2", "fig-g", "fig-h",
            "fig-xor-1", "fig-xor-2", "fig-xor-3", "fig-xor-4", "chi-scan",
        }
        assert set(CATALOG) == expected

    def test_all_presets_construct_and_resolve(self):
        for name in CATALOG:
            cfg = preset(name)
            resolve_point(cfg, cfg.sweep.values[0])

    def test_fig_f1_fixed_size(self):
        assert preset("fig-f1").sample_size_policy == FixedSampleSize(5000)

    def test_fig_xor_1_noise_sweep(self):
        cfg = preset("fig-xor-1")
        assert cfg.groups[1] == GroupSpec("u", GeneratorKind.UNIFORM, CountRule(window=(1, 13)), 2)
        assert cfg.sweep.values == tuple(range(1, 14))
        assert cfg.sample_size_policy == FixedSampleSize(600)

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


# Two Kononenko and two uniform binary attributes, measured as two subsets.
MK_LAYOUT = {
    "groups": [_group("mk", "kononenko", 2), _group("u", "uniform", 2)],
    "tracked": [{"label": "informative", "groups": ["mk"]},
                {"label": "noninformative", "groups": ["u"]}],
}


class TestConfigJson:
    BASE = {"name": "x", "sweep": {"kind": "sample_size", "values": [10]}, **MK_LAYOUT}

    def test_round_trip(self):
        text = json.dumps(
            {
                "name": "custom",
                "sweep": {"kind": "sample_size", "start": 8, "stop": 20},
                "groups": [_group("mk", "kononenko", 2), _group("u", "uniform", 1)],
                "tracked": [{"label": "informative", "groups": ["mk"], "with_su": False},
                            {"label": "noninformative", "groups": ["u"], "window": None}],
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
            "name": "c", "sweep": {"kind": "cardinality", "values": [3]},
            "groups": [_group("u", "uniform", 2, "sweep")],
            "tracked": [{"label": "set", "groups": ["u"]}],
        }
        fixed = config_from_json({**base, "sample_size_policy": {"fixed": 50}})
        assert fixed.sample_size_policy == FixedSampleSize(50)
        computed = config_from_json({**base, "sample_size_policy": {"computed": 5}})
        assert computed.sample_size_policy == ComputedSampleSize(5.0)

    def test_count_rules(self):
        cfg = config_from_json({
            **self.BASE,
            "groups": [
                _group("a", "uniform", {"window": [2, 9]}),
                _group("b", "uniform", {"fixed": 2, "offset": 0, "window": [2, 9]}),
                _group("c", "uniform", {"offset": -2}),
                _group("d", "uniform", {"binary_equivalent": True}),
            ],
            "tracked": [{"label": "set", "groups": ["a", "b", "c", "d"], "window": [2, 9]}],
        })
        assert [g.count for g in cfg.groups] == [
            CountRule(window=(2, 9)),
            CountRule(fixed=2, window=(2, 9)),
            CountRule(offset=-2),
            CountRule(binary_equivalent=True),
        ]
        assert cfg.tracked[0].window == (2, 9)

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

    def test_boolean_count_rejected(self):
        for value in (True, False):
            with pytest.raises(InvalidInputError, match="replicates"):
                config_from_json({**self.BASE, "replicates": value})

    def test_non_finite_theta_ref_rejected(self):
        for value in ("nan", float("nan"), float("inf"), "-inf"):
            with pytest.raises(InvalidInputError, match="theta_ref"):
                config_from_json({**self.BASE, "theta_ref": value})

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
        ],
    )
    def test_group_fields_checked(self, group, match):
        data = {**self.BASE, "groups": [{**_group("mk", "kononenko", 2), **group}],
                "tracked": [{"label": "set", "groups": ["mk"]}]}
        with pytest.raises(InvalidInputError, match=match):
            config_from_json(data)

    @pytest.mark.parametrize(
        "subset, match",
        [
            ({"with_su": "yes"}, "with_su"),
            ({"window": [1, 2, 3]}, "tracked window"),
            ({"window": [True, 5]}, "tracked window"),
            ({"groups": "mk"}, "tracked groups"),
            ({"label": "s", "groups": ["mk"], "weight": 1}, "unknown tracked subset field"),
        ],
    )
    def test_tracked_fields_checked(self, subset, match):
        data = {**self.BASE, "tracked": [{"label": "s", "groups": ["mk"], **subset}]}
        with pytest.raises(InvalidInputError, match=match):
            config_from_json(data)

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
        ],
    )
    def test_config_wide_values_rejected_when_built(self, field, value, match):
        with pytest.raises(InvalidInputError, match=match):
            config_from_json({**self.BASE, field: value})

    def test_xor_group_needs_binary_class(self):
        data = {**self.BASE, "groups": [_group("xor", "xor_pair", 2)],
                "tracked": [{"label": "set", "groups": ["xor"]}]}
        assert config_from_json(data).class_card == 2
        with pytest.raises(InvalidInputError, match="class cardinality 2"):
            config_from_json({**data, "class_card": 3})


class TestConfigValidation:
    GROUPS = (GroupSpec("mk", GeneratorKind.KONONENKO, 2, 2),)
    TRACKED = (TrackedSubset("informative", ("mk",)),)

    def test_sample_size_sweep_refuses_policy(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                name="bad",
                sweep=Sweep("sample_size", (10,)),
                groups=self.GROUPS,
                tracked=self.TRACKED,
                sample_size_policy=FixedSampleSize(10),
            )

    def test_other_sweeps_require_policy(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                name="bad",
                sweep=Sweep("cardinality", (2, 4)),
                groups=(GroupSpec("mk", GeneratorKind.KONONENKO, 2, "sweep"),),
                tracked=self.TRACKED,
            )

    def test_cardinality_sweep_needs_range_field(self):
        # a cardinality sweep drives the groups whose cardinality is "sweep";
        # every cataloged one has such a group
        swept = [name for name in CATALOG if preset(name).sweep.kind == "cardinality"]
        assert swept == ["fig-a1", "fig-a2", "fig-c", "fig-d", "fig-f1", "fig-f2"]
        for name in swept:
            assert any(g.cardinality == "sweep" for g in preset(name).groups), name

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(InvalidInputError, match="unique"):
            ExperimentConfig(
                name="bad",
                sweep=Sweep("sample_size", (10,)),
                groups=self.GROUPS + (GroupSpec("mk", GeneratorKind.UNIFORM, 1, 2),),
                tracked=self.TRACKED,
            )

    def test_tracked_subset_naming_unknown_group_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown group.*noise"):
            ExperimentConfig(
                name="bad",
                sweep=Sweep("sample_size", (10,)),
                groups=self.GROUPS,
                tracked=self.TRACKED + (TrackedSubset("u", ("mk", "noise")),),
            )

    @pytest.mark.parametrize("factor", [0.0, math.nan, math.inf])
    def test_computed_factor_must_be_finite_and_positive(self, factor):
        with pytest.raises(InvalidInputError, match="factor"):
            ComputedSampleSize(factor)

    def test_unknown_sweep_kind(self):
        with pytest.raises(InvalidInputError):
            Sweep("verticality", (1, 2))

    def test_tracked_window_gates_emission(self):
        cfg = dataclasses.replace(
            preset("fig-e2"),
            sweep=Sweep("sample_size", (30,)),
            replicates=2,
            tracked=(TrackedSubset("informative", ("mk",), window=(50, 100)),
                     TrackedSubset("noninformative", ("u",))),
        )
        curve = run_experiment(cfg)
        assert "msu_informative" not in curve.measures
        assert curve.measures["msu_noninformative"][0] is not None


def _json_sample_size_sweep():
    # unsorted, with a repeated value and an infeasible 0
    return config_from_json({
        "name": "json-sweep",
        "groups": [_group("mk", "kononenko", 2, 3), _group("u", "uniform", 1, 3)],
        "tracked": [{"label": "informative", "groups": ["mk"]},
                    {"label": "noninformative", "groups": ["u"]}],
        "class_card": 3, "replicates": 3,
        "sweep": {"kind": "sample_size", "values": [40, 12, 0, 25, 12, 100]},
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
        built = []

        def counting(m, *args, **kwargs):
            built.append(m)
            return generate_dataset(m, *args, **kwargs)

        monkeypatch.setattr(harness, "generate_dataset", counting)
        run_experiment(_desk(preset("fig-b2"), 4))
        assert built == [150] * 4

    def test_layout_failure_reported_for_each_of_its_points(self):
        # a dataset holds at most one XOR pair: every point fails alike
        cfg = config_from_json({
            "name": "two-pairs", "replicates": 2,
            "sweep": {"kind": "sample_size", "values": [9, 0, 8]},
            "groups": [_group("x", "xor_pair", 2), _group("y", "xor_pair", 2)],
            "tracked": [{"label": "set", "groups": ["x", "y"]}],
        })
        curve = run_experiment(cfg)
        assert [v for v, _ in curve.errors] == [9, 0, 8]
        assert "at most one XOR pair" in curve.errors[0][1]
        assert curve.errors[1] == (0, "sample size 0 is infeasible")
        assert curve.measures == {}

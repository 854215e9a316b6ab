"""Monte Carlo engine for bias experiments over synthetic attribute sets.

An experiment sweeps one axis (attribute cardinality, sample size, attribute
count, or count of added noise attributes), evaluates the configured measures
on `replicates` independent datasets per sweep point, and aggregates means and
standard deviations into a curve.

Its layout is one list of attribute groups (`GroupSpec`: a generator family, a
column count and a cardinality, each fixed or following the sweep) and the
tracked subsets of those groups whose MSU (and optionally per-column SU) the
curve reports. `resolve_point` turns a sweep value into the concrete blocks,
column sets and sample size. `config_from_json` reads this layout from its
JSON form; the preset catalog is written in that form too.

Replicate r of every sweep point draws from streams keyed by
(master_seed, r, column path). Points of a sweep therefore share their
replicate randomness: along a sample-size sweep the datasets are nested (row
prefixes), and along count sweeps existing columns keep their draws. Shared
draws leave each point's distribution untouched while removing independent
sampling noise from the *differences* between neighboring points, which is
what makes stabilization visible at a few hundred replicates.

The engine uses the nesting. Points with the same layout (blocks and tracked
subsets) differ only in m, as every point of a sample-size sweep does; per
replicate such a layout gets one dataset, generated at its largest m, and
each point reads its first m rows. Each distinct column subset is keyed once
and counted for all row prefixes in one pass, and a marginal shared by several
measures is counted once. `run_replicate(config, sweep_value, replicate_index)`
remains the isolated recomputation of one point: the same path on a layout of
that point alone, with the same floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .dataset import AttributeBlock, check_xor_class, generate_dataset
from .errors import InvalidInputError
from .generators import GeneratorKind, SeededRng, check_k, check_xor_noise
from .measures import entropy_rows, msu_from_entropies
from .sample import normalize_columns, prefix_counts
from .samplesize import (
    CardinalityProfile,
    heuristic_sample_size,
    min_representative_m,
    multivariate_cardinality,
)

DEFAULT_MASTER_SEED = 20170707
DEFAULT_REPLICATES = 1000
# Significance level of the chi-squared m* reported by a representativeness scan.
SCAN_ALPHA = 0.05


_SWEEP_KINDS = ("cardinality", "sample_size", "attribute_count", "noise_attribute_count")


@dataclass(frozen=True)
class Sweep:
    kind: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _SWEEP_KINDS:
            raise InvalidInputError(f"unknown sweep kind {self.kind!r}, expected one of {_SWEEP_KINDS}")
        values = tuple(int(v) for v in self.values)
        if not values:
            raise InvalidInputError("sweep needs at least one value")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FixedSampleSize:
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidInputError(f"fixed sample size must be at least 1, got {self.m}")


@dataclass(frozen=True)
class ComputedSampleSize:
    """Sample size = ceil(factor x joint value space of the evaluated subset)."""

    factor: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise InvalidInputError(f"factor must be finite and positive, got {self.factor}")


SampleSizePolicy = FixedSampleSize | ComputedSampleSize


@dataclass(frozen=True)
class CountRule:
    """How a group's column count follows the sweep.

    Outside `window` the count is 0 (the group is absent at that point).
    Inside it, the count is `fixed` when given, 2*log2(sweep value) when
    `binary_equivalent` (the binary subset matching a pair of wide attributes
    in joint-space size), and sweep value + offset otherwise.
    """

    fixed: int | None = None
    offset: int = 0
    window: tuple[int, int] | None = None
    binary_equivalent: bool = False

    def resolve(self, sweep_value: int) -> int:
        if self.window is not None and not self.window[0] <= sweep_value <= self.window[1]:
            return 0
        if self.fixed is not None:
            return self.fixed
        if self.binary_equivalent:
            n = 2 * math.log2(sweep_value)
            if not n.is_integer():
                raise InvalidInputError(
                    f"sweep value {sweep_value} has no binary-equivalent attribute count"
                )
            return int(n)
        count = sweep_value + self.offset
        return max(count, 0)


@dataclass(frozen=True)
class GroupSpec:
    """One named family of attribute columns within the generated dataset."""

    name: str
    family: GeneratorKind
    count: int | CountRule
    cardinality: int | str  # int, or "sweep" to follow a cardinality sweep

    def resolve_count(self, sweep_value: int) -> int:
        if isinstance(self.count, CountRule):
            return self.count.resolve(sweep_value)
        return int(self.count)

    def resolve_card(self, sweep_value: int) -> int:
        if self.cardinality == "sweep":
            return int(sweep_value)
        return int(self.cardinality)


@dataclass(frozen=True)
class TrackedSubset:
    """A set of groups evaluated together (always jointly with the class)."""

    label: str
    groups: tuple[str, ...]
    with_su: bool = False
    window: tuple[int, int] | None = None

    def active(self, sweep_value: int) -> bool:
        return self.window is None or self.window[0] <= sweep_value <= self.window[1]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: attribute groups, tracked subsets, sweep axis, sizes, seeding.

    `groups` lay out the generated columns in order. A group's position is
    the seed-stream slot of its columns (see `msulab.dataset`), so a group
    whose count is 0 at a point still holds its slot. `tracked` names the
    groups whose columns are measured together.
    """

    name: str
    sweep: Sweep
    groups: tuple[GroupSpec, ...]
    tracked: tuple[TrackedSubset, ...]
    class_card: int = 2
    sample_size_policy: SampleSizePolicy | None = None
    replicates: int = DEFAULT_REPLICATES
    master_seed: int = DEFAULT_MASTER_SEED
    kononenko_k: float = 1.0
    xor_noise: float = 0.05
    theta_ref: float | None = None
    representativeness_scan: bool = False

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise InvalidInputError("replicates must be at least 1")
        if self.class_card < 2:
            raise InvalidInputError("class cardinality must be at least 2")
        if self.sweep.kind == "sample_size":
            if self.sample_size_policy is not None:
                raise InvalidInputError("a sample-size sweep fixes m per point; drop the policy")
        elif self.sample_size_policy is None:
            raise InvalidInputError("experiments without a sample-size sweep need a policy")
        SeededRng(self.master_seed)  # rejects a negative seed
        check_k(self.kononenko_k)
        check_xor_noise(self.xor_noise)
        if any(g.family is GeneratorKind.XOR_PAIR for g in self.groups):
            check_xor_class(self.class_card)
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"group names must be unique, got {names}")
        unknown = sorted({n for sub in self.tracked for n in sub.groups} - set(names))
        if unknown:
            raise InvalidInputError(f"tracked subsets name unknown group(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ResolvedPoint:
    """Concrete layout of one sweep point."""

    sweep_value: int
    m: int
    blocks: tuple[AttributeBlock | None, ...]
    tracked: tuple[tuple[str, tuple[str, ...], bool], ...]  # (label, column names, with_su)


def resolve_point(config: ExperimentConfig, sweep_value: int) -> ResolvedPoint:
    """Turn a sweep value into blocks, tracked column sets and a sample size."""
    sweep_value = int(sweep_value)
    blocks: list[AttributeBlock | None] = []
    group_columns: dict[str, tuple[str, ...]] = {}
    group_cards: dict[str, int] = {}
    for g in config.groups:
        count = g.resolve_count(sweep_value)
        card = g.resolve_card(sweep_value)
        if g.family is GeneratorKind.XOR_PAIR and count not in (0, 2):
            raise InvalidInputError("an XOR pair group must have count 2")
        if count == 0:
            blocks.append(None)
            group_columns[g.name] = ()
            continue
        names = tuple(f"{g.name}{i}" for i in range(1, count + 1))
        blocks.append(AttributeBlock(names=names, kind=g.family, cardinality=card))
        group_columns[g.name] = names
        group_cards[g.name] = card

    active: list[tuple[str, tuple[str, ...], bool]] = []
    for sub in config.tracked:
        if not sub.active(sweep_value):
            continue
        cols = tuple(n for gname in sub.groups for n in group_columns[gname])
        if cols:
            active.append((sub.label, cols, sub.with_su))
    if not active:
        raise InvalidInputError(f"no tracked subset is active at sweep value {sweep_value}")

    m = _resolve_sample_size(config, sweep_value, active, group_cards, group_columns)
    return ResolvedPoint(
        sweep_value=sweep_value,
        m=m,
        blocks=tuple(blocks),
        tracked=tuple(active),
    )


def _resolve_sample_size(
    config: ExperimentConfig,
    sweep_value: int,
    active: Sequence[tuple[str, tuple[str, ...], bool]],
    group_cards: Mapping[str, int],
    group_columns: Mapping[str, tuple[str, ...]],
) -> int:
    if config.sweep.kind == "sample_size":
        if sweep_value < 1:
            raise InvalidInputError(f"sample size {sweep_value} is infeasible")
        return sweep_value
    policy = config.sample_size_policy
    if isinstance(policy, FixedSampleSize):
        return policy.m
    if isinstance(policy, ComputedSampleSize):
        # Heuristic over the evaluated subset (class included); when several
        # subsets are tracked at a point they share one dataset, so the
        # largest requirement wins. Presets keep those requirements equal.
        card_by_column = {
            name: group_cards[gname]
            for gname, names in group_columns.items()
            if names
            for name in names
        }
        sizes = [
            heuristic_sample_size(
                CardinalityProfile(
                    attribute_cards=tuple(card_by_column[c] for c in cols),
                    class_card=config.class_card,
                ),
                policy.factor,
            )
            for _, cols, _ in active
        ]
        if not sizes:
            raise InvalidInputError("computed sample size needs at least one tracked subset")
        return max(sizes)
    raise InvalidInputError("experiment has no way to determine the sample size")


def run_replicate(
    config: ExperimentConfig, sweep_value: int, replicate_index: int
) -> dict[str, float]:
    """Generate one dataset for a sweep point and evaluate its measures."""
    point = resolve_point(config, sweep_value)
    labels, values = _run_layout(config, [point], replicate_index)
    return dict(zip(labels, values[0]))


def _run_layout(
    config: ExperimentConfig, points: Sequence[ResolvedPoint], replicate_index: int
) -> tuple[list[str], list[list[float]]]:
    """Measure labels, and each point's values, on one replicate of a layout.

    The points share blocks and tracked subsets, so one dataset at the
    largest m serves them all: a point of m rows reads its first m rows.
    """
    layout = points[0]
    rng = SeededRng(config.master_seed, replicate_index)
    prefixes = sorted({p.m for p in points})
    sample = generate_dataset(
        prefixes[-1],
        config.class_card,
        layout.blocks,
        rng,
        k=config.kononenko_k,
        xor_noise=config.xor_noise,
    )
    class_idx = sample.n_columns - 1
    entropies: dict[tuple[int, ...], list[float]] = {}  # subset -> per prefix

    def subset_entropies(subset: tuple[int, ...]) -> list[float]:
        if subset not in entropies:
            entropies[subset] = [
                h for counts in prefix_counts(sample, subset, prefixes) for h in entropy_rows(counts)
            ]
        return entropies[subset]

    labels: list[str] = []
    per_prefix: list[list[float]] = []  # per measure, its value at each prefix
    for label, col_names, with_su in layout.tracked:
        cols = [sample.column_index(n) for n in col_names]
        measures = [(f"msu_{label}", cols + [class_idx])]
        if with_su:
            measures += [(f"su_{name}", [idx, class_idx]) for name, idx in zip(col_names, cols)]
        for measure, measure_cols in measures:
            subset = normalize_columns(sample, measure_cols)
            marginals = [subset_entropies((c,)) for c in subset]
            joint = subset_entropies(subset)
            labels.append(measure)
            per_prefix.append([
                msu_from_entropies([h[i] for h in marginals], joint[i]).value
                for i in range(len(prefixes))
            ])
    row = {m: i for i, m in enumerate(prefixes)}
    return labels, [[series[row[p.m]] for series in per_prefix] for p in points]


@dataclass(frozen=True)
class MeasureStats:
    mean: float
    std: float
    n: int


@dataclass
class BiasCurve:
    """Aggregated sweep output: per-point statistics for each measure."""

    name: str
    sweep_kind: str
    sweep_values: tuple[int, ...]
    sample_sizes: tuple[int | None, ...]
    measures: dict[str, list[MeasureStats | None]]
    theta_ref: float | None = None
    errors: tuple[tuple[int, str], ...] = ()

    def mean_series(self, measure: str) -> list[float | None]:
        stats = self._series(measure)
        return [s.mean if s is not None else None for s in stats]

    def _series(self, measure: str) -> list[MeasureStats | None]:
        try:
            return self.measures[measure]
        except KeyError:
            raise InvalidInputError(
                f"unknown measure {measure!r}; curve has {sorted(self.measures)}"
            ) from None

    def write_csv(self, out: IO[str]) -> None:
        out.write("sweep_value,measure_name,mean,stddev,n_replicates,sample_size_used\n")
        for i, v in enumerate(self.sweep_values):
            size = self.sample_sizes[i]
            size_text = "" if size is None else str(size)
            for measure in self.measures:
                s = self.measures[measure][i]
                if s is None:
                    continue
                out.write(f"{v},{measure},{s.mean!r},{s.std!r},{s.n},{size_text}\n")


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    # fsum aggregation: replicate order cannot change the result
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var)


def run_experiment(config: ExperimentConfig) -> BiasCurve:
    """Run every sweep point for `config.replicates` replicates and aggregate.

    Infeasible points are recorded in `errors` and skipped; the sweep itself
    never aborts.
    """
    if config.representativeness_scan:
        return _run_representativeness_scan(config)

    n_points = len(config.sweep.values)
    points: dict[int, ResolvedPoint] = {}
    failures: dict[int, str] = {}
    for i, sweep_value in enumerate(config.sweep.values):
        try:
            points[i] = resolve_point(config, sweep_value)
        except InvalidInputError as exc:
            failures[i] = str(exc)
    layouts: dict[tuple, list[int]] = {}
    for i, point in points.items():
        layouts.setdefault((point.blocks, point.tracked), []).append(i)

    # point index -> measure labels and values[measure, replicate]
    results: dict[int, tuple[list[str], np.ndarray]] = {}
    for members in layouts.values():
        layout = [points[i] for i in members]
        try:
            labels, first = _run_layout(config, layout, 0)
            values = np.empty((len(members), len(labels), config.replicates))
            values[:, :, 0] = first
            for r in range(1, config.replicates):
                values[:, :, r] = _run_layout(config, layout, r)[1]
        except InvalidInputError as exc:
            failures.update((i, str(exc)) for i in members)
            continue
        for j, i in enumerate(members):
            results[i] = (labels, values[j])

    sample_sizes: list[int | None] = []
    per_measure: dict[str, list[MeasureStats | None]] = {}
    errors: list[tuple[int, str]] = []
    for i, sweep_value in enumerate(config.sweep.values):
        if i in failures:
            errors.append((sweep_value, failures[i]))
            sample_sizes.append(None)
            continue
        sample_sizes.append(points[i].m)
        for label, values in zip(*results[i]):
            series = per_measure.setdefault(label, [None] * n_points)
            mean, std = _mean_std(values.tolist())
            series[i] = MeasureStats(mean=mean, std=std, n=len(values))

    return BiasCurve(
        name=config.name,
        sweep_kind=config.sweep.kind,
        sweep_values=config.sweep.values,
        sample_sizes=tuple(sample_sizes),
        measures=per_measure,
        theta_ref=config.theta_ref,
        errors=tuple(errors),
    )


def _run_representativeness_scan(config: ExperimentConfig) -> BiasCurve:
    """Deterministic variant: per point, report chi-squared m* and the heuristic m."""
    factor = (
        config.sample_size_policy.factor
        if isinstance(config.sample_size_policy, ComputedSampleSize)
        else 10.0
    )
    m_star: list[MeasureStats | None] = []
    heuristic: list[MeasureStats | None] = []
    cells: list[MeasureStats | None] = []
    errors: list[tuple[int, str]] = []
    for sweep_value in config.sweep.values:
        try:
            blocks = resolve_point(config, sweep_value).blocks
            cards = tuple(b.cardinality for b in blocks if b is not None for _ in b.names)
            profile = CardinalityProfile(cards, config.class_card)
            k_cells = multivariate_cardinality(profile)
            star = min_representative_m(k_cells, SCAN_ALPHA)
            heur = heuristic_sample_size(profile, factor)
        except InvalidInputError as exc:
            errors.append((sweep_value, str(exc)))
            for series in (m_star, heuristic, cells):
                series.append(None)
            continue
        cells.append(MeasureStats(float(k_cells), 0.0, 1))
        m_star.append(MeasureStats(float(star), 0.0, 1))
        heuristic.append(MeasureStats(float(heur), 0.0, 1))
    return BiasCurve(
        name=config.name,
        sweep_kind=config.sweep.kind,
        sweep_values=config.sweep.values,
        sample_sizes=tuple([None] * len(config.sweep.values)),
        measures={"cells": cells, "m_star": m_star, "heuristic_m": heuristic},
        errors=tuple(errors),
    )


def bias(curve: BiasCurve, theta: float, measure: str | None = None) -> list[float | None]:
    """Per-point bias mean - theta for one measure of a curve."""
    if not math.isfinite(theta):
        raise InvalidInputError(f"theta must be finite, got {theta}")
    if measure is None:
        if len(curve.measures) != 1:
            raise InvalidInputError(
                f"curve has several measures {sorted(curve.measures)}; name one"
            )
        measure = next(iter(curve.measures))
    means = curve.mean_series(measure)
    return [m - theta if m is not None else None for m in means]


# The keys config_from_json reads in each object; any other key is most likely a typo.
_CONFIG_FIELDS = frozenset({
    "name", "sweep", "groups", "tracked", "class_card", "sample_size_policy", "replicates",
    "master_seed", "kononenko_k", "xor_noise", "theta_ref", "representativeness_scan",
})
_SWEEP_FIELDS = frozenset({"kind", "values", "start", "stop"})
_GROUP_FIELDS = frozenset({"name", "family", "count", "cardinality"})
_COUNT_FIELDS = frozenset({"fixed", "offset", "window", "binary_equivalent"})
_TRACKED_FIELDS = frozenset({"label", "groups", "with_su", "window"})


def config_from_json(text_or_mapping: str | Mapping) -> ExperimentConfig:
    """Build a config from its JSON form (see README for the schema)."""
    try:
        data = json.loads(text_or_mapping) if isinstance(text_or_mapping, str) else text_or_mapping
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"experiment config is not valid JSON: {exc}") from None
    _check_object(data, "experiment config", _CONFIG_FIELDS)
    try:
        sweep_data = data["sweep"]
        _check_object(sweep_data, "sweep", _SWEEP_FIELDS)
        if "values" in sweep_data:
            values = tuple(
                _json_int(v, "sweep value") for v in _json_list(sweep_data["values"], "sweep values")
            )
        else:
            start = _json_int(sweep_data["start"], "sweep start")
            values = tuple(range(start, _json_int(sweep_data["stop"], "sweep stop") + 1))
        sweep = Sweep(kind=sweep_data["kind"], values=values)
        policy_data = data.get("sample_size_policy")
        policy: SampleSizePolicy | None
        if policy_data is None:
            policy = None
        elif not isinstance(policy_data, Mapping):
            raise InvalidInputError(f"unknown sample size policy {policy_data!r}")
        elif "fixed" in policy_data:
            policy = FixedSampleSize(_json_int(policy_data["fixed"], "fixed sample size"))
        elif "computed" in policy_data:
            policy = ComputedSampleSize(_json_float(policy_data["computed"], "computed factor"))
        else:
            raise InvalidInputError(f"unknown sample size policy {policy_data!r}")
        theta_ref = data.get("theta_ref")
        return ExperimentConfig(
            name=str(data["name"]),
            sweep=sweep,
            groups=tuple(_group_from_json(g) for g in _json_list(data["groups"], "groups")),
            tracked=tuple(_tracked_from_json(t) for t in _json_list(data["tracked"], "tracked")),
            class_card=_json_int(data.get("class_card", 2), "class_card"),
            sample_size_policy=policy,
            replicates=_json_int(data.get("replicates", DEFAULT_REPLICATES), "replicates"),
            master_seed=_json_int(data.get("master_seed", DEFAULT_MASTER_SEED), "master_seed"),
            kononenko_k=_json_float(data.get("kononenko_k", 1.0), "kononenko_k"),
            xor_noise=_json_float(data.get("xor_noise", 0.05), "xor_noise"),
            theta_ref=None if theta_ref is None else _json_float(theta_ref, "theta_ref"),
            representativeness_scan=_json_bool(
                data.get("representativeness_scan", False), "representativeness_scan"
            ),
        )
    except KeyError as exc:
        raise InvalidInputError(f"experiment config is missing field {exc}") from None
    except ValueError as exc:
        raise InvalidInputError(f"bad experiment config: {exc}") from None


def _group_from_json(data) -> GroupSpec:
    _check_object(data, "group", _GROUP_FIELDS)
    count = data["count"]
    if isinstance(count, Mapping):
        _check_object(count, "group count", _COUNT_FIELDS)
        fixed = count.get("fixed")
        count = CountRule(
            fixed=None if fixed is None else _json_int(fixed, "count fixed"),
            offset=_json_int(count.get("offset", 0), "count offset"),
            window=_json_window(count.get("window"), "count window"),
            binary_equivalent=_json_bool(count.get("binary_equivalent", False), "binary_equivalent"),
        )
    else:
        count = _json_int(count, "group count")
    card = data["cardinality"]
    return GroupSpec(
        name=str(data["name"]),
        family=GeneratorKind(data["family"]),
        count=count,
        cardinality=card if card == "sweep" else _json_int(card, "group cardinality"),
    )


def _tracked_from_json(data) -> TrackedSubset:
    _check_object(data, "tracked subset", _TRACKED_FIELDS)
    return TrackedSubset(
        label=str(data["label"]),
        groups=tuple(str(g) for g in _json_list(data["groups"], "tracked groups")),
        with_su=_json_bool(data.get("with_su", False), "with_su"),
        window=_json_window(data.get("window"), "tracked window"),
    )


def _check_object(value, what: str, fields: frozenset[str]) -> None:
    if not isinstance(value, Mapping):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - fields)
    if unknown:
        raise InvalidInputError(f"unknown {what} field(s): {', '.join(unknown)}")


def _json_list(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"{what} must be a JSON array, got {value!r}")
    return value


def _json_window(value, what: str) -> tuple[int, int] | None:
    if value is None:
        return None
    if len(_json_list(value, what)) != 2:
        raise InvalidInputError(f"{what} must be a [lo, hi] pair, got {value!r}")
    return (_json_int(value[0], what), _json_int(value[1], what))


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidInputError(f"{what} must be true or false, got {value!r}")
    return value


def _json_int(value, what: str) -> int:
    # bool is an int subclass and int() truncates a fraction: both hide typos
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def _json_float(value, what: str) -> float:
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise InvalidInputError(f"{what} must be a finite number, got {value!r}")

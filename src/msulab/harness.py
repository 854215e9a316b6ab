"""Monte Carlo engine for bias experiments over synthetic attribute sets.

An experiment sweeps a list of integer values, evaluates the configured
measures on `replicates` independent datasets per sweep point, and aggregates
means and standard deviations into a curve. A sweep is its values: what a
value drives is set by the layout (a group's count rule and swept
cardinality), and it is the sample size where the config has no sample-size
policy. `run_experiment` walks the sweep once per stage: it resolves every
point (`resolve_point`), keeping the message of each point it skips, and
lays a sweep out once where the layout ignores the sweep value, as along a
sample-size sweep (`_resolver`); it plans the points (`_plans`), one plan a
set of points that share a dataset, and runs each plan (`_run_layout`);
and it aggregates every plan's values in one matrix, a row per measure and
row prefix, into each measure's series, made once and filled by sweep
index, the series in the order in which the points, in sweep order, list
them.

Its layout is one list of attribute groups (`GroupSpec`: a generator family, a
column count and a cardinality, each fixed or following the sweep) and the
tracked subsets of those groups whose MSU (and optionally per-column SU) the
curve reports. A group's count rule is the only thing that switches columns
on and off along the sweep; a tracked subset is measured at every point where
its groups have columns. Each config class checks its own fields, types
included, when it is built, and stores each in one form: a group's count is
always a `CountRule`. `config_from_json` reads the layout from its JSON
form, whose keys are those fields, only mapping each object to its class;
the preset catalog is written in that form too. `resolve_point` turns a
sweep value into plain integers: each group's column count and cardinality
(`_layout`, which checks only what the sweep value brings, such as a swept
cardinality), and the sample size, from the policy alone, which it checks
once with the point's dataset. A representativeness scan reads only
`_layout`, so no Monte Carlo m is worked out for it. The plan (`_plan`) is
the engine's unit: `_plans` splits the points into the sets that share a
dataset and plans each once, `_run_layout` runs a plan and gives each
measure's (prefixes x replicates) matrix of values, and the rows of every
plan's matrices are aggregated as one matrix (`_mean_std`), each point's
statistics read from its plan's rows. A plan is worked out from the config and the
points alone, and generates nothing: the dataset's m and blocks, and with
them every column name (by `msulab.dataset.block`); each measure's name and
columns, with its row prefixes; each point's sweep index, m and measures;
and the replicates a batch. A point's measures follow from its column
counts alone, so they are worked out once per distinct column layout and
shared by every point that has it: a sample-size sweep has one layout. The
run reads only the plan, and of the config the seed, the class cardinality,
k and the XOR noise.

Replicate r of every sweep point draws from streams keyed by
(master_seed, r, column path). Points of a sweep therefore share their
replicate randomness: along a sample-size sweep the datasets are nested (row
prefixes), and along count sweeps existing columns keep their draws. Shared
draws leave each point's distribution untouched while removing independent
sampling noise from the *differences* between neighboring points, which is
what makes stabilization visible at a few hundred replicates.

The engine uses the nesting. Two points nest when every group has the same
cardinality at both, and the XOR group, which the class is drawn from when
present, is present at both or absent at both. Every column keeps its stream
path as its group grows, so a point's columns are the first columns of the
widest block at each group position. Per replicate a set of nested points
gets one dataset: it holds each position's widest block, generated at the
set's largest m, and each point reads its own columns at its first m rows;
each measure's column indices are worked out once for the set, in its plan. A
sample-size sweep is one such set, and so is a count sweep whose
cardinalities stay fixed; the points of a cardinality sweep never nest.
Where the set's planned dataset would hold more cells (rows x columns) than
the points' own datasets together, each point is planned on its own and
gets its own dataset instead. Every measure's values come from
`msulab.measures.msu_values` at the row prefixes of the points that list
it, so the dataset's entropy table counts each measure's joint once for all
of them. A column's marginal at a prefix set, the class included, is summed
from the first dense joint counted there, or else counted once from its own
rows, and later measures at the same set read it from the table. A point
run on its own is the isolated recomputation of that point, with the same
floats.

Replicates are measured in batches of at most `_BATCH_CELLS` dataset cells
and `_BATCH_REPLICATES` replicates (at least one replicate a batch, so a
large dataset is measured alone). A batch is generated into one matrix
(`msulab.dataset.generate_replicates`), each replicate's rows from its own
streams, one replicate after another, and each measure is one
`msu_values` call with the dataset's rows as its period, which gives each
replicate's values, the floats it gives alone.

The engine fails only when a point is resolved. No dataset past
`msulab.dataset.MAX_DATASET_CELLS` is generated: a point whose own dataset
passes it is skipped there (`msulab.dataset.check_size`), with an error
naming its rows and cells, before any name or block is built for it, and
nested points whose shared dataset would pass it get their own datasets. A
config that would fail at every point is rejected when it is built, so
every layout that is run is generated and measured.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .dataset import MAX_DATASET_CELLS, AttributeBlock, block, check_size, check_xor_class, generate_replicates
from .errors import InvalidInputError
from .generators import GeneratorKind, SeededRng, check_card, check_k, check_m, check_xor_noise
from .ingest import csv_field
from .measures import _row_sums, msu_values
from .sample import _shown, integer, items, real, string
from .samplesize import CardinalityProfile, heuristic_sample_size, huge_space_bits, representativeness_report

DEFAULT_MASTER_SEED = 20170707
DEFAULT_REPLICATES = 1000
# Significance level of the chi-squared m* reported by a representativeness scan.
SCAN_ALPHA = 0.05
# Replicates are measured in batches of at most this many dataset cells and
# `_BATCH_REPLICATES` replicates, generated into one sample, but at least one
# replicate a batch. fig-b2 (450 cells a replicate) at 1,000 replicates,
# timed in turn on one CPU of a 2-vCPU Xeon VM, took 0.45-0.65 s at 2**13
# cells, 0.45-0.62 s at 2**15 and 0.51-0.61 s at 2**18, against 0.97-1.17 s
# at one replicate a batch; peak memory grew by 0.6, 2.3 and 29 MB. 2**15
# ran every dataset past 16,384 cells one replicate a batch. Against it,
# 2**19 with the cap of 72 took, per replicate at 100 replicates (medians of
# 5 interleaved pairs of in-process runs, one CPU), 4.2 ms against 8.9 for
# fig-g, 3.9 against 6.2 for fig-f1, 1.0 against 1.7 for fig-xor-1 and 4.0
# against 5.3 for fig-c; at 1,000 replicates peak memory rose by at most
# 4.7 MB (fig-xor-3) and fell by 11 MB for fig-g. The cap keeps fig-b2 at
# 72 replicates a batch: all 1,000 in one batch raised its peak memory
# from 59 to 124 MB for no gain in time.
_BATCH_CELLS = 1 << 19
_BATCH_REPLICATES = 72
# The aggregate squares this many deviations at a time, as Python floats for
# libm's pow (see `_mean_std`): fig-b2 at 1,000 replicates, its 429,000
# deviations squared at once, peaked at 80 MB of memory, against 58 MB.
_SQUARES = 1 << 16


# The field checks of the config classes. Each returns the value as stored.
def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidInputError(f"{what} must be true or false, got {_shown(value)}")
    return value


def _finite(value, what: str) -> float:
    number = real(value, what)
    if not math.isfinite(number):
        raise InvalidInputError(f"{what} must be a finite number, got {number!r}")
    return number


@dataclass(frozen=True)
class Sweep:
    """The values an experiment sweeps. What a value drives is set by the
    layout, each group's count rule and swept cardinality; it is the sample
    size where the config has no sample-size policy."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(integer(v, "sweep value") for v in items(self.values, "sweep values"))
        if not values:
            raise InvalidInputError("sweep needs at least one value")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SampleSizePolicy:
    """A point's sample size: `fixed` rows, or ceil(`computed` x the joint
    value space of the evaluated subset). Exactly one of them is given."""

    fixed: int | None = None
    computed: float | None = None

    def __post_init__(self) -> None:
        if (self.fixed is None) == (self.computed is None):
            raise InvalidInputError(
                f"unknown sample size policy {_shown(self)}: give exactly one of fixed and computed"
            )
        if self.fixed is not None:
            object.__setattr__(self, "fixed", integer(self.fixed, "fixed sample size"))
            if self.fixed < 1:
                raise InvalidInputError(f"fixed sample size must be at least 1, got {_shown(self.fixed)}")
        else:
            object.__setattr__(self, "computed", _finite(self.computed, "computed factor"))
            if self.computed <= 0:
                raise InvalidInputError(f"factor must be finite and positive, got {self.computed}")


@dataclass(frozen=True)
class CountRule:
    """How a group's column count follows the sweep.

    Outside `window` the count is 0 (the group is absent at that point).
    Inside it, the count is `fixed` when given, 2*log2(sweep value) when
    `binary_equivalent` (the binary subset matching a pair of wide attributes
    in joint-space size), and sweep value + offset otherwise. A rule that
    names more than one of these, whose window is empty, or whose `fixed`
    count is negative, is rejected.
    """

    fixed: int | None = None
    offset: int = 0
    window: tuple[int, int] | None = None
    binary_equivalent: bool = False

    def __post_init__(self) -> None:
        if self.fixed is not None:
            object.__setattr__(self, "fixed", integer(self.fixed, "count fixed"))
            if self.fixed < 0:
                raise InvalidInputError(f"a fixed count must not be negative, got {_shown(self.fixed)}")
        object.__setattr__(self, "offset", integer(self.offset, "count offset"))
        _flag(self.binary_equivalent, "binary_equivalent")
        if self.window is not None:
            if len(items(self.window, "count window")) != 2:
                raise InvalidInputError(f"count window must be a (lo, hi) pair, got {_shown(self.window)}")
            lo, hi = (integer(v, "count window") for v in self.window)
            if lo > hi:  # an empty window would drop its group at every point
                raise InvalidInputError(f"count window {_shown([lo, hi])} is reversed: lo must not exceed hi")
            object.__setattr__(self, "window", (lo, hi))
        if self.fixed is not None and self.binary_equivalent:
            raise InvalidInputError("a count rule is either fixed or binary_equivalent, not both")
        if self.offset and (self.fixed is not None or self.binary_equivalent):
            raise InvalidInputError("a count offset applies only to a count that follows the sweep value")

    def resolve(self, sweep_value: int) -> int:
        if self.window is not None and not self.window[0] <= sweep_value <= self.window[1]:
            return 0
        if self.fixed is not None:
            return self.fixed
        if self.binary_equivalent:
            # a power of two, tested exactly: a float log2 takes 2**53 + 1 for 2**53
            if sweep_value < 1 or sweep_value & (sweep_value - 1):
                raise InvalidInputError(
                    f"sweep value {_shown(sweep_value)} has no binary-equivalent attribute count"
                )
            return 2 * (sweep_value.bit_length() - 1)
        count = sweep_value + self.offset
        return max(count, 0)


@dataclass(frozen=True)
class GroupSpec:
    """One named family of attribute columns within the generated dataset.
    `family` may be given by its name ("uniform"), and is stored as a
    `GeneratorKind`; an integer `count` n is stored as `CountRule(fixed=n)`.
    An `xor_pair` group is two binary columns wherever it has columns: a
    fixed count of 2 and cardinality 2."""

    name: str
    family: GeneratorKind
    count: CountRule
    cardinality: int | str  # int, or "sweep" to follow a cardinality sweep

    def __post_init__(self) -> None:
        string(self.name, "group name")
        object.__setattr__(self, "family", GeneratorKind(self.family))
        if not isinstance(self.count, CountRule):
            object.__setattr__(self, "count", CountRule(fixed=integer(self.count, "group count")))
        if self.cardinality != "sweep":
            object.__setattr__(self, "cardinality", check_card(self.cardinality, "group cardinality"))
        if self.family is GeneratorKind.XOR_PAIR:
            if self.count.fixed != 2:
                raise InvalidInputError(f"an xor_pair group must have a fixed count of 2, got {_shown(self.count)}")
            if self.cardinality != 2:
                raise InvalidInputError(f"an xor_pair group must have cardinality 2, got {self.cardinality!r}")


@dataclass(frozen=True)
class TrackedSubset:
    """A set of groups evaluated together (always jointly with the class),
    measured at every sweep point where those groups have columns."""

    label: str
    groups: tuple[str, ...]
    with_su: bool = False

    def __post_init__(self) -> None:
        string(self.label, "tracked label")
        groups = items(self.groups, "tracked groups")
        object.__setattr__(self, "groups", tuple(string(g, "tracked group") for g in groups))
        if len(set(self.groups)) != len(self.groups):  # a column cannot be measured twice in one MSU
            raise InvalidInputError(f"tracked groups must not repeat, got {list(self.groups)}")
        _flag(self.with_su, "with_su")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: attribute groups, tracked subsets, sweep values, sizes, seeding.

    `groups` lay out the generated columns in order. A group's position is
    the seed-stream slot of its columns (see `msulab.dataset`), so a group
    whose count is 0 at a point still holds its slot. `tracked` names the
    groups whose columns are measured together. Without a
    `sample_size_policy`, each point's sample size is its sweep value.
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
    representativeness_scan: bool = False

    def __post_init__(self) -> None:
        string(self.name, "experiment name")
        if not isinstance(self.sweep, Sweep):
            raise InvalidInputError(f"sweep must be a Sweep, got {_shown(self.sweep)}")
        object.__setattr__(self, "groups", items(self.groups, "groups", GroupSpec))
        object.__setattr__(self, "tracked", items(self.tracked, "tracked", TrackedSubset))
        for name in ("replicates", "class_card", "master_seed"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        for name in ("kononenko_k", "xor_noise"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        _flag(self.representativeness_scan, "representativeness_scan")
        if self.replicates < 1:
            raise InvalidInputError("replicates must be at least 1")
        check_card(self.class_card, "class cardinality")
        policy = self.sample_size_policy
        if policy is not None and not isinstance(policy, SampleSizePolicy):
            raise InvalidInputError(f"unknown sample size policy {_shown(policy)}")
        if self.representativeness_scan and (policy is None or policy.computed is None):
            raise InvalidInputError("a representativeness scan needs a computed sample size policy")
        SeededRng(self.master_seed)  # rejects a negative seed
        check_k(self.kononenko_k)
        check_xor_noise(self.xor_noise)
        xor_groups = sum(g.family is GeneratorKind.XOR_PAIR for g in self.groups)
        if xor_groups > 1:
            raise InvalidInputError("at most one xor_pair group is supported")
        if xor_groups:
            check_xor_class(self.class_card)
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"group names must be unique, got {names}")
        # a group's columns are its name plus 1, 2, ...: `a` and `a1` both make `a11`
        for a in names:
            for b in names:
                if b.startswith(a) and b[len(a):].isdecimal():
                    raise InvalidInputError(
                        f"group name {b!r} is {a!r} followed by digits, so their column names can collide"
                    )
        labels = [sub.label for sub in self.tracked]
        if len(set(labels)) != len(labels):  # one msu_<label> series would hide the other
            raise InvalidInputError(f"tracked subset labels must be unique, got {labels}")
        unknown = sorted({n for sub in self.tracked for n in sub.groups} - set(names))
        if unknown:
            raise InvalidInputError(f"tracked subsets name unknown group(s): {', '.join(unknown)}")


@dataclass(slots=True)  # not frozen, as `MeasureStats`: a sweep builds one a point, 3x faster
class ResolvedPoint:
    """Concrete layout of one sweep point: its sample size, and each group's
    column count and cardinality here, in group order."""

    m: int
    counts: tuple[int, ...]
    cards: tuple[int, ...]


def _layout(config: ExperimentConfig, sweep_value: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each group's column count and cardinality at a sweep value, in group
    order.

    The groups and the sweep values were checked when the config was
    built, and `resolve_point` checks the value it is given, so only what
    an integer sweep value brings is checked here: a count rule's binary
    equivalent of it, a swept cardinality where its group has columns, and
    that some tracked subset has columns.
    """
    counts: list[int] = []
    cards: list[int] = []
    for g in config.groups:
        count = g.count.resolve(sweep_value)
        card = g.cardinality
        if card == "sweep":
            card = check_card(sweep_value) if count else sweep_value
        counts.append(count)
        cards.append(card)
    for sub in config.tracked:
        for g, count in zip(config.groups, counts):
            if count and g.name in sub.groups:
                return tuple(counts), tuple(cards)
    raise InvalidInputError(f"no tracked subset has columns at sweep value {_shown(sweep_value)}")


def resolve_point(config: ExperimentConfig, sweep_value: int) -> ResolvedPoint:
    """Turn a sweep value into each group's column count and cardinality
    (`_layout`) and a sample size, or reject the point.

    m comes from the sample-size policy alone: the sweep value where there
    is none, else the fixed m, else the largest 10x rule over the tracked
    subsets, each with the class: the measures of a point share one
    dataset. A subset with no columns here, or an SU of one column, asks
    for no more than a subset with columns. Presets keep those requirements
    equal. m is checked once, with the point's dataset
    (`msulab.dataset.check_size`), so a point is rejected here before
    anything is built for it. The sweep value is checked here, as `Sweep`
    checks each of its values, since a caller may pass any.
    """
    sweep_value = integer(sweep_value, "sweep value")
    counts, cards = _layout(config, sweep_value)
    policy = config.sample_size_policy
    if policy is None:
        m = sweep_value
    elif policy.fixed is not None:
        m = policy.fixed
    else:
        size = dict(zip((g.name for g in config.groups), zip(counts, cards)))
        profiles = [_profile(config, [size[name] for name in sub.groups]) for sub in config.tracked]
        if bits := huge_space_bits(profiles, policy.computed):
            check_m(1 << bits)  # past int64, with m's bit length
        m = max(heuristic_sample_size(profile, policy.computed) for profile in profiles)
    return ResolvedPoint(check_size(m, 1 + sum(counts)), counts, cards)


def _resolver(config: ExperimentConfig) -> Callable[[int], ResolvedPoint]:
    """`resolve_point` of `config` at a value of its sweep, laid out once
    where no group's count or cardinality follows the sweep value (a fixed
    count without a window, a fixed cardinality): a sample-size sweep. Its
    first point is resolved in full, and each point is then only its m,
    checked by `check_size`: the sweep value where there is no sample-size
    policy, else the first point's m. Where the first point fails, every
    point is resolved in full, so each keeps its own message."""
    if all(g.cardinality != "sweep" and g.count.fixed is not None and g.count.window is None for g in config.groups):
        with suppress(InvalidInputError):
            first = resolve_point(config, config.sweep.values[0])
            m, columns = None if config.sample_size_policy is None else first.m, 1 + sum(first.counts)
            return lambda value: ResolvedPoint(check_size(value if m is None else m, columns), first.counts, first.cards)
    return lambda value: resolve_point(config, value)


def _profile(config: ExperimentConfig, groups: Iterable[tuple[int, int]]) -> CardinalityProfile:
    """The class and the (count, cardinality) `groups` that have columns, as
    a profile of one (cardinality, count) pair each."""
    return CardinalityProfile([(card, count) for count, card in groups if count], config.class_card)


def _cells(m: int, counts: Sequence[int]) -> int:
    """Cells of an m-row dataset of `counts` attribute columns and the class."""
    return m * (1 + sum(counts))


_Measure = tuple[str, tuple[int, ...]]  # a measure's name and attribute columns


@dataclass(frozen=True)
class _Plan:
    """What one set of nested points measures on its shared dataset (see
    `_plan`)."""

    m: int  # the dataset's rows: the largest point m
    blocks: tuple[AttributeBlock | None, ...]  # each group position's widest block
    columns: int  # the blocks' columns; the class is the column after them
    measures: dict[_Measure, tuple[int, ...]]  # each measure's row prefixes, ascending
    points: tuple[tuple[int, int, tuple[_Measure, ...]], ...]  # each point's sweep index, m and measures
    batch: int  # replicates a batch by its cells; a run takes at most `_BATCH_REPLICATES`


def _plans(config: ExperimentConfig, points: Mapping[int, ResolvedPoint]) -> list[_Plan]:
    """The plans of the resolved `points`, by sweep index: one a set of
    points that share one dataset per replicate.

    Points nest when every group has the same cardinality at each and the
    XOR group is present at each or absent at each, so the class comes from
    the same stream. Each nested set is planned once; a set whose plan's
    dataset would hold more cells than its points' own datasets together,
    or than MAX_DATASET_CELLS, is split into single points, each planned on
    its own.
    """
    xor = next((j for j, g in enumerate(config.groups) if g.family is GeneratorKind.XOR_PAIR), None)
    by_key: dict[tuple, dict[int, ResolvedPoint]] = {}
    for i, point in points.items():
        by_key.setdefault((point.cards, xor is not None and point.counts[xor] > 0), {})[i] = point
    plans: list[_Plan] = []
    for nested in by_key.values():
        plan = _plan(config, nested)
        own = sum(_cells(p.m, p.counts) for p in nested.values())
        if plan.m * (1 + plan.columns) > min(MAX_DATASET_CELLS, own):
            plans += [_plan(config, {i: p}) for i, p in nested.items()]
        else:
            plans.append(plan)
    return plans


def _plan(config: ExperimentConfig, points: Mapping[int, ResolvedPoint]) -> _Plan:
    """What a set of nested points, by sweep index, measures, from the
    config and the points alone: nothing is generated here.

    The points nest (see `_plans`), so one dataset per replicate serves
    them all: it holds each group position's widest block at the largest m,
    and a point reads its own columns at its first m rows. Those blocks are
    built here, once, from the points' shared cardinalities, and each
    point's measures are read from them: msu_<label> of each tracked subset
    with columns at the point, the first columns of each of its groups'
    blocks, followed by su_<column> for each of those columns when it is
    tracked with_su. Those follow from the point's column counts alone, so
    they are worked out once per distinct column layout, and the points
    that share a layout share its measures. Each distinct measure is taken
    at the row prefixes of the points that list it, in ascending order, and
    a batch holds as many replicates as `_BATCH_CELLS` allows, at least
    one.
    """
    counts = [max(position) for position in zip(*(p.counts for p in points.values()))]
    m = max(p.m for p in points.values())
    blocks = tuple(
        block(g.name, g.family, n, card) if n else None
        for g, n, card in zip(config.groups, counts, next(iter(points.values())).cards)
    )
    names = [name for b in blocks if b is not None for name in b.names]
    # each group's columns in the dataset, whose last column is the class
    starts = accumulate(counts, initial=0)
    spans = {g.name: range(start, start + n) for g, start, n in zip(config.groups, starts, counts)}
    # a point's measures follow from its counts alone: each distinct layout
    # is worked out once, with the m of every point that has it
    layouts: dict[tuple[int, ...], set[int]] = {}
    for p in points.values():
        layouts.setdefault(p.counts, set()).add(p.m)
    own: dict[tuple[int, ...], tuple[_Measure, ...]] = {}
    prefixes: dict[_Measure, set[int]] = {}
    for layout, ms in layouts.items():
        count = dict(zip(spans, layout))
        listed: list[_Measure] = []
        for sub in config.tracked:
            if cols := tuple(c for name in sub.groups for c in spans[name][: count[name]]):
                listed += [(f"msu_{sub.label}", cols)] + [(f"su_{names[c]}", (c,)) for c in cols if sub.with_su]
        own[layout] = tuple(listed)
        for measure in listed:
            prefixes.setdefault(measure, set()).update(ms)
    measures = {measure: tuple(sorted(ms)) for measure, ms in prefixes.items()}
    measured = tuple((i, p.m, own[p.counts]) for i, p in points.items())
    return _Plan(m, blocks, sum(counts), measures, measured, max(1, _BATCH_CELLS // _cells(m, counts)))


def _run_layout(config: ExperimentConfig, plan: _Plan, replicates: Sequence[int]) -> dict[_Measure, np.ndarray]:
    """Each measure's (prefixes x replicates) matrix of values, a row per
    row prefix in the plan's ascending order, from running `plan`.

    The run reads only the plan, and of the config the seed, the class
    cardinality, k and the XOR noise. A batch of replicates (see
    `_BATCH_CELLS` and `_BATCH_REPLICATES`) is generated into one sample
    (`msulab.dataset.generate_replicates`), and each measure is taken once a
    batch, with the dataset's rows as the period: its values come replicate
    by replicate, a (replicates x prefixes) matrix. Each joint histogram is
    counted at its own prefixes only; a dense joint's counts give every
    column's marginals, of which the table keeps those it lacks, and a
    renumbered joint's columns are counted once each (see
    `msulab.measures.subset_entropies`). A measure's matrices over the
    batches are stacked and transposed.
    """
    # measure -> its (replicates x prefixes) matrix of each batch
    values: dict[_Measure, list[np.ndarray]] = {measure: [] for measure in plan.measures}
    batch = min(plan.batch, _BATCH_REPLICATES)
    for first in range(0, len(replicates), batch):
        rngs = [SeededRng(config.master_seed, r) for r in replicates[first : first + batch]]
        sample = generate_replicates(
            plan.m, config.class_card, plan.blocks, rngs, config.kononenko_k, config.xor_noise
        )
        for (name, cols), ms in plan.measures.items():
            values[name, cols].append(msu_values(sample, cols + (plan.columns,), ms, plan.m)[0].reshape(len(rngs), -1))
    return {measure: np.concatenate(matrices).T for measure, matrices in values.items()}


@dataclass(slots=True)  # not frozen: a frozen field is set by object.__setattr__, 3x slower
class MeasureStats:
    mean: float
    std: float
    n: int


@dataclass
class BiasCurve:
    """Aggregated sweep output: per-point statistics for each measure."""

    name: str
    sweep_values: tuple[int, ...]
    sample_sizes: tuple[int | None, ...]
    measures: dict[str, list[MeasureStats | None]]
    errors: tuple[tuple[int, str], ...] = ()

    def mean_series(self, measure: str) -> list[float | None]:
        try:
            stats = self.measures[measure]
        except KeyError:
            raise InvalidInputError(
                f"unknown measure {_shown(measure)}; curve has {sorted(self.measures)}"
            ) from None
        return [s.mean if s is not None else None for s in stats]

    def write_csv(self, out: IO[str]) -> None:
        """The curve as CSV, a line per point and measure with statistics,
        written as one string; each float is its `repr`."""
        lines = ["sweep_value,measure_name,mean,stddev,n_replicates,sample_size_used\n"]
        series = [(csv_field(measure), stats) for measure, stats in self.measures.items()]
        for i, v in enumerate(self.sweep_values):
            size = "" if self.sample_sizes[i] is None else str(self.sample_sizes[i])
            for name, stats in series:
                if (s := stats[i]) is not None:
                    lines.append(f"{v},{name},{s.mean!r},{s.std!r},{s.n},{size}\n")
        out.write("".join(lines))


def _mean_std(matrix: np.ndarray) -> tuple[list[float], list[float]]:
    """Each row's mean and sample standard deviation (0.0 at one column):
    the floats of `fsum(v) / n` and `sqrt(fsum((x - mean) ** 2 for x in v)
    / (n - 1))` over the row's n values."""
    # A run aggregates all its points at once: a row per measure and row
    # prefix, a column per replicate. The sums are fsums (`_row_sums`), so
    # replicate order cannot change the result, and each deviation is the
    # IEEE subtraction Python makes. The squares stay per value in Python:
    # `(x - mean) ** 2` calls libm's pow, which does not always give the
    # float NumPy's `x * x` gives (on glibc 2.36, 8,404 of 10,000,000
    # uniform doubles in [0, 1) square otherwise, and `np.power`'s vector
    # loop differed in 75,948 of 2,000,000), so `math.pow(x, 2.0)`, the same
    # libm call without `** 2`'s int-to-float conversion, is mapped over them.
    n = matrix.shape[1]
    means = _row_sums(matrix) / n
    if n < 2:
        return means.tolist(), [0.0] * len(matrix)
    squares = (matrix - means[:, np.newaxis]).ravel()  # the deviations, squared in place
    for i in range(0, squares.size, _SQUARES):
        squares[i : i + _SQUARES] = list(map(math.pow, squares[i : i + _SQUARES].tolist(), repeat(2.0)))
    return means.tolist(), np.sqrt(_row_sums(squares.reshape(matrix.shape)) / (n - 1)).tolist()


def run_experiment(config: ExperimentConfig) -> BiasCurve:
    """Run every sweep point for `config.replicates` replicates and aggregate.

    A Monte Carlo run makes three passes over the sweep. The first resolves
    each point once: a point that cannot be resolved, or whose own dataset
    would pass `MAX_DATASET_CELLS`, is skipped, and its message goes to
    `errors`; the sweep itself never aborts. A sweep whose layout ignores
    the sweep value, such as a sample-size sweep, is laid out once, and each
    point is then only its m (`_resolver`). The curve's sample sizes and
    errors come from this pass. The second plans the resolved points
    (`_plans`), one plan a set of points that share a dataset, and runs each
    plan (`_run_layout`). The third stacks the rows of every plan's
    matrices, one row per measure and row prefix, and aggregates them in
    one `_mean_std` call; each point reads each of its measures' row, by
    the point's m, as `MeasureStats`: a measure's series is made once,
    before any plan runs, and each point takes its slot by its sweep
    index. The series come in the order of the first point that lists each
    measure, and the measures of one point in that point's order.
    """
    if not isinstance(config, ExperimentConfig):
        raise InvalidInputError(f"config must be an ExperimentConfig, got {type(config).__name__}")
    if config.representativeness_scan:
        return _run_representativeness_scan(config)

    n_points = len(config.sweep.values)
    points: dict[int, ResolvedPoint] = {}
    failures: dict[int, str] = {}  # point index -> why the point is skipped
    resolve = _resolver(config)
    for i, sweep_value in enumerate(config.sweep.values):
        try:
            points[i] = resolve(sweep_value)
        except InvalidInputError as exc:
            failures[i] = str(exc)

    plans = _plans(config, points)
    # each measure's series, made once, in the order its name first appears
    # over the planned points in sweep order, whatever order the plans run in
    names = dict.fromkeys(name for _, _, own in sorted(p for plan in plans for p in plan.points) for name, _ in own)
    per_measure: dict[str, list[MeasureStats | None]] = {name: [None] * n_points for name in names}
    # every plan's (measure, prefix) rows in one matrix, which outlives the
    # plans' own matrices; it has no row where every point is skipped
    runs = (_run_layout(config, plan, range(config.replicates)) for plan in plans)
    matrix = np.concatenate([np.empty((0, config.replicates)), *(rows for run in runs for rows in run.values())])
    stats = map(MeasureStats, *_mean_std(matrix), repeat(config.replicates))
    for plan in plans:
        # each measure's statistics by m: zip reads `ms` first, so it takes
        # exactly the measure's rows from `stats`
        rows = {measure: dict(zip(ms, stats)) for measure, ms in plan.measures.items()}
        for i, m, own in plan.points:
            for measure in own:
                per_measure[measure[0]][i] = rows[measure][m]

    return BiasCurve(
        name=config.name,
        sweep_values=config.sweep.values,
        sample_sizes=tuple(points[i].m if i in points else None for i in range(n_points)),
        measures=per_measure,
        errors=tuple((config.sweep.values[i], message) for i, message in failures.items()),
    )


def _run_representativeness_scan(config: ExperimentConfig) -> BiasCurve:
    """Deterministic variant: per point, report chi-squared m* and the heuristic m."""
    factor = config.sample_size_policy.computed  # a scan config has a computed policy
    series: dict[str, list[MeasureStats | None]] = {"cells": [], "m_star": [], "heuristic_m": []}
    errors: list[tuple[int, str]] = []
    for sweep_value in config.sweep.values:
        try:
            report = representativeness_report(
                _profile(config, zip(*_layout(config, sweep_value))), SCAN_ALPHA, factor
            )
        except InvalidInputError as exc:
            errors.append((sweep_value, str(exc)))
            values = [None] * 3
        else:
            values = [
                MeasureStats(float(v), 0.0, 1)
                for v in (report.multivariate_cardinality, report.chi2_m_star, report.heuristic_m)
            ]
        for points, value in zip(series.values(), values):
            points.append(value)
    return BiasCurve(
        name=config.name,
        sweep_values=config.sweep.values,
        sample_sizes=tuple([None] * len(config.sweep.values)),
        measures=series,
        errors=tuple(errors),
    )


def config_from_json(text_or_mapping: str | Mapping) -> ExperimentConfig:
    """Build a config from its JSON form (see README for the schema).

    Each JSON object's keys are the fields of its class, which checks the
    values and holds the defaults; only a sweep's `start`/`stop` pair is
    read here. JSON text reads a whole-number float (3.0, 1e3) as an int,
    while a mapping's values are passed as they are.
    """
    try:
        data = (
            json.loads(text_or_mapping, parse_float=_whole_as_int)
            if isinstance(text_or_mapping, str) else text_or_mapping
        )
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"experiment config is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # valid JSON that Python cannot load: an integer past its int-string
        # limit (4,300 digits), or arrays nested past its recursion limit
        raise InvalidInputError(f"experiment config cannot be read: {exc}") from None
    try:
        fields = _fields(data, "experiment config", ExperimentConfig)
        fields["sweep"] = _sweep_from_json(fields["sweep"])
        fields["groups"] = _each(_group_from_json, fields["groups"])
        fields["tracked"] = _each(
            lambda t: TrackedSubset(**_fields(t, "tracked subset", TrackedSubset)), fields["tracked"]
        )
        if isinstance(policy := fields.get("sample_size_policy"), Mapping):
            fields["sample_size_policy"] = SampleSizePolicy(
                **_fields(policy, "sample size policy", SampleSizePolicy)
            )
        return ExperimentConfig(**fields)
    except KeyError as exc:
        raise InvalidInputError(f"experiment config is missing field {exc}") from None


def _whole_as_int(text: str) -> int | float:
    number = float(text)
    return int(number) if number.is_integer() else number


def _fields(data, what: str, cls: type) -> dict:
    """The keyword arguments of `cls` in the JSON object `data`. A key that is
    not a field of `cls` is most likely a typo; a missing required field
    raises KeyError."""
    if not isinstance(data, Mapping):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise InvalidInputError(f"unknown {what} field(s): {', '.join(unknown)}")
    return {f.name: data[f.name] for f in fields if f.name in data or f.default is dataclasses.MISSING}


def _each(read, value):
    """`read` of each entry of a JSON array; any other value is passed on for
    its class to reject."""
    return [read(v) for v in value] if isinstance(value, (list, tuple)) else value


def _sweep_from_json(data) -> Sweep:
    """A sweep of `values`, or of the `start`/`stop` pair's range, both ends
    included; `values` beside the pair is rejected as an unknown key."""
    if isinstance(data, Mapping) and "values" not in data:
        start, stop = integer(data["start"], "sweep start"), integer(data["stop"], "sweep stop")
        data = {**data, "values": tuple(range(start, stop + 1))}
        del data["start"], data["stop"]
    return Sweep(**_fields(data, "sweep", Sweep))


def _group_from_json(data) -> GroupSpec:
    fields = _fields(data, "group", GroupSpec)
    if isinstance(fields["count"], Mapping):
        fields["count"] = CountRule(**_fields(fields["count"], "group count", CountRule))
    return GroupSpec(**fields)

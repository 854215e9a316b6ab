"""Every exported callable rejects a malformed argument with
`InvalidInputError`.

One valid call per callable in `msulab.__all__` (and `SeededRng.stream`)
is taken apart: each positional argument in turn is replaced by None, by
the string "x" and by a list holding an int too long to print, and the call
must then raise `InvalidInputError` or return, never leak another
exception. The record types, built only by the package itself, are left
out. An int too long to print is rejected as one, not by Python's refusal
to format it, wherever a caller's value is echoed in an error.
"""

import re

import pytest

import msulab
from msulab import (
    AttributeBlock,
    BiasCurve,
    CardinalityProfile,
    CategoricalSample,
    CountRule,
    ExperimentConfig,
    GeneratorKind,
    GroupSpec,
    InvalidInputError,
    SampleSizePolicy,
    SeededRng,
    Sweep,
    TrackedSubset,
    block,
    chi2_critical,
    config_from_json,
    extreme_sample_chi2,
    generate_dataset,
    heuristic_sample_size,
    information_gain,
    joint_entropy,
    msu,
    multivariate_cardinality,
    preset,
    read_csv,
    representativeness_report,
    run_experiment,
    sample_to_csv,
    symmetrical_uncertainty,
    total_correlation,
)

RECORD_TYPES = {
    "BiasCurve",
    "MeasureStats",
    "MeasureValue",
    "IngestedDataset",
    "RepresentativenessReport",
    "InvalidInputError",
    "CATALOG",
}

SAMPLE = CategoricalSample.from_columns(
    [[0, 1, 1, 0], [1, 0, 1, 1], [0, 0, 1, 1]], [2, 2, 2], ["a", "b", "c"]
)
PROFILE = CardinalityProfile([(2, 1), (3, 1)], 2)
SWEEP = Sweep((4, 6))
GROUP = GroupSpec("a", "uniform", 2, 2)
TRACKED = TrackedSubset("a", ("a",))
CONFIG_JSON = (
    '{"name": "tiny", "sweep": {"values": [4, 6]},'
    ' "groups": [{"name": "a", "family": "uniform", "count": 2, "cardinality": 2}],'
    ' "tracked": [{"label": "a", "groups": ["a"]}], "replicates": 2}'
)

# name -> (callable, valid positional arguments); read_csv's path is the
# one argument filled in per test
CALLS = {
    "AttributeBlock": (AttributeBlock, (("a1", "a2"), "uniform", 2)),
    "CardinalityProfile": (CardinalityProfile, ([(2, 1), (3, 1)], 2)),
    "CategoricalSample": (CategoricalSample, ([[0, 1], [1, 0]], [2, 2], ["a", "b"])),
    "CountRule": (CountRule, (None, 0, (1, 3), False)),
    "ExperimentConfig": (ExperimentConfig, ("tiny", SWEEP, (GROUP,), (TRACKED,), 2, None, 2)),
    "GeneratorKind": (GeneratorKind, ("uniform",)),
    "GroupSpec": (GroupSpec, ("a", "uniform", 2, 2)),
    "SampleSizePolicy": (SampleSizePolicy, (None, 10.0)),
    "SeededRng": (SeededRng, (1, 2)),
    "SeededRng.stream": (SeededRng(1).stream, (0, 1)),
    "Sweep": (Sweep, ((4, 6),)),
    "TrackedSubset": (TrackedSubset, ("a", ("a",), False)),
    "block": (block, ("a", "uniform", 2, 3)),
    "chi2_critical": (chi2_critical, (0.05, 3)),
    "config_from_json": (config_from_json, (CONFIG_JSON,)),
    "extreme_sample_chi2": (extreme_sample_chi2, (12, 4)),
    "generate_dataset": (
        generate_dataset, (6, 2, [block("a", "uniform", 2, 3)], SeededRng(1), 1.0, 0.05)
    ),
    "heuristic_sample_size": (heuristic_sample_size, (PROFILE, 10.0)),
    "information_gain": (information_gain, (SAMPLE, [0], [2])),
    "joint_entropy": (joint_entropy, (SAMPLE, [0, 1])),
    "msu": (msu, (SAMPLE, [0, 1, 2])),
    "multivariate_cardinality": (multivariate_cardinality, (PROFILE,)),
    "preset": (preset, ("fig-b2",)),
    "read_csv": (read_csv, (None,)),
    "representativeness_report": (representativeness_report, (PROFILE, 0.05, 10.0)),
    "run_experiment": (run_experiment, (config_from_json(CONFIG_JSON),)),
    "sample_to_csv": (sample_to_csv, (SAMPLE,)),
    "symmetrical_uncertainty": (symmetrical_uncertainty, (SAMPLE, 0, 2)),
    "total_correlation": (total_correlation, (SAMPLE, [0, 1])),
}

# Python formats no int of more than 4,300 digits
HUGE = 10**5000
# each bad argument by how a failure names it
SELF = []  # a list that holds itself, which repr shows as [[...]]
SELF.append(SELF)
BAD = {"None": None, "'x'": "x", "[10**5000]": [HUGE], "[[...]]": SELF}


def test_the_table_covers_every_exported_callable():
    assert set(CALLS) == set(msulab.__all__) - RECORD_TYPES | {"SeededRng.stream"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_arguments_raise_invalid_input(name, tmp_path):
    function, args = CALLS[name]
    if name == "read_csv":
        path = tmp_path / "data.csv"
        path.write_text("a,b\nx,y\nz,y\n", encoding="utf-8")
        args = (str(path),)
    function(*args)  # the valid call
    leaks = []
    for position in range(len(args)):
        for shown, bad in BAD.items():
            given = args[:position] + (bad,) + args[position + 1 :]
            try:
                function(*given)
            except InvalidInputError:
                pass
            except Exception as exc:  # any other exception is a leak
                leaks.append(f"argument {position} = {shown}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: msu(None, [0, 1]), "sample must be a CategoricalSample, got NoneType"),
        (lambda: joint_entropy("x", [0]), "sample must be a CategoricalSample, got str"),
        (lambda: multivariate_cardinality(None), "profile must be a CardinalityProfile, got NoneType"),
        (lambda: heuristic_sample_size("x"), "profile must be a CardinalityProfile, got str"),
        (lambda: representativeness_report(None), "profile must be a CardinalityProfile, got NoneType"),
        (lambda: SeededRng(1).stream("x"), "stream path must be an integer, got 'x'"),
        (lambda: SeededRng(1).stream(None), "stream path must be an integer, got None"),
        (lambda: SeededRng(1).stream(0, -1), r"stream path must be non-negative, got \(0, -1\)"),
        (lambda: block(None, "uniform", 1, 2), "block prefix must be a string, got None"),
    ],
    ids=[
        "msu", "joint-entropy", "cardinality", "heuristic", "report",
        "stream-string", "stream-none", "stream-negative", "block-prefix",
    ],
)
def test_a_wrong_type_is_named(call, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: chi2_critical(0.05, -HUGE), "got at most -2**16609"),
        (lambda: CountRule(window=(HUGE, 0)), "[at least 2**16609, 0] is reversed"),
        (lambda: CountRule(binary_equivalent=True).resolve(3 * HUGE), "sweep value at least 2**16611"),
        (lambda: SeededRng(1).stream(-HUGE), "got (at most -2**16609,)"),
        (lambda: TrackedSubset(HUGE, ("a",)), "got at least 2**16609"),
        (lambda: CardinalityProfile({(2, HUGE)}, 2), "got a set"),
        (lambda: block(HUGE, "uniform", 1, 2), "got at least 2**16609"),
        (lambda: GeneratorKind(HUGE), "unknown family at least 2**16609,"),
        (lambda: preset([HUGE]), "unknown preset [at least 2**16609];"),
        (lambda: SampleSizePolicy(HUGE, 10.0), "unknown sample size policy a SampleSizePolicy:"),
        (lambda: CategoricalSample([[0]], [2], [HUGE]), "got [at least 2**16609]"),
        (lambda: CategoricalSample.from_columns(HUGE, [2]), "got at least 2**16609"),
        (lambda: SAMPLE.column_index(HUGE), "unknown column at least 2**16609"),
        (lambda: read_csv(HUGE), "got at least 2**16609"),
        (lambda: generate_dataset(5, 2, [HUGE], SeededRng(1)), "got at least 2**16609"),
        (lambda: BiasCurve("c", (4,), (4,), {}).mean_series(HUGE), "unknown measure at least 2**16609;"),
    ],
    ids=[
        "chi2-df", "count-window", "binary-equivalent", "stream-path", "tracked-label", "profile-set",
        "block-prefix", "family", "preset", "policy", "sample-names", "from-columns", "column-index",
        "read-csv", "dataset-block", "mean-series",
    ],
)
def test_an_int_too_long_to_print_is_shown_in_its_error(call, shown):
    with pytest.raises(InvalidInputError, match=re.escape(shown)):
        call()

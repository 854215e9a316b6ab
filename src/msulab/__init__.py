"""Multivariate symmetrical uncertainty over categorical data.

Plug-in information measures, seeded synthetic generators, a Monte Carlo
bias-experiment harness, and chi-squared sample-size recommendations.
"""

from .dataset import AttributeBlock, block, generate_dataset
from .errors import InvalidInputError
from .generators import (
    GeneratorKind,
    GeneratorSpec,
    SeededRng,
    binary_entropy,
    gen_class,
    gen_kononenko,
    gen_uniform,
    gen_xor_pair,
    kononenko_first_half_prob,
    xor_population_msu,
)
from .harness import (
    BiasCurve,
    ComputedSampleSize,
    ExperimentConfig,
    FixedSampleSize,
    MeasureStats,
    Rule,
    Sweep,
    TrackedSubset,
    bias,
    config_from_json,
    run_experiment,
    run_replicate,
)
from .ingest import IngestedDataset, read_csv, sample_to_csv
from .measures import (
    MeasureValue,
    conditional_entropy,
    entropy,
    information_gain,
    joint_entropy,
    msu,
    symmetrical_uncertainty,
    total_correlation,
)
from .presets import CATALOG, preset
from .sample import CategoricalSample, JointHistogram
from .samplesize import (
    CardinalityProfile,
    RepresentativenessReport,
    chi2_critical,
    chi2_statistic,
    extreme_sample,
    extreme_sample_chi2,
    heuristic_sample_size,
    min_representative_m,
    multivariate_cardinality,
    representativeness_report,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeBlock",
    "BiasCurve",
    "CATALOG",
    "CardinalityProfile",
    "CategoricalSample",
    "ComputedSampleSize",
    "ExperimentConfig",
    "FixedSampleSize",
    "GeneratorKind",
    "GeneratorSpec",
    "IngestedDataset",
    "InvalidInputError",
    "JointHistogram",
    "MeasureStats",
    "MeasureValue",
    "RepresentativenessReport",
    "Rule",
    "SeededRng",
    "Sweep",
    "TrackedSubset",
    "bias",
    "binary_entropy",
    "block",
    "chi2_critical",
    "chi2_statistic",
    "conditional_entropy",
    "config_from_json",
    "entropy",
    "extreme_sample",
    "extreme_sample_chi2",
    "gen_class",
    "gen_kononenko",
    "gen_uniform",
    "gen_xor_pair",
    "generate_dataset",
    "heuristic_sample_size",
    "information_gain",
    "joint_entropy",
    "kononenko_first_half_prob",
    "min_representative_m",
    "msu",
    "multivariate_cardinality",
    "preset",
    "read_csv",
    "representativeness_report",
    "run_experiment",
    "run_replicate",
    "sample_to_csv",
    "symmetrical_uncertainty",
    "total_correlation",
]

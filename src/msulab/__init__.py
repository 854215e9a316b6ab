"""Multivariate symmetrical uncertainty over categorical data.

Plug-in information measures, seeded synthetic generators, a Monte Carlo
bias-experiment harness, and chi-squared sample-size recommendations.
"""

from .dataset import AttributeBlock, block, generate_dataset
from .errors import InvalidInputError
from .generators import GeneratorKind, SeededRng
from .harness import (
    BiasCurve,
    CountRule,
    ExperimentConfig,
    GroupSpec,
    MeasureStats,
    SampleSizePolicy,
    Sweep,
    TrackedSubset,
    config_from_json,
    run_experiment,
)
from .ingest import IngestedDataset, read_csv, sample_to_csv
from .measures import (
    MeasureValue,
    information_gain,
    joint_entropy,
    msu,
    symmetrical_uncertainty,
    total_correlation,
)
from .presets import CATALOG, preset
from .sample import CategoricalSample
from .samplesize import (
    CardinalityProfile,
    RepresentativenessReport,
    chi2_critical,
    extreme_sample_chi2,
    heuristic_sample_size,
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
    "CountRule",
    "ExperimentConfig",
    "GeneratorKind",
    "GroupSpec",
    "IngestedDataset",
    "InvalidInputError",
    "MeasureStats",
    "MeasureValue",
    "RepresentativenessReport",
    "SampleSizePolicy",
    "SeededRng",
    "Sweep",
    "TrackedSubset",
    "block",
    "chi2_critical",
    "config_from_json",
    "extreme_sample_chi2",
    "generate_dataset",
    "heuristic_sample_size",
    "information_gain",
    "joint_entropy",
    "msu",
    "multivariate_cardinality",
    "preset",
    "read_csv",
    "representativeness_report",
    "run_experiment",
    "sample_to_csv",
    "symmetrical_uncertainty",
    "total_correlation",
]

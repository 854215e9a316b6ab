"""Plug-in information-theoretic measures over categorical samples.

All estimators use maximum-likelihood (empirical frequency) estimates,
count / m, with the 0 * log 0 := 0 convention and logarithms in base 2, so
every entropy-like quantity is in bits. Normalized measures (pairwise and
multivariate symmetrical uncertainty) are dimensionless in [0, 1].

Entropy terms are accumulated with math.fsum, which rounds the exact sum.
That makes every measure invariant, bit for bit, under row permutations and
bijective relabelings of category codes (those only reorder the terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .sample import CategoricalSample, joint_counts, normalize_columns

# Normalized measures may land a few ulp outside [0, 1]; anything farther out
# signals a real defect and is raised instead of clamped.
_UNIT_SLACK = 1e-9


@dataclass(frozen=True)
class MeasureValue:
    """A measure result plus a flag marking where a 0/0 convention applied."""

    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


def entropy_rows(counts: np.ndarray) -> list[float]:
    """Entropy in bits of each row of a count matrix with positive row sums.

    A zero cell contributes an exact 0 term, so a row gives the same float as
    its positive counts alone.
    """
    p = counts / counts.sum(axis=1, keepdims=True)
    terms = p * np.log2(np.where(counts > 0, p, 1.0))
    return [-math.fsum(row) + 0.0 for row in terms.tolist()]  # + 0.0 avoids -0.0


def _entropy_bits(counts: np.ndarray) -> float:
    """Entropy in bits of a count vector: the one-row case of `entropy_rows`."""
    return entropy_rows(counts[np.newaxis])[0]


def _clean_counts(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("counts must be a non-empty 1-D sequence")
    if np.issubdtype(arr.dtype, np.floating):
        if not np.all(arr == np.floor(arr)):
            raise InvalidInputError("counts must be integers")
    arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise InvalidInputError("counts must be non-negative")
    arr = arr[arr > 0]
    if arr.size == 0:
        raise InvalidInputError("at least one count must be positive")
    return arr


def entropy(counts: Sequence[int] | np.ndarray) -> MeasureValue:
    """Shannon entropy H = -sum p_i log2 p_i of a count vector, in bits."""
    return MeasureValue(_entropy_bits(_clean_counts(counts)))


def joint_entropy(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Entropy of the joint histogram over a column subset, in bits."""
    return MeasureValue(_entropy_bits(joint_counts(sample, cols)))


def _column_entropy(sample: CategoricalSample, col: int) -> float:
    return _entropy_bits(joint_counts(sample, [col]))


def _disjoint_union(
    sample: CategoricalSample, x_cols: Sequence[int], y_cols: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    xs = normalize_columns(sample, x_cols)
    ys = normalize_columns(sample, y_cols)
    if set(xs) & set(ys):
        raise InvalidInputError(f"column subsets overlap: {xs} and {ys}")
    return xs, ys


def conditional_entropy(
    sample: CategoricalSample, x_cols: Sequence[int], y_cols: Sequence[int]
) -> MeasureValue:
    """H(X|Y) = H(X,Y) - H(Y), in bits.

    The chain-rule form equals the defining double sum over p(y) p(x|y) for
    plug-in estimates, and needs only two histograms.
    """
    xs, ys = _disjoint_union(sample, x_cols, y_cols)
    h_joint = _entropy_bits(joint_counts(sample, xs + ys))
    h_y = _entropy_bits(joint_counts(sample, ys))
    return MeasureValue(h_joint - h_y)


def information_gain(
    sample: CategoricalSample, x_cols: Sequence[int], y_cols: Sequence[int]
) -> MeasureValue:
    """IG(X;Y) = H(X) + H(Y) - H(X,Y), in bits.

    Computed in the symmetric form so swapping the arguments returns the
    identical float.
    """
    xs, ys = _disjoint_union(sample, x_cols, y_cols)
    h_x = _entropy_bits(joint_counts(sample, xs))
    h_y = _entropy_bits(joint_counts(sample, ys))
    h_joint = _entropy_bits(joint_counts(sample, xs + ys))
    return MeasureValue(h_x + h_y - h_joint)


def total_correlation(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Total correlation sum_i H(X_i) - H(X_1..X_n), in bits; needs n >= 2."""
    subset = normalize_columns(sample, cols)
    if len(subset) < 2:
        raise InvalidInputError("total correlation needs at least two columns")
    marginals = [_column_entropy(sample, c) for c in subset]
    h_joint = _entropy_bits(joint_counts(sample, subset))
    return MeasureValue(math.fsum(marginals) - h_joint)


def _clamp_unit(value: float) -> float:
    if value < -_UNIT_SLACK or value > 1.0 + _UNIT_SLACK:
        raise RuntimeError(f"normalized measure escaped [0, 1]: {value!r}")
    return min(1.0, max(0.0, value))


def msu_from_entropies(marginals: Sequence[float], h_joint: float) -> MeasureValue:
    """MSU from the marginal entropies of n >= 2 columns and their joint entropy."""
    n = len(marginals)
    h_sum = math.fsum(marginals)
    if h_sum == 0.0:
        return MeasureValue(0.0, degenerate=True)
    value = (n / (n - 1)) * (h_sum - h_joint) / h_sum
    return MeasureValue(_clamp_unit(value))


def _normalized_total_correlation(sample: CategoricalSample, subset: tuple[int, ...]) -> MeasureValue:
    marginals = [_column_entropy(sample, c) for c in subset]
    return msu_from_entropies(marginals, _entropy_bits(joint_counts(sample, subset)))


def msu(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Multivariate symmetrical uncertainty in [0, 1] over n >= 2 columns.

    (n / (n - 1)) * total_correlation / sum of marginal entropies. When every
    column is constant the ratio is 0/0; the value 0 is returned with the
    degenerate flag set.
    """
    subset = normalize_columns(sample, cols)
    if len(subset) < 2:
        raise InvalidInputError("msu needs at least two columns")
    return _normalized_total_correlation(sample, subset)


def symmetrical_uncertainty(sample: CategoricalSample, x_col: int, y_col: int) -> MeasureValue:
    """Pairwise symmetrical uncertainty 2 IG / (H(X) + H(Y)) in [0, 1].

    Identical, float for float, to msu over the same two columns.
    """
    if int(x_col) == int(y_col):
        raise InvalidInputError("symmetrical uncertainty needs two distinct columns")
    subset = normalize_columns(sample, [x_col, y_col])
    return _normalized_total_correlation(sample, subset)

"""Plug-in information-theoretic measures over categorical samples.

All estimators use maximum-likelihood (empirical frequency) estimates,
count / m, with the 0 * log 0 := 0 convention and logarithms in base 2, so
every entropy-like quantity is in bits. Normalized measures (pairwise and
multivariate symmetrical uncertainty) are dimensionless in [0, 1].

Entropy terms are accumulated with math.fsum, which rounds the exact sum.
That makes every measure invariant, bit for bit, under row permutations and
bijective relabelings of category codes (those only reorder the terms).

Every measure over a sample reads its entropies from one table that the
sample carries, keyed exactly by (sorted column subset, row prefixes):
`subset_entropies` counts a subset's histogram at the prefixes on a miss,
through `msulab.sample.prefix_counts`, and keeps the floats. Counting a joint
of several columns also takes, from the same scan of the rows, the counts of
each member column that the table lacks at those prefixes, and stores their
entropies under the member's own key. A public measure reads the table at
all rows; the Monte Carlo engine reads it at each sweep point's row prefix.
Counts are integers and each entropy is an fsum of its prefix's own cells,
so a sample returns the same floats however often, in whatever order, and
at whatever prefix sets it is measured, and a column's entropies are the
same whether its counts were summed from a joint or counted alone.

MSU has one implementation, `msu_values`, over a vector of row prefixes:
`msu` and `symmetrical_uncertainty` read it at all rows, and the Monte
Carlo engine reads its values array. It checks the columns and the
prefixes once, reads the joint's entropies and then each column's from the
table, and evaluates the formula over arrays with the scalar formula's IEEE
operations in its order, so a value is the same float at any prefix set.
It returns the values and a degenerate mask, set where every column is
constant at a prefix (the 0/0 convention: the value there is 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .sample import (
    CategoricalSample,
    normalize_columns,
    normalize_prefixes,
    prefix_counts,
    whole_numbers,
)

# Normalized measures may land a few ulp outside [0, 1]; anything farther out
# signals a real defect and is raised instead of clamped.
_UNIT_SLACK = 1e-9
_MAX_TOTAL = int(np.iinfo(np.int64).max)


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


def _clean_counts(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = whole_numbers(counts, "counts")
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("counts must be a non-empty 1-D sequence")
    arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise InvalidInputError("counts must be non-negative")
    # the total is the divisor of every probability, so it must fit int64 too
    total = sum(arr.tolist())
    if total > _MAX_TOTAL:
        raise InvalidInputError(f"counts total {total}, which is past int64 (max {_MAX_TOTAL})")
    arr = arr[arr > 0]
    if arr.size == 0:
        raise InvalidInputError("at least one count must be positive")
    return arr


def entropy(counts: Sequence[int] | np.ndarray) -> MeasureValue:
    """Shannon entropy H = -sum p_i log2 p_i of a count vector, in bits."""
    return MeasureValue(entropy_rows(_clean_counts(counts)[np.newaxis])[0])


def subset_entropies(
    sample: CategoricalSample, cols: Sequence[int], prefixes: Sequence[int] | None = None
) -> tuple[float, ...]:
    """Entropy in bits of the joint histogram over `cols` at each row prefix.

    `prefixes` are strictly ascending row counts, all rows by default. The
    sample keeps every entropy counted here under the exact key (sorted
    subset, prefixes), so each histogram is counted once per sample and
    prefix set. Counting a joint of several columns also stores, under the
    same prefixes, the entropies of each member column that the table lacks
    there, summed from the joint's counts.
    """
    return _stored_entropies(
        sample, normalize_columns(sample, cols), _checked_prefixes(sample, prefixes)
    )


def _checked_prefixes(sample: CategoricalSample, prefixes: Sequence[int] | None) -> tuple[int, ...]:
    """`prefixes` normalized, all rows when None."""
    return normalize_prefixes(sample, (sample.n_rows,) if prefixes is None else prefixes)


def _stored_entropies(
    sample: CategoricalSample, subset: tuple[int, ...], bounds: tuple[int, ...]
) -> tuple[float, ...]:
    """`subset_entropies` of a subset and prefixes already normalized."""
    table = sample._entropies
    if (subset, bounds) not in table:
        alone = [c for c in subset if len(subset) > 1 and ((c,), bounds) not in table]
        joint: list[float] = []
        marginals: list[list[float]] = [[] for _ in alone]
        for counts, columns in prefix_counts(sample, subset, bounds, alone):
            joint += entropy_rows(counts)
            for entropies, column in zip(marginals, columns):
                entropies += entropy_rows(column)
        for c, entropies in zip(alone, marginals):
            table[(c,), bounds] = tuple(entropies)
        table[subset, bounds] = tuple(joint)
    return table[subset, bounds]


def joint_entropy(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Entropy of the joint histogram over a column subset, in bits."""
    return MeasureValue(subset_entropies(sample, cols)[0])


def _disjoint_union(
    sample: CategoricalSample, x_cols: Sequence[int], y_cols: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    xs = normalize_columns(sample, x_cols)
    ys = normalize_columns(sample, y_cols)
    if set(xs) & set(ys):
        raise InvalidInputError(f"column subsets overlap: {xs} and {ys}")
    return xs, ys


def information_gain(
    sample: CategoricalSample, x_cols: Sequence[int], y_cols: Sequence[int]
) -> MeasureValue:
    """IG(X;Y) = H(X) + H(Y) - H(X,Y), in bits.

    Computed in the symmetric form so swapping the arguments returns the
    identical float.
    """
    xs, ys = _disjoint_union(sample, x_cols, y_cols)
    (h_x,) = subset_entropies(sample, xs)
    (h_y,) = subset_entropies(sample, ys)
    (h_joint,) = subset_entropies(sample, xs + ys)
    return MeasureValue(h_x + h_y - h_joint)


def total_correlation(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Total correlation sum_i H(X_i) - H(X_1..X_n), in bits; needs n >= 2."""
    subset = normalize_columns(sample, cols)
    if len(subset) < 2:
        raise InvalidInputError("total correlation needs at least two columns")
    (h_joint,) = subset_entropies(sample, subset)
    marginals = [subset_entropies(sample, (c,))[0] for c in subset]
    return MeasureValue(math.fsum(marginals) - h_joint)


def msu_values(
    sample: CategoricalSample, cols: Sequence[int], prefixes: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """MSU over n >= 2 columns at each row prefix (all rows by default), as
    an array of values and a boolean array marking the degenerate ones.

    (n / (n - 1)) * total correlation / sum of marginal entropies. Where every
    column is constant the ratio is 0/0; the value there is 0 and the mask is
    set. The columns and the prefixes are checked once, and the formula is
    evaluated over the prefixes as arrays, with the IEEE operations of the
    scalar formula in its order: two marginals are added with one rounding,
    which is their fsum, and more are fsummed per prefix. A value that lands
    past the unit interval by more than a few ulp is raised, not clamped.
    """
    subset = normalize_columns(sample, cols)
    n = len(subset)
    if n < 2:
        raise InvalidInputError("msu needs at least two columns")
    bounds = _checked_prefixes(sample, prefixes)
    h_joint = np.array(_stored_entropies(sample, subset, bounds))  # first: it gives the marginals
    marginals = [_stored_entropies(sample, (c,), bounds) for c in subset]
    if n == 2:
        h_sum = np.add(*marginals)
    else:
        h_sum = np.array([math.fsum(hs) for hs in zip(*marginals)])
    degenerate = h_sum == 0.0
    values = (n / (n - 1)) * (h_sum - h_joint) / np.where(degenerate, 1.0, h_sum)
    values[degenerate] = 0.0
    escaped = (values < -_UNIT_SLACK) | (values > 1.0 + _UNIT_SLACK)
    if escaped.any():
        raise RuntimeError(f"normalized measure escaped [0, 1]: {values[escaped][0].item()!r}")
    return np.clip(values, 0.0, 1.0) + 0.0, degenerate  # + 0.0 turns -0.0 into 0.0


def msu(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Multivariate symmetrical uncertainty in [0, 1] over n >= 2 columns.

    `msu_values` at all rows, including its 0/0 convention.
    """
    values, degenerate = msu_values(sample, cols)
    return MeasureValue(values.item(), degenerate.item())


def symmetrical_uncertainty(sample: CategoricalSample, x_col: int, y_col: int) -> MeasureValue:
    """Pairwise symmetrical uncertainty 2 IG / (H(X) + H(Y)) in [0, 1].

    Identical, float for float, to msu over the same two columns.
    """
    if normalize_columns(sample, [x_col]) == normalize_columns(sample, [y_col]):
        raise InvalidInputError("symmetrical uncertainty needs two distinct columns")
    values, degenerate = msu_values(sample, [x_col, y_col])
    return MeasureValue(values.item(), degenerate.item())

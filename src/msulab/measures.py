"""Plug-in information-theoretic measures over categorical samples.

All estimators use maximum-likelihood (empirical frequency) estimates,
count / m, with the 0 * log 0 := 0 convention and logarithms in base 2, so
every entropy-like quantity is in bits. Normalized measures (pairwise and
multivariate symmetrical uncertainty) are dimensionless in [0, 1].

Entropy terms are accumulated with math.fsum, which rounds the exact sum.
That makes every measure invariant, bit for bit, under row permutations and
bijective relabelings of category codes (those only reorder the terms).

Every measure over a sample reads its entropies from one table that the
sample carries: `subset_entropies` counts a column subset's histogram at
given row prefixes once and keeps the floats, and answers later requests for
some of those prefixes from them. Counting a joint of several columns scans
the rows once: each member column's counts at the same prefixes are sums of
the joint's cells, so they are taken from the joint's count matrix and
stored too, unless the table already answers them. A public measure reads
the table at all rows; the Monte Carlo engine reads it at each sweep point's
row prefix, through the same `msu_at_prefixes`, joint first. Counts are
integers and each entropy is an fsum of its prefix's own cells, so a sample
returns the same floats however often, in whatever order, and at whatever
prefix sets it is measured, and a column's entropies are the same whether
its counts were summed from a joint or counted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .sample import CategoricalSample, normalize_columns, prefix_counts

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
    return MeasureValue(entropy_rows(_clean_counts(counts)[np.newaxis])[0])


def subset_entropies(
    sample: CategoricalSample, cols: Sequence[int], prefixes: Sequence[int] | None = None
) -> tuple[float, ...]:
    """Entropy in bits of the joint histogram over `cols` at each row prefix.

    `prefixes` are strictly ascending row counts, all rows by default. The
    sample keeps every entropy counted here, by sorted subset and then by
    prefixes, so each histogram is counted once per sample. Prefixes that a
    stored set of the same subset includes are read from it by index, not
    counted again. Counting a joint of several columns also stores, at the
    same prefixes, the entropy of each member column that the table cannot
    answer yet, summed from the joint's counts.
    """
    subset = normalize_columns(sample, cols)
    bounds = (sample.n_rows,) if prefixes is None else tuple(prefixes)
    stored = sample._entropies.setdefault(subset, {})
    if bounds not in stored:
        read = _read_stored(stored, bounds)
        if read is None:
            read = _count(sample, subset, bounds)
        stored[bounds] = read
    return stored[bounds]


def _count(
    sample: CategoricalSample, subset: tuple[int, ...], bounds: tuple[int, ...]
) -> tuple[float, ...]:
    """The entropies of `subset` at `bounds`, counted in one scan of the rows.

    Each member column whose entropies at `bounds` the table cannot answer
    gets them from the joint's counts, stored under its own subset.
    """
    table = sample._entropies
    members = [
        j for j, c in enumerate(subset)
        if len(subset) > 1 and _read_stored(table.get((c,), {}), bounds) is None
    ]
    joint: list[float] = []
    marginals: dict[int, list[float]] = {j: [] for j in members}
    for counts, cells in prefix_counts(sample, subset, bounds):
        joint += entropy_rows(counts)
        for j in members:
            marginals[j] += entropy_rows(_column_counts(counts, cells.codes(j), cells.dims[j]))
    for j, entropies in marginals.items():
        table.setdefault((subset[j],), {})[bounds] = tuple(entropies)
    return tuple(joint)


def _column_counts(counts: np.ndarray, codes: np.ndarray, card: int) -> np.ndarray:
    """Each row of a joint count matrix summed over the cells that share a
    code of one column, given each cell's code below `card`: that column's
    counts, a zero where a code is not seen.

    Where `card` exceeds the number of cells, the codes seen are renumbered
    first, so no result is wider than the joint's own matrix. The float sums
    are exact: each partial sum is a count of rows.
    """
    if card > len(codes):
        seen, codes = np.unique(codes, return_inverse=True)
        card = len(seen)
    rows = len(counts)
    slots = (codes + np.arange(0, rows * card, card)[:, np.newaxis]).reshape(-1)
    summed = np.bincount(slots, weights=counts.reshape(-1), minlength=rows * card)
    return summed.reshape(rows, card).astype(np.int64)


def _read_stored(
    stored: dict[tuple[int, ...], tuple[float, ...]], bounds: tuple[int, ...]
) -> tuple[float, ...] | None:
    """The entropies at `bounds` from a stored prefix set that includes them.

    None when no stored set includes them all, or when `bounds` is not
    strictly ascending (counting then rejects it).
    """
    if bounds in stored:
        return stored[bounds]
    if not bounds or list(bounds) != sorted(set(bounds)):
        return None
    for wider, entropies in stored.items():
        at = dict(zip(wider, entropies))
        if all(n in at for n in bounds):
            return tuple([at[n] for n in bounds])
    return None


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


def _clamp_unit(value: float) -> float:
    if value < -_UNIT_SLACK or value > 1.0 + _UNIT_SLACK:
        raise RuntimeError(f"normalized measure escaped [0, 1]: {value!r}")
    return min(1.0, max(0.0, value))


def msu_at_prefixes(
    sample: CategoricalSample, cols: Sequence[int], prefixes: Sequence[int] | None = None
) -> list[MeasureValue]:
    """MSU over n >= 2 columns at each row prefix (all rows by default).

    (n / (n - 1)) * total correlation / sum of marginal entropies. Where every
    column is constant the ratio is 0/0; the value 0 is returned with the
    degenerate flag set.
    """
    subset = normalize_columns(sample, cols)
    n = len(subset)
    if n < 2:
        raise InvalidInputError("msu needs at least two columns")
    joint = subset_entropies(sample, subset, prefixes)  # first: it gives the marginals
    marginals = [subset_entropies(sample, (c,), prefixes) for c in subset]
    values = []
    for h_joint, *hs in zip(joint, *marginals):
        h_sum = math.fsum(hs)
        if h_sum == 0.0:
            values.append(MeasureValue(0.0, degenerate=True))
        else:
            values.append(MeasureValue(_clamp_unit((n / (n - 1)) * (h_sum - h_joint) / h_sum)))
    return values


def msu(sample: CategoricalSample, cols: Sequence[int]) -> MeasureValue:
    """Multivariate symmetrical uncertainty in [0, 1] over n >= 2 columns.

    `msu_at_prefixes` at all rows, including its 0/0 convention.
    """
    (value,) = msu_at_prefixes(sample, cols)
    return value


def symmetrical_uncertainty(sample: CategoricalSample, x_col: int, y_col: int) -> MeasureValue:
    """Pairwise symmetrical uncertainty 2 IG / (H(X) + H(Y)) in [0, 1].

    Identical, float for float, to msu over the same two columns.
    """
    if int(x_col) == int(y_col):
        raise InvalidInputError("symmetrical uncertainty needs two distinct columns")
    (value,) = msu_at_prefixes(sample, [x_col, y_col])
    return value

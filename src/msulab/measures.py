"""Plug-in information-theoretic measures over categorical samples.

All estimators use maximum-likelihood (empirical frequency) estimates,
count / m, with the 0 * log 0 := 0 convention and logarithms in base 2, so
every entropy-like quantity is in bits. Normalized measures (pairwise and
multivariate symmetrical uncertainty) are dimensionless in [0, 1].

Entropy terms are accumulated with math.fsum, which rounds the exact sum.
That makes every measure invariant, bit for bit, under row permutations and
bijective relabelings of category codes (those only reorder the terms). A
matrix of one or two columns, such as a binary column's counts, is summed
with one IEEE add a row, which rounds as fsum does (`_row_sums`). A wider
matrix of at least `_BULK_ROWS` rows is summed in bulk (`_fsum_rows`): each
row whose terms fit is one exact int64 sum, which one cast rounds as fsum
rounds the exact sum, and any other row is fsummed, so each entropy is
fsum's float either way. A matrix of at most `_NARROW_ROW` columns and
more rows than columns is reduced as its contiguous transpose, over axis 0
(`_along_rows`), as NumPy reduces a short row over axis 1 one row at a
time: the same integers are summed exactly, only in another order, so the
floats do not change. In a smaller matrix, a row of at least
`_WIDE_ROW` cells, which holds few distinct counts (under the 10x rule a
65,536-cell row has about 24), is summed from them (`_distinct_sum`): each
distinct count's term is the float the cell-by-cell path computes for it,
and each term times its multiplicity is written as a few floats whose sum
is exact (`_exact_products`), so one fsum rounds the same exact sum as the
fsum of every cell, and the entropy is the same float.

Every measure over a sample reads its entropies from one table that the
sample carries, keyed exactly by (sorted column subset, row prefixes,
segment rows), as `normalize_columns` and `normalize_prefixes` check them:
on a miss, `subset_entropies` hands the key to `msulab.sample.prefix_counts`
(nothing else calls it) and keeps the entropies as a read-only float64
array, so no caller can change a stored value. `msu_values` reads those
arrays as they are; only `subset_entropies` turns one into a tuple of
Python floats, which the other public measures read. A dense joint of several
columns gives, from the same scan of the rows, every member column's counts
at those prefixes, and the table stores the entropies of those it lacks
under each member's own key, taken in one `entropy_rows` call over their
count rows, each zero-padded to the widest; a renumbered joint gives none.
A public measure reads the table at all rows, one segment; the Monte Carlo
engine reads it at each sweep point's row prefix, within each replicate of
a sample that stacks several (a period, the segment's rows).
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
    run_lengths,
)

# Normalized measures may land a few ulp outside [0, 1]; anything farther out
# signals a real defect and is raised instead of clamped.
_UNIT_SLACK = 1e-9
# Row sums of matrices of at least this many rows are taken in bulk
# (`_fsum_rows`); fewer rows are fsummed one by one, which costs less for
# the single rows of public measures and of large samples: every matrix in
# bulk made fig-f1 and fig-g 1.45x and 1.5x as slow, fig-a1 and fig-xor-1
# 1.2x (20 replicates, one CPU).
_BULK_ROWS = 256
# A row of at least this many cells, in a matrix of fewer than `_BULK_ROWS`
# rows, is summed from its distinct counts (`_distinct_sum`); below it, a
# term per cell costs less. Timed on one CPU over rows of about 1 and 10
# rows a cell, the two cost the same at 768 cells (about 35 us a row); the
# distinct counts took 0.9x at 1,024 cells, 0.5x at 2,048 and 0.1x at 65,536.
_WIDE_ROW = 1024
# A matrix of at most this many columns is reduced along its rows as its
# contiguous transpose, over axis 0 (`_along_rows`): each NumPy reduction
# over axis 1 costs 20-30 ns a short row. Timed on one CPU, `_int64_sums`
# took 0.55-0.62x at 256 rows of 2-12 cells, 0.34-0.48x at 1,000 rows,
# 0.21-0.79x at 5,000 and 0.16-0.77x at 20,000; at 16 cells, 0.66, 0.54,
# 0.89 and 1.14x, at 32 cells 0.83, 0.59, 1.09 and 1.29x.
_NARROW_ROW = 12
# The frexp exponent of a zero term: above every other, so never the least.
_ZERO_EXPONENT = 1 << 16


@dataclass(frozen=True)
class MeasureValue:
    """A measure result plus a flag marking where a 0/0 convention applied."""

    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


def entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a count matrix with positive row sums,
    as a float64 array.

    A zero cell contributes an exact 0 term, so a row gives the same float as
    its positive counts alone. Below `_BULK_ROWS` rows, a row of at least
    `_WIDE_ROW` cells is summed from its distinct counts (`_distinct_sum`),
    to the float that fsum of its cells' terms gives.
    """
    if counts.shape[1] >= _WIDE_ROW and len(counts) < _BULK_ROWS:
        return np.array([0.0 - _distinct_sum(row) for row in counts])
    laid, axis = _along_rows(counts)
    terms = _terms(counts, laid.sum(axis=axis).reshape(-1, 1))
    return 0.0 - _row_sums(terms)  # 0.0 - avoids -0.0


def _terms(counts: np.ndarray, totals) -> np.ndarray:
    """p * log2(p) of each count, p = count / total, 0 for a zero count."""
    p = counts / totals
    terms = np.where(counts > 0, p, 1.0)
    np.log2(terms, out=terms)
    terms *= p  # in place, as a batch's matrices are large
    return terms


def _distinct_sum(row: np.ndarray) -> float:
    """`math.fsum` of a count row's terms, bit for bit, from one term per
    distinct count: each is the float `_terms` gives that count in the row,
    and `_exact_products` writes it times its multiplicity as floats whose
    sum is exact, so fsum rounds the row's exact sum as it does cell by cell."""
    ordered = np.sort(row)
    multiplicities = run_lengths(ordered)
    terms = _terms(ordered[np.cumsum(multiplicities) - 1], row.sum())
    return math.fsum(_exact_products(terms, multiplicities).tolist())


def _exact_products(terms: np.ndarray, multiplicities: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is that of each term times its multiplicity,
    for multiplicities below 2**53.

    A Veltkamp split writes each term as hi + lo, each of at most 26
    significant bits; each multiplicity is its bits from 2**26 up plus the
    26 below, at most 27 and 26 significant bits. Each of the four products
    of a part of a term and a part of its multiplicity then holds at most
    53 bits, so it is exact; terms are at most 1 in size, so none overflows.
    """
    scaled = terms * 134217729.0  # 2**27 + 1
    hi = scaled - (scaled - terms)
    low = multiplicities & (1 << 26) - 1
    parts = np.array([multiplicities - low, low], dtype=np.float64)
    return (np.array([hi, terms - hi])[:, np.newaxis] * parts).ravel()


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """`math.fsum` of each row of a finite float matrix: of one or two
    columns, 0.0 plus each column in turn, one IEEE add a row (fsum of two
    finite floats is their correctly rounded sum, and of zeros 0.0); else
    one row at a time below `_BULK_ROWS` rows, else in bulk (`_fsum_rows`)."""
    if terms.shape[1] in (1, 2):
        return sum(terms.T, 0.0)
    if len(terms) < _BULK_ROWS:
        return np.array([math.fsum(row) for row in terms.tolist()])
    return _fsum_rows(terms)


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """`math.fsum` of each row of a finite float matrix, bit for bit: its
    `_int64_sums` where a row fits, else fsum itself."""
    sums, fits = _int64_sums(terms)
    for i in np.flatnonzero(~fits).tolist():
        sums[i] = math.fsum(terms[i].tolist())
    return sums


def _int64_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sum from one exact int64 sum, and a mask of the rows
    where that sum is fsum's; the other rows' sums are not.

    frexp writes each term as M * 2**(e - 53), M an integer of at most 53
    bits (`ldexp(mant, 53)`, exact). A row of K nonzero terms whose
    exponents e lie within 9 - bit_length(K - 1) of their least is shifted
    to that least: each shifted M is below 2**(62 - bit_length(K - 1)) in
    size, so the row's sum is exact in int64. Casting it to float64 rounds
    it to nearest even, as fsum rounds the exact sum, and ldexp scales it
    back exactly while the result is normal, which a least exponent of at
    least -969 ensures. An all-zero row fits, with a sum of 0.0.
    """
    terms, axis = _along_rows(terms)
    mant, shift = np.frexp(terms)  # the exponents, then each term's shift
    zero = mant == 0
    shift[zero] = _ZERO_EXPONENT
    least = shift.min(axis=axis, keepdims=True)
    shift -= least
    shift[zero] = 0
    # bit_length(K - 1), K the row's nonzero terms
    room = 9 - np.frexp(np.maximum(terms.shape[axis] - zero.sum(axis=axis, keepdims=True) - 1, 0))[1]
    fits = (shift.max(axis=axis, keepdims=True) <= room) & (least >= -969)
    if not fits.all():  # the shifts of a row that does not fit could overflow
        np.copyto(shift, 0, where=~fits)
    ints = np.ldexp(mant, 53, out=mant).astype(np.int64)
    np.left_shift(ints, shift, out=ints)
    sums = np.ldexp(ints.sum(axis=axis, keepdims=True).astype(np.float64), np.where(fits, least - 53, 0))
    return sums.ravel(), fits.ravel()


def _along_rows(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """`matrix` laid out for reductions along its rows, and the axis they
    take: a matrix of more rows than columns, and at most `_NARROW_ROW`
    columns, as its contiguous transpose, over axis 0, and any other as it
    is, over axis 1."""
    if matrix.shape[1] <= min(_NARROW_ROW, len(matrix) - 1):
        return np.ascontiguousarray(matrix.T), 0
    return matrix, 1


def subset_entropies(
    sample: CategoricalSample,
    cols: Sequence[int],
    prefixes: Sequence[int] | None = None,
    period: int | None = None,
) -> tuple[float, ...]:
    """Entropy in bits of the joint histogram over `cols` at each row prefix.

    `prefixes` are strictly ascending row counts, all rows by default. With
    a `period`, the prefixes are taken within each segment of that many
    rows (a whole segment by default), and the entropies are given segment
    by segment (see `msulab.sample.prefix_counts`; `normalize_prefixes`
    checks both). The sample keeps every entropy counted here under the
    exact key (sorted subset, prefixes, segment rows), the segment all rows
    without a period, so each histogram is counted once per sample, prefix
    set and period. Counting a dense joint of several columns also stores,
    under the same prefixes and period, the entropies of each member column
    that the table lacks there, from the member counts the joint gives.
    """
    stored = _stored_entropies(
        sample, normalize_columns(sample, cols), *normalize_prefixes(sample, prefixes, period)
    )
    return tuple(stored.tolist())


def _stored_entropies(
    sample: CategoricalSample, subset: tuple[int, ...], bounds: tuple[int, ...], rows: int
) -> np.ndarray:
    """`subset_entropies` at the table's key (subset, prefixes, segment rows),
    already checked by `normalize_columns` and `normalize_prefixes`, as the
    table holds it: a read-only float64 array, which no caller can change."""
    table = sample._entropies
    key = (subset, bounds, rows)
    if key not in table:
        members = [((c,), bounds, rows) for c in subset]  # each column's own key at these prefixes
        lacking = [j for j, member in enumerate(members) if member not in table]
        joint: list[np.ndarray] = []  # each chunk's
        marginals: list[np.ndarray] = []  # each chunk's, a row per lacking member
        for counts, columns in prefix_counts(sample, *key, bool(lacking)):
            joint.append(entropy_rows(counts))
            if columns:  # none where the joint is renumbered or no member is lacking
                # the lacking members' rows in one matrix, each zero-padded
                # to the widest: a zero cell adds an exact 0 to a row's sum
                width = max(columns[j].shape[1] for j in lacking)
                padded = np.zeros((len(lacking), len(counts), width), np.int64)
                for block, j in zip(padded, lacking):
                    block[:, : columns[j].shape[1]] = columns[j]
                marginals.append(entropy_rows(padded.reshape(-1, width)).reshape(len(lacking), -1))
        if marginals:  # only a dense joint of several columns gives them
            entropies = np.concatenate(marginals, axis=1)
            entropies.setflags(write=False)  # before its rows are taken: they are read-only views
            table.update((members[j], entropies[i]) for i, j in enumerate(lacking))
        entropies = np.concatenate(joint)
        entropies.setflags(write=False)
        table[key] = entropies
    return table[key]


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
    sample: CategoricalSample,
    cols: Sequence[int],
    prefixes: Sequence[int] | None = None,
    period: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """MSU over n >= 2 columns at each row prefix (all rows by default), as
    an array of values and a boolean array marking the degenerate ones.
    With a `period`, the prefixes are taken within each segment of that many
    rows, and the values are given segment by segment, as
    `subset_entropies` gives the entropies.

    (n / (n - 1)) * total correlation / sum of marginal entropies. Where every
    column is constant the ratio is 0/0; the value there is 0 and the mask is
    set. The columns and the prefixes are checked once, and the formula is
    evaluated over the prefixes as arrays, with the IEEE operations of the
    scalar formula in its order: the marginals are fsummed per prefix
    (`_row_sums`), two of them with one IEEE add. A value that lands past
    the unit interval by more than a few ulp is raised, not clamped.
    """
    subset = normalize_columns(sample, cols)
    n = len(subset)
    if n < 2:
        raise InvalidInputError("msu needs at least two columns")
    bounds, rows = normalize_prefixes(sample, prefixes, period)
    h_joint = np.asarray(_stored_entropies(sample, subset, bounds, rows))  # first: it gives the marginals
    h_sum = _row_sums(np.array([_stored_entropies(sample, (c,), bounds, rows) for c in subset]).T)
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

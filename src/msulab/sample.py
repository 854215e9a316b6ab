"""Categorical data containers: code matrices and joint histograms.

A sample is an m x p matrix of integer category codes. Every column carries a
declared cardinality (alphabet size); codes live in [0, cardinality). Declared
cardinality may exceed the number of codes actually observed, which matters for
sample-size arithmetic but never for the plug-in probability estimates: those
are built from observed counts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidInputError

# Joint spaces up to this many cells are counted with a dense bincount over
# their mixed-radix keys; larger ones are first renumbered to the observed
# cells. It also caps the size of one prefix count matrix.
_DENSE_CELL_LIMIT = 1 << 21


@dataclass(frozen=True)
class CategoricalSample:
    """Immutable m x p matrix of category codes with per-column cardinalities."""

    codes: np.ndarray
    cardinalities: tuple[int, ...]
    column_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        # only float input can carry a fraction; integer columns skip the check
        if codes.dtype.kind == "f" and not (np.isfinite(codes) & (codes == np.trunc(codes))).all():
            raise InvalidInputError("category codes must be finite whole numbers")
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise InvalidInputError(f"codes must be a 2-D matrix, got ndim={codes.ndim}")
        m, p = codes.shape
        if m < 1 or p < 1:
            raise InvalidInputError(f"sample must have at least one row and one column, got {m}x{p}")
        cards = tuple(int(c) for c in self.cardinalities)
        if len(cards) != p:
            raise InvalidInputError(f"expected {p} cardinalities, got {len(cards)}")
        if any(c < 1 for c in cards):
            raise InvalidInputError("cardinalities must be positive")
        if codes.min() < 0:
            raise InvalidInputError("category codes must be non-negative")
        if (codes >= np.asarray(cards, dtype=np.int64)).any():
            raise InvalidInputError("a category code exceeds its column's declared cardinality")
        if self.column_names is not None:
            names = tuple(self.column_names)
            if len(names) != p:
                raise InvalidInputError(f"expected {p} column names, got {len(names)}")
            object.__setattr__(self, "column_names", names)
        codes = codes.copy()
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "cardinalities", cards)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_columns(self) -> int:
        return self.codes.shape[1]

    def column_index(self, name: str) -> int:
        if self.column_names is None:
            raise InvalidInputError("sample has no column names")
        try:
            return self.column_names.index(name)
        except ValueError:
            raise InvalidInputError(f"unknown column {name!r}") from None

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[int] | np.ndarray],
        cardinalities: Sequence[int],
        column_names: Sequence[str] | None = None,
    ) -> "CategoricalSample":
        codes = np.column_stack([np.asarray(c, dtype=np.int64) for c in columns])
        return cls(codes, tuple(cardinalities), tuple(column_names) if column_names else None)


def normalize_columns(sample: CategoricalSample, cols: Sequence[int]) -> tuple[int, ...]:
    """Validate a column subset and return it sorted ascending.

    Sorted order makes equal subsets compare (and hash) equal no matter how the
    caller listed them. Duplicates are rejected: a subset is a set.
    """
    subset = tuple(int(c) for c in cols)
    if not subset:
        raise InvalidInputError("column subset must not be empty")
    p = sample.n_columns
    for c in subset:
        if not 0 <= c < p:
            raise InvalidInputError(f"column index {c} out of range for {p} columns")
    if len(set(subset)) != len(subset):
        raise InvalidInputError(f"column subset contains duplicates: {subset}")
    return tuple(sorted(subset))


def joint_counts(sample: CategoricalSample, cols: Sequence[int]) -> np.ndarray:
    """Counts of the observed value tuples over `cols` (zero cells omitted).

    The cell order is deterministic for a given sample (ascending mixed-radix
    key over the sorted column subset), so repeated calls return identical
    arrays. This is the one-prefix case of `prefix_counts`.
    """
    (counts,) = prefix_counts(sample, cols, (sample.n_rows,))
    return counts[0]


def prefix_counts(
    sample: CategoricalSample, cols: Sequence[int], prefixes: Sequence[int]
) -> Iterator[np.ndarray]:
    """Joint counts over `cols` of the row prefixes `codes[:n]`, n in `prefixes`.

    `prefixes` must be strictly ascending row counts. Each yielded matrix
    holds the counts of consecutive prefixes, one row each, in ascending cell
    key order; cells absent from all of its rows are dropped, so the last row
    has no zero. No matrix exceeds `_DENSE_CELL_LIMIT` elements unless a
    single row does. Every row is counted from the rows' cell ids in one
    pass: the ids are keyed once, and each prefix adds the rows after the
    previous one to its counts.
    """
    subset = normalize_columns(sample, cols)
    bounds = [int(n) for n in prefixes]
    if not bounds or bounds[0] < 1 or sorted(set(bounds)) != bounds:
        raise InvalidInputError(f"prefixes must be strictly ascending and positive, got {bounds}")
    if bounds[-1] > sample.n_rows:
        raise InvalidInputError(f"prefix of {bounds[-1]} rows exceeds the sample's {sample.n_rows}")
    ids, n_cells = _cell_ids(
        sample.codes[: bounds[-1], subset], [sample.cardinalities[c] for c in subset]
    )
    per_chunk = max(1, _DENSE_CELL_LIMIT // n_cells)
    start = 0
    running = None
    for first in range(0, len(bounds), per_chunk):
        chunk = bounds[first : first + per_chunk]
        rows = ids[start : chunk[-1]]
        if len(chunk) == 1:
            counts = np.bincount(rows, minlength=n_cells)[np.newaxis]
        else:
            # offset each row's id by its prefix slot, then accumulate slots
            slot = np.repeat(np.arange(0, len(chunk) * n_cells, n_cells), np.diff([start, *chunk]))
            counts = np.bincount(slot + rows, minlength=len(chunk) * n_cells)
            counts = counts.reshape(len(chunk), n_cells).cumsum(axis=0)
        if running is not None:
            counts += running
        running = counts[-1]
        start = chunk[-1]
        yield counts[:, running > 0]


def _cell_ids(codes: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int]:
    """Per-row cell ids over the columns of `codes`, and the id space size.

    Dense spaces use the mixed-radix key itself; larger ones are renumbered
    to the observed keys (or, past int64, to the observed rows) in ascending
    order.
    """
    space = math.prod(dims)
    if space >= 1 << 62:
        # joint space not addressable in int64: number the distinct rows
        cells, ids = np.unique(codes, axis=0, return_inverse=True)
        return ids.reshape(-1), len(cells)
    keys = np.zeros(codes.shape[0], dtype=np.int64)
    for j, d in enumerate(dims):
        keys *= d
        keys += codes[:, j]
    if space <= _DENSE_CELL_LIMIT:
        return keys, space
    cells, ids = np.unique(keys, return_inverse=True)
    return ids.reshape(-1), len(cells)

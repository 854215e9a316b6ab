"""Categorical data containers: code matrices and joint histograms.

A sample is an m x p matrix of integer category codes. Every column carries a
declared cardinality (alphabet size); codes live in [0, cardinality). Declared
cardinality may exceed the number of codes actually observed, which matters for
sample-size arithmetic but never for the plug-in probability estimates: those
are built from observed counts only.

The codes are stored column-major: one read-only, Fortran-ordered int64
matrix, so each column is one contiguous block of memory. Joint histograms
key their cells from those columns directly, and `from_columns` (the path of
generated and CSV data) writes each input column straight into its place in
the matrix. Every sample, however it is built, passes the same validation in
`__post_init__`; a matrix given to the constructor is copied first, one that
`from_columns` filled is not copied again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidInputError

# Joint spaces up to this many cells are counted with a dense bincount over
# their mixed-radix keys; larger ones are first renumbered to the observed
# cells. It also caps the size of one prefix count matrix.
_DENSE_CELL_LIMIT = 1 << 21

# Codes are int64, so no column's alphabet may be larger than this.
MAX_CARDINALITY = int(np.iinfo(np.int64).max)


class _Filled:
    """A code matrix that `from_columns` allocated, so no caller holds it."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix


def _code_array(values) -> np.ndarray:
    """`values` as a numeric array of whole-number codes, not yet cast."""
    try:
        codes = np.asarray(values)
    except (TypeError, ValueError):
        raise InvalidInputError("category codes must form a rectangle of numbers") from None
    # strings, None and other objects are not codes, even when they spell one
    if codes.dtype.kind not in "biuf":
        raise InvalidInputError(f"category codes must be numbers, got dtype {codes.dtype}")
    # only float input can carry a fraction; integer input skips the check
    if codes.dtype.kind == "f" and not (np.isfinite(codes) & (codes == np.trunc(codes))).all():
        raise InvalidInputError("category codes must be finite whole numbers")
    return codes


@dataclass(frozen=True, eq=False)
class CategoricalSample:
    """Immutable m x p matrix of category codes with per-column cardinalities.

    Two samples are equal when their codes, cardinalities and column names
    are; the memory layout of the codes does not matter. Samples are not
    hashable.
    """

    codes: np.ndarray
    cardinalities: tuple[int, ...]
    column_names: tuple[str, ...] | None = None
    # (sorted column subset, row prefixes) -> entropy at each prefix; only
    # `msulab.measures.subset_entropies` fills and reads it
    _entropies: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.codes, _Filled):
            codes = self.codes.matrix  # its columns were checked as they were written
        else:
            # the defensive copy, column-major like every sample's codes
            codes = np.array(_code_array(self.codes), dtype=np.int64, order="F")
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
        if any(c > MAX_CARDINALITY for c in cards):
            raise InvalidInputError(f"cardinalities must not exceed {MAX_CARDINALITY} (int64 codes)")
        if codes.min() < 0:
            raise InvalidInputError("category codes must be non-negative")
        if (codes.max(axis=0) >= np.asarray(cards, dtype=np.int64)).any():
            raise InvalidInputError("a category code exceeds its column's declared cardinality")
        if self.column_names is not None:
            names = tuple(self.column_names)
            if len(names) != p:
                raise InvalidInputError(f"expected {p} column names, got {len(names)}")
            object.__setattr__(self, "column_names", names)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "cardinalities", cards)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.cardinalities == other.cardinalities
            and self.column_names == other.column_names
            and bool(np.array_equal(self.codes, other.codes))
        )

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
        """Sample whose j-th column holds `columns[j]`.

        The columns must be 1-D and of equal length. Each is written into its
        place in a new column-major matrix, which the constructor validates
        without copying it again.
        """
        arrays = [_code_array(c) for c in columns]
        if not arrays:
            raise InvalidInputError("sample must have at least one column")
        for a in arrays:
            if a.ndim != 1:
                raise InvalidInputError(f"each column must be 1-D, got ndim={a.ndim}")
            if len(a) != len(arrays[0]):
                raise InvalidInputError(
                    f"columns must have equal lengths, got {len(arrays[0])} and {len(a)}"
                )
        codes = np.empty((len(arrays[0]), len(arrays)), dtype=np.int64, order="F")
        for j, a in enumerate(arrays):
            codes[:, j] = a
        return cls(
            _Filled(codes), tuple(cardinalities), tuple(column_names) if column_names else None
        )


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
        [sample.codes[: bounds[-1], c] for c in subset], [sample.cardinalities[c] for c in subset]
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


def _cell_ids(columns: Sequence[np.ndarray], dims: Sequence[int]) -> tuple[np.ndarray, int]:
    """Per-row cell ids over equal-length code columns, and the id space size.

    Dense spaces use the mixed-radix key itself (one column is its own key);
    larger ones are renumbered to the observed keys (or, past int64, to the
    observed rows) in ascending order.
    """
    space = math.prod(dims)
    if space >= 1 << 62:
        # joint space not addressable in int64: number the distinct rows
        cells, ids = np.unique(np.column_stack(columns), axis=0, return_inverse=True)
        return ids.reshape(-1), len(cells)
    keys = columns[0]
    if len(columns) > 1:
        keys = keys * dims[1]  # a new array: the sample's own column is never written
        keys += columns[1]
        for column, d in zip(columns[2:], dims[2:]):
            keys *= d
            keys += column
    if space <= _DENSE_CELL_LIMIT:
        return keys, space
    cells, ids = np.unique(keys, return_inverse=True)
    return ids.reshape(-1), len(cells)

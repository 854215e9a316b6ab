"""Categorical data containers: code matrices and joint histograms.

A sample is an m x p matrix of integer category codes. Every column carries a
declared cardinality (alphabet size); codes live in [0, cardinality). Declared
cardinality may exceed the number of codes actually observed, which matters for
sample-size arithmetic but never for the plug-in probability estimates: those
are built from observed counts only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInputError

# Joint spaces up to this many cells are counted with a dense bincount;
# larger (but int64-addressable) spaces fall back to sparse key counting.
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
    arrays.
    """
    subset = normalize_columns(sample, cols)
    codes = sample.codes[:, subset]
    dims = [sample.cardinalities[c] for c in subset]
    space = 1
    for d in dims:
        space *= d

    if space <= _DENSE_CELL_LIMIT:
        keys = _mixed_radix_keys(codes, dims)
        counts = np.bincount(keys, minlength=space)
        return counts[counts > 0]
    if space < (1 << 62):
        keys = _mixed_radix_keys(codes, dims)
        _, counts = np.unique(keys, return_counts=True)
        return counts
    # Joint space not addressable in int64: count distinct rows directly.
    _, counts = np.unique(codes, axis=0, return_counts=True)
    return counts


def _mixed_radix_keys(codes: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    keys = np.zeros(codes.shape[0], dtype=np.int64)
    for j, d in enumerate(dims):
        keys *= d
        keys += codes[:, j]
    return keys


@dataclass(frozen=True)
class JointHistogram:
    """Counts over value tuples of a chosen column subset.

    `cell_counts` holds observed cells only; absent tuples have count zero.
    """

    column_subset: tuple[int, ...]
    cell_counts: Mapping[tuple[int, ...], int]
    total: int = field(default=0)

    def __post_init__(self) -> None:
        total = sum(self.cell_counts.values())
        if self.total and self.total != total:
            raise InvalidInputError(f"cell counts sum to {total}, expected total {self.total}")
        object.__setattr__(self, "total", total)
        if any(c < 0 for c in self.cell_counts.values()):
            raise InvalidInputError("cell counts must be non-negative")

    @classmethod
    def from_sample(cls, sample: CategoricalSample, cols: Sequence[int]) -> "JointHistogram":
        subset = normalize_columns(sample, cols)
        codes = sample.codes[:, subset]
        rows, counts = np.unique(codes, axis=0, return_counts=True)
        cells = {tuple(int(v) for v in row): int(n) for row, n in zip(rows, counts)}
        return cls(column_subset=subset, cell_counts=cells, total=sample.n_rows)

    def counts(self) -> list[int]:
        return list(self.cell_counts.values())

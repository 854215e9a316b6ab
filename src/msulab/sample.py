"""Categorical data containers: code matrices and joint histograms.

A sample is an m x p matrix of integer category codes. Every column carries a
declared cardinality (alphabet size); codes live in [0, cardinality). Declared
cardinality may exceed the number of codes actually observed, which matters for
sample-size arithmetic but never for the plug-in probability estimates: those
are built from observed counts only.

The codes are stored column-major: one read-only, Fortran-ordered matrix, so
each column is one contiguous block of memory. Its dtype is the narrowest
that holds every code below the sample's largest cardinality (`code_dtype`:
uint8 up to 256, uint16 up to 65,536, uint32 up to 2**32, int64 past that),
so the binary to 40-value alphabets of the paper take one byte a code.
`from_columns` range-checks each input column (`check_codes`) before it
casts it into its place in the matrix, so a bad code is reported, never
wrapped into range. `msulab.dataset.generate_replicates` has its generators
write each column into its rows as it is drawn, and `msulab.ingest.read_csv`
joins its coded chunks into the matrix; both write only codes that fit.
Every sample, however it is built, passes the same validation in
`__post_init__`, which checks every code of the matrix; a matrix given to
the constructor is copied first, one that a path filled (wrapped in
`_Filled`) is not copied again.

Rows become counts in one place, `prefix_counts`: it counts the joint
histogram of a column subset at ascending row prefixes and, where the joint
of two or more columns is dense and the caller asks for them, the counts of
every one of its columns at the same prefixes. It keys each row's cell from
the code columns directly, in the narrowest dtype of the joint space (the
same rule). A joint is counted densely, over its whole grid of mixed-radix
keys, only where the rows fill that grid; then each column's counts are the
grid's sums over the other columns' axes, one for each code, so the rows
are read once for all of them. Otherwise the keys are renumbered to the
cells seen, by one sort of the keys, and the joint gives no column's
counts: a column is then counted from its own rows, as a subset of one. At
one prefix of one segment, as every public measure counts, the cells'
counts are the run lengths of the sorted keys, with no id written or
counted; at several prefixes, each row's id comes from an argsort and the
runs' starts. How a cell is keyed (a dense mixed-radix key, a renumbered
key, or a row of codes past int64) is private to this module.

A sample can hold datasets of one layout one after another, as
`msulab.dataset.generate_replicates` writes a batch of replicates, and be
counted with a `period` of their rows: the prefixes are then taken within
each segment, and the count matrices hold one row per (segment, prefix),
segment by segment. `normalize_columns` and `normalize_prefixes` (the one rule for a
period and its prefixes) run only in `msulab.measures`, which hands
`prefix_counts` its entropy table's checked key (subset, prefixes, segment
rows). A joint's layout is decided once a call: a dense joint counts all
segments in one bincount a chunk; a renumbered one is counted segment by
segment, so each segment is keyed as it would be alone.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidInputError

# A joint space is counted with a dense bincount over its mixed-radix keys
# when it has at most _DENSE_CELL_LIMIT cells and at most _DENSE_FILL cells
# for each row keyed; any other is first renumbered to the observed cells.
# The limit also caps the size of one prefix count matrix. The dense path
# costs passes over the grid (the counts, their nonzeros, and past one
# column every column's axis sums, each over a smaller grid than the last);
# the renumbered one a sort of the keys, and a count of each member from
# its own rows. Timed on one CPU over 600 to 100,000 rows, 2- to 40-valued
# columns and 1/2 to 64 cells a row, at one prefix, with every member's axis
# sums as every dense joint of several columns takes them, dense took, of
# the time of the sorted keys' run lengths and each member counted alone:
# 0.24-0.85 up to 4 cells a row, 0.52-1.25 at 5 to 8, 0.6-2.9 at 10 to 21,
# and up to 22 past 100 on 5,000 rows. When a renumbered joint was still
# counted through `np.unique`, dense took, of its time: with no axis sums,
# 0.06-0.86 up to 8 cells a row, 0.86-1.6 at 10 to 16, up to 4.6 past that;
# with every column's, 0.06-1.02 up to 8 at one prefix, but up to 10 at 4
# to 8 cells a row and 10 prefixes. The presets timed no differently at 4,
# 8 or 16 cells a row then.
_DENSE_CELL_LIMIT = 1 << 21
_DENSE_FILL = 8

# The widest codes are int64, so no column's alphabet may be larger than this.
MAX_CARDINALITY = int(np.iinfo(np.int64).max)

# The narrow code dtypes, narrowest first, each after the count of codes it holds.
_CODE_DTYPES = (
    (1 << 8, np.dtype(np.uint8)),
    (1 << 16, np.dtype(np.uint16)),
    (1 << 32, np.dtype(np.uint32)),
)
_WIDEST_CODES = np.dtype(np.int64)


def code_dtype(cardinalities: Sequence[int]) -> np.dtype:
    """The dtype of a sample's codes: the narrowest of uint8, uint16 and
    uint32 that holds every code below the largest of `cardinalities`,
    else int64. Every code matrix is allocated in it (`code_matrix`)."""
    top = max(cardinalities)
    for bound, dtype in _CODE_DTYPES:
        if top <= bound:
            return dtype
    return _WIDEST_CODES


def code_matrix(m: int, cardinalities: Sequence[int]) -> np.ndarray:
    """A new, unfilled m-row column-major matrix for codes of `cardinalities`."""
    return np.empty((m, len(cardinalities)), dtype=code_dtype(cardinalities), order="F")


def check_codes(columns: Sequence[np.ndarray], cardinalities: Sequence[int]) -> None:
    """Reject a negative code, then a code at or past its column's cardinality.

    Each column's extremes are compared as Python ints, so the check is exact
    in any numeric dtype. It must run before codes are cast to a narrower
    dtype, which would wrap a bad code into range. An integer column is read
    once; the columns are read again only to name what is wrong.
    """
    if all(_codes_fit(column, card) for column, card in zip(columns, cardinalities)):
        return
    if any(column.min() < 0 for column in columns):
        raise InvalidInputError("category codes must be non-negative")
    raise InvalidInputError("a category code exceeds its column's declared cardinality")


def _codes_fit(column: np.ndarray, card: int) -> bool:
    """Whether every code of `column` lies in [0, card)."""
    kind = column.dtype.kind
    if kind == "i":
        # viewed unsigned (in its own byte order), a negative code is at
        # least 2**(bits - 1), which no non-negative one reaches
        top = column.view(column.dtype.str.replace("i", "u")).max()
        return int(top) < min(card, 1 << (8 * column.dtype.itemsize - 1))
    if kind == "f":
        return column.min() >= 0 and int(column.max()) < card
    return int(column.max()) < card  # unsigned and boolean codes are never negative


class _Filled:
    """A `code_matrix` that `from_columns`,
    `msulab.dataset.generate_replicates` or `msulab.ingest.read_csv`
    allocated and filled, so no caller holds it; the constructor validates
    it without a copy."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix


def whole_numbers(values, what: str = "category codes") -> np.ndarray:
    """`values` as a numeric array of whole numbers within int64, not yet
    cast; `what` names them in an error."""
    try:
        numbers = np.asarray(values)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} must form a rectangle of numbers") from None
    # strings, None and other objects are not numbers, even when they spell
    # one; numpy holds an integer past uint64 as an object too
    if numbers.dtype.kind not in "biuf":
        raise InvalidInputError(f"{what} must be numbers within int64, got dtype {numbers.dtype}")
    # only float input can carry a fraction; integer input skips the check
    if numbers.dtype.kind == "f" and not (np.isfinite(numbers) & (numbers == np.trunc(numbers))).all():
        raise InvalidInputError(f"{what} must be finite whole numbers")
    # the bound is 2**63, not MAX_CARDINALITY, which a float compare would
    # round up to 2**63
    if numbers.dtype.kind in "uf" and numbers.size and numbers.max() >= MAX_CARDINALITY + 1:
        top = numbers.max().item()  # an int or a float, as given
        raise InvalidInputError(f"{what} hold {top}, which is past int64 (max {MAX_CARDINALITY})")
    return numbers


def _checked_cards(shape: tuple[int, ...], cardinalities: Sequence[int]) -> tuple[int, ...]:
    """`cardinalities` as ints, once `shape` is an m x p matrix of at least
    one cell and each of its p columns has a cardinality in [1, MAX_CARDINALITY]."""
    if len(shape) != 2:
        raise InvalidInputError(f"codes must be a 2-D matrix, got ndim={len(shape)}")
    m, p = shape
    if m < 1 or p < 1:
        raise InvalidInputError(f"sample must have at least one row and one column, got {m}x{p}")
    cards = tuple(_integers(cardinalities, "cardinalities"))
    if len(cards) != p:
        raise InvalidInputError(f"expected {p} cardinalities, got {len(cards)}")
    if any(c < 1 for c in cards):
        raise InvalidInputError("cardinalities must be positive")
    if any(c > MAX_CARDINALITY for c in cards):
        raise InvalidInputError(f"cardinalities must not exceed {MAX_CARDINALITY} (int64 codes)")
    return cards


def _narrowed(columns: Sequence[np.ndarray], cardinalities: tuple[int, ...]) -> np.ndarray:
    """A new `code_matrix` holding `columns`, each range-checked before the cast."""
    check_codes(columns, cardinalities)
    codes = code_matrix(len(columns[0]), cardinalities)
    for j, column in enumerate(columns):
        codes[:, j] = column
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
    # (sorted column subset, row prefixes, segment rows) -> a read-only
    # float64 array of the entropy at each prefix of each segment; only
    # `msulab.measures` fills and reads it
    _entropies: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.codes, _Filled):
            codes = self.codes.matrix  # a code_matrix, written by its filler
            cards = _checked_cards(codes.shape, self.cardinalities)
        else:
            # the defensive copy, in the layout and dtype of every sample's codes
            given = whole_numbers(self.codes)
            cards = _checked_cards(given.shape, self.cardinalities)
            codes = _narrowed(given.T, cards)
        check_codes(codes.T, cards)
        p = codes.shape[1]
        if self.column_names is not None:
            names = items(self.column_names, "column names", str)
            if len(names) != p:
                raise InvalidInputError(f"expected {p} column names, got {len(names)}")
            if len(set(names)) != p:  # column_index would find only the first
                raise InvalidInputError("duplicate column names")
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
            raise InvalidInputError(f"unknown column {_shown(name)}") from None

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[int] | np.ndarray],
        cardinalities: Sequence[int],
        column_names: Sequence[str] | None = None,
    ) -> "CategoricalSample":
        """Sample whose j-th column holds `columns[j]`.

        The columns must be 1-D and of equal length. Each is range-checked,
        then written into its place in a new `code_matrix`, which the
        constructor validates without copying it again.
        """
        try:
            arrays = [whole_numbers(c) for c in columns]
        except TypeError:  # not iterable
            raise InvalidInputError(f"columns must be an iterable of code columns, got {_shown(columns)}") from None
        if not arrays:
            raise InvalidInputError("sample must have at least one column")
        for a in arrays:
            if a.ndim != 1:
                raise InvalidInputError(f"each column must be 1-D, got ndim={a.ndim}")
            if len(a) != len(arrays[0]):
                raise InvalidInputError(
                    f"columns must have equal lengths, got {len(arrays[0])} and {len(a)}"
                )
        cards = _checked_cards((len(arrays[0]), len(arrays)), cardinalities)
        return cls(_Filled(_narrowed(arrays, cards)), cards, column_names)


def integer(value, what: str) -> int:
    """`value` as a Python int; a bool, float, string or None is rejected,
    never truncated, while NumPy integers are accepted. `what` names it in
    an error."""
    if not isinstance(value, bool):  # an int subclass, but a flag is not a count
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{what} must be an integer, got {_shown(value)}")


def real(value, what: str) -> float:
    """`value` as a float; a bool, string or None is rejected, while NumPy
    numbers are accepted. An int past the float range is an infinity, which
    each caller's range rejects, as every range is finite. `what` names it
    in an error."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):  # a flag is not a number
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            return math.inf if value > 0 else -math.inf
    raise InvalidInputError(f"{what} must be a finite number, got {_shown(value)}")


def string(value, what: str) -> str:
    """`value`, a string; `what` names it in an error."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string, got {_shown(value)}")
    return value


def items(value, what: str, kind: type = object) -> tuple:
    """`value`, a list or tuple of `kind`, as a tuple; `what` names it in an
    error."""
    # a string is a sequence too, but one name is not a list of them
    if isinstance(value, (list, tuple)) and all(isinstance(v, kind) for v in value):
        return tuple(value)
    entries = "" if kind is object else f" of {kind.__name__}"
    raise InvalidInputError(f"{what} must be a list or tuple{entries}, got {_shown(value)}")


def _integers(values, what: str) -> list[int]:
    """`values` as Python ints, each by the rule of `integer`, which rejects
    a bool. A list or tuple of exact ints is one already, checked in one
    pass; anything else, a bool, a NumPy integer or an int subclass among
    its items included, is checked item by item."""
    if isinstance(values, (list, tuple)) and set(map(type, values)) <= {int}:
        return list(values)
    try:
        return [integer(v, what) for v in values]
    except (TypeError, InvalidInputError):  # not a sequence, or not all integers
        raise InvalidInputError(f"{what} must be a sequence of integers, got {_shown(values)}") from None


def _shown(value, outer: bool = True) -> str:
    """`value` for an error message, as its repr gives it, but a number as
    `str` gives it (a NumPy scalar by its value), and an int past 2**64 in
    size, on its own or as an item of a list or tuple, as the power of two
    it passes, since Python formats no int of more than 4,300 digits; a
    value whose repr still fails is named by its type. Only the outer list
    or tuple is walked, so a list that holds itself never recurses here."""
    if isinstance(value, int) and value.bit_length() > 64:
        power = f"2**{value.bit_length() - 1}"
        return f"at least {power}" if value > 0 else f"at most -{power}"
    if outer and isinstance(value, (list, tuple)):
        shown = ", ".join(_shown(v, outer=False) for v in value)
        return f"[{shown}]" if isinstance(value, list) else f"({shown}{',' * (len(value) == 1)})"
    try:
        return str(value) if isinstance(value, numbers.Number) else repr(value)
    except (ValueError, RecursionError):  # an int past the digit limit inside it, or nesting too deep
        return f"a {type(value).__name__}"


def normalize_columns(sample: CategoricalSample, cols: Sequence[int]) -> tuple[int, ...]:
    """Validate a column subset and return it sorted ascending.

    Sorted order makes equal subsets compare (and hash) equal no matter how the
    caller listed them. Duplicates are rejected: a subset is a set.
    """
    if not isinstance(sample, CategoricalSample):
        raise InvalidInputError(f"sample must be a CategoricalSample, got {type(sample).__name__}")
    subset = _integers(cols, "column indices")
    if not subset:
        raise InvalidInputError("column subset must not be empty")
    p = sample.n_columns
    for c in subset:
        if not 0 <= c < p:
            raise InvalidInputError(f"column index {_shown(c)} out of range for {p} columns")
    if len(set(subset)) != len(subset):
        raise InvalidInputError(f"column subset contains duplicates: {tuple(subset)}")
    return tuple(sorted(subset))


def normalize_prefixes(
    sample: CategoricalSample, prefixes: Sequence[int] | None, period: int | None = None
) -> tuple[tuple[int, ...], int]:
    """The one rule for a period and its prefixes: `period`, all rows when
    None, must divide the sample's rows, then `prefixes`, a whole period
    when None, must be strictly ascending row counts within it. Returns the
    prefixes and the segment's row count, all rows when no period is given."""
    m = sample.n_rows
    rows = m if period is None else integer(period, "period")
    if rows < 1 or m % rows:
        raise InvalidInputError(f"a period of {_shown(rows)} rows does not divide the sample's {m}")
    bounds = [rows] if prefixes is None else _integers(prefixes, "prefixes")
    if not bounds or bounds[0] < 1 or sorted(set(bounds)) != bounds:
        raise InvalidInputError(f"prefixes must be strictly ascending and positive, got {_shown(bounds)}")
    if bounds[-1] > m:
        raise InvalidInputError(f"prefix of {_shown(bounds[-1])} rows exceeds the sample's {m}")
    if bounds[-1] > rows:
        raise InvalidInputError(f"prefix of {_shown(bounds[-1])} rows exceeds the period of {rows}")
    return tuple(bounds), rows


def prefix_counts(
    sample: CategoricalSample, subset: tuple[int, ...], bounds: tuple[int, ...], rows: int, members: bool
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Joint counts over the columns `subset` of the row prefixes
    `codes[:n]`, n in `bounds`, with the counts of each of those columns at
    those prefixes where the joint of two or more columns is dense and
    `members` asks for them.

    The arguments are an entropy table's key, checked by `normalize_columns`
    and `normalize_prefixes`, and are not checked again. The sample is read
    as segments of `rows` rows, one after another, and the prefixes are
    taken within each segment: the rows are one per (segment, prefix),
    segment by segment, each the counts of that segment's first n rows.
    Only the subset's columns are read, each a view of the codes unless the
    prefixes stop short of a period of several segments.

    Each yielded matrix holds the joint counts of consecutive rows in
    ascending cell key order; cells absent from all of its rows are dropped,
    so each cell is seen in some segment's last row of the matrix. The
    layout is decided here, once: a joint is dense where a segment's
    `bounds[-1]` rows fill its grid (`_dense`). Then a joint of two or more
    columns comes with one matrix per column, in sorted subset order: each
    row the column's counts in the same row, its full cardinality wide in
    ascending code order, zeros included. Those are the grid's sums over its
    other axes, so the rows are read once; they are summed only where
    `members` is true, as the entropy table asks for them only when it
    lacks some member's entropies. Any other joint comes with an empty
    list; a renumbered one is counted segment by segment, each
    renumbered to its own cells, so a segment is keyed as it would be alone
    and no row is as wide as all segments' cells together. No joint matrix
    exceeds `_DENSE_CELL_LIMIT` elements unless a single row does. A
    renumbered joint at one prefix of one segment is the run lengths of its
    sorted keys. Every other matrix is counted from the rows' cell ids in
    one bincount: the ids are keyed once, each row of a segment adds the
    rows after the previous prefix to its counts, and a segment's first row
    starts from zero.
    """
    dims = tuple(sample.cardinalities[c] for c in subset)
    top = bounds[-1]
    segments = sample.n_rows // rows
    # the first `top` rows of each segment, one after another
    columns = [sample.codes[:, c].reshape(segments, rows)[:, :top].ravel() for c in subset]
    dense = _dense(math.prod(dims), top)
    if segments > 1 and not dense:
        # renumbered segment by segment, each to its own cells, so that no
        # count row is as wide as the cells of all segments together
        for s in range(0, segments * top, top):
            yield from _counts([column[s : s + top] for column in columns], dims, bounds, 1, dense, members)
    else:
        yield from _counts(columns, dims, bounds, segments, dense, members)


def _dense(space: int, rows: int) -> bool:
    """Whether a joint space of `space` cells is counted densely, over its
    whole grid, where each count row holds `rows` rows."""
    return space <= min(_DENSE_CELL_LIMIT, _DENSE_FILL * rows)


def _counts(
    columns: list[np.ndarray],
    dims: tuple[int, ...],
    bounds: tuple[int, ...],
    segments: int,
    dense: bool,
    members: bool,
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """`prefix_counts` of the subset's code columns, which hold `segments`
    segments of `bounds[-1]` rows one after another, keyed densely or
    renumbered as `dense` says, with a dense joint's member counts where
    `members` asks for them."""
    top, n = bounds[-1], len(bounds)
    if not dense and n == segments == 1:
        # one histogram of all the rows: its counts are the sorted keys' runs
        yield _cell_ids(columns, dims, None)[0][np.newaxis], []
        return
    ids, n_cells = _cell_ids(columns, dims, dense)
    per_chunk = max(1, _DENSE_CELL_LIMIT // n_cells)
    # a chunk is whole segments where one fits, else consecutive prefixes of one
    whole, per = max(1, per_chunk // n), min(n, per_chunk)
    spans = [
        (s, min(s + whole, segments), f, min(f + per, n))
        for s in range(0, segments, whole)
        for f in range(0, n, per)
    ]
    running = None
    for s0, s1, f0, f1 in spans:
        chunk = (s1 - s0) * (f1 - f0)
        part = ids[s0 * top + (bounds[f0 - 1] if f0 else 0) : (s1 - 1) * top + bounds[f1 - 1]]
        if chunk == 1:
            counts = np.bincount(part, minlength=n_cells)[np.newaxis]
        else:
            # offset each row's id by its (segment, prefix) slot, then
            # accumulate the slots of each segment
            steps = np.diff((bounds[f0 - 1] if f0 else 0, *bounds[f0:f1]))
            slot = np.repeat(np.arange(0, chunk * n_cells, n_cells), np.tile(steps, s1 - s0))
            slot += part
            counts = np.bincount(slot, minlength=chunk * n_cells).reshape(s1 - s0, f1 - f0, n_cells)
            counts = counts.cumsum(axis=1).reshape(chunk, n_cells)
        if f0:  # the segment's earlier prefixes were the previous chunk
            counts += running
        running = counts[-1]
        # the cells of each segment's last row
        observed = np.flatnonzero(running if s1 - s0 == 1 else counts[f1 - f0 - 1 :: f1 - f0].any(axis=0))
        # a dense joint's counts are the whole grid, before its zeros are dropped
        yield counts[:, observed], _axis_counts(counts, dims) if members and dense and len(dims) > 1 else []


def _axis_counts(grid: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """The counts of each subset column, given a dense joint's count matrix
    over two or more columns, whose columns are every mixed-radix key over
    `dims` in order: each row summed over every axis of the grid but the
    column's, `dims[j]` wide, zeros included.

    The leading axis is summed out of the grid after each column, so each
    pass is over a grid `dims[j]` times smaller than the last, where a sum
    over all other axes would pass over the whole grid for each column; the
    last column's counts are what is left. The int64 sums are exact in any
    order. `einsum` sums the short axes of many rows 4-6x as fast as
    `np.add.reduce`, which costs less a call on one row.
    """
    rows, sums = len(grid), []
    for d in dims[:-1]:
        block = grid.reshape(rows, d, -1)
        if rows > 1:
            sums.append(np.einsum("rij->ri", block))
            grid = np.einsum("rij->rj", block)
        else:
            sums.append(np.add.reduce(block, 2))
            grid = np.add.reduce(block, 1)
    return sums + [grid]


def _cell_ids(columns: Sequence[np.ndarray], dims: Sequence[int], dense: bool | None) -> tuple[np.ndarray, int]:
    """Per-row cell ids over equal-length code columns, and the id space size.

    A `dense` space's ids are the mixed-radix keys themselves (one column is
    its own key), over the whole grid. Any other is renumbered to the
    observed keys in ascending order, by one argsort of the keys and the
    starts of their runs; past int64, to the observed rows of codes. With
    `dense` None, for one histogram of all the rows, a space is renumbered
    likewise, but each cell's count takes the place of the ids: the run
    lengths of the keys sorted without their order, so no id is written and
    none is counted. A space past int64 is never dense (`_dense`).
    """
    space = math.prod(dims)
    if space >= 1 << 62:
        # joint space not addressable in int64: number the distinct rows
        cells, ids = np.unique(np.column_stack(columns), axis=0, return_inverse=True)
        ids = ids.reshape(-1)
        return (np.bincount(ids) if dense is None else ids), len(cells)
    # a one-valued column adds 0 to every key, so it is left out; then every
    # multiplier is at most half the key dtype's size
    radix = [(column, d) for column, d in zip(columns, dims) if d > 1] or [(columns[0], 1)]
    keys = radix[0][0]
    if len(radix) > 1:
        # Horner in the narrowest dtype of the space: each partial key is
        # below the product of the dims seen so far. A new array, so the
        # sample's own column is never written; the unsafe casts are exact,
        # since every code is below its column's cardinality.
        keys = np.multiply(keys, radix[1][1], dtype=code_dtype([space]), casting="unsafe")
        np.add(keys, radix[1][0], out=keys, casting="unsafe")
        for column, d in radix[2:]:
            keys *= d
            np.add(keys, column, out=keys, casting="unsafe")
    if dense:
        return keys, space
    # a stable sort of keys of 16 bits or fewer is a radix sort, ~10x as fast
    # as the default argsort there; wider keys sort ~5x faster by the
    # default. No id depends on the order of equal keys.
    kind = "stable" if keys.dtype.itemsize <= 2 else None
    if dense is None:
        return (runs := run_lengths(np.sort(keys, kind=kind))), len(runs)
    order = np.argsort(keys, kind=kind)
    runs = run_lengths(keys[order])
    ids = np.empty_like(order)
    ids[order] = np.repeat(np.arange(len(runs)), runs)
    return ids, len(runs)


def run_lengths(ordered: np.ndarray) -> np.ndarray:
    """The length of each run of equal values in a sorted array, in order."""
    return np.diff(np.flatnonzero(np.diff(ordered)), prepend=-1, append=len(ordered) - 1)

"""Assembly of full synthetic datasets from attribute blocks.

A dataset is described by an ordered list of attribute blocks plus a class
column. When a block of kind XOR_PAIR is present the class is derived from
that pair (the pair defines the class up to noise); otherwise the class is
drawn uniformly first and informative blocks condition on it. Every column
is written straight into its place in the sample's code matrix by its
family's writer (`msulab.generators`), which checks nothing: each parameter
is checked here once, before the matrix is allocated, and the sample then
checks the filled matrix's codes once. `generate_replicates` writes a batch
of replicates, each from its own `SeededRng`, into one matrix, one dataset
after another; `generate_dataset` is its one-replicate case. `check_size`
is the one size check: the Monte Carlo engine runs it when it resolves a
sweep point, before it builds anything for the point.

`block` is the one rule for column names: a block of n columns named
`prefix` holds prefix1..prefixN, and the class column is `CLASS_COLUMN`.

Stream layout: the class uses column path (0, 0); the columns of block b use
paths (b + 1, 0), (b + 1, 1), ... (an XOR pair consumes the single path
(b + 1, 0) for all of f1, f2 and the noise flips). Block order and positions
within a block are therefore the identity of a column's randomness: adding
rows, adding later blocks, or growing a block never changes the draws of the
columns that already existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInputError
from .generators import (
    GeneratorKind,
    SeededRng,
    check_card,
    check_k,
    check_m,
    check_xor_noise,
    fill_kononenko,
    fill_uniform,
    fill_xor_pair,
    row_first_half_probs,
)
from .sample import CategoricalSample, _Filled, _shown, code_matrix, integer, items, string

CLASS_COLUMN = "clase"

# Most cells (rows x columns, class included) one generated dataset may hold.
# Its bytes depend on the code dtype (`msulab.sample.code_dtype`): 256 MiB
# of one-byte codes, 2 GiB of int64 ones. The largest preset's dataset holds
# 10.5M cells, 25x fewer. The cap counts cells, not bytes, and is fixed
# rather than read from the machine, so a size that is out of reach fails
# the same way everywhere, before any draw.
MAX_DATASET_CELLS = 1 << 28


@dataclass(frozen=True)
class AttributeBlock:
    """A run of same-kind attribute columns with explicit names, a list or
    tuple of strings, stored as a tuple. `kind` may be given by its name
    ("uniform"), and is stored as a `GeneratorKind`."""

    names: tuple[str, ...]
    kind: GeneratorKind
    cardinality: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", items(self.names, "attribute block names", str))
        if not self.names:
            raise InvalidInputError("attribute block must name at least one column")
        if not isinstance(self.kind, GeneratorKind):  # the enum lookup is most of a block's cost
            object.__setattr__(self, "kind", GeneratorKind(self.kind))
        object.__setattr__(self, "cardinality", check_card(self.cardinality))
        if self.kind is GeneratorKind.XOR_PAIR:
            if len(self.names) != 2:
                raise InvalidInputError("an XOR pair block must have exactly two columns")
            if self.cardinality != 2:
                raise InvalidInputError("an XOR pair block must have cardinality 2")


def check_xor_class(class_card: int) -> None:
    """Reject a class cardinality other than 2 where an XOR pair derives the class."""
    if integer(class_card, "class cardinality") != 2:
        raise InvalidInputError("an XOR-derived class requires class cardinality 2")


def block(prefix: str, kind: GeneratorKind, count: int, cardinality: int) -> AttributeBlock:
    """Block with auto-numbered names prefix1..prefixN, `prefix` a string;
    the block rejects a count below 1, which names no column. A count of
    MAX_DATASET_CELLS or more, which no dataset holds beside its class
    column, is rejected before a name is built."""
    prefix = string(prefix, "block prefix")
    count = integer(count, "block count")
    if count >= MAX_DATASET_CELLS:
        raise InvalidInputError(f"block count must be below {MAX_DATASET_CELLS}, got {_shown(count)}")
    return AttributeBlock(
        names=tuple(f"{prefix}{i}" for i in range(1, count + 1)),
        kind=kind,
        cardinality=cardinality,
    )


def check_size(m: int, columns: int) -> int:
    """`m` as an int (`msulab.generators.check_m`), once an m-row dataset of
    `columns` columns, the class included, holds at most MAX_DATASET_CELLS
    cells. The engine runs this on each sweep point before it builds
    anything for it, and `generate_replicates` before it allocates."""
    m = check_m(m)
    if m * columns > MAX_DATASET_CELLS:
        cells = f"{m} rows x {_shown(columns)} columns (class included) make {_shown(m * columns)} cells"
        raise InvalidInputError(f"{cells}; a generated dataset holds at most {MAX_DATASET_CELLS}")
    return m


def generate_dataset(
    m: int, class_card: int, blocks: Sequence[AttributeBlock | None], rng: SeededRng,
    k: float = 1.0, xor_noise: float = 0.05,
) -> CategoricalSample:
    """Build an m-row sample from the streams of `rng`, a `SeededRng`: the
    one-replicate case of `generate_replicates`."""
    if not isinstance(rng, SeededRng):
        raise InvalidInputError(f"rng must be a SeededRng, got {_shown(rng)}")
    return generate_replicates(m, class_card, blocks, [rng], k, xor_noise)


def generate_replicates(
    m: int, class_card: int, blocks: Sequence[AttributeBlock | None], rngs: Sequence[SeededRng],
    k: float = 1.0, xor_noise: float = 0.05,
) -> CategoricalSample:
    """One sample of `len(rngs)` m-row datasets, one after another: rows
    r*m to (r+1)*m are the dataset drawn from the streams of `rngs[r]`,
    attribute columns in block order, class last.

    `blocks` is a list or tuple, and `rngs` a non-empty list or tuple of
    `SeededRng`. `None` entries of `blocks` are placeholders: the slot's
    stream path stays reserved but no columns are produced. Sweeps that
    shrink a block to nothing can keep every other block's randomness
    untouched this way.

    Everything is checked once, before the (len(rngs) * m, p) column-major
    `code_matrix` is allocated in the narrow dtype the cardinalities allow;
    each dataset is within the cell cap (`check_size`), and `k` and
    `xor_noise` are checked only where a family uses them. Each column of a
    dataset is written into its rows by its family's writer in
    `msulab.generators`, the class first, so the sample's codes are the
    only full-size copy. A dataset's Kononenko columns share one array of
    per-row thresholds, computed from its class column once.
    """
    blocks = items(blocks, "dataset blocks")
    rngs = items(rngs, "rngs", SeededRng)
    if not rngs:
        raise InvalidInputError("at least one rng is required")
    for b in blocks:
        if not (b is None or isinstance(b, AttributeBlock)):
            raise InvalidInputError(f"a dataset block must be an AttributeBlock or None, got {_shown(b)}")
    present = [(i, b) for i, b in enumerate(blocks) if b is not None]
    if not present:
        raise InvalidInputError("at least one attribute block is required")
    xor_blocks = [i for i, b in present if b.kind is GeneratorKind.XOR_PAIR]
    if len(xor_blocks) > 1:
        raise InvalidInputError("at most one XOR pair block is supported")
    # (stream path, block) of each attribute column, in order
    columns = [((bi + 1, ci), b) for bi, b in present for ci in range(len(b.names))]
    all_names = [b.names[ci] for (_, ci), b in columns]
    if len(set(all_names)) != len(all_names):
        raise InvalidInputError("attribute names must be unique")

    # every check runs before the matrix is allocated
    m = check_size(m, len(all_names) + 1)
    if xor_blocks:
        check_xor_class(class_card)
    class_card = check_card(class_card, "class cardinality")
    cards = [b.cardinality for _, b in columns] + [class_card]
    kononenko = any(b.kind is GeneratorKind.KONONENKO for _, b in present)
    if kononenko:
        k = check_k(k)
    if xor_blocks:
        xor_noise = check_xor_noise(xor_noise)
        f1 = all_names.index(blocks[xor_blocks[0]].names[0])

    codes = code_matrix(len(rngs) * m, cards)
    for r, rng in enumerate(rngs):
        rows = codes[r * m : (r + 1) * m]
        class_codes = rows[:, -1]
        if xor_blocks:
            fill_xor_pair(rows[:, f1], rows[:, f1 + 1], class_codes, xor_noise, rng.stream(*columns[f1][0]))
        else:
            fill_uniform(class_codes, class_card, rng.stream(0, 0))
        if kononenko:
            p_first = row_first_half_probs(class_codes, k, class_card)
        for j, (path, b) in enumerate(columns):  # an XOR pair is written with the class
            if b.kind is GeneratorKind.UNIFORM:
                fill_uniform(rows[:, j], b.cardinality, rng.stream(*path))
            elif b.kind is GeneratorKind.KONONENKO:
                fill_kononenko(rows[:, j], p_first, b.cardinality, rng.stream(*path))

    return CategoricalSample(_Filled(codes), cards, all_names + [CLASS_COLUMN])

"""Assembly of full synthetic datasets from attribute blocks.

A dataset is described by an ordered list of attribute blocks plus a class
column. When a block of kind XOR_PAIR is present the class is derived from
that pair (the pair defines the class up to noise); otherwise the class is
drawn uniformly first and informative blocks condition on it.

Stream layout: the class uses column path (0, 0); the columns of block b use
paths (b + 1, 0), (b + 1, 1), ... (an XOR pair consumes the single path
(b + 1, 0) for all of f1, f2 and the noise flips). Block order and positions
within a block are therefore the identity of a column's randomness: adding
rows, adding later blocks, or growing a block never changes the draws of the
columns that already existed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .generators import (
    GeneratorKind,
    SeededRng,
    gen_class,
    gen_kononenko,
    gen_uniform,
    gen_xor_pair,
)
from .sample import CategoricalSample

CLASS_COLUMN = "clase"


@dataclass(frozen=True)
class AttributeBlock:
    """A run of same-kind attribute columns with explicit names."""

    names: tuple[str, ...]
    kind: GeneratorKind
    cardinality: int

    def __post_init__(self) -> None:
        if not self.names:
            raise InvalidInputError("attribute block must name at least one column")
        if self.kind is GeneratorKind.XOR_PAIR:
            if len(self.names) != 2:
                raise InvalidInputError("an XOR pair block must have exactly two columns")
            if self.cardinality != 2:
                raise InvalidInputError("an XOR pair block must have cardinality 2")
        elif self.cardinality < 2:
            raise InvalidInputError("attribute cardinality must be at least 2")


def check_xor_class(class_card: int) -> None:
    """Reject a class cardinality other than 2 where an XOR pair derives the class."""
    if class_card != 2:
        raise InvalidInputError("an XOR-derived class requires class cardinality 2")


def block(prefix: str, kind: GeneratorKind, count: int, cardinality: int) -> AttributeBlock:
    """Block with auto-numbered names prefix1..prefixN."""
    if count < 1:
        raise InvalidInputError("block count must be at least 1")
    return AttributeBlock(
        names=tuple(f"{prefix}{i}" for i in range(1, count + 1)),
        kind=kind,
        cardinality=cardinality,
    )


def generate_dataset(
    m: int,
    class_card: int,
    blocks: tuple[AttributeBlock | None, ...] | list[AttributeBlock | None],
    rng: SeededRng,
    k: float = 1.0,
    xor_noise: float = 0.05,
) -> CategoricalSample:
    """Build an m-row sample: attribute columns in block order, class last.

    `None` entries are placeholders: the slot's stream path stays reserved but
    no columns are produced. Sweeps that shrink a block to nothing can keep
    every other block's randomness untouched this way.
    """
    blocks = tuple(blocks)
    present = [(i, b) for i, b in enumerate(blocks) if b is not None]
    if not present:
        raise InvalidInputError("at least one attribute block is required")
    xor_blocks = [i for i, b in present if b.kind is GeneratorKind.XOR_PAIR]
    if len(xor_blocks) > 1:
        raise InvalidInputError("at most one XOR pair block is supported")
    all_names = [n for _, b in present for n in b.names]
    if len(set(all_names)) != len(all_names):
        raise InvalidInputError("attribute names must be unique")

    columns: dict[str, np.ndarray] = {}
    if xor_blocks:
        check_xor_class(class_card)
        bi = xor_blocks[0]
        pair = blocks[bi]
        f1, f2, class_codes = gen_xor_pair(m, xor_noise, rng.stream(bi + 1, 0))
        columns[pair.names[0]] = f1
        columns[pair.names[1]] = f2
    else:
        class_codes = gen_class(class_card, m, rng.stream(0, 0))

    for bi, blk in present:
        if blk.kind is GeneratorKind.XOR_PAIR:
            continue
        for ci, name in enumerate(blk.names):
            stream = rng.stream(bi + 1, ci)
            if blk.kind is GeneratorKind.UNIFORM:
                columns[name] = gen_uniform(blk.cardinality, m, stream)
            else:
                columns[name] = gen_kononenko(
                    class_codes, blk.cardinality, k, stream, class_card=class_card
                )

    names = all_names + [CLASS_COLUMN]
    cards = [b.cardinality for _, b in present for _ in b.names] + [class_card]
    data = [columns[n] for n in all_names] + [class_codes]
    return CategoricalSample.from_columns(data, cards, names)

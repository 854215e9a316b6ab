"""Seeded generators for synthetic categorical attribute populations.

Three attribute families are supported:

* uniform: non-informative, drawn independently of the class.
* Kononenko: individually informative. The attribute's alphabet is split in
  two halves and the half is chosen with a class-dependent probability, so
  attributes of different cardinalities carry comparable information.
* XOR pair: collectively informative. Two uniform binary attributes whose
  exclusive-or determines the class up to a small noise probability; each
  attribute alone is independent of the class.

Reproducibility contract: every column is produced by its own numpy generator
derived from (master_seed, stream_id, column path) through SeedSequence spawn
keys. Columns never share a stream, and each column consumes a fixed number of
draws per row. Growing a sample therefore extends it without disturbing the
rows already drawn, and distinct stream ids are independent replicates that
can safely run in parallel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sample import MAX_CARDINALITY


class GeneratorKind(enum.Enum):
    UNIFORM = "uniform"
    KONONENKO = "kononenko"
    XOR_PAIR = "xor_pair"


@dataclass(frozen=True)
class SeededRng:
    """Replicate-scoped source of independent, reproducible column streams.

    Identical (master_seed, stream_id) always yields identical streams; the
    stream id is the replicate index in Monte Carlo runs.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_id < 0:
            raise InvalidInputError("master_seed and stream_id must be non-negative")

    def stream(self, *path: int) -> np.random.Generator:
        key = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, *path))
        return np.random.default_rng(key)


def check_m(m: int) -> int:
    """`m` as an int, rejected unless it is a positive int64 row count."""
    m = int(m)
    if m < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {m}")
    if m > MAX_CARDINALITY:  # rows are counted in int64 like codes
        raise InvalidInputError(f"sample size must not exceed {MAX_CARDINALITY}, got {m}")
    return m


def check_card(card: int, what: str = "cardinality") -> None:
    """Reject a cardinality below 2 or past the int64 codes."""
    if card < 2:
        raise InvalidInputError(f"{what} must be at least 2, got {card}")
    if card > MAX_CARDINALITY:
        raise InvalidInputError(
            f"{what} must not exceed {MAX_CARDINALITY} (int64 codes), got {card}"
        )


def gen_class(card: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform class column over {0, ..., card-1}."""
    check_card(card, "class cardinality")
    return rng.integers(0, card, size=check_m(m), dtype=np.int64)


def gen_uniform(card: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Non-informative column: i.i.d. uniform, independent of everything else."""
    check_card(card)
    return rng.integers(0, card, size=check_m(m), dtype=np.int64)


def check_k(k: float) -> None:
    """Reject a Kononenko informativeness k that is not finite and positive."""
    if not (k > 0) or not math.isfinite(k):
        raise InvalidInputError(f"informativeness k must be finite and positive, got {k}")


def _first_half_probs(i: np.ndarray, k: float, class_card: int) -> np.ndarray:
    """Probability that a Kononenko attribute falls in its lower half-alphabet,
    at each 1-based class value index in `i`.

    Even class indices give 1 / (i + kC), odd ones the complement, which is
    what ties the attribute to the class.
    """
    p = 1.0 / (i + k * class_card)
    return np.where(i % 2 == 0, p, 1.0 - p)


def gen_kononenko(
    class_codes: np.ndarray,
    cardinality: int,
    k: float,
    rng: np.random.Generator,
    class_card: int | None = None,
) -> np.ndarray:
    """Individually informative int64 column conditioned on an existing class column.

    The alphabet {0..V-1} splits into {0..floor(V/2)-1} and the rest (for odd V
    the lower half is the smaller one). Each row picks the lower half with
    the first-half probability of its class value (`_first_half_probs`), then
    a uniform member of the chosen half.

    An integer class column, such as a sample's narrow one, is read as it
    is, not copied. Besides the (m, 2) draws and the result, the work takes
    one float column, one int64 column and one mask, reused in place.
    """
    check_card(cardinality)
    codes = np.asarray(class_codes)
    if codes.dtype.kind not in "iu":  # bools, whole floats, ...
        codes = codes.astype(np.int64)
    if codes.ndim != 1 or codes.size == 0:
        raise InvalidInputError("class column must be a non-empty 1-D array")
    top = int(codes.max()) + 1
    if class_card is None:
        class_card = top
    if codes.min() < 0 or top > class_card:
        raise InvalidInputError("class codes exceed the class cardinality")

    # Once per class value and looked up by row while there are no more
    # values than rows (the usual case, and the cheaper one), else once per
    # row, so the cost follows m, never class_card.
    check_k(k)
    m = codes.size
    if top <= m:
        p_first = _first_half_probs(np.arange(1, top + 1), k, class_card)[codes]
    else:  # widened first: a narrow code + 1 would wrap
        p_first = _first_half_probs(np.add(codes, 1, dtype=np.int64), k, class_card)
    lower = cardinality // 2
    upper = cardinality - lower
    draws = rng.random((m, 2))  # one row of draws per sample row: (half, member)
    in_lower = draws[:, 0] < p_first
    member = draws[:, 1]
    scaled = p_first  # spent; its buffer holds the scaled members from here on
    lower_vals = np.multiply(member, lower, out=scaled).astype(np.int64)
    np.minimum(lower_vals, lower - 1, out=lower_vals)
    np.multiply(member, upper, out=scaled)
    del draws, member  # spent too: freed before the last column is allocated
    vals = scaled.astype(np.int64)
    np.minimum(vals, upper - 1, out=vals)
    vals += lower
    # where(in_lower, lower_vals, vals) with no branch per row, which a
    # random mask would mispredict: vals + in_lower * (lower_vals - vals)
    lower_vals -= vals
    lower_vals *= in_lower
    vals += lower_vals
    return vals


def check_xor_noise(noise: float) -> None:
    """Reject an XOR class flip probability outside [0, 0.5)."""
    if not 0.0 <= noise < 0.5:
        raise InvalidInputError(f"noise must lie in [0, 0.5), got {noise}")


# Rows of XOR-pair draws held at a time: a 1.5 MB float block.
_XOR_BLOCK_ROWS = 1 << 16


def fill_xor_pair(
    f1: np.ndarray, f2: np.ndarray, class_codes: np.ndarray, noise: float, rng: np.random.Generator
) -> None:
    """Collectively informative pair plus its class column, written into
    three given integer columns of one length, such as a sample's uint8 ones.

    f1 and f2 are i.i.d. uniform binary; the class equals XOR(f1, f2) with
    probability 1 - noise and its complement otherwise, via an independent
    per-row Bernoulli flip. Noise of 0.5 or more would leave the class
    uncorrelated or anti-correlated with the pair, so it is rejected.

    The draws are (rows, 3) row-major float blocks of at most
    `_XOR_BLOCK_ROWS` rows, taken from the stream in row order, so they are
    the floats one (m, 3) draw would give; each block is written into its
    rows in place, with no further temporary (a comparison's bools are 0 and
    1 in any integer dtype).
    """
    check_xor_noise(noise)
    for lo in range(0, len(f1), _XOR_BLOCK_ROWS):
        rows = slice(lo, lo + _XOR_BLOCK_ROWS)
        draws = rng.random((len(f1[rows]), 3))
        np.less(draws[:, 0], 0.5, out=f1[rows])
        np.less(draws[:, 1], 0.5, out=f2[rows])
        np.less(draws[:, 2], noise, out=class_codes[rows])  # the flips
    class_codes ^= f1
    class_codes ^= f2

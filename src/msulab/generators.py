"""Seeded generators for synthetic categorical attribute populations.

Three attribute families are supported, each written by one column writer
straight into the integer columns it is given, such as a sample's narrow
ones (`msulab.dataset.generate_replicates` is their one caller):

* uniform (`fill_uniform`): non-informative, drawn independently of the
  class. A class column with no XOR pair is one too.
* Kononenko (`fill_kononenko`): individually informative. The attribute's
  alphabet is split in two halves and the half is chosen with a
  class-dependent probability, so attributes of different cardinalities
  carry comparable information. The per-row probabilities depend on the
  class column alone, so they are computed once per dataset
  (`row_first_half_probs`) and shared by its Kononenko columns.
* XOR pair (`fill_xor_pair`): collectively informative. Two uniform binary
  attributes whose exclusive-or determines the class up to a small noise
  probability; each attribute alone is independent of the class.

Reproducibility contract: every column is produced by its own numpy generator
derived from (master_seed, stream_id, column path) through SeedSequence spawn
keys. Each writer takes a fresh stream (`SeededRng.stream`) that nothing else
reads, and a column's codes are a prefix-stable function of that stream: the
first n codes of a longer column are the n-code column. Growing a sample
therefore extends it without disturbing the rows already drawn, and distinct
stream ids are independent replicates that can safely run in parallel. Only
this module draws from a stream.

Two columns are produced from the stream's numbers without NumPy's general
routine, and both give the codes that routine would, from the same numbers:

* A uniform column of cardinality 2**b <= 2**32 reads the stream's raw 64-bit
  words. From a fresh stream NumPy's int64 `integers` draws such a column
  from 32-bit halves of those words, low half first, by Lemire's method,
  which never rejects at a power of two, so each code is the top b bits of
  its half. This rests on NumPy internals, checked on NumPy 2.4.6; the tests
  compare it with `integers` at every b, so a NumPy release that draws
  otherwise fails them instead of shifting a curve.
* A binary Kononenko column takes the same (m, 2) draws as any other, but
  its halves have one member each, so its code is the half draw alone.

The writers check nothing, neither a cardinality, a length, k nor the XOR
noise: their caller checks each parameter once (`check_card`, `check_k`,
`check_xor_noise`) and gives each writer a column whose dtype holds every
code below its cardinality, and a writer writes no code past that, so no
cast wraps one. The sample checks every code of the filled matrix all the
same.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sample import MAX_CARDINALITY, _shown, integer, real


class _ByName(enum.EnumMeta):
    def __call__(cls, value):
        """The family named `value`, or `value` itself if it is one. Anything
        else is rejected here: Enum's own rejection shows `value` by its repr,
        which fails on an int of more than 4,300 digits."""
        for kind in cls:
            if value is kind or isinstance(value, str) and value == kind.value:
                return kind
        raise InvalidInputError(f"unknown family {_shown(value)}, expected one of {[k.value for k in cls]}")


class GeneratorKind(enum.Enum, metaclass=_ByName):
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
        object.__setattr__(self, "master_seed", integer(self.master_seed, "master_seed"))
        object.__setattr__(self, "stream_id", integer(self.stream_id, "stream_id"))
        if self.master_seed < 0 or self.stream_id < 0:
            raise InvalidInputError("master_seed and stream_id must be non-negative")

    def stream(self, *path: int) -> np.random.Generator:
        """The stream of the column at `path`, a run of non-negative integers."""
        steps = tuple(integer(step, "stream path") for step in path)
        if any(step < 0 for step in steps):
            raise InvalidInputError(f"stream path must be non-negative, got {_shown(steps)}")
        key = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, *steps))
        return np.random.default_rng(key)


def check_m(m: int) -> int:
    """`m` as an int, rejected unless it is a positive int64 row count."""
    m = integer(m, "sample size")
    if m < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {_shown(m)}")
    if m > MAX_CARDINALITY:  # rows are counted in int64 like codes
        raise InvalidInputError(f"sample size must not exceed {MAX_CARDINALITY}, got {_shown(m)}")
    return m


def check_card(card: int, what: str = "cardinality") -> int:
    """`card` as an int, rejected below 2 or past the int64 codes."""
    card = integer(card, what)
    if card < 2:
        raise InvalidInputError(f"{what} must be at least 2, got {_shown(card)}")
    if card > MAX_CARDINALITY:
        raise InvalidInputError(
            f"{what} must not exceed {MAX_CARDINALITY} (int64 codes), got {_shown(card)}"
        )
    return card


# Rows of a uniform column read from one block of raw words: 64 KB of words,
# as fast as larger blocks. Even, so that a block ends on a whole word.
_RAW_BLOCK_ROWS = 1 << 14


def fill_uniform(out: np.ndarray, card: int, rng: np.random.Generator) -> None:
    """Write a non-informative column, i.i.d. uniform over {0..card-1} and
    independent of everything else, into the integer column `out`. The
    class column of a dataset with no XOR pair is one.

    `rng` is a fresh stream from `SeededRng.stream`, read by this writer
    alone. The codes are `rng.integers(0, card, size=len(out),
    dtype=np.int64)`; where the stream is left is not promised. At a
    power-of-two `card` = 2**b <= 2**32 they are read from the stream's raw
    words: each code is the top b bits of a 32-bit half of a word, low half
    first, taken in blocks of `_RAW_BLOCK_ROWS` rows and shifted straight
    into `out`.
    """
    if card & (card - 1) or card > 1 << 32:
        out[:] = rng.integers(0, card, size=len(out), dtype=np.int64)
        return
    b = card.bit_length() - 1
    for lo in range(0, len(out), _RAW_BLOCK_ROWS):
        rows = out[lo:lo + _RAW_BLOCK_ROWS]
        words = rng.bit_generator.random_raw((len(rows) + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first on any host
        np.right_shift(halves[:len(rows)], 32 - b, out=rows)


def check_k(k: float) -> float:
    """A Kononenko informativeness k as a float, once it is a finite and
    positive real number (`msulab.sample.real`)."""
    number = real(k, "informativeness k")
    if not (number > 0) or not math.isfinite(number):
        raise InvalidInputError(f"informativeness k must be finite and positive, got {_shown(k)}")
    return number


def _first_half_probs(i: np.ndarray, k: float, class_card: int) -> np.ndarray:
    """Probability that a Kononenko attribute falls in its lower half-alphabet,
    at each 1-based class value index in `i`.

    Even class indices give 1 / (i + kC), odd ones the complement, which is
    what ties the attribute to the class.
    """
    p = 1.0 / (i + k * class_card)
    return np.where(i % 2 == 0, p, 1.0 - p)


def row_first_half_probs(class_codes: np.ndarray, k: float, class_card: int) -> np.ndarray:
    """`_first_half_probs` of each row's class value: the thresholds that
    every Kononenko column of a dataset shares.

    Once per class value up to the largest code and looked up by row while
    there are no more such values than rows (the usual case, and the cheaper
    one), else once per row, so the cost follows m, never class_card.
    """
    top = int(class_codes.max()) + 1
    if top <= class_codes.size:
        return _first_half_probs(np.arange(1, top + 1), k, class_card)[class_codes]
    # widened first: a narrow code + 1 would wrap
    return _first_half_probs(np.add(class_codes, 1, dtype=np.int64), k, class_card)


def fill_kononenko(
    out: np.ndarray, p_first: np.ndarray, card: int, rng: np.random.Generator
) -> None:
    """Write an individually informative column into the integer column
    `out`, given each row's first-half probability (`row_first_half_probs`).

    The alphabet {0..card-1} splits into {0..floor(card/2)-1} and the rest
    (for odd card the lower half is the smaller one). Each row picks the
    lower half when its half draw is below its probability, then a uniform
    member of the chosen half.

    Every row takes one (half, member) pair of draws, whatever card is. At
    card = 2 each half has one member, so the code is whether the half draw
    reaches the row's probability. Otherwise the upper-half code is written
    into `out`, then the lower-half one is blended in where the half draw
    chose it; besides the draws the work takes a mask and one column of
    `out`'s dtype. Codes reach `out` only below card, so the truncating
    casts into a narrow dtype are exact.
    """
    draws = rng.random((len(out), 2))  # one row of draws per sample row: (half, member)
    half, member = draws.T
    if card == 2:
        np.greater_equal(half, p_first, out=out)
        return
    lower = card // 2
    upper = card - lower
    in_lower = half < p_first
    # the half draws are spent: their column holds the scaled members from here on
    out[:] = np.multiply(member, upper, out=half)
    np.minimum(out, upper - 1, out=out)
    out += lower
    lower_vals = np.multiply(member, lower, out=half).astype(out.dtype)
    np.minimum(lower_vals, lower - 1, out=lower_vals)
    # where(in_lower, lower_vals, out) with no branch per row, which a random
    # mask would mispredict: out + in_lower * (lower_vals - out), exact in
    # unsigned codes too, whose wrapped difference wraps back
    lower_vals -= out
    lower_vals *= in_lower
    out += lower_vals


def check_xor_noise(noise: float) -> float:
    """An XOR class flip probability as a float, once it is a real number
    (`msulab.sample.real`) in [0, 0.5): noise of 0.5 or more would leave the
    class uncorrelated or anti-correlated with the pair."""
    number = real(noise, "noise")
    if not 0.0 <= number < 0.5:
        raise InvalidInputError(f"noise must lie in [0, 0.5), got {_shown(noise)}")
    return number


# Rows of XOR-pair draws held at a time: a 1.5 MB float block.
_XOR_BLOCK_ROWS = 1 << 16


def fill_xor_pair(
    f1: np.ndarray, f2: np.ndarray, class_codes: np.ndarray, noise: float, rng: np.random.Generator
) -> None:
    """Collectively informative pair plus its class column, written into
    three given integer columns of one length, such as a sample's uint8 ones.

    f1 and f2 are i.i.d. uniform binary; the class equals XOR(f1, f2) with
    probability 1 - noise and its complement otherwise, via an independent
    per-row Bernoulli flip; `noise` is a float in [0, 0.5), as
    `check_xor_noise` gives it.

    The draws are (rows, 3) row-major float blocks of at most
    `_XOR_BLOCK_ROWS` rows, taken from the stream in row order, so they are
    the floats one (m, 3) draw would give; each block is written into its
    rows in place, with no further temporary (a comparison's bools are 0 and
    1 in any integer dtype).
    """
    for lo in range(0, len(f1), _XOR_BLOCK_ROWS):
        rows = slice(lo, lo + _XOR_BLOCK_ROWS)
        draws = rng.random((len(f1[rows]), 3))
        np.less(draws[:, 0], 0.5, out=f1[rows])
        np.less(draws[:, 1], 0.5, out=f2[rows])
        np.less(draws[:, 2], noise, out=class_codes[rows])  # the flips
    class_codes ^= f1
    class_codes ^= f2

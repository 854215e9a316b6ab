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

Two columns are produced from the stream's numbers without NumPy's general
routine, and both give the codes that routine would, from the same numbers:

* A uniform column of cardinality 2**b <= 2**32 reads the stream's raw 64-bit
  words. NumPy's int64 `integers` draws such a column from 32-bit halves of
  those words, low half first, by Lemire's method, which never rejects at a
  power of two, so each code is the top b bits of its half
  (`_uniform_from_raw`). This rests on NumPy internals, checked on NumPy
  2.4.6; the tests compare it with `integers` at every b, so a NumPy release
  that draws otherwise fails them instead of shifting a curve.
* A binary Kononenko column takes the same (m, 2) draws as any other, but
  its halves have one member each, so its code is the half draw alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sample import MAX_CARDINALITY, int_text, integer


class GeneratorKind(enum.Enum):
    UNIFORM = "uniform"
    KONONENKO = "kononenko"
    XOR_PAIR = "xor_pair"

    @classmethod
    def _missing_(cls, value):
        # `GeneratorKind(value)` reads a family from its name, or rejects it
        raise InvalidInputError(f"unknown family {value!r}, expected one of {[k.value for k in cls]}")


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
        key = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, *path))
        return np.random.default_rng(key)


def check_m(m: int) -> int:
    """`m` as an int, rejected unless it is a positive int64 row count."""
    m = integer(m, "sample size")
    if m < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {int_text(m)}")
    if m > MAX_CARDINALITY:  # rows are counted in int64 like codes
        raise InvalidInputError(f"sample size must not exceed {MAX_CARDINALITY}, got {int_text(m)}")
    return m


def check_card(card: int, what: str = "cardinality") -> int:
    """`card` as an int, rejected below 2 or past the int64 codes."""
    card = integer(card, what)
    if card < 2:
        raise InvalidInputError(f"{what} must be at least 2, got {int_text(card)}")
    if card > MAX_CARDINALITY:
        raise InvalidInputError(
            f"{what} must not exceed {MAX_CARDINALITY} (int64 codes), got {int_text(card)}"
        )
    return card


def gen_class(card: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform class column over {0, ..., card-1}: `gen_uniform`'s
    column, with errors that name the class cardinality."""
    return gen_uniform(check_card(card, "class cardinality"), m, rng)


def gen_uniform(card: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Non-informative column: i.i.d. uniform, independent of everything else.

    The codes are `rng.integers(0, card, size=m, dtype=np.int64)`, and `rng`
    then gives the numbers it would give after that call. At a power-of-two
    `card` up to 2**32 they are read from the stream's raw words instead
    (`_uniform_from_raw`).
    """
    card = check_card(card)
    m = check_m(m)
    if card & (card - 1) == 0 and card <= 1 << 32 and _raw_halves_are_next(rng):
        return _uniform_from_raw(card.bit_length() - 1, m, rng.bit_generator)
    return rng.integers(0, card, size=m, dtype=np.int64)


# Rows of a uniform column read from one block of raw words: 64 KB of words,
# as fast as larger blocks. Even, so that a block ends on a whole word.
_RAW_BLOCK_ROWS = 1 << 14


def _raw_halves_are_next(rng: np.random.Generator) -> bool:
    """True when the next 32-bit values `rng` gives are the halves of its next
    raw words, low half first: a PCG64 stream with no half left over."""
    bits = rng.bit_generator
    return type(bits) is np.random.PCG64 and not bits.state["has_uint32"]


def _uniform_from_raw(b: int, m: int, bits: np.random.PCG64) -> np.ndarray:
    """What `integers(0, 2**b, size=m, dtype=np.int64)` draws, 1 <= b <= 32,
    as the top b bits of the 32-bit halves of ceil(m/2) raw words, low half
    first, taken in blocks of `_RAW_BLOCK_ROWS` rows.

    For odd m the last word's high half is the one `integers` would keep for
    the next 32-bit value, so it is put in the generator's one-half buffer.
    """
    codes = np.empty(m, dtype=np.int64)
    for lo in range(0, m, _RAW_BLOCK_ROWS):
        rows = codes[lo:lo + _RAW_BLOCK_ROWS]
        words = bits.random_raw((len(rows) + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first on any host
        np.right_shift(halves[:len(rows)], 32 - b, out=rows)
    if m % 2:
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": int(halves[-1])}
    return codes


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


def _row_first_half_probs(codes: np.ndarray, top: int, k: float, class_card: int) -> np.ndarray:
    """`_first_half_probs` of each row's class value, for class codes below `top`.

    Once per class value and looked up by row while there are no more values
    than rows (the usual case, and the cheaper one), else once per row, so
    the cost follows m, never class_card.
    """
    if top <= codes.size:
        return _first_half_probs(np.arange(1, top + 1), k, class_card)[codes]
    # widened first: a narrow code + 1 would wrap
    return _first_half_probs(np.add(codes, 1, dtype=np.int64), k, class_card)


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

    Every row takes one (half, member) pair of draws, whatever V is. At
    V = 2 each half has one member, so the code is whether the half draw
    reaches the row's probability, and the spent member column holds those
    probabilities: the work takes 24 bytes a row. Otherwise it takes, besides
    the draws and the result, one float column, one int64 column and one
    mask, reused in place. An integer class column, such as a sample's narrow
    one, is read as it is, not copied.
    """
    cardinality = check_card(cardinality)
    codes = np.asarray(class_codes)
    if codes.dtype.kind not in "iu":  # bools, whole floats, ...
        codes = codes.astype(np.int64)
    if codes.ndim != 1 or codes.size == 0:
        raise InvalidInputError("class column must be a non-empty 1-D array")
    top = int(codes.max()) + 1
    class_card = top if class_card is None else integer(class_card, "class cardinality")
    if codes.min() < 0 or top > class_card:
        raise InvalidInputError("class codes exceed the class cardinality")
    check_k(k)

    m = codes.size
    draws = rng.random((m, 2))  # one row of draws per sample row: (half, member)
    half, member = draws.T
    if cardinality == 2:  # one member a half: the spent member column takes the thresholds
        member[:] = _row_first_half_probs(codes, top, k, class_card)
        return np.greater_equal(half, member, out=np.empty(m, dtype=np.int64))
    p_first = _row_first_half_probs(codes, top, k, class_card)
    lower = cardinality // 2
    upper = cardinality - lower
    in_lower = half < p_first
    scaled = p_first  # spent; its buffer holds the scaled members from here on
    lower_vals = np.multiply(member, lower, out=scaled).astype(np.int64)
    np.minimum(lower_vals, lower - 1, out=lower_vals)
    np.multiply(member, upper, out=scaled)
    del draws, half, member  # spent too: freed before the last column is allocated
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

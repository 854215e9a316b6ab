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


def _check_m(m: int) -> int:
    m = int(m)
    if m < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {m}")
    if m > MAX_CARDINALITY:  # rows are counted in int64 like codes
        raise InvalidInputError(f"sample size must not exceed {MAX_CARDINALITY}, got {m}")
    return m


def _check_card(card: int, what: str = "cardinality") -> None:
    if card < 2:
        raise InvalidInputError(f"{what} must be at least 2, got {card}")
    if card > MAX_CARDINALITY:
        raise InvalidInputError(
            f"{what} must not exceed {MAX_CARDINALITY} (int64 codes), got {card}"
        )


def gen_class(card: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform class column over {0, ..., card-1}."""
    _check_card(card, "class cardinality")
    return rng.integers(0, card, size=_check_m(m), dtype=np.int64)


def gen_uniform(card: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Non-informative column: i.i.d. uniform, independent of everything else."""
    _check_card(card)
    return rng.integers(0, card, size=_check_m(m), dtype=np.int64)


def check_k(k: float) -> None:
    """Reject a Kononenko informativeness k that is not finite and positive."""
    if not (k > 0) or not math.isfinite(k):
        raise InvalidInputError(f"informativeness k must be finite and positive, got {k}")


def kononenko_first_half_prob(i: int, k: float, class_card: int) -> float:
    """Probability that a Kononenko attribute falls in its lower half-alphabet.

    `i` is the 1-based class value index. Even class indices give 1 / (i + kC),
    odd ones the complement, which is what ties the attribute to the class.
    """
    if class_card < 1:
        raise InvalidInputError("class cardinality must be positive")
    if not 1 <= i <= class_card:
        raise InvalidInputError(f"class index {i} outside 1..{class_card}")
    check_k(k)
    p = 1.0 / (i + k * class_card)
    return p if i % 2 == 0 else 1.0 - p


def _first_half_probs(i: np.ndarray, k: float, class_card: int) -> np.ndarray:
    """kononenko_first_half_prob at each 1-based index in `i`, bit for bit:
    the same int-to-float conversion, add, divide and subtract."""
    p = 1.0 / (i + k * class_card)
    return np.where(i % 2 == 0, p, 1.0 - p)


def gen_kononenko(
    class_codes: np.ndarray,
    cardinality: int,
    k: float,
    rng: np.random.Generator,
    class_card: int | None = None,
) -> np.ndarray:
    """Individually informative column conditioned on an existing class column.

    The alphabet {0..V-1} splits into {0..floor(V/2)-1} and the rest (for odd V
    the lower half is the smaller one). Each row picks the lower half with
    kononenko_first_half_prob for its class value, then a uniform member of the
    chosen half.
    """
    _check_card(cardinality)
    codes = np.asarray(class_codes, dtype=np.int64)
    if codes.ndim != 1 or codes.size == 0:
        raise InvalidInputError("class column must be a non-empty 1-D array")
    if class_card is None:
        class_card = int(codes.max()) + 1
    if codes.min() < 0 or codes.max() >= class_card:
        raise InvalidInputError("class codes exceed the class cardinality")

    # Once per class value and looked up by row while there are no more
    # values than rows (the usual case, and the cheaper one), else once per
    # row, so the cost follows m, never class_card.
    check_k(k)
    m = codes.size
    top = int(codes.max()) + 1
    if top <= m:
        p_first = _first_half_probs(np.arange(1, top + 1), k, class_card)[codes]
    else:
        p_first = _first_half_probs(codes + 1, k, class_card)
    lower = cardinality // 2
    upper = cardinality - lower
    draws = rng.random((m, 2))  # one row of draws per sample row: (half, member)
    in_lower = draws[:, 0] < p_first
    member = draws[:, 1]
    lower_vals = np.minimum((member * lower).astype(np.int64), lower - 1)
    upper_vals = lower + np.minimum((member * upper).astype(np.int64), upper - 1)
    return np.where(in_lower, lower_vals, upper_vals)


def check_xor_noise(noise: float) -> None:
    """Reject an XOR class flip probability outside [0, 0.5)."""
    if not 0.0 <= noise < 0.5:
        raise InvalidInputError(f"noise must lie in [0, 0.5), got {noise}")


def gen_xor_pair(
    m: int, noise: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collectively informative pair plus its class column.

    f1 and f2 are i.i.d. uniform binary; the class equals XOR(f1, f2) with
    probability 1 - noise and its complement otherwise, via an independent
    per-row Bernoulli flip. Noise of 0.5 or more would leave the class
    uncorrelated or anti-correlated with the pair, so it is rejected.
    """
    check_xor_noise(noise)
    draws = rng.random((_check_m(m), 3))
    f1 = (draws[:, 0] < 0.5).astype(np.int64)
    f2 = (draws[:, 1] < 0.5).astype(np.int64)
    flip = (draws[:, 2] < noise).astype(np.int64)
    return f1, f2, (f1 ^ f2) ^ flip


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def xor_population_msu(noise: float) -> float:
    """Population multivariate symmetrical uncertainty of a noisy XOR triple.

    Marginals are all uniform binary (3 bits total); the joint entropy is
    2 + h(noise) bits, so the total correlation is 1 - h(noise) and the
    normalized value is (1 - h(noise)) / 2.
    """
    check_xor_noise(noise)
    return (1.0 - binary_entropy(noise)) / 2.0

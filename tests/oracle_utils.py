"""Independent reference implementations used as test oracles.

Everything here is deliberately primitive: pure-Python loops, full enumeration
of the declared joint value space, math.fsum accumulation. None of it shares
code with the production estimators.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math

import numpy as np

from msulab import CategoricalSample, InvalidInputError, chi2_critical


def entropy_of_counts(counts, total=None) -> float:
    total = sum(counts) if total is None else total
    return -math.fsum((c / total) * math.log2(c / total) for c in counts if c)


def brute_force_msu(sample: CategoricalSample) -> float:
    """MSU via full enumeration of every cell of the declared joint space."""
    rows = [tuple(int(v) for v in r) for r in sample.codes]
    m = len(rows)
    cards = sample.cardinalities
    joint_counts = [
        sum(1 for r in rows if r == combo)
        for combo in itertools.product(*[range(c) for c in cards])
    ]
    marginal_entropies = []
    for j, card in enumerate(cards):
        counts = [sum(1 for r in rows if r[j] == v) for v in range(card)]
        marginal_entropies.append(entropy_of_counts(counts, m))
    h_sum = math.fsum(marginal_entropies)
    if h_sum == 0.0:
        return 0.0
    n = len(cards)
    value = (n / (n - 1)) * (h_sum - entropy_of_counts(joint_counts, m)) / h_sum
    return min(1.0, max(0.0, value))


def random_sample(
    rng: np.random.Generator,
    max_m: int = 40,
    min_p: int = 2,
    max_p: int = 5,
    max_card: int = 6,
    min_card: int = 1,
) -> CategoricalSample:
    m = int(rng.integers(1, max_m + 1))
    p = int(rng.integers(min_p, max_p + 1))
    cards = [int(rng.integers(min_card, max_card + 1)) for _ in range(p)]
    codes = np.column_stack([rng.integers(0, c, size=m) for c in cards])
    return CategoricalSample(codes, tuple(cards))


def coded_table(*columns: str) -> CategoricalSample:
    """Sample from whitespace-separated label columns, codes by first appearance."""
    coded_cols = []
    cards = []
    for col in columns:
        labels = col.split()
        seen: dict[str, int] = {}
        coded_cols.append([seen.setdefault(l, len(seen)) for l in labels])
        cards.append(len(seen))
    return CategoricalSample.from_columns(coded_cols, cards)


def chi2_statistic(observed) -> float:
    """Goodness-of-fit statistic sum (O - E)^2 / E against equiprobable cells.

    Each of the k cells expects m / k of the m observations.
    """
    obs = [int(o) for o in observed]
    k = len(obs)
    if k < 2:
        raise InvalidInputError("need at least two cells")
    if any(o < 0 for o in obs):
        raise InvalidInputError("observed counts must be non-negative")
    m = sum(obs)
    if m == 0:
        raise InvalidInputError("observed counts must not all be zero")
    e = m / k
    return math.fsum((o - e) ** 2 / e for o in obs)


def extreme_sample(m: int, k: int) -> list[int]:
    """Canonical under-covered sample: one empty cell, the rest balanced.

    m is spread as evenly as possible over the first k-1 cells (m mod (k-1)
    of them get the extra unit) with the empty cell last.
    """
    m, k = int(m), int(k)
    if k < 2:
        raise InvalidInputError(f"need at least two cells, got {k}")
    if m < k - 1:
        raise InvalidInputError(f"m={m} cannot fill {k - 1} cells with at least one item each")
    q, r = divmod(m, k - 1)
    return [q + 1] * r + [q] * (k - 1 - r) + [0]


def kononenko_first_half_prob(i: int, k: float, class_card: int) -> float:
    """Probability that a Kononenko attribute falls in its lower half-alphabet.

    `i` is the 1-based class value index. Even class indices give 1 / (i + kC),
    odd ones the complement, which is what ties the attribute to the class.
    """
    if class_card < 1:
        raise InvalidInputError("class cardinality must be positive")
    if not 1 <= i <= class_card:
        raise InvalidInputError(f"class index {i} outside 1..{class_card}")
    if not (k > 0) or not math.isfinite(k):
        raise InvalidInputError(f"informativeness k must be finite and positive, got {k}")
    p = 1.0 / (i + k * class_card)
    return p if i % 2 == 0 else 1.0 - p


def kononenko_cell_probs(n: int, k: float, class_card: int) -> list[float]:
    """Cell probabilities of the joint of a uniform class and n binary
    Kononenko columns, which are independent given the class: a class value
    i and j columns in their lower half give p(i) q_i^j (1 - q_i)^(n - j),
    q_i its `kononenko_first_half_prob`, in each of C(n, j) cells."""
    probs = []
    for i in range(1, class_card + 1):
        q = kononenko_first_half_prob(i, k, class_card)
        for j in range(n + 1):
            probs += [q**j * (1.0 - q) ** (n - j) / class_card] * math.comb(n, j)
    return probs


def kononenko_codes(class_codes, cardinality: int, k: float, rng, class_card: int) -> np.ndarray:
    """A Kononenko column by the general arithmetic, row by row, from one
    (half, member) pair of draws per row: the lower half when the half draw
    is below the row's `kononenko_first_half_prob`, then the member draw
    scaled to that half's width, truncated and clipped to it."""
    draws = rng.random((len(class_codes), 2))
    lower = cardinality // 2
    upper = cardinality - lower
    codes = []
    for (half, member), c in zip(draws.tolist(), np.asarray(class_codes).tolist()):
        if half < kononenko_first_half_prob(int(c) + 1, k, class_card):
            codes.append(min(int(member * lower), lower - 1))
        else:
            codes.append(lower + min(int(member * upper), upper - 1))
    return np.array(codes, dtype=np.int64)


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def expected_plugin_entropy(probs, m: int) -> float:
    """Exact expectation, in bits, of the plug-in entropy of m draws from
    cells of probabilities `probs`.

    Each cell's count is Binomial(m, p), and the plug-in entropy is a sum of
    per-cell terms, so (Paninski 2003, Neural Computation 15(6), section 3)

        E[H] = sum_i sum_j C(m, j) p_i^j (1 - p_i)^(m - j) * (-(j/m) log2(j/m)).

    Each binomial probability is taken in log space (`math.lgamma`), since
    C(m, j) passes the float range from m of about 1,000. Cells of equal
    probability share their terms.
    """

    def log_pow(x: float, n: int) -> float:  # ln(x**n): 0 at n = 0, -inf at x = 0
        if n == 0:
            return 0.0
        return n * math.log(x) if x > 0.0 else -math.inf

    cells = collections.Counter(probs)
    return math.fsum(
        n * math.exp(
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            + log_pow(p, j) + log_pow(1.0 - p, m - j)
        ) * -(j / m) * math.log2(j / m)
        for p, n in cells.items()
        for j in range(1, m + 1)
    )


def xor_population_msu(noise: float) -> float:
    """Population multivariate symmetrical uncertainty of a noisy XOR triple.

    Marginals are all uniform binary (3 bits total); the joint entropy is
    2 + h(noise) bits, so the total correlation is 1 - h(noise) and the
    normalized value is (1 - h(noise)) / 2.
    """
    if not 0.0 <= noise < 0.5:
        raise InvalidInputError(f"noise must lie in [0, 0.5), got {noise}")
    return (1.0 - binary_entropy(noise)) / 2.0


def scan_min_representative_m(k: int, alpha: float = 0.05) -> int:
    """Smallest m whose equiprobable extreme sample is rejected: the ascending
    scan from m = k - 1 that rebuilds the k-cell sample and sums its statistic
    at every step."""
    k = int(k)
    if k < 2:
        raise InvalidInputError(f"need at least two cells, got {k}")
    critical = chi2_critical(alpha, k - 1)
    m = k - 1
    while chi2_statistic(extreme_sample(m, k)) <= critical:
        m += 1
    return m


def reference_read_csv(path):
    """(header, dictionaries, sample) of a CSV coded row by row: one
    `dict.setdefault` per cell, codes in first-appearance order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p = len(header)
        label_codes: list[dict[str, int]] = [{} for _ in range(p)]
        rows: list[list[int]] = []
        for row in reader:
            if len(row) != p:  # named by the physical line the row ends on
                raise InvalidInputError(f"{path}:{reader.line_num}: expected {p} cells, got {len(row)}")
            coded = []
            for j, cell in enumerate(row):
                table = label_codes[j]
                code = table.setdefault(cell, len(table))
                coded.append(code)
            rows.append(coded)
    dictionaries = tuple(tuple(table) for table in label_codes)
    sample = CategoricalSample.from_columns(
        list(zip(*rows)),
        cardinalities=[len(d) for d in dictionaries],
        column_names=header,
    )
    return tuple(header), dictionaries, sample

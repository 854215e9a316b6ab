"""Pinned measure outputs over random samples.

`MEASURE_HASH` is the sha256 of the reprs of `joint_entropy`, `msu`,
`total_correlation`, `symmetrical_uncertainty` and `information_gain` over
every column subset of 300 seeded random samples (m up to 400, 2 to 5
columns, cardinalities 1 to 8), both argument orders of the two-argument
measures included. It was recorded from the code in which every measure
counted its own histograms on each call, so it pins the per-sample entropy
table to the very same floats and degenerate flags.
"""

import hashlib
import itertools

import numpy as np

from msulab import (
    information_gain,
    joint_entropy,
    msu,
    symmetrical_uncertainty,
    total_correlation,
)
from oracle_utils import random_sample

MEASURE_HASH = "27601de2618e7d8b991e400cbfdc71d5ec45a2856643ca3a0a033c3e75b96fd4"


def _measure_lines(sample):
    cols = range(sample.n_columns)
    subsets = [s for size in cols for s in itertools.combinations(cols, size + 1)]
    for s in subsets:
        yield f"H{s}={joint_entropy(sample, s)!r}"
        if len(s) >= 2:
            yield f"MSU{s}={msu(sample, s)!r}"
            yield f"TC{s}={total_correlation(sample, s)!r}"
    for x, y in itertools.permutations(cols, 2):
        yield f"SU{x},{y}={symmetrical_uncertainty(sample, x, y)!r}"
    for xs, ys in itertools.permutations(subsets, 2):
        if not set(xs) & set(ys):
            yield f"IG{xs};{ys}={information_gain(sample, xs, ys)!r}"


def test_measure_reprs_are_pinned():
    rng = np.random.default_rng(20170707)
    digest = hashlib.sha256()
    for i in range(300):
        sample = random_sample(rng, max_m=400, min_p=2, max_p=5, max_card=8)
        for line in _measure_lines(sample):
            digest.update(f"{i}:{line}\n".encode())
    assert digest.hexdigest() == MEASURE_HASH


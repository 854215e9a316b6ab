"""Property tests for the measures: bounds, identities, invariances, oracle agreement."""

import dataclasses
import math

import numpy as np
import pytest

from msulab import (
    CategoricalSample,
    InvalidInputError,
    information_gain,
    joint_entropy,
    msu,
    symmetrical_uncertainty,
    total_correlation,
)
from msulab import sample as sample_module
from msulab.measures import entropy_rows, msu_values, subset_entropies
from msulab.sample import normalize_columns, normalize_prefixes, prefix_counts
from oracle_utils import brute_force_msu, random_sample

N_CASES = 1000


def _counts(sample, cols, prefixes=None):
    """`prefix_counts` of `cols` at `prefixes`, all rows by default, given
    the checked key it takes."""
    key = (normalize_columns(sample, cols), *normalize_prefixes(sample, prefixes))
    return list(prefix_counts(sample, *key, True))


def joint_counts(sample, cols):
    """The observed cells' counts over `cols`, all rows: one prefix of `prefix_counts`."""
    ((counts, _),) = _counts(sample, cols)
    return counts[0]


def _cases(seed=20456, **kwargs):
    rng = np.random.default_rng(seed)
    for _ in range(N_CASES):
        yield random_sample(rng, **kwargs), rng


def test_entropy_bounds():
    for sample, _ in _cases():
        for col in range(sample.n_columns):
            h = joint_entropy(sample, [col]).value
            observed = len(np.unique(sample.codes[:, col]))
            assert -1e-12 <= h <= math.log2(observed) + 1e-12


def test_conditioning_never_raises_entropy():
    # H(X|Y) = H(X,Y) - H(Y) lies between 0 and H(X)
    for sample, _ in _cases():
        h_x = joint_entropy(sample, [0]).value
        h_x_given_y = joint_entropy(sample, [0, 1]).value - joint_entropy(sample, [1]).value
        assert -1e-12 <= h_x_given_y <= h_x + 1e-12


def test_information_gain_symmetric_and_nonnegative():
    for sample, _ in _cases():
        forward = information_gain(sample, [0], [1]).value
        backward = information_gain(sample, [1], [0]).value
        assert forward == backward
        assert forward >= -1e-12


def test_total_correlation_nonnegative():
    for sample, _ in _cases():
        cols = list(range(sample.n_columns))
        assert total_correlation(sample, cols).value >= -1e-12


def test_normalized_measures_in_unit_interval():
    for sample, _ in _cases():
        su = symmetrical_uncertainty(sample, 0, 1)
        multi = msu(sample, list(range(sample.n_columns)))
        assert 0.0 <= su.value <= 1.0
        assert 0.0 <= multi.value <= 1.0


def test_msu_of_pair_equals_su():
    for sample, _ in _cases():
        assert msu(sample, [0, 1]).value == symmetrical_uncertainty(sample, 0, 1).value


def test_row_permutation_invariance_is_exact():
    for sample, rng in _cases(seed=777):
        perm = rng.permutation(sample.n_rows)
        shuffled = CategoricalSample(sample.codes[perm], sample.cardinalities)
        cols = list(range(sample.n_columns))
        assert msu(shuffled, cols).value == msu(sample, cols).value
        assert total_correlation(shuffled, cols).value == total_correlation(sample, cols).value
        assert information_gain(shuffled, [0], [1]).value == information_gain(sample, [0], [1]).value


def test_relabeling_invariance_is_exact():
    for sample, rng in _cases(seed=888):
        col = int(rng.integers(0, sample.n_columns))
        card = sample.cardinalities[col]
        relabel = rng.permutation(card)
        codes = sample.codes.copy()
        codes[:, col] = relabel[codes[:, col]]
        relabeled = CategoricalSample(codes, sample.cardinalities)
        cols = list(range(sample.n_columns))
        assert msu(relabeled, cols).value == msu(sample, cols).value
        assert joint_entropy(relabeled, cols).value == joint_entropy(sample, cols).value
        assert symmetrical_uncertainty(relabeled, 0, 1).value == symmetrical_uncertainty(sample, 0, 1).value


def test_brute_force_oracle_agreement():
    # full-enumeration reference over samples with a small declared joint space
    rng = np.random.default_rng(321)
    for _ in range(200):
        sample = random_sample(rng, max_m=30, max_p=3, max_card=4)
        cols = list(range(sample.n_columns))
        assert msu(sample, cols).value == pytest.approx(brute_force_msu(sample), abs=1e-12)


def test_sparse_and_dense_counting_paths_agree():
    rng = np.random.default_rng(99)
    codes = rng.integers(0, 3, size=(50, 3))
    small = CategoricalSample(codes, (3, 3, 3))
    # same data under huge declared cardinalities forces the sparse paths
    mid = CategoricalSample(codes, (3, 2**30, 2**30))        # keys fit in int64
    giant = CategoricalSample(codes, (2**40, 2**40, 2**40))  # keys do not
    for cols in ([0, 1], [0, 1, 2]):
        reference = sorted(joint_counts(small, cols).tolist())
        assert sorted(joint_counts(mid, cols).tolist()) == reference
        assert sorted(joint_counts(giant, cols).tolist()) == reference
    assert msu(giant, [0, 1, 2]).value == msu(small, [0, 1, 2]).value


@pytest.mark.parametrize("cards", [(3, 3, 3), (3, 2**30, 2**30), (2**40, 2**40, 2**40)])
@pytest.mark.parametrize("limit", [sample_module._DENSE_CELL_LIMIT, 40])
def test_prefix_counts_match_counts_of_each_prefix(cards, limit, monkeypatch):
    # dense, renumbered-key and distinct-row paths; a tiny limit forces chunks
    monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", limit)
    rng = np.random.default_rng(7)
    sample = CategoricalSample(rng.integers(0, 3, size=(60, 3)), cards)
    prefixes = [1, 2, 5, 17, 18, 40, 60]
    for cols in ([0], [2, 0], [0, 1, 2]):
        rows = [row for chunk, _ in _counts(sample, cols, prefixes) for row in chunk]
        assert len(rows) == len(prefixes)
        for n, row in zip(prefixes, rows):
            head = CategoricalSample(sample.codes[:n], cards)
            assert row[row > 0].tolist() == joint_counts(head, cols).tolist()


def _row_major(sample):
    """A fresh copy of `sample` whose codes are stored row-major (C order)."""
    copy = dataclasses.replace(sample)
    codes = np.ascontiguousarray(copy.codes)
    codes.flags.writeable = False
    object.__setattr__(copy, "codes", codes)
    return copy


@pytest.mark.parametrize("cards", [(3, 3, 3), (3, 2**30, 2**30), (2**40, 2**40, 2**40)])
@pytest.mark.parametrize("limit", [sample_module._DENSE_CELL_LIMIT, 40])
def test_counts_and_measures_do_not_depend_on_memory_layout(cards, limit, monkeypatch):
    # dense, renumbered-key and distinct-row paths; a tiny limit forces chunks
    monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", limit)
    rng = np.random.default_rng(17)
    f_order = CategoricalSample(rng.integers(0, 3, size=(60, 3)), cards)
    c_order = _row_major(f_order)
    assert f_order.codes.flags.f_contiguous and not f_order.codes.flags.c_contiguous
    assert c_order.codes.flags.c_contiguous and not c_order.codes.flags.f_contiguous
    prefixes = [1, 2, 5, 17, 18, 40, 60]
    chunks = []
    for cols in ([0], [2, 0], [0, 1, 2]):
        f_counts = [counts for counts, _ in _counts(f_order, cols, prefixes)]
        c_counts = [counts for counts, _ in _counts(c_order, cols, prefixes)]
        assert len(f_counts) == len(c_counts)
        chunks.append(len(f_counts))
        for f, c in zip(f_counts, c_counts):
            assert f.dtype == c.dtype and np.array_equal(f, c)
        assert np.array_equal(joint_counts(f_order, cols), joint_counts(c_order, cols))
    assert (max(chunks) > 1) == (limit == 40)
    assert repr(msu(f_order, [0, 1, 2])) == repr(msu(c_order, [0, 1, 2]))
    for x, y in ((0, 1), (0, 2), (1, 2)):
        f_su = symmetrical_uncertainty(f_order, x, y)
        assert repr(f_su) == repr(symmetrical_uncertainty(c_order, x, y))


@pytest.mark.parametrize("cards", [(3, 3, 3), (3, 2**30, 2**30), (2**40, 2**40, 2**40)])
@pytest.mark.parametrize("limit", [sample_module._DENSE_CELL_LIMIT, 40])
def test_marginals_from_the_joint_match_single_column_counts(cards, limit, monkeypatch):
    # dense, renumbered-key and distinct-row paths; a tiny limit forces chunks
    monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", limit)
    rng = np.random.default_rng(23)
    codes = rng.integers(0, 3, size=(60, 3))
    codes[rng.random(60) < 0.3, 1] = cards[1] - 1  # past the 60 cells, where it can be
    prefixes = [1, 2, 5, 17, 18, 40, 60]
    dense = cards == (3, 3, 3)
    for cols in ([0, 1], [2, 0], [0, 1, 2]):
        sample = CategoricalSample(codes, cards)
        chunks = _counts(sample, cols, prefixes)
        if not dense:  # a renumbered joint gives no member counts
            assert all(columns == [] for _, columns in chunks)
        for j, c in enumerate(sorted(cols) if dense else ()):  # the members in subset order
            alone = [row for counts, _ in _counts(sample, [c], prefixes) for row in counts]
            derived = [row for _, columns in chunks for row in columns[j]]
            assert [r[r > 0].tolist() for r in derived] == [r[r > 0].tolist() for r in alone]
        # the table holds a dense joint's member entropies, and only those
        subset_entropies(sample, cols, prefixes)
        for c in cols:
            key = ((c,), tuple(prefixes), sample.n_rows)
            assert (key in sample._entropies) == dense
            # as a count of the column alone gives them
            fresh = CategoricalSample(codes, cards)
            assert subset_entropies(sample, [c], prefixes) == subset_entropies(fresh, [c], prefixes)


def _scalar_msu(sample, cols):
    """The per-value MSU formula on one sample: fsum of the marginals, the
    ratio, then the clamp; (0.0, True) where every column is constant."""
    h_joint = joint_entropy(sample, cols).value
    h_sum = math.fsum(joint_entropy(sample, [c]).value for c in cols)
    if h_sum == 0.0:
        return 0.0, True
    n = len(cols)
    return min(1.0, max(0.0, (n / (n - 1)) * (h_sum - h_joint) / h_sum)), False


@pytest.mark.parametrize("n", [2, 3, 5])
def test_msu_values_match_each_prefix_measured_alone(n):
    # two marginals are added, more are fsummed: both must give, bit for
    # bit, what each prefix's own sub-sample and its own table give
    rng = np.random.default_rng(40 + n)
    for _ in range(150):
        m = int(rng.integers(1, 60))
        cards = tuple(int(c) for c in rng.integers(1, 7, size=n + 1))
        codes = np.column_stack([rng.integers(0, c, size=m) for c in cards])
        sample = CategoricalSample(codes, cards)
        cols = rng.permutation(n + 1)[:n].tolist()  # in no particular order
        prefixes = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False) + 1)
        values, degenerate = msu_values(sample, cols, prefixes)
        assert values.dtype == np.float64 and len(values) == len(degenerate) == len(prefixes)
        for value, flag, rows in zip(values.tolist(), degenerate.tolist(), prefixes):
            head = CategoricalSample(codes[:rows], cards)
            alone = msu(head, cols)
            reference = _scalar_msu(head, cols)
            assert value.hex() == alone.value.hex() == reference[0].hex()
            assert flag == alone.degenerate == reference[1]


def test_measures_reject_unordered_prefixes():
    # `prefix_counts` takes the key that these check
    sample = CategoricalSample(np.zeros((5, 2), dtype=np.int64), (2, 2))
    for prefixes in ([], [0, 3], [3, 2], [2, 2], [6]):
        with pytest.raises(InvalidInputError):
            subset_entropies(sample, [0, 1], prefixes)
        with pytest.raises(InvalidInputError):
            msu_values(sample, [0, 1], prefixes)
    assert sample._entropies == {}


def test_entropy_rows_match_entropy_of_positive_counts():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 4, size=(300, 9))
    counts[counts.sum(axis=1) == 0, 0] = 1
    for row, h in zip(counts, entropy_rows(counts)):
        assert h == entropy_rows(row[row > 0][np.newaxis])[0]

"""Unit tests for the plug-in information measures.

Expected values were produced by the independent oracles in oracle_utils
(pure-Python enumeration with fsum) and are frozen as literals; several tests
re-derive them inline so the freeze stays honest.
"""

import dataclasses
import math

import numpy as np
import pytest

from msulab import (
    CategoricalSample,
    InvalidInputError,
    entropy,
    information_gain,
    joint_entropy,
    msu,
    symmetrical_uncertainty,
    total_correlation,
)
from msulab import measures
from msulab.measures import msu_at_prefixes, subset_entropies
from msulab.sample import joint_counts, normalize_columns
from oracle_utils import coded_table, entropy_of_counts

# The three 8-row tables: two binary columns plus a class; B flips one cell of
# the first column to an existing symbol, C flips it to a brand-new symbol.
TABLE_A = coded_table("b b b b a a a a", "s s t t s s t t", "p q p q p q p q")
TABLE_B = coded_table("a b b b a a a a", "s s t t s s t t", "p q p q p q p q")
TABLE_C = coded_table("c b b b a a a a", "s s t t s s t t", "p q p q p q p q")

# Frozen oracle outputs.
H_5_3 = 0.954434002924965
H_BERNOULLI_95 = 0.2863969571159563
IG_TABLE_B = 0.04879494069539869
MSU_TABLE_B = 0.10379348602265456
MSU_TABLE_C = 0.178662090205769


def test_fractional_float_codes_rejected():
    for bad in (0.7, 1.9, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            CategoricalSample([[0, 1], [bad, 0]], (2, 2))
    whole = CategoricalSample(np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 2))
    assert whole.codes.dtype == np.int64
    assert whole.codes.tolist() == [[0, 1], [1, 0]]


def two_binary_exhaustive() -> CategoricalSample:
    return CategoricalSample([[0, 0], [0, 1], [1, 0], [1, 1]], (2, 2))


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([4, 4]).value == 1.0

    def test_constant(self):
        assert entropy([8]).value == 0.0

    def test_skewed(self):
        assert entropy([5, 3]).value == pytest.approx(H_5_3, abs=1e-15)
        # re-derive the frozen value
        assert H_5_3 == pytest.approx(-(5 / 8 * math.log2(5 / 8) + 3 / 8 * math.log2(3 / 8)), abs=1e-15)

    def test_zero_counts_contribute_nothing(self):
        assert entropy([4, 0, 4]).value == entropy([4, 4]).value

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            entropy([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            entropy([3, -1])

    def test_fractional_rejected(self):
        with pytest.raises(InvalidInputError):
            entropy([1.5, 2.5])


class TestJointEntropy:
    def test_balanced_table_is_three_bits(self):
        assert joint_entropy(TABLE_A, [0, 1, 2]).value == 3.0

    def test_singleton_subset_reduces_to_column_entropy(self):
        for col in range(3):
            counts = np.bincount(TABLE_B.codes[:, col])
            assert joint_entropy(TABLE_B, [col]).value == entropy(counts).value

    def test_table_with_duplicate_row(self):
        # 7 distinct rows with counts {2,1,1,1,1,1,1}
        assert joint_entropy(TABLE_B, [0, 1, 2]).value == 2.75
        assert entropy_of_counts([2, 1, 1, 1, 1, 1, 1]) == 2.75

    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidInputError):
            joint_entropy(TABLE_A, [])

    def test_bad_index_rejected(self):
        with pytest.raises(InvalidInputError):
            joint_entropy(TABLE_A, [0, 7])

    def test_duplicate_index_rejected(self):
        with pytest.raises(InvalidInputError):
            joint_entropy(TABLE_A, [0, 0])


class TestConditionalEntropy:
    """H(X|Y) as the joint-entropy difference H(X,Y) - H(Y)."""

    def test_duplicated_column_fully_determines(self):
        x = [0, 1, 0, 1, 1]
        sample = CategoricalSample.from_columns([x, x], (2, 2))
        assert joint_entropy(sample, [0, 1]).value == joint_entropy(sample, [1]).value

    def test_independent_uniform(self):
        sample = two_binary_exhaustive()
        assert joint_entropy(sample, [0, 1]).value - joint_entropy(sample, [1]).value == 1.0
        assert joint_entropy(sample, [0]).value == 1.0

    def test_noisy_xor_population_table(self):
        # exhaustive table with P(class = xor) = 38/40 = 0.95 per input combo
        rows = []
        for f1 in (0, 1):
            for f2 in (0, 1):
                rows += [[f1, f2, f1 ^ f2]] * 38 + [[f1, f2, 1 - (f1 ^ f2)]] * 2
        sample = CategoricalSample(rows, (2, 2, 2))
        value = joint_entropy(sample, [0, 1, 2]).value - joint_entropy(sample, [0, 1]).value
        assert value == pytest.approx(H_BERNOULLI_95, abs=1e-12)
        assert H_BERNOULLI_95 == pytest.approx(
            -(0.95 * math.log2(0.95) + 0.05 * math.log2(0.05)), abs=1e-15
        )


class TestInformationGain:
    def test_identical_columns_give_own_entropy(self):
        x = [0, 1, 1, 0, 1]
        sample = CategoricalSample.from_columns([x, x], (2, 2))
        assert information_gain(sample, [0], [1]).value == joint_entropy(sample, [0]).value

    def test_independent_gives_zero(self):
        assert information_gain(two_binary_exhaustive(), [0], [1]).value == 0.0

    def test_relabeled_table_value(self):
        assert information_gain(TABLE_B, [0], [2]).value == pytest.approx(IG_TABLE_B, abs=1e-15)
        # re-derive: H(f1') + H(clase) - H(f1', clase)
        expected = H_5_3 + 1.0 - entropy_of_counts([3, 2, 1, 2])
        assert IG_TABLE_B == pytest.approx(expected, abs=1e-15)

    def test_exactly_symmetric(self):
        assert information_gain(TABLE_B, [0], [2]).value == information_gain(TABLE_B, [2], [0]).value

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            information_gain(TABLE_A, [0], [0])
        with pytest.raises(InvalidInputError):
            information_gain(TABLE_A, [0, 1], [1, 2])


class TestSymmetricalUncertainty:
    def test_identical_columns(self):
        x = [0, 1, 1, 0, 1, 2]
        sample = CategoricalSample.from_columns([x, x], (3, 3))
        assert symmetrical_uncertainty(sample, 0, 1).value == 1.0

    def test_independent_columns(self):
        assert symmetrical_uncertainty(two_binary_exhaustive(), 0, 1).value == 0.0

    def test_constant_columns_degenerate(self):
        sample = CategoricalSample([[0, 0], [0, 0], [0, 0]], (1, 1))
        result = symmetrical_uncertainty(sample, 0, 1)
        assert result.value == 0.0
        assert result.degenerate

    def test_same_column_rejected(self):
        with pytest.raises(InvalidInputError):
            symmetrical_uncertainty(TABLE_A, 1, 1)


class TestTotalCorrelation:
    def test_balanced_table_uncorrelated(self):
        assert total_correlation(TABLE_A, [0, 1, 2]).value == 0.0

    def test_noise_free_xor_triple(self):
        rows = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
        sample = CategoricalSample(rows, (2, 2, 2))
        assert total_correlation(sample, [0, 1, 2]).value == 1.0

    def test_pair_equals_information_gain(self):
        assert total_correlation(TABLE_B, [0, 2]).value == information_gain(TABLE_B, [0], [2]).value

    def test_single_column_rejected(self):
        with pytest.raises(InvalidInputError):
            total_correlation(TABLE_A, [0])


class TestMsu:
    def test_balanced_table(self):
        assert msu(TABLE_A, [0, 1, 2]).value == 0.0

    def test_one_flipped_cell(self):
        assert msu(TABLE_B, [0, 1, 2]).value == pytest.approx(MSU_TABLE_B, abs=1e-15)
        assert MSU_TABLE_B == pytest.approx(0.10, abs=0.005)

    def test_one_new_symbol(self):
        assert msu(TABLE_C, [0, 1, 2]).value == pytest.approx(MSU_TABLE_C, abs=1e-15)
        assert MSU_TABLE_C == pytest.approx(0.18, abs=0.005)

    def test_pair_equals_symmetrical_uncertainty(self):
        assert msu(TABLE_B, [0, 2]).value == symmetrical_uncertainty(TABLE_B, 0, 2).value

    def test_column_order_irrelevant(self):
        assert msu(TABLE_B, [2, 0, 1]).value == msu(TABLE_B, [0, 1, 2]).value

    def test_single_column_rejected(self):
        with pytest.raises(InvalidInputError):
            msu(TABLE_A, [1])

    def test_all_constant_degenerate(self):
        sample = CategoricalSample([[0, 0, 0]] * 4, (1, 1, 1))
        result = msu(sample, [0, 1, 2])
        assert result.value == 0.0
        assert result.degenerate


class TestSampleValidation:
    def test_code_beyond_cardinality_rejected(self):
        with pytest.raises(InvalidInputError):
            CategoricalSample([[0, 2]], (2, 2))

    def test_negative_code_rejected(self):
        with pytest.raises(InvalidInputError):
            CategoricalSample([[0, -1]], (2, 2))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            CategoricalSample(np.zeros((0, 2), dtype=int), (2, 2))

    def test_cardinality_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            CategoricalSample([[0, 0]], (2,))

    def test_codes_are_immutable(self):
        sample = CategoricalSample([[0, 1]], (2, 2))
        with pytest.raises(ValueError):
            sample.codes[0, 0] = 1

    def test_from_columns_without_columns_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one column"):
            CategoricalSample.from_columns([], ())

    def test_from_columns_of_unequal_length_rejected(self):
        with pytest.raises(InvalidInputError, match="equal lengths"):
            CategoricalSample.from_columns([[0, 1, 0], [1, 0]], (2, 2))

    def test_from_columns_not_1d_rejected(self):
        with pytest.raises(InvalidInputError, match="1-D"):
            CategoricalSample.from_columns([[[0]], [[1]]], (2, 2))

    def test_from_columns_fractional_code_rejected(self):
        with pytest.raises(InvalidInputError, match="whole numbers"):
            CategoricalSample.from_columns([[0, 1], [0.5, 1]], (2, 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CategoricalSample.from_columns([["a", "b"]], (2,)),
            lambda: CategoricalSample.from_columns([["1", "0"]], (2,)),
            lambda: CategoricalSample.from_columns([[0, None]], (2,)),
            lambda: CategoricalSample([[None]], (2,)),
            lambda: CategoricalSample([["0"]], (2,)),
            lambda: CategoricalSample(np.array([[0]], dtype=complex), (2,)),
        ],
        ids=["letters", "numeric-strings", "none-column", "none", "string-matrix", "complex"],
    )
    def test_codes_that_are_not_numbers_rejected(self, build):
        with pytest.raises(InvalidInputError, match="must be numbers"):
            build()

    def test_ragged_codes_rejected(self):
        with pytest.raises(InvalidInputError, match="rectangle"):
            CategoricalSample([[0, 1], [1]], (2, 2))
        with pytest.raises(InvalidInputError, match="rectangle"):
            CategoricalSample.from_columns([[[0, 1], [1]]], (2,))

    def test_cardinality_past_int64_rejected(self):
        largest = 2**63 - 1
        assert CategoricalSample([[0]], (largest,)).cardinalities == (largest,)
        for card in (2**63, 2**64):
            with pytest.raises(InvalidInputError, match="must not exceed"):
                CategoricalSample([[0]], (card,))
            with pytest.raises(InvalidInputError, match="must not exceed"):
                CategoricalSample.from_columns([[0]], (card,))

    def test_boolean_and_unsigned_codes_accepted(self):
        sample = CategoricalSample.from_columns(
            [np.array([True, False]), np.array([1, 2], dtype=np.uint8)], (2, 3)
        )
        assert sample.codes.dtype == np.int64
        assert sample.codes.tolist() == [[1, 1], [0, 2]]

    def test_unhashable(self):
        sample = CategoricalSample([[0, 1]], (2, 2))
        with pytest.raises(TypeError, match="unhashable type: 'CategoricalSample'"):
            hash(sample)
        assert type(sample).__hash__ is None

    def test_codes_are_column_major(self):
        for sample in (
            CategoricalSample(np.ascontiguousarray([[0, 1], [1, 2]]), (2, 3)),
            CategoricalSample.from_columns([[0, 1], [1, 2]], (2, 3)),
        ):
            assert sample.codes.flags.f_contiguous
            assert sample.codes.tolist() == [[0, 1], [1, 2]]

    def test_equality_compares_codes_cardinalities_and_names(self):
        sample = CategoricalSample.from_columns([[0, 1, 1], [2, 0, 1]], (2, 3), ("a", "b"))
        msu(sample, [0, 1])  # a filled entropy table takes no part in equality
        rebuilt = CategoricalSample(np.ascontiguousarray(sample.codes), (2, 3), ("a", "b"))
        assert sample == dataclasses.replace(sample)
        assert sample == rebuilt
        changed = sample.codes.copy()
        changed[2, 1] = 2
        assert sample != CategoricalSample(changed, (2, 3), ("a", "b"))
        assert sample != CategoricalSample(sample.codes, (2, 4), ("a", "b"))
        assert sample != CategoricalSample(sample.codes, (2, 3), ("a", "c"))
        assert sample != CategoricalSample(sample.codes, (2, 3))

    def test_declared_cardinality_may_exceed_observed(self):
        narrow = CategoricalSample([[0], [1]], (2,))
        wide = CategoricalSample([[0], [1]], (9,))
        assert joint_entropy(narrow, [0]).value == joint_entropy(wide, [0]).value == 1.0


class TestJointHistogram:
    """The joint histogram of a column subset, as `joint_counts` counts it."""

    def test_counts_sum_to_total(self):
        counts = joint_counts(TABLE_B, [0, 1, 2])
        assert counts.sum() == TABLE_B.n_rows == 8
        assert sorted(counts.tolist(), reverse=True) == [2, 1, 1, 1, 1, 1, 1]

    def test_subset_normalized_ascending(self):
        assert normalize_columns(TABLE_B, [2, 0]) == (0, 2)
        assert joint_counts(TABLE_B, [2, 0]).tolist() == joint_counts(TABLE_B, [0, 2]).tolist()

    def test_tuples_respect_cardinalities(self):
        # one cell per observed value tuple, within the 3 x 2 declared space
        counts = joint_counts(TABLE_C, [0, 1])
        observed = {tuple(row) for row in TABLE_C.codes[:, [0, 1]].tolist()}
        assert len(counts) == len(observed) <= 3 * 2
        assert (counts > 0).all()

    def test_entropy_of_histogram_counts_matches(self):
        counts = joint_counts(TABLE_C, [0, 1, 2])
        assert entropy(counts).value == joint_entropy(TABLE_C, [0, 1, 2]).value


class TestEntropyTable:
    """A sample counts each (column subset, row prefixes) histogram once."""

    def test_each_subset_counted_once_per_sample(self, monkeypatch):
        calls = []
        counts = measures.prefix_counts

        def counting(sample, cols, prefixes):
            calls.append(tuple(cols))
            return counts(sample, cols, prefixes)

        monkeypatch.setattr(measures, "prefix_counts", counting)
        sample = CategoricalSample(TABLE_C.codes, TABLE_C.cardinalities)
        first = msu(sample, [0, 1, 2])
        assert len(calls) == 4  # three marginals and the joint histogram
        symmetrical_uncertainty(sample, 0, 2)
        assert calls[4:] == [(0, 2)]  # the marginals are already in the table
        assert msu(sample, [2, 0, 1]) == first
        assert len(calls) == 5

        copy = dataclasses.replace(sample)
        assert msu(copy, [0, 1, 2]) == first
        assert len(calls) == 9  # a new sample starts with an empty table

    def test_prefixes_are_part_of_the_key(self):
        sample = CategoricalSample(np.random.default_rng(3).integers(0, 3, size=(40, 3)), (3, 3, 3))
        m = sample.n_rows
        whole = msu_at_prefixes(sample, [0, 1, 2])
        assert whole == [msu(sample, [0, 1, 2])]
        series = msu_at_prefixes(sample, [0, 1, 2], [1, m // 2 + 1, m])
        assert series[-1] == whole[0]
        head = CategoricalSample(sample.codes[: m // 2 + 1], sample.cardinalities)
        assert series[1] == msu(head, [0, 1, 2])
        assert subset_entropies(sample, [2, 0], [m]) == (joint_entropy(sample, [0, 2]).value,)

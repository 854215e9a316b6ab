"""Unit tests for the plug-in information measures.

Expected values were produced by the independent oracles in oracle_utils
(pure-Python enumeration with fsum) and are frozen as literals; several tests
re-derive them inline so the freeze stays honest.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from msulab import (
    CardinalityProfile,
    CategoricalSample,
    InvalidInputError,
    information_gain,
    joint_entropy,
    msu,
    preset,
    run_experiment,
    symmetrical_uncertainty,
    total_correlation,
)
from msulab import measures
from msulab.measures import msu_values, subset_entropies
from msulab import sample as sample_module
from msulab.sample import (
    _cell_ids,
    _dense,
    check_codes,
    code_dtype,
    normalize_columns,
    normalize_prefixes,
    prefix_counts,
)
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


def _key(sample, cols, prefixes=None, period=None):
    """The checked entropy-table key that `prefix_counts` takes: (sorted
    subset, prefixes, segment rows)."""
    return (normalize_columns(sample, cols), *normalize_prefixes(sample, prefixes, period))


def joint_counts(sample, cols):
    """The observed cells' counts over `cols`, all rows: one prefix of `prefix_counts`."""
    ((counts, _),) = prefix_counts(sample, *_key(sample, cols), True)
    return counts[0]


def _entropy_of(counts):
    """The entropy of one row of int64 counts, as `entropy_rows` takes it."""
    return measures.entropy_rows(np.asarray(counts, dtype=np.int64)[np.newaxis])[0]


def _members_counted_alone(sample, cols, prefixes, chunks, columns):
    """The checks of a renumbered joint's members: the joint gives no member
    counts, the table stores no member entropies with it, and each member's
    entropies are those of its own codes (`columns[c]`) counted alone."""
    assert all(members == [] for _, members in chunks)
    subset_entropies(sample, cols, prefixes)
    for c in cols:
        assert ((c,), tuple(prefixes), sample.n_rows) not in sample._entropies
        expected = [_entropy_of(np.unique(columns[c][:n], return_counts=True)[1]) for n in prefixes]
        assert list(subset_entropies(sample, [c], prefixes)) == expected


def test_fractional_float_codes_rejected():
    for bad in (0.7, 1.9, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            CategoricalSample([[0, 1], [bad, 0]], (2, 2))
    whole = CategoricalSample(np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 2))
    assert whole.codes.dtype == np.uint8
    assert whole.codes.tolist() == [[0, 1], [1, 0]]


def two_binary_exhaustive() -> CategoricalSample:
    return CategoricalSample([[0, 0], [0, 1], [1, 0], [1, 1]], (2, 2))


def _column(*counts):
    """A one-column sample that holds code i counts[i] times."""
    return CategoricalSample([[code] for code, n in enumerate(counts) for _ in range(n)], (len(counts),))


class TestEntropy:
    """A column's entropy is `joint_entropy` over that column alone."""

    def test_uniform_binary(self):
        assert joint_entropy(_column(4, 4), [0]).value == 1.0

    def test_constant(self):
        assert joint_entropy(_column(8, 0), [0]).value == 0.0

    def test_skewed(self):
        assert joint_entropy(_column(5, 3), [0]).value == pytest.approx(H_5_3, abs=1e-15)
        # re-derive the frozen value
        assert H_5_3 == pytest.approx(-(5 / 8 * math.log2(5 / 8) + 3 / 8 * math.log2(3 / 8)), abs=1e-15)

    def test_zero_counts_contribute_nothing(self):
        assert joint_entropy(_column(4, 0, 4), [0]).value == joint_entropy(_column(4, 4), [0]).value


class TestJointEntropy:
    def test_balanced_table_is_three_bits(self):
        assert joint_entropy(TABLE_A, [0, 1, 2]).value == 3.0

    def test_singleton_subset_reduces_to_column_entropy(self):
        for col in range(3):
            counts = np.bincount(TABLE_B.codes[:, col])
            assert joint_entropy(TABLE_B, [col]).value == _entropy_of(counts)

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


class TestIndicesAreIntegers:
    """Column indices and row prefixes are integers, never truncated to one."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: msu(TABLE_B, [0.7, 1]),
            lambda: msu(TABLE_B, ["0", "2"]),
            lambda: joint_entropy(TABLE_B, [np.float64(1.0)]),
            lambda: msu_values(TABLE_B, [0, 1], [1.5, 3]),
            lambda: symmetrical_uncertainty(TABLE_B, None, 1),
            lambda: symmetrical_uncertainty(TABLE_B, 0, 1.0),
            lambda: information_gain(TABLE_B, 0, 1),
        ],
        ids=["float", "string", "numpy-float", "float-prefix", "none", "float-su", "bare-ints"],
    )
    def test_non_integers_rejected(self, call):
        with pytest.raises(InvalidInputError, match="must be a sequence of integers"):
            call()

    @pytest.mark.parametrize(
        "call, what, shown",
        [
            (lambda: msu(TABLE_B, [False, True]), "column indices", "[False, True]"),
            (lambda: subset_entropies(TABLE_B, [0], [True, 2]), "prefixes", "[True, 2]"),
            (lambda: CardinalityProfile([(True, 2)], 2), "a (cardinality, count) pair", "(True, 2)"),
            (lambda: CategoricalSample([[0, 1], [1, 0]], [True, 2]), "cardinalities", "[True, 2]"),
        ],
        ids=["columns", "prefixes", "profile", "sample"],
    )
    def test_bools_rejected(self, call, what, shown):
        """A bool is an int subclass, but a flag is not an index or a count."""
        message = f"{what} must be a sequence of integers, got {shown}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_integers_accepted(self):
        assert msu(TABLE_B, np.array([2, 0, 1])) == msu(TABLE_B, [0, 1, 2])
        numpy_given = msu_values(TABLE_B, np.arange(3, dtype=np.uint8), np.array([4, 8]))
        ints_given = msu_values(TABLE_B, [0, 1, 2], [4, 8])
        assert all(np.array_equal(a, b) for a, b in zip(numpy_given, ints_given))
        assert symmetrical_uncertainty(TABLE_B, np.int64(0), np.uint8(2)) == (
            symmetrical_uncertainty(TABLE_B, 0, 2)
        )

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: msu(TABLE_B, [0, 10**5000]), r"column index at least 2\*\*16609 out of range"),
            (lambda: msu(TABLE_B, [0, -(10**5000)]), r"column index at most -2\*\*16609 out of range"),
            (lambda: msu_values(TABLE_B, [0, 1], [3, 10**5000]),
             r"prefix of at least 2\*\*16609 rows exceeds"),
            (lambda: msu_values(TABLE_B, [0, 1], [-(10**5000), 3]),
             r"prefixes must be strictly ascending and positive, got \[at most -2\*\*16609, 3\]"),
            (lambda: msu(TABLE_B, [0.5, 10**5000]),
             r"column indices must be a sequence of integers, got \[0.5, at least 2\*\*16609\]$"),
        ],
        ids=["index", "negative-index", "prefix", "negative-prefix", "non-integer-beside-huge"],
    )
    def test_ints_too_long_to_print_named_by_their_bits(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            call()

    @pytest.mark.parametrize(
        "values", [[], [3], (0, 2, 1), list(range(8, 151)), (5, -1, 10**5000), [4, 4]]
    )
    def test_exact_ints_pass_in_one_step_as_item_by_item(self, values):
        # a list or tuple of exact ints takes the one-pass check, an iterator
        # of the same ints the item-by-item one: the same list either way
        fast = sample_module._integers(values, "prefixes")
        assert fast == sample_module._integers(iter(values), "prefixes") == list(values)
        assert type(fast) is list and fast is not values

    def test_other_items_are_checked_one_by_one(self):
        class Count(int):
            pass

        message = "prefixes must be a sequence of integers, got [True, 2]"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            sample_module._integers([True, 2], "prefixes")
        for values in ([2, np.int64(3)], (2, Count(3))):
            checked = sample_module._integers(values, "prefixes")
            assert checked == [2, 3] and [type(v) for v in checked] == [int, int]


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


class TestMsuValues:
    """The array path: each prefix's value, its degenerate flag, and the
    escape check that guards the clamp."""

    def test_degenerate_mask_matches_each_prefix(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 3, size=(30, 4))
        codes[:6, :3] = 1  # constant in every measured column
        codes[6:9, 1:3] = 1  # then only the first column varies
        codes[6:9, 0] = [0, 2, 1]
        prefixes = list(range(1, 31))
        values, degenerate = msu_values(CategoricalSample(codes, (3,) * 4), [2, 0, 1], prefixes)
        expected = [msu(CategoricalSample(codes[:n], (3,) * 4), [0, 1, 2]) for n in prefixes]
        assert degenerate.tolist() == [r.degenerate for r in expected] == [True] * 6 + [False] * 24
        assert values.tolist() == [r.value for r in expected]
        # at 7 to 9 rows the columns are independent but not all constant
        assert values[:9].tolist() == [0.0] * 9
        assert all(math.copysign(1.0, v) == 1.0 for v in values.tolist() if v == 0.0)

    @staticmethod
    def _pair_with_entropies(h_joint):
        """A 2-column sample whose table holds marginals of 0.5 bits at
        prefixes (2, 4) and the given joint entropies there."""
        sample = CategoricalSample(np.zeros((4, 2), dtype=np.int64), (2, 2))
        sample._entropies[(0,), (2, 4), 4] = sample._entropies[(1,), (2, 4), 4] = (0.5, 0.5)
        sample._entropies[(0, 1), (2, 4), 4] = h_joint
        return sample

    @pytest.mark.parametrize("h_joint", [0.5 - 1e-9, 1.0 + 1e-9], ids=["above-1", "below-0"])
    def test_values_past_the_slack_are_raised(self, h_joint):
        sample = self._pair_with_entropies((0.75, h_joint))
        escaped = 2.0 * (1.0 - h_joint) / 1.0
        assert abs(escaped - min(1.0, max(0.0, escaped))) > measures._UNIT_SLACK
        message = f"normalized measure escaped [0, 1]: {escaped!r}"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            msu_values(sample, [0, 1], [2, 4])
        with pytest.raises(RuntimeError, match="escaped"):
            msu_values(sample, [1, 0], [2, 4])

    def test_values_within_the_slack_are_clamped(self):
        sample = self._pair_with_entropies((1.0 + 1e-10, 0.5 - 1e-10))
        values, degenerate = msu_values(sample, [0, 1], [2, 4])
        assert values.tolist() == [0.0, 1.0] and not degenerate.any()
        assert math.copysign(1.0, values[0]) == 1.0


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

    @pytest.mark.parametrize("columns", [None, 3])
    def test_from_columns_of_no_iterable_rejected(self, columns):
        with pytest.raises(InvalidInputError, match=f"^columns must be an iterable of code columns, got {columns}$"):
            CategoricalSample.from_columns(columns, (2,))

    def test_from_columns_takes_any_iterable_of_columns(self):
        sample = CategoricalSample.from_columns((c for c in ([0, 1], [1, 1])), (2, 2))
        assert sample.codes.tolist() == [[0, 1], [1, 1]]

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

    def test_duplicate_column_names_rejected(self):
        # column_index would find only the first, and read_csv refuses such a header
        with pytest.raises(InvalidInputError, match="duplicate column names"):
            CategoricalSample([[0, 1]], (2, 2), ("a", "a"))
        with pytest.raises(InvalidInputError, match="duplicate column names"):
            CategoricalSample.from_columns([[0], [1]], (2, 2), column_names=("a", "a"))

    @pytest.mark.parametrize("names, shown", [("xy", "'xy'"), (("x", 2), r"\('x', 2\)"), (7, "7")])
    def test_column_names_are_a_list_or_tuple_of_strings(self, names, shown):
        # a string is not read as one name a letter
        message = f"^column names must be a list or tuple of str, got {shown}$"
        with pytest.raises(InvalidInputError, match=message):
            CategoricalSample([[0, 1]], (2, 2), names)
        with pytest.raises(InvalidInputError, match=message):
            CategoricalSample.from_columns([[0], [1]], (2, 2), column_names=names)
        assert CategoricalSample([[0, 1]], (2, 2), ["x", "y"]).column_names == ("x", "y")

    def test_cardinalities_are_integers_never_truncated(self):
        codes = np.zeros((3, 2), dtype=int)
        for cards in ((2.7, 3), (2, "3"), (np.float64(2.0), 3)):
            with pytest.raises(InvalidInputError, match="cardinalities must be a sequence of integers"):
                CategoricalSample(codes, cards)
            with pytest.raises(InvalidInputError, match="cardinalities must be a sequence of integers"):
                CategoricalSample.from_columns(list(codes.T), cards)
        sample = CategoricalSample(codes, (np.uint8(2), np.int64(3)))
        assert sample.cardinalities == (2, 3) and all(type(c) is int for c in sample.cardinalities)

    def test_cardinality_past_int64_rejected(self):
        largest = 2**63 - 1
        assert CategoricalSample([[0]], (largest,)).cardinalities == (largest,)
        for card in (2**63, 2**64):
            with pytest.raises(InvalidInputError, match="must not exceed"):
                CategoricalSample([[0]], (card,))
            with pytest.raises(InvalidInputError, match="must not exceed"):
                CategoricalSample.from_columns([[0]], (card,))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CategoricalSample([[2**63]], (2,)),
            lambda: CategoricalSample.from_columns([[2**63]], (2,)),
            lambda: CategoricalSample.from_columns([np.array([0, 2**64 - 1], dtype=np.uint64)], (2,)),
            lambda: CategoricalSample(np.array([[0], [2**63]], dtype=np.uint64), (2,)),
            lambda: CategoricalSample([[2.0**63]], (2,)),
            lambda: CategoricalSample.from_columns([[1e30]], (2,)),
        ],
        ids=["int", "int-column", "uint64-column", "uint64-matrix", "float", "float-column"],
    )
    def test_code_past_int64_named_as_such(self, build):
        # a positive code must not wrap to a negative int64 on the cast
        with pytest.raises(InvalidInputError, match="is past int64"):
            build()

    def test_largest_int64_code_reaches_the_cardinality_check(self):
        for codes in ([[2**63 - 1]], np.array([[2**63 - 1]], dtype=np.uint64)):
            with pytest.raises(InvalidInputError, match="exceeds its column's declared cardinality"):
                CategoricalSample(codes, (2,))
        sample = CategoricalSample.from_columns(
            [np.array([2**63 - 2], dtype=np.uint64)], (2**63 - 1,)
        )
        assert sample.codes.tolist() == [[2**63 - 2]]

    def test_boolean_and_unsigned_codes_accepted(self):
        sample = CategoricalSample.from_columns(
            [np.array([True, False]), np.array([1, 2], dtype=np.uint8)], (2, 3)
        )
        assert sample.codes.dtype == np.uint8
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


class TestCodeDtype:
    """Codes take the narrowest dtype that holds every code below the
    largest cardinality, on every path that builds a sample."""

    @pytest.mark.parametrize(
        "card, dtype",
        [(2, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
         (65_537, np.uint32), (2**32, np.uint32), (2**32 + 1, np.int64), (2**63 - 1, np.int64)],
    )
    def test_dtype_at_each_boundary(self, card, dtype):
        assert code_dtype((2, card)) == code_dtype((card, 2)) == dtype
        for sample in (
            CategoricalSample([[1, 0], [0, card - 1]], (2, card)),
            CategoricalSample.from_columns([[1, 0], [0, card - 1]], (2, card)),
        ):
            assert sample.codes.dtype == dtype  # for the binary column too
            assert sample.codes.tolist() == [[1, 0], [0, card - 1]]
            assert sample.codes.flags.f_contiguous and not sample.codes.flags.writeable

    @pytest.mark.parametrize(
        "cards", [(40, 40), (40, 40, 7), (300, 300), (300, 300, 300)],
        ids=["uint8-dense", "uint8-3-dense", "uint16-dense", "uint16-sparse"],
    )
    def test_joint_keys_are_widened_before_they_could_wrap(self, cards):
        # keys pass 255 in the uint8 samples and 65,535 in the uint16 ones,
        # where a narrow column times a Python int keeps the narrow dtype
        rng = np.random.default_rng(5)
        columns = [rng.integers(0, c, size=5000) for c in cards]
        sample = CategoricalSample.from_columns(columns, cards)
        assert sample.codes.dtype == (np.uint8 if max(cards) <= 256 else np.uint16)
        keys = np.zeros(5000, dtype=np.int64)  # the int64 oracle
        for column, card in zip(columns, cards):
            keys = keys * card + column
        _, expected = np.unique(keys, return_counts=True)
        cols = range(len(cards))
        chunks = list(prefix_counts(sample, *_key(sample, cols, [5000]), True))
        ((counts, alone),) = chunks
        assert counts[0].tolist() == expected.tolist()
        if not _dense(math.prod(cards), 5000):  # renumbered
            _members_counted_alone(sample, cols, [5000], chunks, columns)
            return
        for column, card, column_counts in zip(columns, cards, alone, strict=True):
            assert column_counts[0].tolist() == np.bincount(column, minlength=card).tolist()

    @pytest.mark.parametrize(
        "cards",
        [
            (1, 16, 16), (16, 1, 16), (16, 16, 1), (1, 256), (256, 1),
            (1, 257, 1), (1, 1, 257), (257, 1),
            (1, 256, 256), (256, 1, 256), (256, 256, 1), (1, 65_536), (65_536, 1),
            (1, 65_537), (65_537, 1, 1),
            (1, 2**16, 2**16), (2**16, 1, 2**16), (2**16, 2**16, 1), (1, 2**32), (2**32, 1),
            (1, 641, 6_700_417), (641, 1, 6_700_417), (641, 6_700_417, 1),
        ],
    )
    def test_keys_at_the_dtype_edges_match_an_int64_oracle(self, cards):
        # joint spaces of 256/257, 65,536/65,537 and 2**32/2**32 + 1, a
        # one-valued column first, in the middle or last; a lone column of
        # the space's size would be a multiplier past its key dtype
        rng = np.random.default_rng(sum(cards))
        columns = [rng.integers(0, c, size=3000) for c in cards]
        for column, c in zip(columns, cards):
            column[-1] = c - 1  # the largest key
        sample = CategoricalSample.from_columns(columns, cards)
        space = math.prod(cards)
        dense = _dense(space, 3000)
        ids, _ = _cell_ids(list(sample.codes.T), cards, dense)
        if dense:  # the ids are the keys, in the space's dtype
            assert ids.dtype == code_dtype([space])
        keys = np.zeros(3000, dtype=np.int64)  # the int64 oracle
        for column, c in zip(columns, cards):
            keys = keys * c + column
        cols = range(len(cards))
        _, expected = np.unique(keys, return_counts=True)
        assert joint_counts(sample, cols).tolist() == expected.tolist()
        prefixes = [1, 7, 1000, 3000]
        chunks = list(prefix_counts(sample, *_key(sample, cols, prefixes), True))
        rows = [row for counts, _ in chunks for row in counts]
        for n, row in zip(prefixes, rows, strict=True):
            assert row[row > 0].tolist() == np.unique(keys[:n], return_counts=True)[1].tolist()
        if not dense:
            _members_counted_alone(sample, cols, prefixes, chunks, columns)
            return
        # each column's counts, summed from the dense joint's grid, are the
        # counts of the codes that the oracle's keys decode to
        strides = [math.prod(cards[j + 1:]) for j in cols]
        for j in cols:
            alone = [row for _, columns in chunks for row in columns[j]]
            for n, row in zip(prefixes, alone, strict=True):
                decoded = keys[:n] // strides[j] % cards[j]
                assert row[row > 0].tolist() == np.unique(decoded, return_counts=True)[1].tolist()

    @pytest.mark.parametrize("limit", [sample_module._DENSE_CELL_LIMIT, 2])
    def test_code_rows_past_int64_match_a_row_oracle(self, limit, monkeypatch):
        # a joint space of 2**65 cells is keyed by its rows of codes; a tiny
        # limit forces one prefix a chunk
        monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", limit)
        cards = (2**32, 2**32, 2)
        rng = np.random.default_rng(65)
        # five codes spread over each wide alphabet, so rows repeat
        columns = [rng.integers(0, 5, size=3000) * (2**32 // 5) for _ in range(2)]
        columns.append(rng.integers(0, 2, size=3000))
        sample = CategoricalSample.from_columns(columns, cards)
        rows = np.column_stack(columns)  # the oracle: lexicographic rows
        ids, n_cells = _cell_ids(list(sample.codes.T), cards, False)
        cells, inverse = np.unique(rows, axis=0, return_inverse=True)
        assert ids.tolist() == inverse.tolist() and n_cells == len(cells)
        cols = range(len(cards))
        prefixes = [1, 7, 1000, 3000]
        chunks = list(prefix_counts(sample, *_key(sample, cols, prefixes), True))
        assert (len(chunks) > 1) == (limit == 2)
        joint = [row for counts, _ in chunks for row in counts]
        for n, row in zip(prefixes, joint, strict=True):
            expected = np.unique(rows[:n], axis=0, return_counts=True)[1]
            assert row[row > 0].tolist() == expected.tolist()
        _members_counted_alone(sample, cols, prefixes, chunks, columns)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CategoricalSample.from_columns([[0, 300]], (200,)),
            lambda: CategoricalSample([[0], [300]], (200,)),
            lambda: CategoricalSample.from_columns([np.array([0, 256])], (256,)),
            lambda: CategoricalSample([[0.0], [65_536.0]], (65_536,)),
        ],
        ids=["column", "matrix", "int64-column-256", "float-matrix-65536"],
    )
    def test_code_past_its_cardinality_rejected_before_it_could_wrap(self, build):
        # each bad code wraps into range in its sample's narrow dtype: 300 to 44,
        # 256 to 0 in uint8 and 65,536 to 0 in uint16
        with pytest.raises(InvalidInputError, match="exceeds its column's declared cardinality"):
            build()

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.uint32])
    def test_integer_codes_are_read_once(self, dtype):
        reads = []

        class Logged(np.ndarray):
            def min(self, *args, **kwargs):
                reads.append("min")
                return super().min(*args, **kwargs)

            def max(self, *args, **kwargs):
                reads.append("max")
                return super().max(*args, **kwargs)

        columns = [np.array(c, dtype=dtype).view(Logged) for c in ([0, 1, 2], [3, 0, 1])]
        check_codes(columns, (3, 4))
        assert reads == ["max", "max"]

    @pytest.mark.parametrize(
        "column, card, match",
        [
            # viewed unsigned, -1 is 255, below the cardinality
            (np.array([0, -1], dtype=np.int8), 300, "must be non-negative"),
            (np.array([0, -1], dtype=np.int64), 2**63 - 1, "must be non-negative"),
            (np.array([0, 127], dtype=np.int8), 127, "exceeds"),
            (np.array([0, 2**63 - 1], dtype=np.int64), 2**63 - 1, "exceeds"),
            (np.array([0, 5], dtype=np.uint8), 5, "exceeds"),
            (np.array([False, True]), 1, "exceeds"),
        ],
    )
    def test_one_pass_check_names_the_fault(self, column, card, match):
        for order in "<>":  # the unsigned view keeps the column's byte order
            codes = column.astype(column.dtype.newbyteorder(order))
            with pytest.raises(InvalidInputError, match=match):
                check_codes([np.array([0, 0]), codes], (1, card))
            check_codes([codes[:1]], (card,))  # the first code alone fits

    @pytest.mark.parametrize("dtype", [">i8", "<i8", ">i2", "<i4"])
    def test_signed_codes_in_either_byte_order_accepted(self, dtype):
        codes = np.array([0, 1, 5], dtype=dtype)
        check_codes([codes], (6,))
        assert CategoricalSample(codes[:, np.newaxis], (6,)).codes[:, 0].tolist() == [0, 1, 5]

    def test_negative_code_rejected_before_it_could_wrap(self):
        # -1 would wrap to 255 in uint8
        for build in (
            lambda: CategoricalSample.from_columns([[0, -1]], (200,)),
            lambda: CategoricalSample([[0], [-1]], (200,)),
        ):
            with pytest.raises(InvalidInputError, match="must be non-negative"):
                build()


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
        assert _entropy_of(counts) == joint_entropy(TABLE_C, [0, 1, 2]).value


def _int64_keys(columns, cards):
    """The int64 oracle: each row's mixed-radix key over `cards`."""
    keys = np.zeros(len(columns[0]), dtype=np.int64)
    for column, card in zip(columns, cards):
        keys = keys * card + column
    return keys


class TestDenseWhereTheRowsFill:
    """A joint is counted densely only where its space holds at most
    `_DENSE_FILL` cells a row keyed; a dense joint's member counts are its
    grid's axis sums, one per code, and a renumbered one gives none."""

    FILL = sample_module._DENSE_FILL

    @pytest.mark.parametrize(
        "cards", [(16, 16, 16), (2,) * 10, (1, 64, 1, 64), (40, 40, 7), (32, 8)]
    )
    def test_dense_exactly_where_the_rows_fill_the_space(self, cards):
        space = math.prod(cards)
        rows = -(-space // self.FILL)  # the fewest rows that fill the space
        rng = np.random.default_rng(space)
        columns = [rng.integers(0, c, size=rows) for c in cards]
        cols = range(len(cards))
        filled = CategoricalSample.from_columns(columns, cards)
        short = CategoricalSample.from_columns([c[:-1] for c in columns], cards)
        ((_, members),) = prefix_counts(filled, *_key(filled, cols), True)
        assert len(members) == len(cards)  # filled: dense, so it gives its members
        ((_, members),) = prefix_counts(short, *_key(short, cols), True)
        assert members == []  # one row short: renumbered

    @pytest.mark.parametrize(
        "cards", [(16, 16, 16), (2,) * 10, (1, 64, 1, 64), (40, 40, 7), (32, 8)]
    )
    @pytest.mark.parametrize("chunked", [False, True])
    def test_counts_past_the_fill_match_an_int64_oracle(self, cards, chunked, monkeypatch):
        space = math.prod(cards)
        rows = max(1, (space - 1) // self.FILL)  # too few to fill the space
        if chunked:
            # the space is within the limit, but a chunk holds only a few prefixes
            monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", space)
        rng = np.random.default_rng(space + rows)
        columns = [rng.integers(0, c, size=rows) for c in cards]
        sample = CategoricalSample.from_columns(columns, cards)
        assert space <= sample_module._DENSE_CELL_LIMIT
        assert not _dense(space, rows)
        ids, n_cells = _cell_ids(list(sample.codes.T), cards, False)
        keys = _int64_keys(columns, cards)
        cells, inverse = np.unique(keys, return_inverse=True)
        assert ids.tolist() == inverse.tolist() and n_cells == len(cells)
        cols = range(len(cards))
        prefixes = [*range(1, rows, max(1, rows // 40)), rows]
        chunks = list(prefix_counts(sample, *_key(sample, cols, prefixes), True))
        assert (len(chunks) > 1) == chunked
        joint = [row for counts, _ in chunks for row in counts]
        for n, row in zip(prefixes, joint, strict=True):
            assert row[row > 0].tolist() == np.unique(keys[:n], return_counts=True)[1].tolist()
        _members_counted_alone(sample, cols, prefixes, chunks, columns)

    @pytest.mark.parametrize(
        "cards", [(1, 3, 5), (3, 1, 5), (3, 5, 1), (2, 1, 4, 1, 3), (2, 1, 9)]
    )
    @pytest.mark.parametrize("chunked", [False, True])
    def test_dense_member_counts_are_full_width(self, cards, chunked, monkeypatch):
        if chunked:  # a limit of the space itself: one prefix a chunk
            monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", math.prod(cards))
        rng = np.random.default_rng(len(cards))
        rows = 200
        # no column sees its top code, so each row ends in a zero count; in
        # (2, 1, 9) the 9-valued column is wider than the 8 cells seen
        columns = [rng.integers(0, max(1, c - 1), size=rows) for c in cards]
        sample = CategoricalSample.from_columns(columns, cards)
        assert _dense(math.prod(cards), rows)
        cols = range(len(cards))
        prefixes = [1, 7, rows]
        chunks = list(prefix_counts(sample, *_key(sample, cols, prefixes), True))
        assert (len(chunks) > 1) == chunked
        for j, card in enumerate(cards):
            alone = [row for _, members in chunks for row in members[j]]
            for n, row in zip(prefixes, alone, strict=True):
                assert row.dtype == np.int64
                assert row.tolist() == np.bincount(columns[j][:n], minlength=card).tolist()

    def test_fig_g_asks_no_dense_count_past_the_fill(self, monkeypatch):
        # fig-g measures up to 21 binary columns at 1,000 rows
        keyed = []  # (rows keyed, whether dense) of each joint, in order
        asked = []  # (the latest joint keyed, bincount's minlength)
        real_ids, real_bincount = sample_module._cell_ids, np.bincount

        def cell_ids(columns, dims, dense):
            keyed.append((len(columns[0]), dense))
            return real_ids(columns, dims, dense)

        def bincount(x, weights=None, minlength=0):
            asked.append((keyed[-1], minlength))
            return real_bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(sample_module, "_cell_ids", cell_ids)
        monkeypatch.setattr(np, "bincount", bincount)
        run_experiment(dataclasses.replace(preset("fig-g"), replicates=1))
        dense = [(rows, minlength) for (rows, is_dense), minlength in asked if is_dense]
        assert dense and all(minlength <= self.FILL * rows for rows, minlength in dense)
        # the widest joints are renumbered, not counted over 2**21 cells
        assert any(not is_dense for _, is_dense in keyed)



class TestSortRenumbering:
    """A renumbered joint's counts and cell order are `np.unique`'s over its
    int64 keys: ids from one argsort and the runs' starts, and at one prefix
    of one segment, the run lengths of the sorted keys."""

    # two-column spaces of 2**62 - 2**31 and a one-column one of 2**62 - 1
    # cells, with keys near 2**62 - 1; a binary joint of 2**20 cells; 40**4 * 2
    CARDS = [(2**31, 2**31 - 1), (2**62 - 1,), (2,) * 20, (40, 40, 40, 40, 2), (3, 1, 5, 2**33)]

    @staticmethod
    def _columns(cards, rows, seed):
        rng = np.random.default_rng(seed)
        # a few codes at the top of each alphabet, so keys repeat near the top
        return [c - 1 - rng.integers(0, min(c, 6), size=rows) if c > 2**30 else rng.integers(0, c, size=rows)
                for c in cards]

    @pytest.mark.parametrize("cards", CARDS)
    def test_ids_and_run_lengths_match_unique(self, cards):
        columns = self._columns(cards, 3000, len(cards))
        sample = CategoricalSample.from_columns(columns, cards)
        keys = _int64_keys(columns, cards)
        cells, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        assert not _dense(math.prod(cards), 3000)
        ids, n_cells = _cell_ids(list(sample.codes.T), cards, False)
        assert ids.tolist() == inverse.tolist() and n_cells == len(cells)
        runs, n_cells = _cell_ids(list(sample.codes.T), cards, None)
        assert runs.tolist() == counts.tolist() and n_cells == len(cells)
        if math.prod(cards) > 2**61:
            assert keys.max() > 2**61

    @pytest.mark.parametrize("cards", CARDS)
    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("prefixes", [[500], [1, 7, 250, 500]])
    def test_counts_and_cell_order_match_unique(self, cards, segments, prefixes):
        rows = 500
        columns = self._columns(cards, rows * segments, sum(cards) % 1000 + segments)
        sample = CategoricalSample.from_columns(columns, cards)
        keys = _int64_keys(columns, cards)
        chunks = list(prefix_counts(sample, *_key(sample, range(len(cards)), prefixes, rows), True))
        matrices = [counts for counts, members in chunks if members == []]
        assert len(matrices) == len(chunks) == segments  # renumbered segment by segment
        for s, counts in enumerate(matrices):
            segment = keys[s * rows : (s + 1) * rows]
            cells = np.unique(segment)  # ascending key order
            expected = [[np.count_nonzero(segment[:n] == cell) for cell in cells] for n in prefixes]
            assert counts.tolist() == expected

    @pytest.mark.parametrize("cards", [(300, 200), (250,), (7, 9000)], ids=["uint16", "uint8", "uint16-skewed"])
    def test_narrow_keys_are_radix_sorted_and_renumbered_like_unique(self, cards, monkeypatch):
        # keys of 16 bits or fewer are sorted stably (a radix sort), which
        # leaves equal keys in row order: the ids are np.unique's all the same
        columns = self._columns(cards, 6000, len(cards))
        columns[0][::3] = 0  # many repeats of each key
        sample = CategoricalSample.from_columns(columns, cards)
        kinds, real_argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **k: kinds.append((a.dtype.itemsize, k.get("kind"))) or real_argsort(a, **k))
        for n in [1, 7, 500, 6000]:
            prefix = [column[:n] for column in sample.codes.T]
            cells, inverse, counts = np.unique(_int64_keys(prefix, cards), return_inverse=True, return_counts=True)
            ids, n_cells = _cell_ids(prefix, cards, False)
            assert ids.tolist() == inverse.tolist() and n_cells == len(cells)
            runs, n_cells = _cell_ids(prefix, cards, None)
            assert runs.tolist() == counts.tolist() and n_cells == len(cells)
        assert kinds == [(sample.codes.itemsize if len(cards) == 1 else 2, "stable")] * 4

    def test_one_prefix_takes_the_run_lengths(self, monkeypatch):
        # no ids are written and none is counted: no bincount, and the keying
        # is asked for counts (None), neither dense nor ids
        cards = (2,) * 20
        sample = CategoricalSample.from_columns(self._columns(cards, 1000, 1), cards)
        asked, counted = [], []
        real_ids, real_bincount = sample_module._cell_ids, np.bincount
        monkeypatch.setattr(sample_module, "_cell_ids", lambda *a: asked.append(a[2]) or real_ids(*a))
        monkeypatch.setattr(np, "bincount", lambda *a, **k: counted.append(a) or real_bincount(*a, **k))
        ((counts, members),) = prefix_counts(sample, *_key(sample, range(20)), True)
        assert asked == [None] and counted == [] and members == []
        keys = _int64_keys([sample.codes[:, j] for j in range(20)], cards)
        assert counts[0].tolist() == np.unique(keys, return_counts=True)[1].tolist()
        # several prefixes, or a past-int64 space, count ids
        list(prefix_counts(sample, *_key(sample, range(20), [10, 1000]), True))
        assert asked == [None, False] and len(counted) == 1


class TestEntropyTable:
    """A sample counts each (column subset, row prefixes) histogram once."""

    def test_each_subset_counted_once_per_sample(self, monkeypatch):
        calls = []
        counts = measures.prefix_counts

        def counting(sample, subset, bounds, rows, members):
            calls.append(subset)
            return counts(sample, subset, bounds, rows, members)

        monkeypatch.setattr(measures, "prefix_counts", counting)
        sample = CategoricalSample(TABLE_C.codes, TABLE_C.cardinalities)
        first = msu(sample, [0, 1, 2])
        assert calls == [(0, 1, 2)]  # the joint; its counts give the marginals
        symmetrical_uncertainty(sample, 0, 2)
        assert calls[1:] == [(0, 2)]  # the marginals are already in the table
        assert msu(sample, [2, 0, 1]) == first
        assert len(calls) == 2

        copy = dataclasses.replace(sample)
        assert msu(copy, [0, 1, 2]) == first
        assert len(calls) == 3  # a new sample starts with an empty table

    def test_stored_members_are_not_summed_again(self, monkeypatch):
        # a dense joint sums its members' counts only where the table lacks
        # one of them: after the first MSU every marginal is stored
        sums = []
        axis_counts = sample_module._axis_counts

        def summing(grid, dims):
            sums.append(dims)
            return axis_counts(grid, dims)

        monkeypatch.setattr(sample_module, "_axis_counts", summing)
        codes = np.random.default_rng(4).integers(0, 3, size=(500, 3))
        sample = CategoricalSample(codes, (3, 3, 3))
        msu(sample, [0, 1, 2])
        assert sums == [(3, 3, 3)]
        second = msu(sample, [2, 0])
        assert ((0, 2), (500,), 500) in sample._entropies  # the joint was counted
        assert sums == [(3, 3, 3)]
        assert second == msu(CategoricalSample(codes, (3, 3, 3)), [2, 0])  # members summed there

    def test_prefixes_are_part_of_the_key(self):
        sample = CategoricalSample(np.random.default_rng(3).integers(0, 3, size=(40, 3)), (3, 3, 3))
        m = sample.n_rows
        whole, whole_degenerate = msu_values(sample, [0, 1, 2])
        expected = msu(sample, [0, 1, 2])
        assert whole.tolist() == [expected.value] and whole_degenerate.tolist() == [expected.degenerate]
        series, degenerate = msu_values(sample, [0, 1, 2], [1, m // 2 + 1, m])
        assert series[-1] == whole[0] and degenerate[-1] == whole_degenerate[0]
        head = CategoricalSample(sample.codes[: m // 2 + 1], sample.cardinalities)
        expected = msu(head, [0, 1, 2])
        assert (series[1], degenerate[1]) == (expected.value, expected.degenerate)
        assert subset_entropies(sample, [2, 0], [m]) == (joint_entropy(sample, [0, 2]).value,)

    def test_each_exact_key_is_counted_once(self, monkeypatch):
        calls = []
        counts = measures.prefix_counts

        def counting(counted, subset, bounds, rows, members):
            if counted is sample:  # not the fresh samples below
                calls.append((subset, bounds))
            return counts(counted, subset, bounds, rows, members)

        def entropies(counts):
            rows.append(len(counts))
            return entropy_rows(counts)

        rows = []  # the rows of each count matrix whose entropies are taken
        entropy_rows = measures.entropy_rows
        monkeypatch.setattr(measures, "prefix_counts", counting)
        monkeypatch.setattr(measures, "entropy_rows", entropies)
        codes = np.random.default_rng(8).integers(0, 5, size=(500, 3))
        sample = CategoricalSample(codes, (5, 5, 5))
        first = subset_entropies(sample, [1, 0], [40, 300])
        assert calls == [((0, 1), (40, 300))]
        assert rows == [2, 4]  # the joint gives both members, measured in one matrix
        assert ((0,), (40, 300), 500) in sample._entropies and ((1,), (40, 300), 500) in sample._entropies
        # a repeated (subset, prefixes) is not counted again, however it is spelled
        assert subset_entropies(sample, [0, 1], np.array([40, 300])) == first
        subset_entropies(sample, [1], [40, 300])
        assert len(calls) == 1
        # another prefix set, a subset of the stored one included, is counted
        # once, bit for bit as a fresh sample counts it
        for wanted in ([40], [7, 40, 41, 300, 500], [40]):
            fresh = subset_entropies(CategoricalSample(codes, (5, 5, 5)), [1], wanted)
            assert subset_entropies(sample, [1], wanted) == fresh
        # the second [40] comes from the table
        assert calls[1:] == [((1,), (40,)), ((1,), (7, 40, 41, 300, 500))]
        # a joint at a new set gives both members, and only the one the
        # table lacks there is measured and stored
        stored = sample._entropies[(1,), (40,), 500]
        del rows[:]
        subset_entropies(sample, [1, 2], [40])
        assert calls[-1] == ((1, 2), (40,)) and rows == [1, 1]
        assert sample._entropies[(1,), (40,), 500] is stored and ((2,), (40,), 500) in sample._entropies
        # a set that is not strictly ascending is rejected, stored or not
        for bad in ([300, 40], [40, 40], [], [0, 40], [501]):
            with pytest.raises(InvalidInputError):
                subset_entropies(sample, [1], bad)
        assert len(calls) == 4

    def test_table_holds_read_only_float64_arrays(self):
        codes = np.random.default_rng(5).integers(0, 3, size=(60, 3))
        sample = CategoricalSample(codes, (3, 3, 3))
        msu(sample, [0, 1, 2])
        msu_values(sample, [0, 2], [10, 60])
        assert len(sample._entropies) == 7  # two joints, with their three and two members
        for key, stored in sample._entropies.items():
            assert type(stored) is np.ndarray and stored.dtype == np.float64 and stored.shape == (len(key[1]),)
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0

    def test_public_measures_give_python_floats(self):
        sample = CategoricalSample(TABLE_C.codes, TABLE_C.cardinalities)
        entropies = subset_entropies(sample, [0, 1], [2, 8])
        assert type(entropies) is tuple and [type(v) for v in entropies] == [float, float]
        results = [
            joint_entropy(sample, [0, 2]),
            information_gain(sample, [0], [1, 2]),
            total_correlation(sample, [0, 1, 2]),
            msu(sample, [0, 1, 2]),
            symmetrical_uncertainty(sample, 0, 2),
        ]
        assert [type(r.value) for r in results] == [float] * 5


def _hex(values):
    return [float(v).hex() for v in values]


def _fsum_hex(terms):
    return [math.fsum(row).hex() for row in terms.tolist()]


class TestBulkRowSums:
    """`_fsum_rows` is `math.fsum` of each row, bit for bit, whether a row
    takes the int64 sum or falls back to fsum."""

    def test_a_million_random_rows(self):
        rng = np.random.default_rng(20170707)
        rows = fitted = 0
        for k in (1, 2, 3, 4, 5, 8, 9, 16):
            n = 125_000
            # exponents spread over 0 to 11 binades a row: some rows fit, some fall back
            spread = rng.integers(0, 12, size=(n, 1))
            exps = -rng.integers(0, spread + 1, size=(n, k)) - rng.integers(0, 40, size=(n, 1))
            terms = np.ldexp(rng.random((n, k)) + 0.5, exps)
            if k % 2:  # mixed signs, which cancel
                terms *= rng.choice([-1.0, 1.0], size=(n, k))
            else:  # entropy terms are all negative
                terms = -terms
            terms[rng.random((n, k)) < 0.2] = 0.0
            want = np.array([math.fsum(row) for row in terms.tolist()])
            assert np.array_equal(measures._fsum_rows(terms).view(np.int64), want.view(np.int64))
            rows += n
            fitted += int(measures._int64_sums(terms)[1].sum())
        assert rows >= 1_000_000
        assert 0.1 < fitted / rows < 0.9  # both paths are taken often

    def test_entropy_terms_of_random_counts(self):
        rng = np.random.default_rng(7)
        for cells, m in ((2, 8), (8, 40), (8, 150), (40, 1000), (400, 5000)):
            counts = rng.multinomial(m, rng.dirichlet(np.ones(cells), size=2000)[0], size=2000)
            p = counts / counts.sum(axis=1, keepdims=True)
            terms = p * np.log2(np.where(counts > 0, p, 1.0))
            assert _hex(measures._fsum_rows(terms)) == _fsum_hex(terms)
            expected = [(-math.fsum(row) + 0.0).hex() for row in terms.tolist()]
            assert _hex(measures.entropy_rows(counts)) == expected

    @staticmethod
    def _tie_rows(rng, n, k, sign):
        """Rows of k terms, each M * 2**e with e within 3 binades, whose
        exact sum lies halfway between two adjacent floats."""
        rows = []
        while len(rows) < n:
            base = int(rng.integers(-60, 10))
            ints = [int(rng.integers(1 << 51, 1 << 53)) << int(rng.integers(0, 4)) for _ in range(k)]
            total = sum(ints)
            drop = total.bit_length() - 53
            if drop < 1:
                continue
            # move the last term so that the dropped bits are exactly one half
            ints[-1] += (1 << (drop - 1)) - total % (1 << drop)
            total = sum(ints)
            if total.bit_length() - 53 != drop or ints[-1] <= 0 or ints[-1].bit_length() > 55:
                continue
            if any(i % (1 << max(0, i.bit_length() - 53)) for i in ints):
                continue  # a term of more than 53 significant bits is not a float
            assert total % (1 << drop) == 1 << (drop - 1)  # a tie
            rows.append([sign * math.ldexp(i, base) for i in ints])
        return np.array(rows)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rows_on_rounding_ties(self, k, sign):
        terms = self._tie_rows(np.random.default_rng(k), 2000, k, sign)
        sums, fits = measures._int64_sums(terms)
        assert fits.all()  # every tie takes the int64 path
        want = _fsum_hex(terms)
        assert _hex(sums) == want == _hex(measures._fsum_rows(terms))
        # each exact sum is a tie, rounded up or down to the even neighbour
        exact = [sum(map(Fraction, row)) for row in terms.tolist()]
        ulps = [Fraction(math.ulp(float.fromhex(w))) for w in want]
        assert all(abs(Fraction(float.fromhex(w)) - e) * 2 == u for w, e, u in zip(want, exact, ulps))
        assert {Fraction(float.fromhex(w)) > e for w, e in zip(want, exact)} == {True, False}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 64, 65])
    def test_rows_at_the_edge_of_int64(self, k):
        # the largest mantissas at the widest shift that fits, and one past it
        room = 9 - (k - 1).bit_length()
        top = math.ldexp(1 - 2.0**-53, 0)  # the largest mantissa, 53 ones
        for spread, fit in ((room, True), (room + 1, False)):
            if spread < 0 or (k == 1 and not fit):
                continue
            row = [-top * 2.0**spread] * (k - 1) + [-top] if k > 1 else [-top]
            terms = np.array([row, [-x for x in row]])
            sums, fits = measures._int64_sums(terms)
            assert fits.tolist() == [fit or k == 1] * 2
            assert _hex(measures._fsum_rows(terms)) == _fsum_hex(terms)

    def test_tiny_and_zero_rows(self):
        tiny = [
            [2.0**-1000, 2.0**-1001],  # a least exponent below -969: fsum
            [5e-324, 5e-324],  # subnormal terms and sum
            [2.0**-1022, -(2.0**-1023)],  # a subnormal sum
            [2.0**-900, 3 * 2.0**-901],  # fits
        ]
        terms = np.array(tiny + [[0.0, 0.0], [0.0, -1.5]])
        sums, fits = measures._int64_sums(terms)
        assert fits.tolist() == [False, False, False, True, True, True]
        assert _hex(measures._fsum_rows(terms)) == _fsum_hex(terms)
        assert sums[4].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("name", ["fig-a1", "fig-a2", "fig-b1", "fig-b2", "fig-e1", "fig-e2",
                                      "fig-f2", "fig-xor-1", "fig-xor-3"])
    def test_every_prefix_row_of_the_small_m_presets(self, monkeypatch, name):
        # every matrix and marginal sum of the preset at 3 replicates goes in
        # bulk here, and each of its rows is checked against fsum
        real = measures._fsum_rows
        rows = []

        def checked(terms):
            sums = real(terms)
            assert _hex(sums) == _fsum_hex(terms)
            rows.append(measures._int64_sums(terms)[1])
            return sums

        config = dataclasses.replace(preset(name), replicates=3)
        expected = run_experiment(config)
        monkeypatch.setattr(measures, "_BULK_ROWS", 1)
        monkeypatch.setattr(measures, "_fsum_rows", checked)
        assert run_experiment(config) == expected
        fits = np.concatenate(rows)
        assert len(fits) > 0 and fits.mean() > 0.5


class TestRowSumLayouts:
    """`_int64_sums` gives the same sums and fits, bit for bit, whether it
    reduces a matrix as it is, over axis 1, or as its contiguous transpose,
    over axis 0 (`_NARROW_ROW`)."""

    @staticmethod
    def _same_both_ways(monkeypatch, terms):
        monkeypatch.setattr(measures, "_NARROW_ROW", 0)
        assert measures._along_rows(terms)[1] == 1
        sums, fits = measures._int64_sums(terms)
        monkeypatch.setattr(measures, "_NARROW_ROW", 10**6)
        # a matrix of more rows than columns is transposed; another never is
        assert measures._along_rows(terms)[1] == (0 if len(terms) > terms.shape[1] else 1)
        narrow_sums, narrow_fits = measures._int64_sums(terms)
        assert np.array_equal(narrow_sums.view(np.int64), sums.view(np.int64))
        assert narrow_fits.tolist() == fits.tolist()
        return fits

    @pytest.mark.parametrize("rows", [1, 255, 256, 20_000])
    def test_random_rows_of_every_narrow_width(self, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        fits = []
        for width in range(1, 33):
            # exponents spread over 0 to 11 binades a row, as in TestBulkRowSums
            spread = rng.integers(0, 12, size=(rows, 1))
            exps = -rng.integers(0, spread + 1, size=(rows, width)) - rng.integers(0, 40, size=(rows, 1))
            terms = np.ldexp(rng.random((rows, width)) + 0.5, exps) * rng.choice([-1.0, 1.0], size=(rows, width))
            terms[rng.random((rows, width)) < 0.2] = 0.0
            fits.append(self._same_both_ways(monkeypatch, terms))
        if rows > 1:
            fits = np.concatenate(fits)
            assert 0 < fits.mean() < 1  # rows that fit and rows that fall back

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_tie_rows(self, monkeypatch, k):
        terms = TestBulkRowSums._tie_rows(np.random.default_rng(k), 300, k, -1)
        assert self._same_both_ways(monkeypatch, terms).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9])
    def test_rows_at_the_edge_of_int64(self, monkeypatch, k):
        # the largest mantissas at the widest shift that fits and one past
        # it, stacked with zero, tiny and subnormal rows
        room = 9 - (k - 1).bit_length()
        top = 1 - 2.0**-53
        rows = [[-top * 2.0**spread] * (k - 1) + [-top] for spread in (room, room + 1)]
        rows += [[0.0] * k, [5e-324] * k, [2.0**-1000] * k, [2.0**-900] * (k - 1) + [3 * 2.0**-901]]
        terms = np.array([sign * np.array(row) for row in rows for sign in (1, -1)] * 40)
        fits = self._same_both_ways(monkeypatch, terms)
        assert fits[:2].all() and (k == 1 or not fits[2:4].any())



class TestNarrowRowSums:
    """A matrix of one or two columns is summed with one IEEE add a row, to
    the float `math.fsum` gives, and so is the entropy of a count matrix of
    two columns."""

    @pytest.mark.parametrize("rows", [1, 255, 256, 20_000])
    def test_binary_count_rows(self, rows):
        rng = np.random.default_rng(rows)
        totals = rng.integers(1, 10**6, size=(rows, 1))
        first = rng.integers(0, totals + 1)
        first[1::4] = 0  # a zero term
        first[2::4] = totals[2::4]  # a count equal to the total
        counts = np.hstack([first, totals - first])
        p = counts / totals
        terms = p * np.log2(np.where(counts > 0, p, 1.0))
        for columns in (terms, terms[:, :1], terms[:, 1:]):
            assert _hex(measures._row_sums(columns)) == _fsum_hex(columns)
        assert _hex(measures.entropy_rows(counts)) == [_per_cell_entropy(row) for row in counts]
        if rows > 2:
            assert sorted(set(_hex(measures.entropy_rows(counts[1:3])))) == ["0x0.0p+0"]

    @pytest.mark.parametrize("rows", [1, 255, 256, 20_000])
    def test_random_floats_of_both_signs(self, rows):
        rng = np.random.default_rng(rows + 1)
        terms = np.ldexp(rng.random((rows, 2)) + 0.5, rng.integers(-60, 4, size=(rows, 2)))
        terms *= rng.choice([-1.0, 1.0], size=(rows, 2))
        terms[rng.random((rows, 2)) < 0.1] = 0.0
        terms[::7, 1] = -terms[::7, 0]  # sums that cancel to zero
        assert _hex(measures._row_sums(terms)) == _fsum_hex(terms)


def _per_cell_entropy(row):
    """The oracle: each cell's term by `entropy_rows`' NumPy operations over
    the whole row, then one `math.fsum` of all of them."""
    p = row / row.sum()
    terms = np.where(row > 0, p, 1.0)
    np.log2(terms, out=terms)
    terms *= p
    return (0.0 - math.fsum(terms.tolist())).hex()


class TestDistinctCountEntropy:
    """A wide count row's entropy, summed from one term per distinct count,
    is the per-cell fsum's float, bit for bit."""

    WIDE = measures._WIDE_ROW

    @staticmethod
    def _row(kind, width, rng):
        if kind == "poisson":  # about ten rows a cell, as under the 10x rule
            return rng.poisson(10, width)
        if kind == "sparse":  # about one row a cell, zeros included
            return rng.integers(0, 3, width)
        if kind == "distinct":
            return rng.permutation(width) + 1
        if kind == "repeated":
            return np.full(width, 7)
        # counts up to 2**40, their total below 2**63
        return rng.integers(0, 2**40, width, endpoint=True)

    @pytest.mark.parametrize("kind", ["poisson", "sparse", "distinct", "repeated", "huge"])
    @pytest.mark.parametrize("width", [1023, 1024, 1025, 4096, 65_536, 200_000])
    def test_rows_match_a_per_cell_fsum(self, kind, width, monkeypatch):
        rng = np.random.default_rng(width + len(kind))
        counts = np.array([self._row(kind, width, rng) for _ in range(3)], dtype=np.int64)
        counts[:, 0] += 1  # no row is all zeros
        assert counts.sum(axis=1).max() < 2**63
        distinct = []
        real = measures._distinct_sum
        monkeypatch.setattr(measures, "_distinct_sum", lambda row: distinct.append(row) or real(row))
        assert _hex(measures.entropy_rows(counts)) == [_per_cell_entropy(row) for row in counts]
        assert len(distinct) == (3 if width >= self.WIDE else 0)

    def test_many_random_rows_and_a_batch_in_bulk(self, monkeypatch):
        rng = np.random.default_rng(34)
        rows = [rng.multinomial(int(rng.integers(1, 10**6)), rng.dirichlet(np.full(w, 0.5)))
                for w in rng.integers(self.WIDE, 3 * self.WIDE, size=100)]
        width = max(map(len, rows))
        counts = np.zeros((len(rows), width), np.int64)
        for block, row in zip(counts, rows):
            block[: len(row)] = row
        expected = [_per_cell_entropy(row) for row in counts]
        assert _hex(measures.entropy_rows(counts)) == expected
        monkeypatch.setattr(measures, "_BULK_ROWS", 1)  # the same rows in bulk
        assert _hex(measures.entropy_rows(counts)) == expected

    @pytest.mark.parametrize("top", [2**26, 2**27, 2**40, 2**53 - 1])
    def test_products_sum_exactly(self, top):
        # multiplicities up to `top`, at the split's bounds and past 2**27,
        # where a term's 26-bit half times a whole multiplicity would round
        rng = np.random.default_rng(top % 1009)
        p = rng.random(4000) ** 8
        terms = p * np.log2(p)
        terms[:3] = (0.0, -0.5, -(2.0**-60) * 60)
        multiplicities = rng.integers(1, top, size=len(terms), endpoint=True)
        multiplicities[:4] = (top, top - 1, 2**26 - 1, 1)
        parts = measures._exact_products(terms, multiplicities)
        exact = [Fraction(t) * m for t, m in zip(terms.tolist(), multiplicities.tolist())]
        assert sum(map(Fraction, parts.tolist())) == sum(exact)
        assert math.fsum(parts.tolist()) == float(sum(exact))  # the exact sum, rounded once
        unsplit = (terms * multiplicities).tolist()
        assert any(Fraction(u) != e for u, e in zip(unsplit, exact))  # which an unsplit product is not

    def test_a_row_past_the_split_bound_stays_exact(self):
        # a row of 2**27 + 3 cells of one count (a GiB of int64, so it is
        # given by its distinct counts and their multiplicities): its per-cell
        # fsum is its exact sum of terms rounded once, and so is this sum
        values = np.array([0, 1, 2, 3, 5], dtype=np.int64)
        multiplicities = np.array([9, 2**27 + 3, 1, 2**30 + 7, 1], dtype=np.int64)
        terms = measures._terms(values, int(values @ multiplicities))
        exact = sum(Fraction(t) * m for t, m in zip(terms.tolist(), multiplicities.tolist()))
        parts = measures._exact_products(terms, multiplicities).tolist()
        assert math.fsum(parts) == float(exact)
        unsplit = (terms * multiplicities).tolist()
        assert any(Fraction(u) != Fraction(t) * m for u, t, m in zip(unsplit, terms.tolist(), multiplicities.tolist()))


def _segments(seed, count, m, cards):
    """`count` samples of m rows over `cards`, each drawn over its own part
    of each column's codes, so the segments see different cells."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        columns = []
        for c in cards:
            lo = int(rng.integers(0, max(1, c - 1)))
            hi = min(c, lo + 1 + int(rng.integers(0, min(c, 8))))
            columns.append(rng.integers(lo, hi, size=m))
        out.append(CategoricalSample.from_columns(columns, cards))
    return out


def _stacked(segments):
    """One sample holding the rows of `segments`, one after another."""
    return CategoricalSample(np.concatenate([s.codes for s in segments]), segments[0].cardinalities)


def _seen(block):
    """A count block with the columns it never counts dropped."""
    return block[:, block.any(axis=0)]


class TestPeriod:
    """`prefix_counts` of stacked segments of m rows counts each segment as
    it is counted alone."""

    @pytest.mark.parametrize("cards, m, prefixes", [
        ((2, 2, 2), 150, list(range(8, 151))),  # dense
        ((3, 5), 40, [1, 7, 39]),  # dense, the last rows of each segment left out
        ((40, 40, 7), 300, [10, 150, 300]),  # renumbered
        ((2,) * 12, 60, [5, 30, 60]),  # renumbered, binary
        ((1 << 40, 1 << 30), 50, [20, 50]),  # past int64: rows of codes
    ])
    @pytest.mark.parametrize("limit", [None, "whole", "cut"])
    def test_segments_are_counted_as_alone(self, monkeypatch, cards, m, prefixes, limit):
        segments = _segments(len(cards) + m, 5, m, cards)
        stack = _stacked(segments)
        cols = range(len(cards))
        own = [list(prefix_counts(s, *_key(s, cols, prefixes), True)) for s in segments]
        dense = math.prod(cards) <= sample_module._DENSE_FILL * prefixes[-1]
        if limit is not None:
            # a chunk holds two segments (one where the joint is renumbered,
            # segment by segment), or half a segment's prefixes
            width = math.prod(cards) if dense else max(chunks[0][0].shape[1] for chunks in own)
            per = 2 * len(prefixes) if limit == "whole" else len(prefixes) // 2
            monkeypatch.setattr(sample_module, "_DENSE_CELL_LIMIT", per * width)
        chunks = list(prefix_counts(stack, *_key(stack, cols, prefixes, m), True))
        if dense:  # one chunk, 3 of two segments, or half a segment's prefixes each
            cut = 5 * -(-len(prefixes) // max(1, len(prefixes) // 2))
            assert len(chunks) == {None: 1, "whole": 3, "cut": cut}[limit]
        else:  # a segment a chunk, and the widest segment cut
            assert len(chunks) > 5 if limit == "cut" else len(chunks) == 5
        for counts, _ in chunks:
            assert counts.size <= sample_module._DENSE_CELL_LIMIT or len(counts) == 1
        n = len(prefixes)
        assert sum(len(counts) for counts, _ in chunks) == 5 * n
        # within a chunk, the rows of one segment hold the cells the segment
        # sees at those prefixes alone, in the same order
        first = 0
        for counts, members in chunks:
            for g in range(first, first + len(counts)):
                if g % n and g != first:
                    continue  # not the first row of a segment's block
                s, k = divmod(g, n)
                stop = min(first + len(counts), (s + 1) * n)
                rows = slice(g - first, stop - first)
                mine = np.concatenate([c for c, _ in own[s]])[k : k + stop - g]
                assert _seen(counts[rows]).tolist() == _seen(mine).tolist()
                for j in cols if dense else ():
                    mine = np.concatenate([ms[j] for _, ms in own[s]])[k : k + stop - g]
                    assert _seen(members[j][rows]).tolist() == _seen(mine).tolist()
            first += len(counts)
        if not dense:  # no member counts, and each member counted alone per segment
            assert all(members == [] for _, members in chunks)
            subset_entropies(stack, cols, prefixes, period=m)
            for c in cols:
                assert ((c,), tuple(prefixes), m) not in stack._entropies
                expected = [v for s in segments for v in subset_entropies(s, [c], prefixes)]
                assert _hex(subset_entropies(stack, [c], prefixes, period=m)) == _hex(expected)

    @pytest.mark.parametrize("cards, m", [((2, 2, 2), 150), ((40, 40, 7), 300), ((3, 4, 5, 2), 90)])
    def test_entropies_of_each_segment(self, cards, m):
        segments = _segments(m, 4, m, cards)
        stack = _stacked(segments)
        prefixes = list(range(1, m + 1))  # 4 x m rows: in bulk
        cols = list(range(len(cards)))
        alone = [v for s in segments for v in subset_entropies(s, cols, prefixes)]
        assert _hex(subset_entropies(stack, cols, prefixes, period=m)) == _hex(alone)
        values, degenerate = msu_values(stack, cols, prefixes, m)
        for s, segment in enumerate(segments):
            own, own_degenerate = msu_values(segment, cols, prefixes)
            assert _hex(values[s * m : (s + 1) * m]) == _hex(own)
            assert degenerate[s * m : (s + 1) * m].tolist() == own_degenerate.tolist()
        # a column's entropies are stored under the period too, and match it alone
        for c in cols:
            assert _hex(stack._entropies[(c,), tuple(prefixes), m]) == _hex(
                [v for s in segments for v in subset_entropies(s, [c], prefixes)]
            )

    def test_a_period_of_all_rows_is_no_period(self):
        sample = _segments(1, 1, 30, (3, 3))[0]
        with_period, without = msu_values(sample, [0, 1], [10, 30], 30), msu_values(sample, [0, 1], [10, 30])
        assert with_period[0].tolist() == without[0].tolist()
        assert set(sample._entropies) == {((0, 1), (10, 30), 30), ((0,), (10, 30), 30), ((1,), (10, 30), 30)}
        assert subset_entropies(sample, [0], period=30) == subset_entropies(sample, [0])

    def test_default_prefix_is_a_whole_segment(self):
        segments = _segments(2, 3, 20, (4, 2))
        stack = _stacked(segments)
        assert subset_entropies(stack, [0, 1], period=20) == tuple(
            v for s in segments for v in subset_entropies(s, [0, 1])
        )

    @pytest.mark.parametrize("period, match", [
        (7, "does not divide"),
        (0, "does not divide"),
        (-20, "does not divide"),
        (True, "must be an integer"),
        (20.0, "must be an integer"),
        ("20", "must be an integer"),
    ])
    def test_bad_period_rejected(self, period, match):
        stack = _stacked(_segments(3, 3, 20, (2, 2)))
        for call in (
            lambda: subset_entropies(stack, [0, 1], [5], period),
            lambda: msu_values(stack, [0, 1], [5], period),
        ):
            with pytest.raises(InvalidInputError, match=match):
                call()

    @pytest.mark.parametrize("prefixes, period, message", [
        ([5], 7, "a period of 7 rows does not divide the sample's 60"),
        # the period is checked first, before prefixes that are bad too
        ([5, 3], 7, "a period of 7 rows does not divide the sample's 60"),
        ([61], 7, "a period of 7 rows does not divide the sample's 60"),
        ([5, 3], 20, r"prefixes must be strictly ascending and positive, got \[5, 3\]"),
        ([5, 3], None, r"prefixes must be strictly ascending and positive, got \[5, 3\]"),
        ([5, 61], None, "prefix of 61 rows exceeds the sample's 60"),
        ([5, 61], 20, "prefix of 61 rows exceeds the sample's 60"),
        ([5, 21], 20, "prefix of 21 rows exceeds the period of 20"),
    ])
    def test_period_then_prefixes_rejected(self, prefixes, period, message):
        # one rule, `normalize_prefixes`, for both entry points
        stack = _stacked(_segments(3, 3, 20, (2, 2)))
        for call in (
            lambda: subset_entropies(stack, [0, 1], prefixes, period),
            lambda: msu_values(stack, [0, 1], prefixes, period),
        ):
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                call()
        assert stack._entropies == {}


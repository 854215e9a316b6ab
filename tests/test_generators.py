"""Tests for the synthetic attribute generators and dataset assembly."""

import math

import numpy as np
import pytest
from scipy import stats

from msulab import (
    msu,
    AttributeBlock,
    CategoricalSample,
    GeneratorKind,
    InvalidInputError,
    SeededRng,
    binary_entropy,
    block,
    gen_class,
    gen_kononenko,
    gen_uniform,
    gen_xor_pair,
    generate_dataset,
    kononenko_first_half_prob,
    symmetrical_uncertainty,
    xor_population_msu,
)
from msulab.dataset import check_xor_class
from msulab.generators import check_k, check_xor_noise


def _rng(seed=4242, stream=0, *path):
    return SeededRng(seed, stream).stream(*path) if path else SeededRng(seed, stream).stream(1, 0)


class TestSeededRng:
    def test_same_key_same_stream(self):
        a = SeededRng(11, 3).stream(2, 0).random(100)
        b = SeededRng(11, 3).stream(2, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(11, 3).stream(2, 0).random(100)
        b = SeededRng(11, 4).stream(2, 0).random(100)
        c = SeededRng(11, 3).stream(2, 1).random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            SeededRng(-1)


class TestGenClass:
    def test_frequencies_within_three_sigma(self):
        m = 100_000
        col = gen_class(2, m, _rng())
        sigma = math.sqrt(m * 0.25)
        assert abs(int((col == 0).sum()) - m / 2) <= 3 * sigma

    def test_same_seed_identical(self):
        a = gen_class(10, 500, _rng(7))
        b = gen_class(10, 500, _rng(7))
        assert np.array_equal(a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_class(2, 0, _rng())

    def test_single_value_class_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_class(1, 10, _rng())


class TestGenUniform:
    def test_chi_squared_uniformity(self):
        m = 100_000
        for card in (2, 5, 10):
            col = gen_uniform(card, m, _rng(100 + card))
            counts = np.bincount(col, minlength=card)
            assert stats.chisquare(counts).pvalue > 0.01

    def test_independent_of_class_at_scale(self):
        m = 100_000
        seeded = SeededRng(5150, 0)
        cls = gen_class(2, m, seeded.stream(0, 0))
        attr = gen_uniform(2, m, seeded.stream(1, 0))
        sample = CategoricalSample.from_columns([attr, cls], (2, 2))
        assert symmetrical_uncertainty(sample, 0, 1).value < 0.001

    def test_prefix_stability(self):
        long = gen_uniform(5, 150, _rng(9))
        short = gen_uniform(5, 80, _rng(9))
        assert np.array_equal(long[:80], short)


class TestKononenkoProbability:
    def test_known_values(self):
        assert kononenko_first_half_prob(1, 1.0, 2) == pytest.approx(2 / 3, abs=1e-15)
        assert kononenko_first_half_prob(2, 1.0, 2) == 0.25
        assert kononenko_first_half_prob(2, 1.0, 10) == pytest.approx(1 / 12, abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            kononenko_first_half_prob(0, 1.0, 2)
        with pytest.raises(InvalidInputError):
            kononenko_first_half_prob(3, 1.0, 2)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(InvalidInputError):
            kononenko_first_half_prob(1, 0.0, 2)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(InvalidInputError, match="informativeness"):
            kononenko_first_half_prob(1, k, 2)


class TestGenKononenko:
    def test_even_cardinality_split(self):
        cls = gen_class(2, 2000, _rng(1))
        col = gen_kononenko(cls, 4, 1.0, _rng(2), class_card=2)
        assert col.min() >= 0 and col.max() <= 3
        assert set(np.unique(col)) == {0, 1, 2, 3}

    def test_odd_cardinality_split(self):
        # lower half {0, 1}, upper half {2, 3, 4}
        cls = gen_class(2, 5000, _rng(3))
        col = gen_kononenko(cls, 5, 1.0, _rng(4), class_card=2)
        assert set(np.unique(col)) == {0, 1, 2, 3, 4}
        lower = col < 2
        for i in (1, 2):
            mask = cls == i - 1
            p_hat = lower[mask].mean()
            assert abs(p_hat - kononenko_first_half_prob(i, 1.0, 2)) < 0.05

    def test_half_selection_frequency(self):
        m = 100_000
        cls = gen_class(2, m, _rng(5))
        col = gen_kononenko(cls, 2, 1.0, _rng(6), class_card=2)
        for i in (1, 2):
            mask = cls == i - 1
            p_hat = (col[mask] == 0).mean()
            assert abs(p_hat - kononenko_first_half_prob(i, 1.0, 2)) < 0.01

    def test_within_half_uniform(self):
        m = 100_000
        cls = gen_class(2, m, _rng(7))
        col = gen_kononenko(cls, 6, 1.0, _rng(8), class_card=2)
        lower_counts = np.bincount(col[col < 3], minlength=3)
        upper_counts = np.bincount(col[col >= 3] - 3, minlength=3)
        assert stats.chisquare(lower_counts).pvalue > 0.01
        assert stats.chisquare(upper_counts).pvalue > 0.01

    def test_cardinality_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_kononenko(np.array([0, 1]), 1, 1.0, _rng())


class TestGenXorPair:
    def test_no_noise_is_pure_xor(self):
        f1, f2, cls = gen_xor_pair(5000, 0.0, _rng(10))
        assert np.array_equal(cls, f1 ^ f2)

    def test_noise_rate(self):
        f1, f2, cls = gen_xor_pair(100_000, 0.05, _rng(11))
        agreement = (cls == (f1 ^ f2)).mean()
        assert abs(agreement - 0.95) < 0.01

    def test_same_seed_identical(self):
        a = gen_xor_pair(300, 0.05, _rng(12))
        b = gen_xor_pair(300, 0.05, _rng(12))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_half_or_more_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_xor_pair(10, 0.5, _rng())

    def test_population_msu_values(self):
        assert xor_population_msu(0.0) == 0.5
        assert xor_population_msu(0.05) == pytest.approx(0.3568015214420219, abs=1e-15)
        assert xor_population_msu(0.05) == pytest.approx((1 - binary_entropy(0.05)) / 2, abs=1e-15)

    def test_collectivity_at_scale(self):
        # each attribute alone is uninformative; the triple is not
        f1, f2, cls = gen_xor_pair(100_000, 0.05, _rng(404))
        sample = CategoricalSample.from_columns([f1, f2, cls], (2, 2, 2))
        assert symmetrical_uncertainty(sample, 0, 2).value < 0.001
        assert symmetrical_uncertainty(sample, 1, 2).value < 0.001
        assert msu(sample, [0, 1, 2]).value == pytest.approx(0.3568, abs=0.005)


class TestGeneratorSpec:
    """Checks on a generator's parameters: family, cardinality, k and noise."""

    def test_xor_requires_binary(self):
        with pytest.raises(InvalidInputError, match="cardinality 2"):
            AttributeBlock(("a", "b"), GeneratorKind.XOR_PAIR, 3)
        with pytest.raises(InvalidInputError, match="class cardinality 2"):
            check_xor_class(3)

    def test_kononenko_requires_two_values(self):
        with pytest.raises(InvalidInputError):
            AttributeBlock(("a",), GeneratorKind.KONONENKO, 1)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_kononenko_k_must_be_finite_and_positive(self, k):
        with pytest.raises(InvalidInputError, match="informativeness"):
            check_k(k)

    def test_valid_specs(self):
        AttributeBlock(("a",), GeneratorKind.UNIFORM, 7)
        AttributeBlock(("a",), GeneratorKind.KONONENKO, 4)
        AttributeBlock(("a", "b"), GeneratorKind.XOR_PAIR, 2)
        check_k(2.0)
        check_xor_noise(0.1)
        check_xor_class(2)


class TestGenerateDataset:
    def test_layout_and_names(self):
        sample = generate_dataset(
            20, 2, [block("mk", GeneratorKind.KONONENKO, 2, 3), block("u", GeneratorKind.UNIFORM, 1, 4)],
            SeededRng(21, 0),
        )
        assert sample.column_names == ("mk1", "mk2", "u1", "clase")
        assert sample.cardinalities == (3, 3, 4, 2)
        assert sample.n_rows == 20

    def test_pure_function_of_seed(self):
        blocks = [block("f", GeneratorKind.UNIFORM, 3, 2)]
        a = generate_dataset(50, 2, blocks, SeededRng(5, 9))
        b = generate_dataset(50, 2, blocks, SeededRng(5, 9))
        assert np.array_equal(a.codes, b.codes)

    def test_row_prefix_stability(self):
        blocks = [
            block("x", GeneratorKind.XOR_PAIR, 2, 2),
            block("mk", GeneratorKind.KONONENKO, 2, 4),
            block("u", GeneratorKind.UNIFORM, 2, 3),
        ]
        short = generate_dataset(80, 2, blocks, SeededRng(31, 2))
        long = generate_dataset(150, 2, blocks, SeededRng(31, 2))
        assert np.array_equal(long.codes[:80], short.codes)

    def test_placeholder_slots_keep_streams_stable(self):
        shared = block("u", GeneratorKind.UNIFORM, 2, 5)
        with_first = generate_dataset(
            40, 2, [block("mk", GeneratorKind.KONONENKO, 3, 2), shared], SeededRng(77, 0)
        )
        without_first = generate_dataset(40, 2, [None, shared], SeededRng(77, 0))
        for name in ("u1", "u2", "clase"):
            a = with_first.codes[:, with_first.column_index(name)]
            b = without_first.codes[:, without_first.column_index(name)]
            assert np.array_equal(a, b)

    def test_growing_a_block_keeps_existing_columns(self):
        narrow = generate_dataset(40, 2, [block("u", GeneratorKind.UNIFORM, 2, 3)], SeededRng(13, 1))
        wide = generate_dataset(40, 2, [block("u", GeneratorKind.UNIFORM, 4, 3)], SeededRng(13, 1))
        for name in ("u1", "u2", "clase"):
            assert np.array_equal(
                narrow.codes[:, narrow.column_index(name)],
                wide.codes[:, wide.column_index(name)],
            )

    def test_xor_derives_class(self):
        sample = generate_dataset(
            4000, 2, [block("f", GeneratorKind.XOR_PAIR, 2, 2)], SeededRng(55, 0), xor_noise=0.0
        )
        f1, f2, cls = sample.codes.T
        assert np.array_equal(cls, f1 ^ f2)

    def test_two_xor_blocks_rejected(self):
        blocks = [block("a", GeneratorKind.XOR_PAIR, 2, 2), block("b", GeneratorKind.XOR_PAIR, 2, 2)]
        with pytest.raises(InvalidInputError):
            generate_dataset(10, 2, blocks, SeededRng(1, 0))

    def test_xor_with_wide_class_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(10, 4, [block("f", GeneratorKind.XOR_PAIR, 2, 2)], SeededRng(1, 0))

    def test_duplicate_names_rejected(self):
        blocks = [block("f", GeneratorKind.UNIFORM, 2, 2), block("f", GeneratorKind.UNIFORM, 2, 2)]
        with pytest.raises(InvalidInputError):
            generate_dataset(10, 2, blocks, SeededRng(1, 0))

    def test_all_codes_respect_cardinalities(self):
        blocks = [
            block("x", GeneratorKind.XOR_PAIR, 2, 2),
            block("mk", GeneratorKind.KONONENKO, 3, 5),
            block("u", GeneratorKind.UNIFORM, 2, 7),
        ]
        sample = generate_dataset(3000, 2, blocks, SeededRng(88, 4))
        for j, card in enumerate(sample.cardinalities):
            col = sample.codes[:, j]
            assert col.min() >= 0 and col.max() < card


class TestAttributeBlock:
    def test_xor_block_needs_two_columns(self):
        with pytest.raises(InvalidInputError):
            AttributeBlock(("a",), GeneratorKind.XOR_PAIR, 2)

    def test_counts_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            block("f", GeneratorKind.UNIFORM, 0, 2)

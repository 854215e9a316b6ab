"""Tests for the synthetic attribute generators and dataset assembly."""

import itertools
import math
import re
import tracemalloc

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
    block,
    generate_dataset,
    symmetrical_uncertainty,
)
from msulab import dataset, harness
from msulab.dataset import check_xor_class
from msulab.generators import (
    _RAW_BLOCK_ROWS,
    _XOR_BLOCK_ROWS,
    check_card,
    check_k,
    check_m,
    check_xor_noise,
    fill_kononenko,
    fill_uniform,
    fill_xor_pair,
    row_first_half_probs,
)
from msulab.presets import preset
from msulab.measures import subset_entropies
from oracle_utils import (
    binary_entropy,
    expected_plugin_entropy,
    kononenko_cell_probs,
    kononenko_codes,
    kononenko_first_half_prob,
    xor_population_msu,
)


def _rng(seed=4242, stream=0, *path):
    return SeededRng(seed, stream).stream(*path) if path else SeededRng(seed, stream).stream(1, 0)


def _uniform(card, m, rng, dtype=np.int64):
    """The codes `fill_uniform` writes into a fresh column."""
    out = np.empty(m, dtype=dtype)
    fill_uniform(out, card, rng)
    return out


def _kononenko(cls, card, k, rng, class_card, dtype=np.int64):
    """The codes `fill_kononenko` writes into a fresh column, at the
    thresholds `generate_dataset` gives it for the class column `cls`."""
    out = np.empty(len(cls), dtype=dtype)
    fill_kononenko(out, row_first_half_probs(cls, k, class_card), card, rng)
    return out


def _xor_pair(m, noise, rng):
    """f1, f2 and the class as `fill_xor_pair` writes them into a fresh matrix."""
    f1, f2, cls = np.empty((m, 3), dtype=np.int64, order="F").T
    fill_xor_pair(f1, f2, cls, noise, rng)
    return f1, f2, cls


def _assert_same_position(ours, theirs):
    """Two generators give the same numbers from here on: their next draws,
    32-bit halves first, then whole words, are equal."""
    a, b = ([rng.integers(0, 2**32, size=3, dtype=np.int64), rng.random(3)] for rng in (ours, theirs))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


class _HalfDraws:
    """A stand-in generator whose half draws are given and whose member draws are 0."""

    def __init__(self, half):
        self.half = half

    def random(self, shape):
        return np.column_stack([self.half, np.zeros(shape[0])])


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

    def test_seed_and_stream_id_are_integers(self):
        for build in (lambda: SeededRng(1.5), lambda: SeededRng(1, 2.0), lambda: SeededRng("7"),
                      lambda: SeededRng(True), lambda: SeededRng(1, False)):
            with pytest.raises(InvalidInputError, match="must be an integer"):
                build()
        a = SeededRng(np.uint32(11), np.int64(3))
        assert (type(a.master_seed), type(a.stream_id)) == (int, int)
        assert np.array_equal(a.stream(2, 0).random(5), SeededRng(11, 3).stream(2, 0).random(5))

    def test_a_stream_starts_with_no_half_left_over(self):
        # `fill_uniform`'s raw-word path rests on this: a fresh stream's
        # next 32-bit values are the halves of its next words
        for seed, replicate, path in ((1, 0, (0, 0)), (20170707, 999, (3, 1)), (0, 5, (1,))):
            bits = SeededRng(seed, replicate).stream(*path).bit_generator
            assert type(bits) is np.random.PCG64
            assert bits.state["has_uint32"] == 0

    def test_random_is_the_top_53_bits_of_each_raw_word(self):
        # the Kononenko and XOR columns rest on `Generator.random`, which
        # NumPy documents as (word >> 11) * 2**-53 of each 64-bit word; if a
        # release draws it otherwise, this names the method that moved
        for seed, replicate, path in ((1, 0, (0, 0)), (20170707, 999, (3, 1)), (0, 5, (1,))):
            for n in (1, 2, 1001):
                ours = SeededRng(seed, replicate).stream(*path).random(n)
                words = SeededRng(seed, replicate).stream(*path).bit_generator.random_raw(n)
                assert np.array_equal(ours, (words >> np.uint64(11)) * 2.0**-53), (seed, path, n)


class TestGenClass:
    """A class column with no XOR pair is a uniform column on stream (0, 0)."""

    def test_frequencies_within_three_sigma(self):
        m = 100_000
        col = _uniform(2, m, _rng())
        sigma = math.sqrt(m * 0.25)
        assert abs(int((col == 0).sum()) - m / 2) <= 3 * sigma

    def test_same_seed_identical(self):
        a = _uniform(10, 500, _rng(7))
        b = _uniform(10, 500, _rng(7))
        assert np.array_equal(a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(0, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], SeededRng(1))

    def test_single_value_class_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(10, 1, [block("u", GeneratorKind.UNIFORM, 1, 2)], SeededRng(1))


class TestGenUniform:
    def test_chi_squared_uniformity(self):
        m = 100_000
        for card in (2, 5, 10):
            col = _uniform(card, m, _rng(100 + card))
            counts = np.bincount(col, minlength=card)
            assert stats.chisquare(counts).pvalue > 0.01

    def test_independent_of_class_at_scale(self):
        m = 100_000
        seeded = SeededRng(5150, 0)
        cls = _uniform(2, m, seeded.stream(0, 0))
        attr = _uniform(2, m, seeded.stream(1, 0))
        sample = CategoricalSample.from_columns([attr, cls], (2, 2))
        assert symmetrical_uncertainty(sample, 0, 1).value < 0.001

    def test_prefix_stability(self):
        long = _uniform(5, 150, _rng(9))
        short = _uniform(5, 80, _rng(9))
        assert np.array_equal(long[:80], short)


class TestUniformDrawRule:
    """Every uniform column, written from a fresh stream, has the codes of
    `integers`' int64 draw; a power-of-two one is read from the stream's
    raw words, which holds only while NumPy draws it from their 32-bit
    halves."""

    @staticmethod
    def _assert_integers_draw(card, m, ours, theirs):
        codes = _uniform(card, m, ours)
        assert np.array_equal(codes, theirs.integers(0, card, size=m, dtype=np.int64)), (card, m)

    @pytest.mark.parametrize("b", range(1, 33))
    def test_power_of_two_column_is_the_integers_draw(self, b):
        for seed in (1, 2, 3):
            for m in (1, 2, 3, 1001, _RAW_BLOCK_ROWS - 1, _RAW_BLOCK_ROWS, _RAW_BLOCK_ROWS + 1):
                self._assert_integers_draw(2**b, m, _rng(seed), _rng(seed))

    @pytest.mark.parametrize("card", [3, 10, 40, 2**32 - 1, 2**32 + 1, 2**33, 2**63 - 1])
    def test_other_cardinalities_are_the_integers_draw(self, card):
        for m in (1, 2, 1001):
            self._assert_integers_draw(card, m, _rng(4), _rng(4))

    @pytest.mark.parametrize("card", [2, 7, 16])
    def test_class_column_is_the_uniform_column(self, card):
        blocks = [block("u", GeneratorKind.UNIFORM, 1, 2)]
        for m in (3, 1001):
            sample = generate_dataset(m, card, blocks, SeededRng(5))
            theirs = SeededRng(5).stream(0, 0)
            assert np.array_equal(sample.codes[:, -1], theirs.integers(0, card, size=m, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="class cardinality must be at least 2"):
            generate_dataset(3, 1, blocks, SeededRng(5))


class TestIntegerArguments:
    """Row counts and cardinalities are integers (NumPy ones included), never
    truncated to one."""

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda: AttributeBlock(("u",), GeneratorKind.UNIFORM, 2.5), "cardinality"),
            (lambda: generate_dataset(5.0, 2, [block("u", GeneratorKind.UNIFORM, 1, 4)], SeededRng(1)),
             "sample size"),
            (lambda: generate_dataset(5, 2.0, [block("k", GeneratorKind.KONONENKO, 1, 2)], SeededRng(1)),
             "class cardinality"),
            (lambda: AttributeBlock(("k",), GeneratorKind.KONONENKO, 2.5), "cardinality"),
            (lambda: generate_dataset(5, 2.5, [block("k", GeneratorKind.KONONENKO, 1, 2)], SeededRng(1)),
             "class cardinality"),
            (lambda: generate_dataset(10.9, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], SeededRng(1)),
             "sample size"),
            (lambda: generate_dataset(10, 2.0, [block("u", GeneratorKind.UNIFORM, 1, 2)], SeededRng(1)),
             "class cardinality"),
            (lambda: generate_dataset(10, 2.0, [block("x", GeneratorKind.XOR_PAIR, 2, 2)], SeededRng(1)),
             "class cardinality"),
            (lambda: generate_dataset(
                10, 2, [AttributeBlock(("u",), GeneratorKind.UNIFORM, 2.5)], SeededRng(1)
            ), "cardinality"),
            (lambda: block("u", GeneratorKind.UNIFORM, 2.5, 2), "block count"),
            # a block checks its cardinality when it is built
            (lambda: AttributeBlock(("a",), GeneratorKind.UNIFORM, 2.5), "cardinality"),
            (lambda: AttributeBlock(("a",), GeneratorKind.UNIFORM, "3"), "cardinality"),
            (lambda: AttributeBlock(("a",), GeneratorKind.KONONENKO, True), "cardinality"),
            (lambda: AttributeBlock(("u",), GeneratorKind.UNIFORM, True), "cardinality"),
        ],
        ids=["uniform-card", "uniform-m", "class-card", "kononenko-card", "kononenko-class-card",
             "dataset-m", "dataset-class-card", "xor-class-card", "block-card", "block-count",
             "attribute-block-card", "attribute-block-card-string", "attribute-block-card-bool",
             "uniform-card-bool"],
    )
    def test_non_integers_rejected(self, call, what):
        with pytest.raises(InvalidInputError, match=f"^{what} must be an integer"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: generate_dataset(5, 2, [block("k", GeneratorKind.KONONENKO, 1, 2)], SeededRng(1), k="1"),
             "informativeness k must be a finite number, got '1'"),
            (lambda: generate_dataset(5, 2, [block("k", GeneratorKind.KONONENKO, 1, 2)], SeededRng(1), k=True),
             "informativeness k must be a finite number, got True"),
            (lambda: generate_dataset(
                5, 2, [block("x", GeneratorKind.XOR_PAIR, 2, 2)], SeededRng(1), xor_noise="0.1"
            ), "noise must be a finite number, got '0.1'"),
            (lambda: generate_dataset(
                5, 2, [block("x", GeneratorKind.XOR_PAIR, 2, 2)], SeededRng(1), xor_noise=False
            ), "noise must be a finite number, got False"),
            (lambda: check_k(None), "informativeness k must be a finite number, got None"),
            # a value of the right type out of range keeps its range's message
            (lambda: check_k(-1), r"informativeness k must be finite and positive, got -1"),
            (lambda: check_k(10**400), r"informativeness k must be finite and positive, got at least 2\*\*1328"),
            (lambda: check_k(-(10**5000)), r"informativeness k must be finite and positive, got at most -2\*\*16609"),
            (lambda: check_xor_noise(math.nan), r"noise must lie in \[0, 0.5\), got nan"),
            (lambda: check_xor_noise(np.float64(0.5)), r"noise must lie in \[0, 0.5\), got 0.5"),
        ],
        ids=["k-string", "k-bool", "noise-string", "noise-bool", "k-none", "k-negative",
             "k-int-past-float", "k-int-too-long-to-print", "noise-nan", "noise-numpy"],
    )
    def test_non_numbers_rejected(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            call()

    def test_numpy_integers_accepted(self):
        uniform = [AttributeBlock(("u",), GeneratorKind.UNIFORM, np.uint8(4))]
        assert generate_dataset(np.int64(9), np.int32(3), uniform, SeededRng(1)) == generate_dataset(
            9, 3, [AttributeBlock(("u",), GeneratorKind.UNIFORM, 4)], SeededRng(1)
        )
        kononenko = [AttributeBlock(("k",), GeneratorKind.KONONENKO, np.int64(2))]
        assert generate_dataset(4, np.uint8(2), kononenko, SeededRng(1)) == generate_dataset(
            4, 2, [AttributeBlock(("k",), GeneratorKind.KONONENKO, 2)], SeededRng(1)
        )
        blocks = [block("u", GeneratorKind.UNIFORM, np.uint8(1), np.int64(4))]
        assert generate_dataset(np.int64(10), np.uint8(2), blocks, SeededRng(1)) == generate_dataset(
            10, 2, [block("u", GeneratorKind.UNIFORM, 1, 4)], SeededRng(1)
        )


class TestNamesAndArguments:
    """Names are a list or tuple of strings, never a string read letter by
    letter; `generate_dataset` takes a list or tuple of blocks and a
    `SeededRng`."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: AttributeBlock("ab", "uniform", 2),
             r"attribute block names must be a list or tuple of str, got 'ab'$"),
            (lambda: AttributeBlock(("a", 1), "uniform", 2),
             r"attribute block names must be a list or tuple of str, got \('a', 1\)$"),
            (lambda: AttributeBlock(None, "uniform", 2),
             r"attribute block names must be a list or tuple of str, got None$"),
            (lambda: generate_dataset(4, 2, [AttributeBlock("ab", "uniform", 2)], SeededRng(1)),
             r"attribute block names must be a list or tuple of str, got 'ab'$"),
            (lambda: generate_dataset(4, 2, None, SeededRng(1)),
             r"dataset blocks must be a list or tuple, got None$"),
            (lambda: generate_dataset(4, 2, block("u", GeneratorKind.UNIFORM, 1, 2), SeededRng(1)),
             r"dataset blocks must be a list or tuple, got AttributeBlock\("),
            (lambda: generate_dataset(4, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], None),
             r"rng must be a SeededRng, got None$"),
            (lambda: generate_dataset(4, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], rng=7),
             r"rng must be a SeededRng, got 7$"),
        ],
        ids=["block-string", "block-non-string", "block-none", "dataset-string-block",
             "blocks-none", "blocks-one-block", "rng-none", "rng-int"],
    )
    def test_malformed_rejected(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            call()

    def test_names_are_stored_as_a_tuple(self):
        assert AttributeBlock(["a", "b"], "uniform", 2) == AttributeBlock(("a", "b"), "uniform", 2)
        sample = generate_dataset(4, 2, (AttributeBlock(["a", "b"], "uniform", 2),), SeededRng(1))
        assert sample.column_names == ("a", "b", "clase")


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

    @pytest.mark.parametrize("n, k, class_card", [(2, 1.0, 2), (3, 0.4, 3), (1, 2.5, 4)])
    def test_cell_probs_match_enumeration(self, n, k, class_card):
        # every (class, lower-half flags) cell, its probability multiplied out
        exact = [
            math.prod(q if low else 1 - q for low in flags) / class_card
            for i in range(1, class_card + 1)
            for q in [kononenko_first_half_prob(i, k, class_card)]
            for flags in itertools.product([True, False], repeat=n)
        ]
        probs = kononenko_cell_probs(n, k, class_card)
        assert len(probs) == class_card * 2**n
        assert sorted(probs) == pytest.approx(sorted(exact), rel=1e-12)
        assert math.fsum(probs) == pytest.approx(1.0, rel=1e-12)


class TestGenKononenko:
    def test_even_cardinality_split(self):
        cls = _uniform(2, 2000, _rng(1))
        col = _kononenko(cls, 4, 1.0, _rng(2), 2)
        assert col.min() >= 0 and col.max() <= 3
        assert set(np.unique(col)) == {0, 1, 2, 3}

    def test_odd_cardinality_split(self):
        # lower half {0, 1}, upper half {2, 3, 4}
        cls = _uniform(2, 5000, _rng(3))
        col = _kononenko(cls, 5, 1.0, _rng(4), 2)
        assert set(np.unique(col)) == {0, 1, 2, 3, 4}
        lower = col < 2
        for i in (1, 2):
            mask = cls == i - 1
            p_hat = lower[mask].mean()
            assert abs(p_hat - kononenko_first_half_prob(i, 1.0, 2)) < 0.05

    def test_half_selection_frequency(self):
        m = 100_000
        cls = _uniform(2, m, _rng(5))
        col = _kononenko(cls, 2, 1.0, _rng(6), 2)
        for i in (1, 2):
            mask = cls == i - 1
            p_hat = (col[mask] == 0).mean()
            assert abs(p_hat - kononenko_first_half_prob(i, 1.0, 2)) < 0.01

    def test_within_half_uniform(self):
        m = 100_000
        cls = _uniform(2, m, _rng(7))
        col = _kononenko(cls, 6, 1.0, _rng(8), 2)
        lower_counts = np.bincount(col[col < 3], minlength=3)
        upper_counts = np.bincount(col[col >= 3] - 3, minlength=3)
        assert stats.chisquare(lower_counts).pvalue > 0.01
        assert stats.chisquare(upper_counts).pvalue > 0.01

    def test_cardinality_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(2, 2, [block("k", GeneratorKind.KONONENKO, 1, 1)], SeededRng(1))

    @pytest.mark.parametrize(
        "class_card, m", [(2, 500), (7, 40), (10**11, 50), (2**63 - 1, 9)],
        ids=["binary", "small", "huge", "int64-max"],
    )
    def test_rows_follow_the_first_half_probability_of_their_class(self, class_card, m):
        # every row must be drawn with exactly the float that
        # kononenko_first_half_prob gives its class value
        cls = _uniform(class_card, m, _rng(11))
        col = _kononenko(cls, 4, 0.5, _rng(12), class_card)
        draws = _rng(12).random((m, 2))
        expected = [
            d < kononenko_first_half_prob(int(c) + 1, 0.5, class_card)
            for d, c in zip(draws[:, 0], cls)
        ]
        assert (col < 2).tolist() == expected

    @pytest.mark.parametrize("copies", [1, 2], ids=["4-rows", "8-rows"])
    @pytest.mark.parametrize("class_card", [2, 7, 10**11, 2**63 - 1])
    def test_half_threshold_is_the_scalar_probability_bit_for_bit(self, class_card, copies):
        # a half draw equal to the scalar probability must pick the upper half
        # and the next float down the lower one, which holds only when the
        # per-row threshold is that very float; with 7 classes, 4 rows take the
        # per-row probabilities and 8 rows the per-class lookup
        cls = np.tile(np.array([0, 1, 2, class_card - 1]) % class_card, copies)
        p = np.array([kononenko_first_half_prob(int(c) + 1, 0.3, class_card) for c in cls])
        at = _kononenko(cls, 4, 0.3, _HalfDraws(p), class_card)
        below = _kononenko(cls, 4, 0.3, _HalfDraws(np.nextafter(p, 0.0)), class_card)
        assert (at >= 2).all() and (below < 2).all()

    @pytest.mark.parametrize("copies", [1, 100], ids=["per-row", "per-class"])
    def test_narrow_class_codes_reach_the_same_thresholds(self, copies):
        # a sample's class column is uint8 up to 256 classes; 255 + 1 taken
        # in uint8 would wrap to 0 and give class index 0's probability.
        # 4 rows take the per-row probabilities, 400 the per-class lookup.
        class_card = 256
        wide = np.tile(np.array([0, 1, 254, 255]), copies)
        p = np.array([kononenko_first_half_prob(int(c) + 1, 0.3, class_card) for c in wide])
        for cls in (wide, wide.astype(np.uint8)):
            at = _kononenko(cls, 4, 0.3, _HalfDraws(p), class_card)
            below = _kononenko(cls, 4, 0.3, _HalfDraws(np.nextafter(p, 0.0)), class_card)
            assert (at >= 2).all() and (below < 2).all()

    @pytest.mark.parametrize("cardinality", [2, 5, 40, 2**62 + 1])
    def test_narrow_class_column_gives_the_int64_columns_codes(self, cardinality):
        cls = _uniform(10, 5000, _rng(3))
        wide = _kononenko(cls, cardinality, 0.7, _rng(9), 10)
        narrow = _kononenko(cls.astype(np.uint8), cardinality, 0.7, _rng(9), 10)
        assert narrow.dtype == wide.dtype == np.int64
        assert np.array_equal(narrow, wide)


class TestBinaryKononenko:
    """At cardinality 2 each half has one member, so the code is the half draw
    alone: it must be what the general arithmetic gives from the same draws,
    and the stream must be left where those draws leave it."""

    @pytest.mark.parametrize("rows", ["per-class", "per-row"])
    @pytest.mark.parametrize("k", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("class_card", [2, 7, 10**11, 2**63 - 1])
    def test_half_draw_is_the_general_arithmetic(self, class_card, k, rows):
        if rows == "per-class":  # no more class values than rows: probabilities looked up
            cls = _uniform(min(class_card, 7), 3000, _rng(13, 0, 0))
        else:  # more class values than rows: one probability per row
            cls = np.array([class_card - 1, *range(min(class_card - 2, 3))])
        narrow = cls.astype(np.min_scalar_type(int(cls.max())))
        for codes in (cls, narrow):
            ours, theirs = _rng(14), _rng(14)
            col = _kononenko(codes, 2, k, ours, class_card)
            assert col.dtype == np.int64
            assert np.array_equal(col, kononenko_codes(cls, 2, k, theirs, class_card))
            _assert_same_position(ours, theirs)

    @pytest.mark.parametrize("cardinality", [3, 4, 5, 40])
    def test_oracle_is_the_general_path(self, cardinality):
        cls = _uniform(7, 3000, _rng(15, 0, 0))
        ours, theirs = _rng(16), _rng(16)
        col = _kononenko(cls.astype(np.uint8), cardinality, 0.3, ours, 7)
        assert np.array_equal(col, kononenko_codes(cls, cardinality, 0.3, theirs, 7))
        _assert_same_position(ours, theirs)

    @pytest.mark.parametrize("class_card", [2, 7])
    def test_half_draw_at_the_probability_is_the_upper_code(self, class_card):
        cls = np.tile(np.arange(class_card), 2)
        p = np.array([kononenko_first_half_prob(int(c) + 1, 0.3, class_card) for c in cls])
        at = _kononenko(cls, 2, 0.3, _HalfDraws(p), class_card)
        below = _kononenko(cls, 2, 0.3, _HalfDraws(np.nextafter(p, 0.0)), class_card)
        assert (at == 1).all() and (below == 0).all()


class TestInt64Bounds:
    """Cardinalities and row counts past int64 are input errors, not numpy's."""

    @pytest.mark.parametrize(
        "card, shown",
        [(2**63, "9223372036854775808"), (2**64, r"at least 2\*\*64"), (10**20, r"at least 2\*\*66"),
         pytest.param(10**5000, r"at least 2\*\*16609", id="int-too-long-to-print")],
    )
    def test_cardinality_past_int64_rejected(self, card, shown):
        for draw in (
            lambda: check_card(card),
            lambda: generate_dataset(3, card, [block("u", GeneratorKind.UNIFORM, 1, 2)], SeededRng(1)),
            lambda: AttributeBlock(("a",), GeneratorKind.UNIFORM, card),
            lambda: AttributeBlock(("a",), GeneratorKind.KONONENKO, card),
        ):
            with pytest.raises(InvalidInputError, match=f"must not exceed .*, got {shown}$"):
                draw()

    def test_largest_int64_cardinality_accepted(self):
        blocks = [block("u", GeneratorKind.UNIFORM, 1, 2**63 - 1)]
        assert generate_dataset(4, 2, blocks, SeededRng(1)).codes.dtype == np.int64

    @pytest.mark.parametrize(
        "m", [2**63, 2**64, pytest.param(10**5000, id="int-too-long-to-print")]
    )
    def test_sample_size_past_int64_rejected(self, m):
        xor = [block("x", GeneratorKind.XOR_PAIR, 2, 2)]
        for draw in (
            lambda: check_m(m),
            lambda: generate_dataset(m, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], SeededRng(1)),
            lambda: generate_dataset(m, 2, xor, SeededRng(1)),
        ):
            with pytest.raises(InvalidInputError, match="sample size must not exceed"):
                draw()

    @pytest.mark.parametrize(
        "value, shown",
        [(-1, "-1"), (-(2**64), r"at most -2\*\*64"),
         pytest.param(-(10**5000), r"at most -2\*\*16609", id="int-too-long-to-print")],
    )
    def test_negative_sizes_are_named_in_their_errors(self, value, shown):
        for draw, what in (
            (lambda: check_m(value), "sample size must be at least 1"),
            (lambda: check_card(value), "cardinality must be at least 2"),
            (lambda: AttributeBlock(("a",), GeneratorKind.UNIFORM, value),
             "cardinality must be at least 2"),
        ):
            with pytest.raises(InvalidInputError, match=f"^{what}, got {shown}$"):
                draw()


class TestGenXorPair:
    def test_no_noise_is_pure_xor(self):
        f1, f2, cls = _xor_pair(5000, 0.0, _rng(10))
        assert np.array_equal(cls, f1 ^ f2)

    def test_noise_rate(self):
        f1, f2, cls = _xor_pair(100_000, 0.05, _rng(11))
        agreement = (cls == (f1 ^ f2)).mean()
        assert abs(agreement - 0.95) < 0.01

    def test_same_seed_identical(self):
        a = _xor_pair(300, 0.05, _rng(12))
        b = _xor_pair(300, 0.05, _rng(12))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_half_or_more_noise_rejected(self):
        # by the dataset that holds the pair, before any draw: the writer
        # checks nothing
        blocks = [block("x", GeneratorKind.XOR_PAIR, 2, 2)]
        with pytest.raises(InvalidInputError, match=r"^noise must lie in \[0, 0.5\), got 0.5$"):
            generate_dataset(10, 2, blocks, SeededRng(1), xor_noise=0.5)

    @pytest.mark.parametrize(
        "m", [_XOR_BLOCK_ROWS - 1, _XOR_BLOCK_ROWS, _XOR_BLOCK_ROWS + 1, 2 * _XOR_BLOCK_ROWS + 5]
    )
    def test_row_blocks_give_the_whole_draws(self, m):
        # the pair is drawn in row blocks; the stream fills them in the order
        # one (m, 3) draw would
        f1, f2, cls = _xor_pair(m, 0.05, _rng(13))
        draws = _rng(13).random((m, 3))
        a, b = draws[:, 0] < 0.5, draws[:, 1] < 0.5
        assert np.array_equal(f1, a) and np.array_equal(f2, b)
        assert np.array_equal(cls, a ^ b ^ (draws[:, 2] < 0.05))

    def test_population_msu_values(self):
        assert xor_population_msu(0.0) == 0.5
        assert xor_population_msu(0.05) == pytest.approx(0.3568015214420219, abs=1e-15)
        assert xor_population_msu(0.05) == pytest.approx((1 - binary_entropy(0.05)) / 2, abs=1e-15)

    def test_collectivity_at_scale(self):
        # each attribute alone is uninformative; the triple is not
        f1, f2, cls = _xor_pair(100_000, 0.05, _rng(404))
        sample = CategoricalSample.from_columns([f1, f2, cls], (2, 2, 2))
        assert symmetrical_uncertainty(sample, 0, 2).value < 0.001
        assert symmetrical_uncertainty(sample, 1, 2).value < 0.001
        assert msu(sample, [0, 1, 2]).value == pytest.approx(0.3568, abs=0.005)


class TestExactPlugInExpectation:
    """The Monte Carlo mean of each plug-in entropy, joint and marginal,
    against its exact expectation (`expected_plugin_entropy`): generation,
    stacking and counting together, on the distribution and not only on
    NumPy's draws."""

    REPLICATES = 2000
    SIZES = (8, 40, 160)
    NOISE = 0.05

    def _entropies(self, blocks):
        """Each subset's entropies at `SIZES`, one row a replicate: the
        prefixes of seeded replicates of the largest size, generated and
        counted as one sample, as the engine counts nested sweep points."""
        top = self.SIZES[-1]
        rngs = [SeededRng(2003, r) for r in range(self.REPLICATES)]
        sample = dataset.generate_replicates(top, 2, blocks, rngs, xor_noise=self.NOISE)
        return {
            cols: np.array(subset_entropies(sample, cols, self.SIZES, top)).reshape(self.REPLICATES, -1)
            for cols in ((0, 1, 2), (0,), (1,), (2,))
        }

    def _check(self, blocks, joint):
        # every attribute and the class are uniform binary in both layouts
        cells = {(0, 1, 2): joint, (0,): [0.5, 0.5], (1,): [0.5, 0.5], (2,): [0.5, 0.5]}
        for cols, entropies in self._entropies(blocks).items():
            mean = entropies.mean(axis=0)
            error = entropies.std(axis=0, ddof=1) / math.sqrt(self.REPLICATES)
            for m, got, se in zip(self.SIZES, mean.tolist(), error.tolist()):
                z = (got - expected_plugin_entropy(cells[cols], m)) / se
                assert abs(z) < 4, (cols, m, got, z)

    def test_uniform_attributes_and_class(self):
        # two uniform binary attributes and a uniform binary class: k = 8
        self._check([block("x", GeneratorKind.UNIFORM, 2, 2)], [1 / 8] * 8)

    def test_xor_pair(self):
        # the class is the pair's XOR but for a flip of probability NOISE
        joint = [(1 - self.NOISE) / 4] * 4 + [self.NOISE / 4] * 4
        self._check([AttributeBlock(("x1", "x2"), GeneratorKind.XOR_PAIR, 2)], joint)

    def test_the_expectation_matches_enumeration(self):
        # every count vector of m = 5 draws over three cells, by its
        # multinomial probability
        probs, m = [0.5, 0.3, 0.2], 5
        exact = math.fsum(
            math.factorial(m) / math.prod(map(math.factorial, counts))
            * math.prod(p**c for p, c in zip(probs, counts))
            * -math.fsum(c / m * math.log2(c / m) for c in counts if c)
            for a in range(m + 1)
            for b in range(m + 1 - a)
            for counts in [(a, b, m - a - b)]
        )
        assert expected_plugin_entropy(probs, m) == pytest.approx(exact, rel=1e-12)
        assert expected_plugin_entropy([1.0], 7) == 0.0


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


def _traced(build, m):
    """`build(m)` and the peak of the memory that numpy and Python allocate for it."""
    build(10)  # warm caches out of the trace
    tracemalloc.start()
    try:
        result = build(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _union_dataset(name):
    """A preset's one dataset per replicate, as `_run_layout` generates it,
    and its traced peak."""
    config = preset(name)
    points = {i: harness.resolve_point(config, v) for i, v in enumerate(config.sweep.values)}
    (plan,) = harness._plans(config, points)
    return _traced(
        lambda m: generate_dataset(
            m, config.class_card, plan.blocks, SeededRng(3, 0),
            k=config.kononenko_k, xor_noise=config.xor_noise,
        ),
        plan.m,
    )


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

    def test_replicates_are_each_rngs_dataset_one_after_another(self):
        # a batch is one matrix: its r-th m rows are the dataset of rngs[r]
        blocks = [
            block("x", GeneratorKind.XOR_PAIR, 2, 2),
            block("mk", GeneratorKind.KONONENKO, 2, 5),
            block("u", GeneratorKind.UNIFORM, 2, 3),
        ]
        rngs = [SeededRng(17, r) for r in (4, 0, 9)]
        batch = dataset.generate_replicates(30, 2, blocks, rngs, k=0.5, xor_noise=0.1)
        alone = [generate_dataset(30, 2, blocks, rng, k=0.5, xor_noise=0.1) for rng in rngs]
        assert batch.codes.tolist() == [row for s in alone for row in s.codes.tolist()]
        assert batch.codes.flags.f_contiguous and batch.codes.dtype == alone[0].codes.dtype
        assert (batch.cardinalities, batch.column_names) == (alone[0].cardinalities, alone[0].column_names)
        assert dataset.generate_replicates(30, 2, blocks, rngs[:1], k=0.5, xor_noise=0.1) == alone[0]

    @pytest.mark.parametrize(
        "rngs, message",
        [([], "at least one rng is required"),
         ([SeededRng(1), 5], "rngs must be a list or tuple of SeededRng, got"),
         (SeededRng(1), "rngs must be a list or tuple of SeededRng, got")],
    )
    def test_replicates_need_rngs(self, rngs, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            dataset.generate_replicates(5, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], rngs)
        with pytest.raises(InvalidInputError, match="^rng must be a SeededRng, got 5$"):
            generate_dataset(5, 2, [block("u", GeneratorKind.UNIFORM, 1, 2)], 5)

    @pytest.mark.parametrize(
        "blocks, params, message",
        [([block("x", GeneratorKind.XOR_PAIR, 2, 2)], {"xor_noise": 0.5}, "noise must lie in [0, 0.5), got 0.5"),
         ([block("x", GeneratorKind.XOR_PAIR, 2, 2)], {"xor_noise": -0.1}, "noise must lie in [0, 0.5), got -0.1"),
         ([block("mk", GeneratorKind.KONONENKO, 1, 2)], {"k": 0}, "informativeness k must be finite and positive, got 0")],
    )
    def test_parameters_checked_once_before_allocation(self, monkeypatch, blocks, params, message):
        # the writers check nothing: a bad parameter never reaches them
        def failing(*args):
            raise AssertionError("nothing may be allocated")

        monkeypatch.setattr(dataset, "code_matrix", failing)
        rngs = [SeededRng(1, r) for r in range(3)]
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            dataset.generate_replicates(5, 2, blocks, rngs, **params)
        # a parameter no block uses is not checked
        unused = [block("u", GeneratorKind.UNIFORM, 1, 2)]
        monkeypatch.undo()
        assert dataset.generate_replicates(5, 2, unused, rngs, **params).n_rows == 15

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

    def test_codes_are_one_column_major_matrix_built_without_a_copy(self):
        blocks = [
            block("x", GeneratorKind.XOR_PAIR, 2, 2),
            block("mk", GeneratorKind.KONONENKO, 7, 4),
            block("u", GeneratorKind.UNIFORM, 6, 3),
        ]
        sample, peak = _traced(lambda m: generate_dataset(m, 2, blocks, SeededRng(3, 0)), 200_000)
        assert sample.codes.shape == (200_000, 16)
        assert sample.codes.dtype == np.uint8
        assert sample.codes.flags.f_contiguous and not sample.codes.flags.writeable
        # the 3.2 MB matrix plus the Kononenko thresholds (8 bytes a row,
        # 1.6 MB) and one column's work: the XOR pair's 1.5 MB block of float
        # draws or a Kononenko column's draws, mask and one uint8 column (18
        # bytes a row, 3.6 MB); an int64 matrix alone would take 25.6 MB
        assert peak < 12_000_000

    def test_large_xor_union_is_drawn_straight_into_its_matrix(self):
        # fig-xor-2's one dataset per replicate: 655,360 rows x 16 columns
        sample, peak = _union_dataset("fig-xor-2")
        assert sample.codes.shape == (655_360, 16)
        # the 10.5 MB matrix plus the XOR pair's 1.5 MB row blocks of draws,
        # where one (m, 3) draw would take 15.7 MB; the binary uniform
        # columns are shifted from 64 KB blocks of raw words straight into
        # their columns. An int64 matrix alone would take 84 MB.
        assert peak < 17_000_000

    def test_kononenko_union_peaks_at_its_matrix_plus_one_columns_work(self):
        # fig-h's one dataset per replicate: 163,840 rows x 40 columns, 13 of
        # them Kononenko ones and 2 an XOR pair
        sample, peak = _union_dataset("fig-h")
        m = sample.n_rows
        assert sample.codes.shape == (163_840, 40) and sample.codes.dtype == np.uint8
        # the 6.5 MB matrix plus the thresholds its 13 binary Kononenko
        # columns share (8 bytes a row) and one such column's (m, 2) draws
        # (16 bytes a row), which it compares straight into its column
        assert peak < sample.codes.nbytes + 36 * m

    @pytest.mark.parametrize(
        "card, dtype",
        [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
         (2**32, np.uint32), (2**32 + 1, np.int64)],
    )
    def test_generated_codes_take_the_narrowest_dtype(self, card, dtype):
        blocks = [block("x", GeneratorKind.XOR_PAIR, 2, 2), block("u", GeneratorKind.UNIFORM, 1, card)]
        sample = generate_dataset(500, 2, blocks, SeededRng(4, 0))
        assert sample.codes.dtype == dtype
        drawn = _uniform(card, 500, SeededRng(4, 0).stream(2, 0))
        assert np.array_equal(sample.codes[:, 2], drawn)
        f1, f2, cls = _xor_pair(500, 0.05, SeededRng(4, 0).stream(1, 0))
        assert np.array_equal(sample.codes[:, [0, 1, 3]], np.column_stack([f1, f2, cls]))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize(
        "family, card",
        [("uniform", 16), ("uniform", 40), ("kononenko", 2), ("kononenko", 5), ("kononenko", 40)],
        ids=["uniform-raw-words", "uniform-integers", "kononenko-binary", "kononenko-5",
             "kononenko-40"],
    )
    def test_writers_give_a_narrow_column_the_int64_columns_codes(self, family, card, dtype):
        m = _RAW_BLOCK_ROWS + 1  # two raw-word blocks, the second one row on half a word
        cls = _uniform(7, m, _rng(3, 0, 0, 0))

        def write(column_dtype, rng):
            if family == "uniform":
                return _uniform(card, m, rng, column_dtype)
            return _kononenko(cls, card, 0.7, rng, 7, column_dtype)

        ours, theirs = _rng(9), _rng(9)
        narrow, wide = write(dtype, ours), write(np.int64, theirs)
        assert narrow.dtype == dtype
        assert np.array_equal(narrow, wide)
        _assert_same_position(ours, theirs)

    @pytest.mark.parametrize("card", [2])
    def test_generated_code_at_its_cardinality_rejected_not_wrapped(self, monkeypatch, card):
        # the sample checks the codes a writer leaves, not only the writer itself
        monkeypatch.setattr(dataset, "fill_uniform", lambda out, card, rng: out.fill(card))
        with pytest.raises(InvalidInputError, match="exceeds its column's declared cardinality"):
            generate_dataset(10, 2, [block("u", GeneratorKind.UNIFORM, 1, card)], SeededRng(1, 0))

    def test_generated_class_code_at_its_cardinality_rejected_not_wrapped(self, monkeypatch):
        # the class column is the only one the uniform writer fills here; with
        # more classes than rows the thresholds are computed row by row, so
        # the bad class code still gives the Kononenko column one
        monkeypatch.setattr(dataset, "fill_uniform", lambda out, card, rng: out.fill(card))
        with pytest.raises(InvalidInputError, match="exceeds its column's declared cardinality"):
            generate_dataset(10, 300, [block("mk", GeneratorKind.KONONENKO, 1, 4)], SeededRng(1, 0))

    def test_xor_columns_are_gen_xor_pairs_arrays(self):
        # the pair sits after a uniform block, so its columns are not first
        blocks = [block("u", GeneratorKind.UNIFORM, 2, 3), block("x", GeneratorKind.XOR_PAIR, 2, 2)]
        sample = generate_dataset(4000, 2, blocks, SeededRng(21, 5), xor_noise=0.2)
        f1, f2, cls = _xor_pair(4000, 0.2, SeededRng(21, 5).stream(2, 0))
        for name, expected in (("x1", f1), ("x2", f2), ("clase", cls)):
            assert np.array_equal(sample.codes[:, sample.column_index(name)], expected)
        # the same as the pair written from its draws with temporaries
        draws = SeededRng(21, 5).stream(2, 0).random((4000, 3))
        a, b = (draws[:, 0] < 0.5).astype(np.int64), (draws[:, 1] < 0.5).astype(np.int64)
        assert np.array_equal(f1, a) and np.array_equal(f2, b)
        assert np.array_equal(cls, (a ^ b) ^ (draws[:, 2] < 0.2).astype(np.int64))


class TestAttributeBlock:
    def test_xor_block_needs_two_columns(self):
        with pytest.raises(InvalidInputError):
            AttributeBlock(("a",), GeneratorKind.XOR_PAIR, 2)
        with pytest.raises(InvalidInputError, match="exactly two columns"):
            AttributeBlock(("a", "b", "c"), "xor_pair", 2)

    def test_kind_given_by_name_is_the_enum(self):
        # a kind named by its string once fell through to Kononenko columns
        by_name = AttributeBlock(("a", "b"), "uniform", 2)
        assert by_name == AttributeBlock(("a", "b"), GeneratorKind.UNIFORM, 2)
        assert by_name.kind is GeneratorKind.UNIFORM
        sample = generate_dataset(2000, 2, [by_name], SeededRng(8, 0))
        assert sample == generate_dataset(
            2000, 2, [AttributeBlock(("a", "b"), GeneratorKind.UNIFORM, 2)], SeededRng(8, 0)
        )
        assert np.array_equal(sample.codes[:, 0], _uniform(2, 2000, SeededRng(8, 0).stream(1, 0)))

    @pytest.mark.parametrize("kind", ["gaussian", "Uniform", None, 1])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(InvalidInputError, match="unknown family"):
            AttributeBlock(("a",), kind, 2)

    @pytest.mark.parametrize("entry", [("a",), "a", 5, GeneratorKind.UNIFORM])
    def test_non_blocks_rejected(self, entry):
        blocks = [block("u", GeneratorKind.UNIFORM, 1, 2), entry]
        with pytest.raises(InvalidInputError, match="must be an AttributeBlock or None"):
            generate_dataset(5, 2, blocks, SeededRng(1, 0))

    def test_counts_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            block("f", GeneratorKind.UNIFORM, 0, 2)
        with pytest.raises(InvalidInputError, match="at least one column"):
            block("f", GeneratorKind.UNIFORM, -3, 2)

    def test_a_count_no_dataset_holds_is_rejected_before_naming_a_column(self, monkeypatch):
        # one column short of the cap still fits with the class at one row;
        # the cap itself would build as many names as it has cells
        monkeypatch.setattr(dataset, "MAX_DATASET_CELLS", 16)
        assert len(block("f", GeneratorKind.UNIFORM, 15, 2).names) == 15
        for count in (16, 17, 10**5000):
            with pytest.raises(InvalidInputError, match=r"^block count must be below 16, got "):
                block("f", GeneratorKind.UNIFORM, count, 2)

"""Tests for joint-space arithmetic and the chi-squared sample-size machinery."""

import math
import re
from fractions import Fraction
import threading
import time

import numpy as np
import pytest
from scipy import stats

from msulab import (
    CardinalityProfile,
    InvalidInputError,
    RepresentativenessReport,
    chi2_critical,
    extreme_sample_chi2,
    heuristic_sample_size,
    multivariate_cardinality,
    representativeness_report,
)
from msulab import samplesize
from msulab.samplesize import MAX_CELLS, huge_space_bits
from oracle_utils import chi2_statistic, extreme_sample, scan_min_representative_m

def chi2_m_star(k, alpha=0.05):
    """The chi-squared m* of k equiprobable cells."""
    return representativeness_report(CardinalityProfile((), k), alpha).chi2_m_star


# Values from standard chi-squared tables (6+ digits), frozen.
CRITICAL_05_7 = 14.06714
CRITICAL_05_11 = 19.6751
NORMAL_975 = 1.959963984540054  # two-sided 5% normal quantile


class TestMultivariateCardinality:
    def test_pair_of_four_valued_attributes(self):
        assert multivariate_cardinality(CardinalityProfile([(4, 2)], 2)) == 32

    def test_four_binary_attributes(self):
        assert multivariate_cardinality(CardinalityProfile([(2, 4)], 2)) == 32

    def test_empty_attribute_set(self):
        assert multivariate_cardinality(CardinalityProfile((), 2)) == 2

    def test_mixed_cardinalities_multiply_in_any_order(self):
        cards = (3, 2, 5, 3, 2, 2, 40)
        profile = CardinalityProfile([(card, 1) for card in cards], 7)
        assert multivariate_cardinality(profile) == 7 * math.prod(cards)

    def test_a_million_columns_take_linear_time(self):
        # the pairs merge into one, and the space is one power of it; a
        # running product over the columns took seconds at a few hundred
        # thousand
        pairs = [(2, 1)] * 1_000_000
        space = []
        build = lambda: space.append(multivariate_cardinality(CardinalityProfile(pairs, 2)))
        thread = threading.Thread(target=build, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert space, "multivariate_cardinality did not return"
        assert space[0] == 2**1_000_001

    def test_constant_variables_flagged(self):
        assert CardinalityProfile([(1, 1), (3, 1)], 2).has_constant_variables
        assert not CardinalityProfile([(2, 1), (3, 1)], 2).has_constant_variables


class TestCardinalityProfile:
    """A profile is (cardinality, count) pairs, stored sorted by cardinality
    with the pairs of one cardinality merged."""

    def test_pairs_in_any_order_merge_and_sort(self):
        split = CardinalityProfile([(5, 1), [2, 2], (3, 1), (2, 1)], 2)
        assert split.attributes == ((2, 3), (3, 1), (5, 1))
        assert split == CardinalityProfile([(2, 3), (3, 1), (5, 1)], 2)
        assert multivariate_cardinality(split) == 2 * 2**3 * 3 * 5

    @pytest.mark.parametrize(
        "attributes, message",
        [
            ((2, 3), "an attribute must be a (cardinality, count) pair, got 2"),
            ([(2, 1, 1)], "an attribute must be a (cardinality, count) pair, got (2, 1, 1)"),
            ([(2, True)], "a (cardinality, count) pair must be a sequence of integers, got (2, True)"),
            ([(2, 0)], "attribute counts must be positive, got (2, 0)"),
            ([(0, 1)], "cardinalities must be positive"),
        ],
        ids=["bare-int", "three-items", "bool-count", "zero-count", "zero-cardinality"],
    )
    def test_malformed_pairs_rejected(self, attributes, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            CardinalityProfile(attributes, 2)


class TestHeuristicSampleSize:
    def test_two_binary_attributes(self):
        assert heuristic_sample_size(CardinalityProfile([(2, 2)], 2)) == 80

    def test_eight_binary_attributes(self):
        assert heuristic_sample_size(CardinalityProfile([(2, 8)], 2)) == 5120

    def test_identity_factor(self):
        assert heuristic_sample_size(CardinalityProfile([(2, 2)], 2), factor=1) == 8

    def test_fractional_factor_rounds_up(self):
        assert heuristic_sample_size(CardinalityProfile([(2, 2)], 2), factor=1.1) == 9

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            heuristic_sample_size(CardinalityProfile([(2, 2)], 2), factor=0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(InvalidInputError, match="factor"):
            heuristic_sample_size(CardinalityProfile([(2, 2)], 2), factor=factor)

    def test_fractional_factor_past_float_range_rejected(self):
        # a whole factor multiplies exactly; a fraction goes through a float
        huge = CardinalityProfile([(10**310, 1)], 2)
        assert heuristic_sample_size(huge, factor=2.0) == 4 * 10**310
        for profile in (huge, CardinalityProfile([(10**308, 1)], 1)):
            with pytest.raises(InvalidInputError, match="past the float range"):
                heuristic_sample_size(profile, factor=2.5)


class TestChi2Critical:
    def test_reference_values(self):
        assert chi2_critical(0.05, 7) == pytest.approx(CRITICAL_05_7, abs=1e-3)
        assert chi2_critical(0.05, 11) == pytest.approx(CRITICAL_05_11, abs=1e-3)
        assert chi2_critical(0.05, 1) == pytest.approx(NORMAL_975**2, abs=1e-3)

    def test_agrees_with_quantile_oracle(self):
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            for df in (1, 3, 7, 20, 100):
                assert chi2_critical(alpha, df) == pytest.approx(
                    stats.chi2.ppf(1 - alpha, df), abs=1e-6
                )

    def test_bad_arguments_rejected(self):
        for alpha, df in ((0.0, 7), (1.0, 7), (-0.1, 7), (0.05, 0)):
            with pytest.raises(InvalidInputError):
                chi2_critical(alpha, df)
        # df past the float range, and one whose bracket doubles past it
        for df in (10**400, 10**308):
            with pytest.raises(InvalidInputError, match="past the float range"):
                chi2_critical(0.05, df)


class TestIntegerArguments:
    """Cell counts, degrees of freedom, row counts and cardinalities are
    integers (NumPy ones included), never truncated to one; a factor and a
    significance level are real numbers, never a string or a bool."""

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda: chi2_critical(0.05, 7.5), "degrees of freedom"),
            (lambda: extreme_sample_chi2(100.9, 8), "sample size"),
            (lambda: extreme_sample_chi2(100, 8.9), "cell count"),
            (lambda: CardinalityProfile([(2.5, 2)], 2),
             r"^a \(cardinality, count\) pair must be a sequence of integers, got \(2.5, 2\)$"),
            (lambda: CardinalityProfile([(2, 2)], 2.0), "class cardinality"),
            (lambda: heuristic_sample_size(CardinalityProfile([(2, 1)], 2), "10"),
             "^factor must be a finite number, got '10'$"),
            (lambda: heuristic_sample_size(CardinalityProfile([(2, 1)], 2), True),
             "^factor must be a finite number, got True$"),
            (lambda: chi2_critical("0.05", 3), "^alpha must be a finite number, got '0.05'$"),
            (lambda: chi2_critical(False, 3), "^alpha must be a finite number, got False$"),
            (lambda: representativeness_report(CardinalityProfile([(2, 1)], 2), "0.05"),
             "^alpha must be a finite number, got '0.05'$"),
        ],
        ids=["df", "m", "k", "attribute-cards", "class-card",
             "factor-string", "factor-bool", "alpha-string", "alpha-bool", "report-alpha-string"],
    )
    def test_non_integers_rejected(self, call, what):
        with pytest.raises(InvalidInputError, match=what):
            call()

    def test_numpy_integers_accepted(self):
        assert chi2_critical(0.05, np.int64(7)) == chi2_critical(0.05, 7)
        assert extreme_sample_chi2(np.uint16(100), np.int8(8)) == extreme_sample_chi2(100, 8)
        assert chi2_m_star(np.int64(8)) == chi2_m_star(8) == 99
        profile = CardinalityProfile([(np.uint8(2), np.int8(1)), (np.int64(3), np.uint64(1))], np.int32(2))
        assert (profile.attributes, profile.class_card) == (((2, 1), (3, 1)), 2)
        assert type(profile.class_card) is int
        assert all(type(v) is int for pair in profile.attributes for v in pair)


class TestExtremeSample:
    def test_exact_division(self):
        assert extreme_sample(98, 8) == [14] * 7 + [0]

    def test_uneven_division(self):
        assert extreme_sample(100, 8) == [15, 15, 14, 14, 14, 14, 14, 0]

    def test_minimal_feasible(self):
        assert extreme_sample(7, 8) == [1] * 7 + [0]

    def test_below_minimum_rejected(self):
        with pytest.raises(InvalidInputError):
            extreme_sample(6, 8)

    def test_sum_and_single_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(2, 30))
            m = int(rng.integers(k - 1, 5000))
            counts = extreme_sample(m, k)
            assert sum(counts) == m
            assert counts.count(0) == 1
            assert counts[-1] == 0


class TestChi2Statistic:
    def test_published_observed_vector(self):
        assert chi2_statistic([14, 14, 14, 15, 15, 0, 14, 14]) == pytest.approx(14.40, abs=1e-12)

    def test_term_decomposition(self):
        # five cells at 0.18, two at 0.50, the empty cell at its expectation 12.5
        expected = math.fsum([0.18] * 5 + [0.5] * 2 + [12.5])
        assert chi2_statistic([14, 14, 14, 15, 15, 0, 14, 14]) == pytest.approx(expected, abs=1e-12)

    def test_empty_cell_contributes_its_expectation(self):
        # k=2: (0 - m/2)^2 / (m/2) + (m - m/2)^2 / (m/2) = m
        for m in (4, 10, 121):
            assert chi2_statistic([0, m]) == pytest.approx(float(m), abs=1e-12)


class TestExtremeSampleChi2:
    def test_canonical_hundred_of_eight(self):
        assert extreme_sample_chi2(100, 8) == pytest.approx(14.40, abs=1e-12)

    def test_canonical_exact_division(self):
        assert extreme_sample_chi2(98, 8) == pytest.approx(12.25 + 7 * (1.75**2 / 12.25), abs=1e-12)
        assert extreme_sample_chi2(98, 8) == pytest.approx(14.0, abs=1e-12)

    def test_exact_division_closed_form_and_monotone(self):
        # at multiples of k-1 the statistic collapses to m / (k - 1)
        for k in (3, 8, 12):
            values = [extreme_sample_chi2(q * (k - 1), k) for q in range(1, 40)]
            for q, value in enumerate(values, start=1):
                assert value == pytest.approx(q, abs=1e-9)
            assert all(b > a for a, b in zip(values, values[1:]))


class TestMinRepresentativeM:
    """m* of k equiprobable cells, read from the one public path: the report
    on a class of k values and no attributes."""

    def test_eight_cells(self):
        assert chi2_m_star(8, 0.05) == 99
        assert 97 <= chi2_m_star(8, 0.05) <= 103

    def test_larger_cell_counts(self):
        for k, reference in ((12, 216), (15, 330), (18, 468)):
            m_star = chi2_m_star(k, 0.05)
            assert abs(m_star - reference) <= 0.05 * reference

    def test_two_cells_closed_form(self):
        # statistic equals m, so the first exceedance of 3.8415 is m = 4
        assert chi2_m_star(2, 0.05) == 4

    def test_monotone_in_k(self):
        values = [chi2_m_star(k, 0.05) for k in (8, 12, 15, 18)]
        assert values == sorted(values)

    def test_matches_ascending_scan(self):
        for alpha in (0.01, 0.05, 0.10):
            for k in range(2, 61):
                assert chi2_m_star(k, alpha) == scan_min_representative_m(k, alpha), (k, alpha)

    def test_benchmark_reference_values(self):
        assert chi2_m_star(128, 0.05) == 19581
        assert chi2_m_star(256, 0.05) == 74752

    def test_large_joint_space_answers_at_once(self):
        for k in (2**20, 10**9, MAX_CELLS):
            start = time.perf_counter()
            m_star = chi2_m_star(k, 0.05)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, k
            critical = chi2_critical(0.05, k - 1)
            assert extreme_sample_chi2(m_star, k) > critical >= extreme_sample_chi2(m_star - 1, k)

    def test_joint_space_beyond_float_resolution_rejected(self):
        with pytest.raises(InvalidInputError, match="cells"):
            chi2_m_star(MAX_CELLS + 1, 0.05)

    def test_joint_space_past_the_int_string_limit_named_by_its_bits(self):
        # Python formats no int of more than 4,300 digits, so the message
        # must not print this one in full
        k = int("9" * 4201) ** 2
        with pytest.raises(
            InvalidInputError, match=rf"^a joint space of at least 2\*\*{k.bit_length() - 1} cells"
        ):
            chi2_m_star(k, 0.05)
        for k in (2**64 - 1, 2**64):  # the last size printed in full, the first that is not
            shown = str(k) if k < 2**64 else r"at least 2\*\*64"
            with pytest.raises(InvalidInputError, match=f"^a joint space of {shown} cells"):
                chi2_m_star(k, 0.05)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: extreme_sample_chi2(10, -(10**5000)), r"need at least two cells, got at most -"),
            (lambda: extreme_sample_chi2(-(10**5000), 3), r"m=at most -2\*\*16609 cannot fill 2 "),
            (lambda: extreme_sample_chi2(10**5000, 10**5001),
             r"m=at least 2\*\*16609 cannot fill at least 2\*\*16612 "),
            (lambda: heuristic_sample_size(CardinalityProfile([(2, 1)], 2), -(10**5000)),
             r"factor must be finite and positive, got at most -2\*\*16609$"),
            (lambda: chi2_critical(10**5000, 3), r"alpha must lie in \(0, 1\), got at least 2\*\*16609$"),
        ],
        ids=["statistic-k", "statistic-m", "statistic-m-and-k", "factor", "alpha"],
    )
    def test_ints_too_long_to_print_named_by_their_bits(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            call()


class TestClosedFormStatistic:
    def test_equals_extreme_sample_chi2_bit_for_bit(self):
        rng = np.random.default_rng(20170707)
        for _ in range(3000):
            k = int(rng.integers(2, 401))
            m = int(rng.integers(k - 1, 50 * k * k))
            assert extreme_sample_chi2(m, k) == chi2_statistic(extreme_sample(m, k)), (m, k)

    def test_rejects_what_extreme_sample_rejects(self):
        for m, k in ((6, 8), (5, 1), (0, 0)):
            with pytest.raises(InvalidInputError):
                extreme_sample(m, k)
            with pytest.raises(InvalidInputError):
                extreme_sample_chi2(m, k)
        # extreme_sample builds this one, but its statistic is past the float range
        with pytest.raises(InvalidInputError, match="past the float range"):
            extreme_sample_chi2(10**400, 3)


class TestRepresentativenessReport:
    def test_binary_pair_profile(self):
        report = representativeness_report(CardinalityProfile([(2, 2)], 2))
        assert report.multivariate_cardinality == 8
        assert report.heuristic_m == 80
        assert report.chi2_m_star == 99
        assert report.df == 7
        assert report.critical_value == pytest.approx(CRITICAL_05_7, abs=1e-3)

    def test_mstar_may_be_the_extreme_sample_itself(self):
        # below a critical value of 1 the k - 1 rows of the extreme sample are
        # already rejected
        report = representativeness_report(CardinalityProfile((), 2), alpha=0.5)
        assert report.critical_value < 1.0
        assert report.chi2_m_star == 1 == report.df

    def test_mstar_covers_joint_space(self):
        with pytest.raises(InvalidInputError):
            RepresentativenessReport(
                multivariate_cardinality=50,
                heuristic_m=500,
                chi2_m_star=10,
                alpha=0.05,
                df=49,
                critical_value=1.0,
            )

    def test_heuristic_tracks_mstar(self):
        # Both recommendations grow with the joint space and stay comparable:
        # within 2x up to 12 cells, and never beyond 5x through 32 cells (the
        # chi-squared minimum grows a bit faster than linearly).
        ratios = {}
        for k in (8, 12, 16, 24, 32):
            report = representativeness_report(CardinalityProfile((), k))
            ratios[k] = report.chi2_m_star / report.heuristic_m
        assert all(0.5 <= r <= 2.0 for k, r in ratios.items() if k <= 12)
        assert all(0.2 <= r <= 5.0 for r in ratios.values())
        assert list(ratios.values()) == sorted(ratios.values())


class TestHugeSpaceBits:
    """A joint space of 2**64 cells or more is named by its bits without
    being built, and None is returned only below 2**64."""

    @pytest.mark.parametrize(
        "profile, bits",
        [
            # a power of two, whose bits are counted in integers
            (CardinalityProfile([(2, 10**8)], 2), 100_000_001),
            # log2 158,496,342.99994..., too near a whole number for a float
            # to place: round(bits) - 1 bounds it, here exactly
            (CardinalityProfile([(3, 100_000_058)], 2), 158_496_342),
        ],
        ids=["binary", "ternary"],
    )
    def test_a_huge_space_is_named_without_being_built(self, monkeypatch, profile, bits):
        def build(profile):
            raise AssertionError("the joint space was built")

        monkeypatch.setattr(samplesize, "multivariate_cardinality", build)
        assert huge_space_bits([profile]) == bits
        with pytest.raises(InvalidInputError, match=rf"^a joint space of at least 2\*\*{bits} cells exceeds "):
            representativeness_report(profile)

    @pytest.mark.parametrize(
        "class_card, factor",
        [
            (2**64 - 1, 1.0), (2**64, 1.0), (2**64 + 1, 1.0), (3 * 2**62, 1.0), (2**65 - 1, 1.0),
            (2**61, 8.0), (2**65, 0.5), (2**62 + 1, 4.0), (2**63, 1.9999999), (2**63, 2.0000001),
        ],
    )
    def test_none_only_below_2_to_64(self, class_card, factor):
        cells = Fraction(factor) * class_card
        floor = math.floor(cells).bit_length() - 1  # floor(log2(cells))
        assert huge_space_bits([CardinalityProfile((), class_card)], factor) == (floor if floor >= 64 else None)

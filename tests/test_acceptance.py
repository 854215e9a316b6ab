"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure),
then asserts. Monte Carlo criteria run at desk scale (200 replicates) with the
tolerances widened accordingly; everything else is deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from msulab import (
    CardinalityProfile,
    CategoricalSample,
    GeneratorKind,
    Sweep,
    block,
    chi2_critical,
    extreme_sample_chi2,
    generate_dataset,
    information_gain,
    joint_entropy,
    msu,
    preset,
    representativeness_report,
    run_experiment,
    symmetrical_uncertainty,
    total_correlation,
)
from msulab.generators import SeededRng, fill_xor_pair
from oracle_utils import (
    brute_force_msu,
    chi2_statistic,
    coded_table,
    kononenko_first_half_prob,
    random_sample,
)

DESK_REPLICATES = 200


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")


def test_criterion_1_cardinality_effect_tables():
    a = coded_table("b b b b a a a a", "s s t t s s t t", "p q p q p q p q")
    b = coded_table("a b b b a a a a", "s s t t s s t t", "p q p q p q p q")
    c = coded_table("c b b b a a a a", "s s t t s s t t", "p q p q p q p q")
    cols = [0, 1, 2]
    msu(a, cols)  # warm-up outside the timed region
    t0 = time.perf_counter()
    va, vb, vc = msu(a, cols).value, msu(b, cols).value, msu(c, cols).value
    elapsed = time.perf_counter() - t0
    va2 = msu(a, cols).value
    passed = (
        va == 0.0
        and va == va2
        and abs(vb - 0.1038) <= 0.005
        and abs(vc - 0.1787) <= 0.005
        and elapsed < 1e-3
    )
    report(1, passed, f"table values {va}, {vb:.4f}, {vc:.4f} in {elapsed * 1e6:.0f} us")
    assert va == 0.0
    assert vb == pytest.approx(0.1038, abs=0.005)
    assert vc == pytest.approx(0.1787, abs=0.005)
    assert elapsed < 1e-3


def test_criterion_2_chi_squared_machinery():
    critical = chi2_critical(0.05, 7)
    published_vector = chi2_statistic([14, 14, 14, 15, 15, 0, 14, 14])
    canonical = extreme_sample_chi2(100, 8)
    passed = (
        abs(critical - 14.06714) <= 1e-3
        and abs(published_vector - 14.40) <= 1e-12
        and abs(canonical - 14.40) <= 1e-12
        and critical == chi2_critical(0.05, 7)
    )
    report(2, passed, f"critical={critical:.5f} statistic={published_vector:.5f}")
    assert critical == pytest.approx(14.06714, abs=1e-3)
    assert published_vector == pytest.approx(14.40, abs=1e-12)
    assert canonical == pytest.approx(14.40, abs=1e-12)


def test_criterion_3_minimal_representative_sizes():
    t0 = time.perf_counter()
    m8 = representativeness_report(CardinalityProfile((), 8), 0.05).chi2_m_star
    others = {k: representativeness_report(CardinalityProfile((), k), 0.05).chi2_m_star for k in (12, 15, 18)}
    elapsed = time.perf_counter() - t0
    references = {12: 216, 15: 330, 18: 468}
    within = all(abs(others[k] - ref) <= 0.05 * ref for k, ref in references.items())
    passed = 97 <= m8 <= 103 and within and elapsed < 1.0
    report(3, passed, f"m*: 8->{m8}, " + ", ".join(f"{k}->{others[k]}" for k in others)
           + f" in {elapsed:.3f}s")
    assert 97 <= m8 <= 103
    for k, ref in references.items():
        assert abs(others[k] - ref) <= 0.05 * ref
    assert elapsed < 1.0


def test_criterion_4_pair_identity_and_brute_force_oracle():
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    for _ in range(1000):
        sample = random_sample(rng, max_m=50, min_p=2, max_p=2, max_card=6)
        delta = abs(msu(sample, [0, 1]).value - symmetrical_uncertainty(sample, 0, 1).value)
        worst_pair = max(worst_pair, delta)

    worst_oracle = 0.0
    for _ in range(200):
        # joint support capped at 64 cells (2..3 columns, cards 2..4)
        sample = random_sample(rng, max_m=60, min_p=2, max_p=3, max_card=4)
        cols = list(range(sample.n_columns))
        delta = abs(msu(sample, cols).value - brute_force_msu(sample))
        worst_oracle = max(worst_oracle, delta)

    passed = worst_pair < 1e-12 and worst_oracle < 1e-12
    report(4, passed, f"max |msu-su|={worst_pair:.2e}, max oracle gap={worst_oracle:.2e}")
    assert worst_pair < 1e-12
    assert worst_oracle < 1e-12


def test_criterion_5_noisy_xor_stabilization():
    t0 = time.perf_counter()
    config = dataclasses.replace(preset("fig-b2"), replicates=DESK_REPLICATES)
    curve = run_experiment(config)
    elapsed = time.perf_counter() - t0

    means = dict(zip(curve.sweep_values, curve.mean_series("msu_set")))
    at_80 = means[80]
    worst_step = 0.0
    for m in range(81, 151):
        step = abs(means[m] - means[m - 1]) / means[m - 1]
        worst_step = max(worst_step, step)

    passed = abs(at_80 - 0.3568) <= 0.05 and worst_step < 0.02 and elapsed < 120
    report(5, passed,
           f"mean(80)={at_80:.4f} (target 0.3568), worst step={worst_step:.3%}, {elapsed:.1f}s")
    assert at_80 == pytest.approx(0.3568, abs=0.05)
    assert worst_step < 0.02
    assert elapsed < 120


def test_criterion_6_bias_control_comparative():
    t0 = time.perf_counter()
    cards = (2, 10, 20, 40)
    fixed = dataclasses.replace(
        preset("fig-f1"), sweep=Sweep(cards), replicates=DESK_REPLICATES
    )
    computed = dataclasses.replace(
        preset("fig-f2"), sweep=Sweep(cards), replicates=DESK_REPLICATES
    )
    fixed_curve = run_experiment(fixed)
    computed_curve = run_experiment(computed)
    elapsed = time.perf_counter() - t0

    fixed_means = fixed_curve.mean_series("msu_noninformative")
    growth = fixed_means[-1] - fixed_means[0]
    computed_means = computed_curve.mean_series("msu_noninformative")
    flat = max(computed_means)

    passed = growth >= 0.05 and flat < 0.05 and elapsed < 600
    report(6, passed,
           f"fixed-m growth {fixed_means[0]:.4f}->{fixed_means[-1]:.4f} (+{growth:.4f}), "
           f"computed-m max {flat:.4f}, {elapsed:.1f}s")
    assert growth >= 0.05
    assert flat < 0.05
    assert elapsed < 600


def test_criterion_7_invariant_suite():
    rng = np.random.default_rng(314159)
    violations = 0
    checked = 0
    for _ in range(10_000):
        sample = random_sample(rng, max_m=30, min_p=2, max_p=4, max_card=5)
        cols = list(range(sample.n_columns))

        h0 = joint_entropy(sample, [0]).value
        observed = len(np.unique(sample.codes[:, 0]))
        ok = -1e-12 <= h0 <= math.log2(observed) + 1e-12

        h01 = joint_entropy(sample, [0, 1]).value
        ok &= h01 - joint_entropy(sample, [1]).value <= h0 + 1e-12  # H(X|Y) <= H(X)

        ig_xy = information_gain(sample, [0], [1]).value
        ok &= ig_xy == information_gain(sample, [1], [0]).value
        ok &= ig_xy >= -1e-12

        ok &= total_correlation(sample, cols).value >= -1e-12

        su = symmetrical_uncertainty(sample, 0, 1).value
        multi = msu(sample, cols).value
        ok &= 0.0 <= su <= 1.0 and 0.0 <= multi <= 1.0

        perm = rng.permutation(sample.n_rows)
        permuted = CategoricalSample(sample.codes[perm], sample.cardinalities)
        ok &= msu(permuted, cols).value == multi

        col = int(rng.integers(0, sample.n_columns))
        relabel = rng.permutation(sample.cardinalities[col])
        codes = sample.codes.copy()
        codes[:, col] = relabel[codes[:, col]]
        ok &= msu(CategoricalSample(codes, sample.cardinalities), cols).value == multi

        checked += 1
        violations += not ok

    passed = violations == 0 and checked == 10_000
    report(7, passed, f"{checked} randomized cases, {violations} violations")
    assert checked == 10_000
    assert violations == 0


def test_criterion_8_generator_statistics():
    m = 100_000
    seeded = SeededRng(90210, 0)
    # the class on stream (0, 0), the attribute on (1, 0)
    sample = generate_dataset(m, 2, [block("mk", GeneratorKind.KONONENKO, 1, 2)], seeded, k=1.0)
    attr, cls = sample.codes.T
    gaps = []
    for i in (1, 2):
        mask = cls == i - 1
        p_hat = float((attr[mask] == 0).mean())
        gaps.append(abs(p_hat - kononenko_first_half_prob(i, 1.0, 2)))

    f1, f2, xcls = np.empty((m, 3), dtype=np.int64, order="F").T
    fill_xor_pair(f1, f2, xcls, 0.05, seeded.stream(2, 0))
    agreement = float((xcls == (f1 ^ f2)).mean())
    xor_gap = abs(agreement - 0.95)

    passed = max(gaps) <= 0.01 and xor_gap <= 0.01
    report(8, passed,
           f"half-alphabet gaps {gaps[0]:.4f}/{gaps[1]:.4f}, xor agreement {agreement:.4f}")
    assert max(gaps) <= 0.01
    assert xor_gap <= 0.01

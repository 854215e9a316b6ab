"""Sample-size arithmetic: joint value spaces, the 10x rule, and the
chi-squared machinery that pins down when an under-covered sample becomes
statistically implausible.

A sample is "totally representative" when every possible joint value
combination appears at least once. The canonical extreme sample models the
mildest failure of that goal: exactly one empty cell, everything else as
balanced as the row count allows. The smallest sample size m* at which the
goodness-of-fit statistic of that construction rejects such a gap at level
alpha is the chi-squared sample-size recommendation.

m* has a closed form to search. Over k equiprobable cells, with n = k - 1 and
m = qn + r, the extreme sample has r cells at q + 1, n - r at q and one at 0,
so its statistic is

    X2(m) = m/n + k r (n - r) / (m n),

which lies between m/n and m/n + k n / (4 m). Every m above n * critical is
rejected, and none below the upper root of m/n + k n / (4 m) = critical is:
m* lies in a window of about k/4 values, a few blocks of constant q. The float
statistic that decides each m near the critical value, `extreme_sample_chi2`,
takes O(1) time, since its k cell terms take only three distinct values.

`representativeness_report` is the one place that turns a joint space into
its degrees of freedom, critical value, m* and 10x heuristic: `msulab
recommend`, `msulab chi2-scan` and a representativeness-scan experiment all
read it.

Only `chi2_critical` needs scipy (Brent's method on the regularized upper
incomplete gamma). It imports the two routines itself, so only its first call
pays the 0.5 s or so that loading scipy takes: importing msulab, measuring,
generating data and the Monte Carlo experiments load numpy only.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError

# Beyond 2**52 cells the cell counts q + 1 near m* stop being exact floats and
# the float statistic drifts from the chi-squared statistic it computes.
MAX_CELLS = 2**52


@dataclass(frozen=True)
class CardinalityProfile:
    """Declared cardinalities of a set of attributes plus the class."""

    attribute_cards: tuple[int, ...]
    class_card: int

    def __post_init__(self) -> None:
        cards = tuple(int(c) for c in self.attribute_cards)
        if any(c < 1 for c in cards) or self.class_card < 1:
            raise InvalidInputError("cardinalities must be positive")
        object.__setattr__(self, "attribute_cards", cards)

    @property
    def has_constant_variables(self) -> bool:
        """True when some variable can take a single value only.

        Such profiles are allowed but the measures over them are degenerate,
        so callers may want to warn.
        """
        return self.class_card < 2 or any(c < 2 for c in self.attribute_cards)


def multivariate_cardinality(profile: CardinalityProfile) -> int:
    """Number of possible joint value combinations, class included."""
    return profile.class_card * math.prod(profile.attribute_cards)


def heuristic_sample_size(profile: CardinalityProfile, factor: float = 10.0) -> int:
    """factor x multivariate cardinality, rounded up."""
    if not (math.isfinite(factor) and factor > 0):
        raise InvalidInputError(f"factor must be finite and positive, got {factor}")
    space = multivariate_cardinality(profile)
    if float(factor).is_integer():
        return int(factor) * space
    return math.ceil(factor * space)


def chi2_critical(alpha: float, df: int) -> float:
    """Upper-tail chi-squared critical value.

    Solves survival(x) = alpha where survival is the regularized upper
    incomplete gamma Q(df/2, x/2), bracketing the root and refining it with
    Brent's method to well under 1e-6 absolute error.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    df = int(df)
    if df < 1:
        raise InvalidInputError(f"degrees of freedom must be at least 1, got {df}")
    # imported here: loading scipy takes about 0.5 s, and only recommend, chi2-scan
    # and a representativeness scan need it
    from scipy.optimize import brentq
    from scipy.special import gammaincc

    def upper_tail(x: float) -> float:
        return gammaincc(df / 2.0, x / 2.0) - alpha

    hi = df + 10.0
    while upper_tail(hi) > 0.0:
        hi *= 2.0
    return float(brentq(upper_tail, 0.0, hi, xtol=1e-10, maxiter=200))


def extreme_sample_chi2(m: int, k: int) -> float:
    """Chi-squared statistic of the m-row extreme sample over k equiprobable cells.

    The statistic is the correctly rounded sum, as `math.fsum` gives it, of
    the k float terms (O - E)^2 / E with E = m / k. With m = q (k - 1) + r
    the extreme sample has r cells at O = q + 1, k - 1 - r at O = q and one
    empty cell, so the terms take only three values: they are summed with
    their multiplicities in exact rational arithmetic and rounded once, in
    O(1) time.
    """
    m, k = int(m), int(k)
    if k < 2:
        raise InvalidInputError(f"need at least two cells, got {k}")
    if m < k - 1:
        raise InvalidInputError(f"m={m} cannot fill {k - 1} cells with at least one item each")
    r, up, level, empty = _extreme_terms(m, k)
    return float(up * r + level * (k - 1 - r) + empty)


def min_representative_m(k: int, alpha: float = 0.05) -> int:
    """Smallest m >= k - 1 whose equiprobable extreme sample is rejected at level alpha.

    Degrees of freedom are k - 1 (no parameters are estimated from the data).
    The answer is the first m at which `extreme_sample_chi2(m, k)` exceeds the
    critical value, bit for bit as an ascending scan from m = k - 1 finds it,
    in a time that does not grow with k:

    - With n = k - 1 and m = qn + r, the statistic is
      m/n + k r (n - r) / (m n), so it lies between m/n and
      m/n + k n / (4 m). No m below the upper root of
      m/n + k n / (4 m) = critical is rejected and every m above
      n * critical is, so m* lies in a window of about k/4 values, widened
      by the few ulps the float statistic may round either way.
    - Within a block of constant q the closed form is concave in r; a
      bisection finds where it first comes within rounding distance of the
      critical value.
    - From there the float statistic decides. Consecutive m that share the
      float m/k share its three cell terms (`_extreme_terms`), so over such a
      run the exact sum is linear in r and its first rejected r is solved
      for, not scanned. The rounding band holds a handful of runs at any k.
    """
    return _critical_and_m_star(int(k), alpha)[1]


def _critical_and_m_star(k: int, alpha: float) -> tuple[float, int]:
    """`chi2_critical(alpha, k - 1)` and the m* it gives: the one search for m*."""
    if k < 2:
        raise InvalidInputError(f"need at least two cells, got {k}")
    if k > MAX_CELLS:
        raise InvalidInputError(
            f"a joint space of {k} cells exceeds the {MAX_CELLS} the float statistic resolves"
        )
    critical = chi2_critical(alpha, k - 1)
    n = k - 1
    # Up to MAX_CELLS the closed form and the float statistic each lie within
    # 2 eps of the exact statistic, so this band holds every m they disagree on.
    slack = 8 * sys.float_info.epsilon * critical
    below, above = critical - slack, critical + slack
    lo = n
    if 1 + k / 4 <= below:
        # The upper bound at m = n is under `below`, so it stays under up to
        # its upper root n (b + sqrt(b^2 - k)) / 2, floored here in integers.
        num, den = below.as_integer_ratio()
        lo = max(n, n * (num + math.isqrt(num * num - k * den * den)) // (2 * den))

    def closed_form(m: int) -> float:
        r = m % n
        return m / n + k * r * (n - r) / (m * n)

    m = lo
    while True:
        q = m // n
        end = q * n + n - 1
        # over the block of constant q the closed form rises up to `peak`
        # (the root of its derivative) and falls after it
        peak = min(max(math.isqrt(n * k * q * (q + 1)), m), end)
        m += bisect_left(range(m, peak + 1), True, key=lambda x: closed_form(x) > below)
        while m <= end and (m <= peak or closed_form(m) > below):
            if closed_form(m) > above:
                return critical, m
            last = min(_run_end(m, k), end)
            found = _first_rejected(m, last, k, critical)
            if found is not None:
                return critical, found
            m = last + 1
        m = end + 1


def _extreme_terms(m: int, k: int) -> tuple[int, Fraction, Fraction, Fraction]:
    """r and the three distinct float cell terms of the extreme sample, as exact fractions.

    With m = q (k - 1) + r the sample has r cells at q + 1, k - 1 - r at q and
    one empty cell; each term is the float (O - E)^2 / E with E = m / k.
    """
    q, r = divmod(m, k - 1)
    e = m / k
    return (r, *(Fraction((o - e) ** 2 / e) for o in (q + 1, q, 0)))


def _run_end(m: int, k: int) -> int:
    """Last m' >= m whose float m'/k equals the float m/k."""
    e = m / k
    midpoint = (Fraction(e) + Fraction(math.nextafter(e, math.inf))) / 2
    last = max(m, math.floor(midpoint * k))
    return last if last / k == e else last - 1


def _first_rejected(first: int, last: int, k: int, critical: float) -> int | None:
    """First m in [first, last] with `extreme_sample_chi2(m, k) > critical`, or None.

    The range lies in one block of constant q and shares the float m/k, so the
    three cell terms are fixed and their exact sum is linear in r: the first
    rejected m is solved for, not scanned.
    """
    r, up, level, empty = _extreme_terms(first, k)
    cross = first
    if up > level:
        # the float sum exceeds critical once the exact sum passes the
        # midpoint to the next float (at the midpoint it may round either way)
        midpoint = (Fraction(critical) + Fraction(math.nextafter(critical, math.inf))) / 2
        r_cross = math.floor((midpoint - level * (k - 1) - empty) / (up - level))
        cross = max(first, first - r + r_cross)
    for m in (cross, cross + 1):
        if m <= last and extreme_sample_chi2(m, k) > critical:
            return m
    return None


@dataclass(frozen=True)
class RepresentativenessReport:
    """Joint-space size and the two sample-size recommendations for it."""

    multivariate_cardinality: int
    heuristic_m: int
    chi2_m_star: int
    alpha: float
    df: int
    critical_value: float

    def __post_init__(self) -> None:
        if self.chi2_m_star < self.df:
            raise InvalidInputError(
                f"m*={self.chi2_m_star} cannot fill the {self.df} non-empty cells of an "
                f"extreme sample over {self.multivariate_cardinality} combinations"
            )


def representativeness_report(
    profile: CardinalityProfile, alpha: float = 0.05, factor: float = 10.0
) -> RepresentativenessReport:
    """Full recommendation for a profile: joint space, heuristic m, chi-squared m*.

    The critical value is evaluated once and serves both the report and m*.
    """
    space = multivariate_cardinality(profile)
    if space < 2:
        raise InvalidInputError("joint value space must have at least two combinations")
    heuristic_m = heuristic_sample_size(profile, factor)
    critical, m_star = _critical_and_m_star(space, alpha)
    return RepresentativenessReport(
        multivariate_cardinality=space,
        heuristic_m=heuristic_m,
        chi2_m_star=m_star,
        alpha=alpha,
        df=space - 1,
        critical_value=critical,
    )

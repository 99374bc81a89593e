"""Rank and tail-probability kernels against closed forms and slow
trapezoidal-integration oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.stats

from vtrkit.numerics import average_ranks, chi_square_upper_tail, student_t_two_sided


# -----------------------------------------------------------------------
# tie-averaged ranks
# -----------------------------------------------------------------------


class TestAverageRanks:
    def test_textbook_tie_case(self):
        assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]

    def test_singleton(self):
        assert average_ranks([7]) == [1.0]

    def test_all_tied(self):
        assert average_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]

    def test_rank_sum_invariant(self):
        """Ranks of n values always sum to n(n+1)/2, ties or not."""
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 60)
            values = [rng.randint(0, 8) for _ in range(n)]  # heavy ties
            ranks = average_ranks(values)
            assert math.fsum(ranks) == n * (n + 1) / 2

    def test_ordering_consistency(self):
        rng = random.Random(8)
        values = [rng.random() for _ in range(50)]
        ranks = average_ranks(values)
        for i in range(50):
            for j in range(50):
                if values[i] < values[j]:
                    assert ranks[i] < ranks[j]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_ranks([])


# -----------------------------------------------------------------------
# trapezoidal integration oracles
# -----------------------------------------------------------------------

STEP = 1e-4


def chi2_upper_oracle(x: float, df: int) -> float:
    """Upper tail of chi-square by trapezoidal integration of the density.

    Left of the mode the complement is integrated in v = sqrt(s) space (the
    substitution removes the df=1 endpoint singularity); right of the mode
    the tail is integrated directly over [x, x + 400], beyond which the
    remaining mass is far below 1e-14.
    """
    if x == 0.0:
        return 1.0
    a = df / 2.0
    log_norm = -a * math.log(2.0) - math.lgamma(a)
    if x <= df + 2.0:
        top = math.sqrt(x)
        v = np.linspace(0.0, top, int(top / STEP) + 2)
        integrand = 2.0 * math.exp(log_norm) * v ** (2.0 * a - 1.0) * np.exp(-v * v / 2.0)
        return 1.0 - float(np.trapezoid(integrand, v))
    width = 400.0
    s = np.linspace(x, x + width, int(width / STEP) + 1)
    integrand = np.exp(log_norm + (a - 1.0) * np.log(s) - s / 2.0)
    return float(np.trapezoid(integrand, s))


def t_two_sided_oracle(t: float, df: int) -> float:
    """Two-sided Student t tail by trapezoidal integration.

    For small |t| the complement over [0, |t|] is integrated directly; for
    |t| >= 1 the tail is mapped onto w = t/s in (0, 1], which compactifies
    the heavy tail (essential for df = 1) with the analytic w -> 0 limit.
    """
    t = abs(t)
    if t == 0.0:
        return 1.0
    log_c = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    c = math.exp(log_c)

    def pdf(s):
        return c * (1.0 + s * s / df) ** (-(df + 1) / 2.0)

    if t < 1.0:
        s = np.linspace(0.0, t, int(t / STEP) + 2)
        return 1.0 - 2.0 * float(np.trapezoid(pdf(s), s))
    w = np.linspace(0.0, 1.0, int(1.0 / STEP) + 1)
    g = np.empty_like(w)
    g[0] = c * df ** ((df + 1) / 2.0) * t ** (-df) if df == 1 else 0.0
    inner = t / w[1:]
    g[1:] = pdf(inner) * t / (w[1:] * w[1:])
    return 2.0 * float(np.trapezoid(g, w))


CHI2_GRID = [
    (x, df)
    for df in (1, 2, 3, 5, 10, 20, 50, 100)
    for x in (0.01, 0.1, 0.5, 1.0, 2.0, 3.8415, 5.0, 8.0, 12.0, 20.0, 35.0, 60.0, 100.0, 150.0, 300.0, 1000.0)
]

T_GRID = [
    (t, df)
    for df in (1, 2, 3, 5, 8, 10, 20, 50, 100, 1000)
    for t in (0.01, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.02, 6.0, 10.0, 30.0)
]


class TestChiSquareUpperTail:
    def test_zero_statistic_is_one(self):
        for df in (1, 2, 7, 100):
            assert chi_square_upper_tail(0.0, df) == 1.0

    def test_exponential_closed_form_df2(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0):
            assert chi_square_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    def test_erfc_closed_form_df1(self):
        for x in (0.1, 0.5, 1.0, 3.8415, 10.0, 25.0):
            assert chi_square_upper_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), abs=1e-12)

    def test_critical_value_df1(self):
        assert chi_square_upper_tail(3.8415, 1) == pytest.approx(0.05, abs=5e-5)

    def test_matches_integration_oracle(self):
        for x, df in CHI2_GRID:
            assert chi_square_upper_tail(x, df) == pytest.approx(chi2_upper_oracle(x, df), abs=1e-6)

    def test_monotone_decreasing_in_x(self):
        for df in (1, 2, 5, 30, 100):
            values = [chi_square_upper_tail(x, df) for x in np.linspace(0.0, 200.0, 250)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_upper_tail(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_upper_tail(1.0, 0)


class TestStudentTTwoSided:
    def test_zero_t_is_one(self):
        for df in (1, 5, 100, 1000):
            assert student_t_two_sided(0.0, df) == 1.0

    def test_cauchy_closed_form_df1(self):
        for t in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
            expected = 1.0 - 2.0 * math.atan(t) / math.pi
            assert student_t_two_sided(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_cauchy_unit_point(self):
        assert student_t_two_sided(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_df2(self):
        for t in (0.2, 1.0, 2.5, 8.0):
            expected = 1.0 - t / math.sqrt(t * t + 2.0)
            assert student_t_two_sided(t, 2) == pytest.approx(expected, abs=1e-12)

    def test_matches_integration_oracle(self):
        for t, df in T_GRID:
            assert student_t_two_sided(t, df) == pytest.approx(t_two_sided_oracle(t, df), abs=1e-6)

    def test_symmetry_in_t(self):
        for t in (0.3, 1.7, 4.02):
            for df in (1, 8, 200):
                assert student_t_two_sided(t, df) == student_t_two_sided(-t, df)

    def test_monotone_decreasing_in_abs_t(self):
        for df in (1, 8, 100):
            values = [student_t_two_sided(t, df) for t in np.linspace(0.0, 20.0, 200)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_reference_point_df8(self):
        # the worked example behind the small-sample correlation p-value
        assert student_t_two_sided(-4.02, 8) == pytest.approx(0.0039, abs=2e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            student_t_two_sided(1.0, 0)

    @pytest.mark.parametrize(("t", "expected"), [(1e200, 0.0), (-1e200, 0.0), (1e-200, 1.0)])
    def test_t_whose_beta_argument_rounds_to_an_end(self, t, expected):
        """x = df / (df + t^2) underflows to 0 for a huge |t| and rounds to 1
        for a tiny one; the incomplete beta's ends then give the p-value, as
        scipy does."""
        assert student_t_two_sided(t, 5) == expected == 2.0 * scipy.stats.t.sf(abs(t), 5)


# -----------------------------------------------------------------------
# exact bits on a fixed grid
# -----------------------------------------------------------------------

PINNED_DFS = (1, 2, 3, 4, 9, 25, 498, 26000)
PINNED_TS = (0.05, 0.7, 1.96, 4.0, 25.0)


def pinned_chi_square_xs(df: int) -> tuple[float, ...]:
    """One x below a + 1 = df/2 + 1 on the z = x/2 scale (the series) and
    two more under it, then x = df + 2 and beyond (the continued fraction)."""
    return (max(df / 4, df - 2 * math.sqrt(2 * df)), df + 1.0, df + 2.0, df + 3.0, df + 4 * math.sqrt(2 * df) + 2)


#: ``.hex()`` of chi_square_upper_tail at pinned_chi_square_xs(df) and of
#: student_t_two_sided at PINNED_TS, per df; small t takes the beta fraction
#: on 1 - x, large t on x.
PINNED_TAIL_HEX = {
    1: (
        ("0x1.3bf143b9aa714p-1", "0x1.4226162fbdddcp-3", "0x1.550d2c7fcb8e4p-4", "0x1.74bcf82c9d853p-5", "0x1.ab1385cf01793p-9"),
        ("0x1.efb751fbb0133p-1", "0x1.38ef2d4ece0c1p-1", "0x1.338d16470e782p-2", "0x1.3f670b6bdc738p-3", "0x1.a0fe2a47d66dfp-6"),
    ),
    2: (
        ("0x1.8ebef9eac820bp-1", "0x1.c8f87724b5c24p-3", "0x1.152aaa3bf81ccp-3", "0x1.50385c094f425p-4", "0x1.44e51f113d4d3p-9"),
        ("0x1.ede8cc70c501ap-1", "0x1.1cdf8be90a96cp-1", "0x1.83307a8e7936ap-3", "0x1.d48222010599cp-5", "0x1.a26d2b6d6bdcep-10"),
    ),
    3: (
        ("0x1.b907771b331ddp-1", "0x1.0bbd40bcd5872p-2", "0x1.5fd72e6267c22p-3", "0x1.c927cdaae5560p-4", "0x1.05d7e12ac371bp-9"),
        ("0x1.ed3116cacb1e1p-1", "0x1.11934eee2d784p-1", "0x1.28a8465450ba5p-3", "0x1.cae3faa4cd547p-6", "0x1.264bd76002663p-13"),
    ),
    4: (
        ("0x1.d1d0c7aa7610fp-1", "0x1.26315088255a0p-2", "0x1.97db0ccceb0b0p-3", "0x1.164c90e00cfaap-3", "0x1.b84d8c48e2c5bp-10"),
        ("0x1.eccf5bbaeee43p-1", "0x1.0b852446c1c48p-1", "0x1.f1e3472d5669dp-4", "0x1.084680268e556p-6", "0x1.fdf1c09493e9cp-17"),
    ),
    9: (
        ("0x1.f946f1a6584fdp-1", "0x1.66e59872a44eep-2", "0x1.1a53718a9b433p-2", "0x1.b4db824a2046ap-3", "0x1.f9cbe3c9d2378p-11"),
        ("0x1.ec244d64c6a59p-1", "0x1.00d435f0f7f4ap-1", "0x1.4e6a5d35a9615p-4", "0x1.97b0a7bd440bap-9", "0x1.5a0e619d3f5bfp-30"),
    ),
    25: (
        ("0x1.fcbacadd82fd2p-1", "0x1.a1618d261f11ap-2", "0x1.6c6cfe8a7f18ap-2", "0x1.3b3de2f9845d2p-2", "0x1.d9884d355b1bbp-12"),
        ("0x1.ebc93df1b5f20p-1", "0x1.f628efd70eab4p-2", "0x1.f59dff72978a6p-5", "0x1.03c152e543afbp-11", "0x1.86558b5d5e03fp-62"),
    ),
    498: (
        ("0x1.f627f47ff0309p-1", "0x1.ea7202a4ee88ep-2", "0x1.dd8f2b206d934p-2", "0x1.d0b97e51e52b6p-2", "0x1.491d910936e90p-14"),
        ("0x1.eb97ca0fc5404p-1", "0x1.efe05325a8c7ep-2", "0x1.9e215e2da3806p-5", "0x1.3200670a76e77p-14", "0x1.6a8be055aa831p-297"),
    ),
    26000: (
        ("0x1.f4986e8c4b941p-1", "0x1.fd03ad77f9668p-2", "0x1.fb39144b8bf75p-2", "0x1.f96e8a07220aap-2", "0x1.3303a3d64671fp-15"),
        ("0x1.eb95364737526p-1", "0x1.ef8c47f7318f0p-2", "0x1.99a72351b5bd5p-5", "0x1.0a69929c3e412p-14", "0x1.73500b5e6997fp-451"),
    ),
}


@pytest.mark.parametrize("df", PINNED_DFS)
def test_tail_bits_are_pinned(df):
    """Both tail functions keep every bit on the grid: the series, the gamma
    fraction and both arms of the beta fraction."""
    chi_hex, t_hex = PINNED_TAIL_HEX[df]
    assert tuple(chi_square_upper_tail(x, df).hex() for x in pinned_chi_square_xs(df)) == chi_hex
    assert tuple(student_t_two_sided(t, df).hex() for t in PINNED_TS) == t_hex

import math

import pytest
from mpmath import iv, mp

from esfscan.theta import (
    PRECISION_BITS,
    case1_margin,
    check_theta_bounds,
    precision_bits,
    theta,
    working_precision,
)


class TestTheta:
    def test_below_first_prime(self, table_5000):
        result = theta(1.5, table_5000)
        assert result.value == 0 and result.error_bound == 0

    def test_four_term_sum(self, table_5000):
        result = theta(10, table_5000)
        with mp.workdps(40):
            expected = mp.log(2 * 3 * 5 * 7)
            assert abs(result.value - expected) <= result.error_bound + mp.mpf(10) ** -25
        assert result.error_bound < 1e-25

    def test_jump_at_prime(self, table_5000):
        below = theta(28.9, table_5000)
        at = theta(29, table_5000)
        with mp.workdps(40):
            gap = at.value - below.value
            assert abs(gap - mp.log(29)) <= at.error_bound + below.error_bound + mp.mpf(10) ** -20

    def test_value_within_claimed_interval_at_domain_edge(self, table_5000):
        x = 1429
        result = theta(x, table_5000)
        lo = x - 0.334 * x / math.log(x)
        hi = x + 0.021 * x / math.log(x)
        assert lo < float(result.value) < hi

    def test_nondecreasing(self, table_5000):
        values = [theta(x, table_5000).value for x in (10, 100, 1000, 2500, 4999)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_beyond_table_rejected(self, table_5000):
        with pytest.raises(ValueError):
            theta(5001, table_5000)


class TestThetaBounds:
    def test_passes_midrange(self, table_50216):
        report = check_theta_bounds(1429, 20000, table_50216)
        assert report.passed
        assert report.precision_bits == PRECISION_BITS
        # The tightest point of the whole claim sits just above the
        # domain edge: theta(1429) against the lower curve at 1433.
        assert report.min_lower_slack == pytest.approx(0.2084392, rel=1e-4)
        assert report.min_upper_slack > 1
        assert report.max_enclosure_width < 1e-25
        # slacks dwarf the enclosure width, so the pass is rigorous
        assert report.min_lower_slack > report.max_enclosure_width

    def test_passes_to_one_hundred_thousand(self):
        from esfscan.primes import sieve

        table = sieve(100000)
        assert check_theta_bounds(1429, 100000, table).passed

    def test_report_independent_of_global_precision(self, table_50216):
        # Slacks must be formed at the working precision, not mp.prec.
        with mp.workprec(20):
            coarse = check_theta_bounds(1429, 5000, table_50216)
        assert coarse == check_theta_bounds(1429, 5000, table_50216)

    def test_counts_checks(self, table_50216):
        report = check_theta_bounds(1429, 2000, table_50216)
        in_range = [p for p in table_50216.primes if 1429 < p <= 2000]
        assert report.primes_checked == len(in_range)
        assert report.checks == 2 * len(in_range) + 3

    def test_domain_rejections(self, table_5000):
        with pytest.raises(ValueError):
            check_theta_bounds(2, 10, table_5000)
        with pytest.raises(ValueError):
            check_theta_bounds(1429, 6000, table_5000)
        with pytest.raises(ValueError):
            check_theta_bounds(2000, 1500, table_5000)
        # A NaN bound fails the range check itself, not some later step.
        for x_lo, x_hi in ((math.nan, 2000), (1429, math.nan)):
            with pytest.raises(ValueError, match="x_lo <= x_hi"):
                check_theta_bounds(x_lo, x_hi, table_5000)


class TestMargin:
    def test_boundary_value(self):
        report = case1_margin(50217)
        assert report.passed
        assert float(report.margin) == pytest.approx(12.193055, rel=1e-5)
        assert report.margin_lo > 0
        assert report.aux_product_ok and report.aux_square_ok
        assert report.window_in_theta_domain

    def test_grows_with_n(self):
        assert case1_margin(10**6).margin_lo > case1_margin(50217).margin_hi

    def test_below_boundary_rejected(self):
        with pytest.raises(ValueError):
            case1_margin(50216)

    def test_report_independent_of_global_precision(self):
        # The enclosure and the midpoint must not be rounded at mp.prec.
        with mp.workprec(20):
            coarse = case1_margin(50217)
            coarse_margin = coarse.margin
        fine = case1_margin(50217)
        assert coarse == fine
        assert coarse_margin == fine.margin
        assert fine.margin_lo < fine.margin_hi


class TestWorkingPrecision:
    def test_sets_and_restores_both(self):
        before = mp.prec, iv.prec
        with pytest.raises(RuntimeError):
            with working_precision():
                assert mp.prec == iv.prec == PRECISION_BITS
                raise RuntimeError
        assert (mp.prec, iv.prec) == before


class TestPrecisionConfig:
    def test_default(self):
        # Every report states the precision it ran at.
        assert precision_bits() == PRECISION_BITS == 128
        assert case1_margin(50217).precision_bits == PRECISION_BITS

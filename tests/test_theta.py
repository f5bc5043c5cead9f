import importlib
import math
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv, libmp, mp, mpf

import esfscan
from esfscan.symfun import k_cap
from esfscan.theta import (
    MARGIN_N_MIN,
    PRECISION_BITS,
    THETA_BOUND_X_MIN,
    case1_margin,
    check_theta_bounds,
    precision_bits,
    subset_size_bound,
    _log_fixed,
)

theta_module = importlib.import_module("esfscan.theta")
REFERENCE_BITS = 256


@contextmanager
def _reference_precision(bits=REFERENCE_BITS):
    saved = iv.prec, mp.prec
    iv.prec = mp.prec = bits
    try:
        yield
    finally:
        iv.prec, mp.prec = saved


def _fraction(x):
    """The exact value of an interval end as a Fraction; call it inside the
    interval's own precision scope, where converting the end is exact."""
    return Fraction(*libmp.to_rational(mpf(x)._mpf_))


def _mpf(q):
    """A Fraction as an mpf, rounded at the current mp precision."""
    return mpf(q.numerator) / q.denominator


def _reference_log(x):
    """A 256-bit interval enclosure of ln x for a rational x (int, float or Fraction)."""
    a, d = x.as_integer_ratio()
    return iv.log(iv.mpf(a) / d)


def _interval_reference(x_lo, x_hi, table):
    """check_theta_bounds as interval arithmetic at 256 bits: (checks, primes, failures, slacks).

    An independent statement of the same plateau checks, with the bound
    curves evaluated in mpmath intervals and compared endpoint to endpoint.
    """
    failures, slack = [], {"lower": mpf("inf"), "upper": mpf("inf")}
    with _reference_precision():
        c_lo = iv.mpf(theta_module._LOWER_COEFF[0]) / theta_module._LOWER_COEFF[1]
        c_hi = iv.mpf(theta_module._UPPER_COEFF[0]) / theta_module._UPPER_COEFF[1]
        points = []  # (x, side, theta enclosure on the plateau)
        acc = sum((iv.log(p) for p in table.primes[: table.index_gt(x_lo)]), iv.mpf(0))
        points += [(x_lo, "lower", acc), (x_lo, "upper", acc)]
        in_range = table.primes[table.index_gt(x_lo) : table.index_gt(x_hi)]
        for p in in_range:
            points.append((p, "lower", acc))
            acc += iv.log(p)
            points.append((p, "upper", acc))
        points.append((x_hi, "lower", acc))
        for x, side, acc in points:
            xi = iv.mpf(x)
            if side == "lower":
                gap = mpf(acc.a) - mpf((xi - c_lo * xi / iv.log(xi)).b)
            else:
                gap = mpf((xi + c_hi * xi / iv.log(xi)).a) - mpf(acc.b)
            slack[side] = min(slack[side], gap)
            if not gap > 0:
                failures.append((float(x), side))
    return len(points), len(in_range), tuple(failures), slack


def theta_enclosure(x, table):
    """Fractions lo <= theta(x) <= hi: the integer sums of the prime-log
    enclosures over the primes p <= x, as ``check_theta_bounds`` streams them."""
    lo, hi = theta_module._sum_logs(theta_module._prime_logs(table.primes[: table.index_gt(x)]))
    return Fraction(lo, 2**PRECISION_BITS), Fraction(hi, 2**PRECISION_BITS)


class TestTheta:
    def test_below_first_prime(self, table_5000):
        assert theta_enclosure(1.5, table_5000) == (0, 0)

    def test_four_term_sum(self, table_5000):
        lo, hi = theta_enclosure(10, table_5000)
        with mp.workdps(40):
            expected = mp.log(2 * 3 * 5 * 7)
            tol = mp.mpf(10) ** -25
            assert _mpf(lo) - tol <= expected <= _mpf(hi) + tol
        assert hi - lo < 1e-25

    def test_jump_at_prime(self, table_5000):
        below = theta_enclosure(28.9, table_5000)
        at = theta_enclosure(29, table_5000)
        with mp.workdps(40):
            tol = mp.mpf(10) ** -20
            assert _mpf(at[0] - below[1]) - tol <= mp.log(29) <= _mpf(at[1] - below[0]) + tol

    def test_value_within_claimed_interval_at_domain_edge(self, table_5000):
        x = 1429
        enclosure = theta_enclosure(x, table_5000)
        lo = x - 0.334 * x / math.log(x)
        hi = x + 0.021 * x / math.log(x)
        assert lo < float(enclosure[0]) <= float(enclosure[1]) < hi

    def test_nondecreasing(self, table_5000):
        ends = [theta_enclosure(x, table_5000) for x in (10, 100, 1000, 2500, 4999)]
        assert all(a[1] <= b[0] for a, b in zip(ends, ends[1:]))


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


class TestIntegerChecks:
    X_POINTS = (1429, 1429.5, 2000.25, 50216)
    # 1 (where ln x = 0) and powers of two (where only the 2j artanh(1/3)
    # term is read).
    RATIONAL_POINTS = (1, *(2**j for j in range(1, 301)))

    def test_log_enclosure_contains_a_256_bit_log(self, table_5000):
        F = PRECISION_BITS
        for x in table_5000.primes + self.X_POINTS + self.RATIONAL_POINTS:
            lo, hi = _log_fixed(x)
            assert 0 <= hi - lo <= 2 ** (F - 120), x
            with _reference_precision():
                ref = _reference_log(x)
                # Scaling by 2^F is exact, so these comparisons are too.
                assert lo <= mpf(ref.a) * 2**F and mpf(ref.b) * 2**F <= hi, x

    def test_non_dyadic_point_enclosed(self):
        # 4289/3 has no finite binary expansion; its log is still enclosed.
        F = PRECISION_BITS
        x = Fraction(4289, 3)
        lo, hi = _log_fixed(x)
        assert 0 <= hi - lo <= 2 ** (F - 120)
        with _reference_precision():
            ref = _reference_log(x)
            assert lo <= mpf(ref.a) * 2**F and mpf(ref.b) * 2**F <= hi
        # The enclosure separates x from the dyadic points on either side.
        assert _log_fixed(1429)[1] < lo and hi < _log_fixed(1430)[0]

    @pytest.mark.parametrize("x", [0.5, Fraction(4288, 4289), 0, -3])
    def test_points_below_one_rejected(self, x):
        with pytest.raises(ValueError, match="x >= 1"):
            _log_fixed(x)

    def test_e_series_contains_a_256_bit_e(self):
        G = theta_module.CHAIN_BITS
        lo, hi = theta_module._e_fixed()
        with _reference_precision():
            assert lo <= mpf(iv.e.a) * 2**G and mpf(iv.e.b) * 2**G <= hi
        # The allowance 2J + 4 stays small: J < G terms.
        assert 4 < hi - lo <= 2 * G + 4

    def test_subset_size_bound_contains_a_256_bit_b(self):
        for n in (1, 2, 3, 1429, MARGIN_N_MIN, 10**5, 10**9, 2**64, 10**30 + 7):
            a, b = subset_size_bound(n)
            assert 0 < b - a < 2**-120, n
            with _reference_precision():
                ref = iv.e * iv.log(iv.mpf(n)) + iv.e
                assert a <= _fraction(ref.a) and _fraction(ref.b) <= b, n

    @pytest.mark.parametrize("x_lo, x_hi", [(1429, 5000), (1429.5, 2000.25)])
    def test_matches_the_interval_reference(self, table_5000, x_lo, x_hi):
        report = check_theta_bounds(x_lo, x_hi, table_5000)
        checks, primes, failures, slack = _interval_reference(x_lo, x_hi, table_5000)
        assert (report.checks, report.primes_checked, report.failures) == (
            checks,
            primes,
            failures,
        )
        assert abs(report.min_lower_slack - float(slack["lower"])) <= 1e-20
        assert abs(report.min_upper_slack - float(slack["upper"])) <= 1e-20

    def test_false_bounds_fail_where_the_reference_fails(self, table_5000, monkeypatch):
        monkeypatch.setattr(theta_module, "_LOWER_COEFF", (330, 1000))
        monkeypatch.setattr(theta_module, "_UPPER_COEFF", (-320, 1000))
        report = check_theta_bounds(1429, 5000, table_5000)
        assert not report.passed
        sides = [side for _, side in report.failures]
        assert (sides.count("lower"), sides.count("upper")) == (1, 444)
        assert report.failures[0] == (1429.0, "upper")
        assert report.failures == _interval_reference(1429, 5000, table_5000)[2]


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

    def test_check_at_boundary_covers_every_larger_n(self):
        # The three bounds of the case1_margin docstring, in 128-bit intervals.
        with _reference_precision(PRECISION_BITS):
            e, n = iv.e, iv.mpf(MARGIN_N_MIN)
            b = iv.e * iv.log(n) + iv.e
            slope = 2 - 2 * e / (e + 3) - iv.mpf(355) / 1000 * e
            assert mpf(slope.a) > 0.0842
            d_product = e / n * (6 * b + 17)
            d_square = e / n * (b + 3) * (3 * b + 7) / 2
            assert mpf(d_product.b) < 0.0114 and mpf(d_square.b) < 0.0985
            # Both slopes fall: the numerators are negative at b(50217) and
            # decrease in b (their b-derivatives are -6 and 6e - 6b - 16 < 0).
            assert mpf((6 * e - 6 * b - 17).b) < 0
            assert mpf((e * (6 * b + 16) - (b + 3) * (3 * b + 7)).b) < 0
            assert mpf((b + 3 - e).a) > 0
            bottom = n / (b + 3)
            assert THETA_BOUND_X_MIN + 0.0039 < mpf(bottom.a) < mpf(bottom.b) < 1429.004

    @pytest.mark.parametrize("n", [MARGIN_N_MIN, 10**5, 10**6, 10**9])
    def test_check_at_b_covers_every_k_up_to_the_cap(self, n):
        # The case1_margin docstring carries its four facts from k = b down
        # to every integer k <= k_cap(n); check each of them at each such k.
        report = case1_margin(n)
        margins = []
        with _reference_precision(PRECISION_BITS):
            n_iv, c355 = iv.mpf(n), iv.mpf(355) / 1000
            for k in range(1, k_cap(n) + 1):
                margin = (n_iv / (k + 1)) * (2 / iv.mpf(k + 3) - c355 / iv.log(n_iv / (k + 3)))
                margins.append((_fraction(margin.a), _fraction(margin.b)))
                assert n > (k + 3) * (3 * k + 8) and 2 * n > (k + 2) * (k + 3) ** 2, k
                assert n >= THETA_BOUND_X_MIN * (k + 3), k  # window bottom n/(k+3)
        # The margin falls as k rises, and its least value over k is still
        # at least the one at b.
        assert all(hi_next < lo for (lo, _), (_, hi_next) in zip(margins, margins[1:]))
        assert margins[-1][0] >= report.margin_lo > 0

    def test_report_independent_of_global_precision(self):
        # The enclosure and the midpoint must not be rounded at mp.prec.
        with mp.workprec(20):
            coarse = case1_margin(50217)
            coarse_margin = coarse.margin
        fine = case1_margin(50217)
        assert coarse == fine
        assert coarse_margin == fine.margin
        assert fine.margin_lo < fine.margin_hi

    def test_proved_range_follows_from_the_theta_range(self):
        # The chain checks theta on [1429, X], X = MARGIN_N_MIN - 1; the
        # margin reads theta on every window [n/(k+3), n/(k+1)], k <= k_cap(n).
        x_hi = MARGIN_N_MIN - 1
        # Bottom end: the worst window bottom n/(b+3) enters the theta
        # domain at MARGIN_N_MIN, and not one n earlier.
        assert MARGIN_N_MIN / (subset_size_bound(MARGIN_N_MIN).b + 3) >= THETA_BOUND_X_MIN
        below = MARGIN_N_MIN - 1
        assert below / (subset_size_bound(below).a + 3) < THETA_BOUND_X_MIN
        # Top end: the highest window top is n/2, at k = 1, so the proved
        # range ends at n = 2X, and it is tight: n = 2X + 1 reads past X.
        n_hi = 2 * x_hi
        assert n_hi == 100432
        for n in (MARGIN_N_MIN, n_hi):
            windows = [(Fraction(n, k + 3), Fraction(n, k + 1)) for k in range(1, k_cap(n) + 1)]
            assert all(THETA_BOUND_X_MIN <= bottom < top <= x_hi for bottom, top in windows), n
            assert max(top for _, top in windows) == windows[0][1] == Fraction(n, 2)
        assert Fraction(n_hi + 1, 2) > x_hi


class TestPrecisionConfig:
    def test_default(self):
        # Every report states the precision it ran at.
        assert precision_bits() == PRECISION_BITS == 128
        assert case1_margin(50217).precision_bits == PRECISION_BITS


class TestArtanhChain:
    # Consecutive primes at the chain's start, the domain edge and the
    # top of the production range, as (d, s) = (q - p, q + p); 2 -> 3 is (1, 5).
    PRIME_PAIRS = [(q - p, q + p) for p, q in ((2, 3), (3, 5), (1427, 1429), (1429, 1433),
                                                (50207, 50221))]

    @pytest.mark.parametrize("d, s", [(1, 3), (72, 100003)] + PRIME_PAIRS)
    def test_lemma_brackets_a_512_bit_artanh(self, d, s):
        G = theta_module.CHAIN_BITS
        lo, hi = theta_module._artanh_fixed(d, s)
        saved = iv.prec, mp.prec
        iv.prec = mp.prec = 512
        try:
            # artanh(d/s) = ln((s + d)/(s - d))/2, so the reference needs only iv.log.
            ref = iv.log(iv.mpf(s + d) / (s - d)) / 2
            assert lo <= mpf(ref.a) * 2**G and mpf(ref.b) * 2**G <= hi
        finally:
            iv.prec, mp.prec = saved
        # The allowance 4J + 2 stays small: J < G terms, each gaining at least 3 bits.
        assert 2 <= hi - lo <= 4 * G + 2

    @pytest.mark.parametrize("d, s", [(2, 5), (1, 2), (3, 8), (0, 5), (-1, 5), (-1, -3)])
    def test_pairs_outside_the_lemma_rejected(self, d, s):
        # (2, 5), (1, 2) and (3, 8) have y = d/s > 1/3; the rest have d <= 0.
        with pytest.raises(ValueError, match="1/3"):
            theta_module._artanh_fixed(d, s)

    def test_chain_contains_a_256_bit_log_at_every_prime(self, table_50216):
        F = PRECISION_BITS
        primes = table_50216.primes
        logs = list(theta_module._prime_logs(primes))
        assert len(logs) == len(primes)
        with _reference_precision():
            for p, (lo, hi) in zip(primes, logs):
                assert 0 <= hi - lo <= 2 ** (F - 120), p
                ref = iv.log(iv.mpf(p))
                # Scaling by 2^F is exact, so these comparisons are too.
                assert lo <= mpf(ref.a) * 2**F and mpf(ref.b) * 2**F <= hi, p

    def test_run_time_loads_no_mpmath(self):
        # mpmath is a test reference only: a fresh process that runs every
        # enclosure and both CLI checks must never import it.
        code = textwrap.dedent(
            """
            import io, sys
            from contextlib import redirect_stdout
            import esfscan, esfscan.cli
            from esfscan import case1_margin, check_theta_bounds, k_cap, sieve
            table = sieve(5000)
            assert k_cap(10**6) == 40 and case1_margin(50217).passed
            assert check_theta_bounds(1429, 5000, table).passed
            with redirect_stdout(io.StringIO()):
                assert esfscan.cli.main(["margin", "50217"]) == 0
                assert esfscan.cli.main(["theta", "--x-lo", "1429", "--x-hi", "3000"]) == 0
            print(sorted(name for name in sys.modules if name.startswith("mpmath")))
            """
        )
        src = str(Path(esfscan.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_on_the_production_range(self, run_cli):
        code, text = run_cli(["theta", "--x-lo", "1429", "--x-hi", "50216"])
        assert code == 0
        assert "PASS (9859 checks at 128-bit precision)" in text
        assert "min lower slack 0.208439, min upper slack 29.5812" in text
        width = float(text.rsplit("max enclosure width ", 1)[1].split()[0])
        # The per-prime mpi_log enclosures gave 2.32e-34 here.
        assert 0 < width <= 2.32e-34

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esfscan.rational import (
    format_rational,
    is_integer,
    is_prime,
    make_rational,
    p_adic_valuation,
    parse_rational,
)
from esfscan.primes import sieve

nonzero = st.integers(-(10**6), 10**6).filter(lambda v: v != 0)
rationals = st.builds(make_rational, st.integers(-(10**4), 10**4), nonzero)
nonzero_rationals = rationals.filter(lambda q: q != 0)


class TestConstruction:
    def test_reduces(self):
        assert make_rational(6, 4) == make_rational(3, 2)
        assert format_rational(make_rational(6, 4)) == "3/2"

    def test_unique_zero(self):
        assert format_rational(make_rational(0, 7)) == "0/1"

    def test_golden_13_12(self):
        assert format_rational(make_rational(13, 12)) == "13/12"

    def test_sign_in_numerator(self):
        q = make_rational(3, -6)
        assert q.numerator == -1 and q.denominator == 2

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            make_rational(1, 0)


class TestArithmetic:
    def test_add(self):
        assert make_rational(1, 2) + make_rational(1, 3) == make_rational(5, 6)

    def test_mul(self):
        assert make_rational(1, 2) * make_rational(1, 3) == make_rational(1, 6)

    @given(rationals, rationals)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(rationals, rationals)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(rationals, rationals, rationals)
    def test_mul_distributes_over_add(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rationals, rationals)
    def test_results_canonical(self, a, b):
        for q in (a + b, a * b, a - b):
            assert q.denominator >= 1
            assert math.gcd(int(abs(q.numerator)), int(q.denominator)) == 1


class TestIsInteger:
    def test_one(self):
        assert is_integer(make_rational(1, 1))

    def test_13_12(self):
        assert not is_integer(make_rational(13, 12))

    def test_zero(self):
        assert is_integer(make_rational(0))


class TestValuation:
    def test_golden_3_8(self):
        assert p_adic_valuation(make_rational(3, 8), 2) == -3

    def test_positive(self):
        assert p_adic_valuation(make_rational(12), 2) == 2

    def test_coprime(self):
        assert p_adic_valuation(make_rational(5, 6), 7) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            p_adic_valuation(make_rational(0), 2)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            p_adic_valuation(make_rational(1, 2), 4)

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_additive_over_mul(self, q1, q2, p):
        assert p_adic_valuation(q1 * q2, p) == p_adic_valuation(q1, p) + p_adic_valuation(q2, p)

    @given(st.integers(-(10**5), 10**5).filter(lambda v: v != 0), st.integers(2, 10**5))
    def test_integrality_matches_denominator_primes(self, num, den):
        # is_integer iff the valuation is non-negative at every prime of
        # the pre-reduction denominator.
        q = make_rational(num, den)
        d, p, factors = den, 2, []
        while p * p <= d:
            if d % p == 0:
                factors.append(p)
                while d % p == 0:
                    d //= p
            p += 1
        if d > 1:
            factors.append(d)
        assert is_integer(q) == all(p_adic_valuation(q, p) >= 0 for p in factors)


class TestPrimality:
    def test_small(self):
        assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_large_prime_and_composite(self):
        assert is_prime(1429)
        assert not is_prime(6771)  # 3 * 37 * 61

    def test_matches_sieve_on_certificate_range(self):
        primes = set(sieve(50216).primes)
        assert [m for m in range(50217) if is_prime(m) != (m in primes)] == []


class TestSerialization:
    def test_format(self):
        assert format_rational(make_rational(1)) == "1/1"
        assert format_rational(make_rational(-5, 10)) == "-1/2"

    @given(rationals)
    def test_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_parse_strict_rejects_unreduced(self):
        with pytest.raises(ValueError, match="not reduced"):
            parse_rational("6/4")

    def test_parse_strict_rejects_negative_denominator(self):
        with pytest.raises(ValueError, match="negative denominator"):
            parse_rational("1/-2")

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/0", "1/2/3"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

"""Exact rationals at the package's edges, and p-adic valuations.

The exact recursions of :mod:`esfscan.symfun` run in integers scaled by
n!, with no rational arithmetic; a rational value is made only where one
is read or written: the rows' ``value`` view and ``omit_sweep`` (for
``esfscan value`` and the tests), the scan's hits and the checkpoint's,
and the enumeration oracles.  Every such value is canonical:
gcd(|numerator|, denominator) == 1, denominator >= 1, and zero is
represented uniquely as 0/1.  The backing type is the standard library's
``fractions.Fraction``, which canonicalizes eagerly after every
operation and keeps the sign in the numerator, so the invariants above
hold for free.  :func:`int_valuation` serves the integer side.

Values are immutable, so callers may share them freely.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "fractions"

Rational = Fraction


def make_rational(num: int, den: int = 1) -> Rational:
    """Return num/den in canonical reduced form with positive denominator."""
    if den == 0:
        raise ValueError("rational with zero denominator")
    return Fraction(num, den)


def is_integer(q: Rational) -> bool:
    """True iff q has denominator 1."""
    return q.denominator == 1


def is_prime(n: int) -> bool:
    """Primality by trial division up to isqrt(n), exact for every n.

    ``p_adic_valuation`` calls it on its prime, and the tests check the
    sieves against it.  A call on m makes at most isqrt(m) - 1 divisions.
    """
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def int_valuation(m: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer m."""
    if m == 0:
        raise ValueError("valuation of zero is undefined")
    m = abs(m)
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def p_adic_valuation(q: Rational, p: int) -> int:
    """v_p(q) = v_p(numerator) - v_p(denominator) for nonzero q, prime p.

    Negative exactly when p divides the reduced denominator; the
    valuation of zero is rejected rather than treated as infinite.
    """
    if q == 0:
        raise ValueError("p-adic valuation of zero is undefined")
    if not is_prime(p):
        raise ValueError(f"p-adic valuation requires a prime, got {p}")
    num, den = q.numerator, q.denominator
    # In canonical form p divides at most one side.
    if den % p == 0:
        return -int_valuation(den, p)
    return int_valuation(num, p)


def format_rational(q: Rational) -> str:
    """Serialize as "<numerator>/<denominator>" in base 10 (e.g. "13/12").

    The denominator is always present, so integers render as "n/1".
    """
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse the "num/den" wire form produced by :func:`format_rational`.

    The text must already be canonical (positive denominator, gcd 1,
    zero spelled "0/1"), so checkpoint loading refuses corrupted state
    such as "6/4".
    """
    num_s, sep, den_s = text.partition("/")
    if not sep:
        raise ValueError(f"malformed rational {text!r}: missing '/'")
    try:
        num = int(num_s)
        den = int(den_s)
    except ValueError as exc:
        raise ValueError(f"malformed rational {text!r}") from exc
    if den == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    if den < 0:
        raise ValueError(f"non-canonical rational {text!r}: negative denominator")
    if math.gcd(abs(num), den) != 1:
        raise ValueError(f"non-canonical rational {text!r}: not reduced")
    return Fraction(num, den)

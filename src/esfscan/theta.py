"""Chebyshev prime-log sums and the analytic-case inequality checks.

Everything here evaluates strict inequalities that are claimed to hold
exactly, so plain floating point is not good enough: all arithmetic runs
in mpmath interval arithmetic (outward-rounded enclosures), which gives
directed rounding and explicit error accounting in one mechanism.  A
check passes only when it holds between opposing interval endpoints, so
a reported pass is rigorous at the stated precision.

Working precision defaults to 96 bits and can be overridden through the
ESF_PRECISION_BITS environment variable; a fixed number of guard bits is
added internally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from mpmath import iv, mp, mpf

from .primes import PrimeTable

DEFAULT_PRECISION_BITS = 96
_GUARD_BITS = 32

# The two-sided bound verified by check_theta_bounds:
#   x - 0.334 x / ln x  <  theta(x)  <  x + 0.021 x / ln x   for x >= 1429.
THETA_BOUND_X_MIN = 1429
_LOWER_COEFF = (334, 1000)
_UPPER_COEFF = (21, 1000)

# Margin checks apply from this n on; below it the prime window is
# covered by sieve verification instead.
MARGIN_N_MIN = 50217


def precision_bits() -> int:
    """Configured verification precision (mantissa bits)."""
    raw = os.environ.get("ESF_PRECISION_BITS")
    if raw is None:
        return DEFAULT_PRECISION_BITS
    bits = int(raw)
    if bits < 80:
        raise ValueError(f"ESF_PRECISION_BITS must be >= 80, got {bits}")
    return bits


@dataclass(frozen=True)
class ThetaValue:
    value: mpf  # enclosure midpoint
    error_bound: float  # conservative absolute error (full enclosure width)
    precision_bits: int


def theta(x: float, table: PrimeTable, prec_bits: Optional[int] = None) -> ThetaValue:
    """Sum of ln p over primes p <= x, with a rigorous error bound."""
    if x > table.limit:
        raise ValueError(f"x={x} beyond prime table limit {table.limit}")
    bits = prec_bits if prec_bits is not None else precision_bits()
    saved = iv.prec
    iv.prec = bits + _GUARD_BITS
    try:
        acc = iv.mpf(0)
        for p in table.primes:
            if p > x:
                break
            acc += iv.log(iv.mpf(p))
        # At the global mpmath precision (53 bits by default) the midpoint
        # would be rounded far beyond the error bound claimed below.
        with mp.workprec(iv.prec):
            mid = (mpf(acc.a) + mpf(acc.b)) / 2
        width = float(mpf(acc.delta.b))
    finally:
        iv.prec = saved
    return ThetaValue(value=mid, error_bound=width, precision_bits=bits)


@dataclass(frozen=True)
class ThetaBoundsReport:
    x_lo: float
    x_hi: float
    precision_bits: int
    primes_checked: int
    checks: int
    min_lower_slack: float
    min_upper_slack: float
    max_enclosure_width: float
    failures: Tuple[Tuple[float, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_theta_bounds(
    x_lo: float, x_hi: float, table: PrimeTable, prec_bits: Optional[int] = None
) -> ThetaBoundsReport:
    """Verify the two-sided bound everywhere on [x_lo, x_hi].

    The prime-log sum only changes at primes, both bound curves increase,
    and the sum is right-continuous.  On a plateau [p, q) the binding
    checks are therefore the upper bound at the left end (right after the
    jump at p) and the lower bound at the right end (the left limit at
    the next prime q).  Checking those two points at every prime in
    range, plus the interval endpoints, covers every real x in between.
    """
    if x_lo < THETA_BOUND_X_MIN:
        raise ValueError(f"bound only claimed for x >= {THETA_BOUND_X_MIN}, got x_lo={x_lo}")
    if x_lo > x_hi:
        raise ValueError(f"empty range [{x_lo}, {x_hi}]")
    if x_hi > table.limit:
        raise ValueError(f"x_hi={x_hi} beyond prime table limit {table.limit}")
    bits = prec_bits if prec_bits is not None else precision_bits()
    saved = iv.prec
    iv.prec = bits + _GUARD_BITS
    try:
        c_lo = iv.mpf(_LOWER_COEFF[0]) / _LOWER_COEFF[1]
        c_hi = iv.mpf(_UPPER_COEFF[0]) / _UPPER_COEFF[1]

        def lower_curve(x):
            xi = iv.mpf(x)
            return xi - c_lo * xi / iv.log(xi)

        def upper_curve(x):
            xi = iv.mpf(x)
            return xi + c_hi * xi / iv.log(xi)

        failures: List[Tuple[float, str]] = []
        min_lo_slack = None
        min_hi_slack = None
        checks = 0

        def check_lower(x, acc):
            # need lower_curve(x) < theta-value `acc` (acc = theta on the
            # plateau whose closure contains x)
            nonlocal min_lo_slack, checks
            lo, hi = mpf(acc.a), mpf(lower_curve(x).b)
            slack = lo - hi
            checks += 1
            if min_lo_slack is None or slack < min_lo_slack:
                min_lo_slack = slack
            if not lo > hi:
                failures.append((float(x), "lower"))

        def check_upper(x, acc):
            nonlocal min_hi_slack, checks
            lo, hi = mpf(upper_curve(x).a), mpf(acc.b)
            slack = lo - hi
            checks += 1
            if min_hi_slack is None or slack < min_hi_slack:
                min_hi_slack = slack
            if not lo > hi:
                failures.append((float(x), "upper"))

        # The endpoint comparisons that decide each verdict are exact; the
        # slacks and the width are formed at the working precision, not at
        # the global mpmath one.
        with mp.workprec(iv.prec):
            acc = iv.mpf(0)
            start = table.index_gt(x_lo)
            for p in table.primes[:start]:
                acc += iv.log(iv.mpf(p))
            primes_checked = 0
            # Both bounds at x_lo itself.
            check_lower(x_lo, acc)
            check_upper(x_lo, acc)
            for p in table.primes[start:]:
                if p > x_hi:
                    break
                primes_checked += 1
                check_lower(p, acc)  # left limit at p: x -> p from below
                acc += iv.log(iv.mpf(p))
                check_upper(p, acc)  # right after the jump at p
            check_lower(x_hi, acc)
            max_width = float(mpf(acc.delta.b))
    finally:
        iv.prec = saved
    return ThetaBoundsReport(
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        precision_bits=bits,
        primes_checked=primes_checked,
        checks=checks,
        min_lower_slack=float(min_lo_slack),
        min_upper_slack=float(min_hi_slack),
        max_enclosure_width=max_width,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class MarginReport:
    """Outcome of the large-n prime-window existence inequality.

    ``margin_lo``/``margin_hi`` enclose the worst-case lower bound on the
    prime-log difference across the certificate window, with the subset
    size replaced by its upper bound b(n) = e*ln(n) + e:

        (n/(b+1)) * (2/(b+3) - 0.355/ln(n/(b+3)))

    The auxiliary fields confirm n > (b+3)(3b+8) and n > (b+2)(b+3)^2/2
    (which push the window above the certificate threshold) and that the
    window bottom n/(b+3) stays in the theta-bound domain x >= 1429.
    """

    n: int
    margin_lo: mpf
    margin_hi: mpf
    aux_product_ok: bool
    aux_square_ok: bool
    window_in_theta_domain: bool
    precision_bits: int

    @property
    def margin(self) -> mpf:
        return (self.margin_lo + self.margin_hi) / 2

    @property
    def passed(self) -> bool:
        return (
            self.margin_lo > 0
            and self.aux_product_ok
            and self.aux_square_ok
            and self.window_in_theta_domain
        )


def case1_margin(n: int, prec_bits: Optional[int] = None) -> MarginReport:
    """Evaluate the analytic margin at n >= 50217 in interval arithmetic."""
    if n < MARGIN_N_MIN:
        raise ValueError(f"margin check applies for n >= {MARGIN_N_MIN}, got {n}")
    bits = prec_bits if prec_bits is not None else precision_bits()
    saved = iv.prec
    iv.prec = bits + _GUARD_BITS
    try:
        n_iv = iv.mpf(n)
        b = iv.e * iv.log(n_iv) + iv.e
        c355 = iv.mpf(355) / 1000
        margin = (n_iv / (b + 1)) * (2 / (b + 3) - c355 / iv.log(n_iv / (b + 3)))
        aux_product = mpf(n_iv.a) > mpf(((b + 3) * (3 * b + 8)).b)
        aux_square = mpf(n_iv.a) > mpf(((b + 2) * (b + 3) ** 2 / 2).b)
        in_domain = mpf((n_iv / (b + 3)).a) >= THETA_BOUND_X_MIN
        lo, hi = mpf(margin.a), mpf(margin.b)
    finally:
        iv.prec = saved
    return MarginReport(
        n=n,
        margin_lo=lo,
        margin_hi=hi,
        aux_product_ok=aux_product,
        aux_square_ok=aux_square,
        window_in_theta_domain=in_domain,
        precision_bits=bits,
    )

"""Chebyshev prime-log sums and the analytic-case inequality checks.

Everything here evaluates strict inequalities that are claimed to hold
exactly, so plain floating point is not good enough: all arithmetic runs
in mpmath interval arithmetic (outward-rounded enclosures), which gives
directed rounding and explicit error accounting in one mechanism.  A
check passes only when it holds between opposing interval endpoints, so
a reported pass is rigorous at the stated precision.

Working precision defaults to 96 bits and can be overridden through the
ESF_PRECISION_BITS environment variable; a fixed number of guard bits is
added internally.  Every function here, and ``symfun.k_cap``, runs in
one precision scope, :func:`working_precision`, which sets the interval
and the point precision together and restores both.  Endpoint
conversions, slacks and midpoints are therefore formed at the working
precision, never at whatever global mpmath precision the caller has set.
No other code in the package sets an mpmath precision.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

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


@contextmanager
def working_precision(bits: int) -> Iterator[None]:
    """Run the body with ``iv.prec`` and ``mp.prec`` both at ``bits``."""
    saved = iv.prec, mp.prec
    iv.prec = mp.prec = bits
    try:
        yield
    finally:
        iv.prec, mp.prec = saved


@dataclass(frozen=True)
class ThetaValue:
    value: mpf  # enclosure midpoint
    error_bound: float  # conservative absolute error (full enclosure width)
    precision_bits: int


def theta(x: float, table: PrimeTable) -> ThetaValue:
    """Sum of ln p over primes p <= x, with a rigorous error bound."""
    if x > table.limit:
        raise ValueError(f"x={x} beyond prime table limit {table.limit}")
    bits = precision_bits()
    with working_precision(bits + _GUARD_BITS):
        acc = sum((iv.log(iv.mpf(p)) for p in table.primes[: table.index_gt(x)]), iv.mpf(0))
        mid = (mpf(acc.a) + mpf(acc.b)) / 2
        width = float(mpf(acc.delta.b))
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


def check_theta_bounds(x_lo: float, x_hi: float, table: PrimeTable) -> ThetaBoundsReport:
    """Verify the two-sided bound everywhere on [x_lo, x_hi].

    The prime-log sum only changes at primes, both bound curves increase,
    and the sum is right-continuous.  On a plateau [p, q) the binding
    checks are therefore the upper bound at the left end (right after the
    jump at p) and the lower bound at the right end (the left limit at
    the next prime q).  Checking those two points at every prime in
    range, plus the interval endpoints, covers every real x in between.
    """
    # Stated positively, so a NaN bound fails it too.
    if not THETA_BOUND_X_MIN <= x_lo <= x_hi <= table.limit:
        raise ValueError(
            f"need {THETA_BOUND_X_MIN} <= x_lo <= x_hi <= {table.limit} (the prime table"
            f" limit), got [{x_lo}, {x_hi}]"
        )
    bits = precision_bits()
    failures: List[Tuple[float, str]] = []
    min_slack = {"lower": None, "upper": None}
    checks = 0
    with working_precision(bits + _GUARD_BITS):
        c_lo = iv.mpf(_LOWER_COEFF[0]) / _LOWER_COEFF[1]
        c_hi = iv.mpf(_UPPER_COEFF[0]) / _UPPER_COEFF[1]

        def check(x, acc, side):
            # The lower curve must lie below the enclosure `acc` of theta
            # on the plateau whose closure contains x, the upper curve
            # above it; the verdict compares opposing endpoints exactly.
            nonlocal checks
            xi = iv.mpf(x)
            if side == "lower":
                lo, hi = mpf(acc.a), mpf((xi - c_lo * xi / iv.log(xi)).b)
            else:
                lo, hi = mpf((xi + c_hi * xi / iv.log(xi)).a), mpf(acc.b)
            slack = lo - hi
            checks += 1
            if min_slack[side] is None or slack < min_slack[side]:
                min_slack[side] = slack
            if not lo > hi:
                failures.append((float(x), side))

        start = table.index_gt(x_lo)
        in_range = table.primes[start : table.index_gt(x_hi)]
        acc = sum((iv.log(iv.mpf(p)) for p in table.primes[:start]), iv.mpf(0))
        # Both bounds at x_lo itself.
        check(x_lo, acc, "lower")
        check(x_lo, acc, "upper")
        for p in in_range:
            check(p, acc, "lower")  # left limit at p: x -> p from below
            acc += iv.log(iv.mpf(p))
            check(p, acc, "upper")  # right after the jump at p
        check(x_hi, acc, "lower")
        max_width = float(mpf(acc.delta.b))
    return ThetaBoundsReport(
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        precision_bits=bits,
        primes_checked=len(in_range),
        checks=checks,
        min_lower_slack=float(min_slack["lower"]),
        min_upper_slack=float(min_slack["upper"]),
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
        with working_precision(self.precision_bits + _GUARD_BITS):
            return (self.margin_lo + self.margin_hi) / 2

    @property
    def passed(self) -> bool:
        return (
            self.margin_lo > 0
            and self.aux_product_ok
            and self.aux_square_ok
            and self.window_in_theta_domain
        )


def case1_margin(n: int) -> MarginReport:
    """Evaluate the analytic margin at n >= 50217 in interval arithmetic."""
    if n < MARGIN_N_MIN:
        raise ValueError(f"margin check applies for n >= {MARGIN_N_MIN}, got {n}")
    bits = precision_bits()
    with working_precision(bits + _GUARD_BITS):
        n_iv = iv.mpf(n)
        b = iv.e * iv.log(n_iv) + iv.e
        c355 = iv.mpf(355) / 1000
        margin = (n_iv / (b + 1)) * (2 / (b + 3) - c355 / iv.log(n_iv / (b + 3)))
        # Every endpoint converts exactly, so the comparisons below are
        # exact and [lo, hi] stays an outward enclosure.
        aux_product = mpf(n_iv.a) > mpf(((b + 3) * (3 * b + 8)).b)
        aux_square = mpf(n_iv.a) > mpf(((b + 2) * (b + 3) ** 2 / 2).b)
        in_domain = mpf((n_iv / (b + 3)).a) >= THETA_BOUND_X_MIN
        lo, hi = mpf(margin.a), mpf(margin.b)
    return MarginReport(
        n=n,
        margin_lo=lo,
        margin_hi=hi,
        aux_product_ok=aux_product,
        aux_square_ok=aux_square,
        window_in_theta_domain=in_domain,
        precision_bits=bits,
    )

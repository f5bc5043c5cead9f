"""Chebyshev prime-log sums and the analytic-case inequality checks.

Everything here evaluates strict inequalities that are claimed to hold
exactly, so plain floating point is not good enough: all arithmetic runs
in mpmath interval arithmetic (outward-rounded enclosures), which gives
directed rounding and explicit error accounting in one mechanism.  A
check passes only when it holds between opposing interval endpoints, so
a reported pass is rigorous at the stated precision.

There is one working precision, ``PRECISION_BITS`` = 128 mantissa
bits, and every report states it.  Every function here (``symfun.k_cap``
reads b(n) from :func:`subset_size_bound`) runs in one precision scope,
:func:`working_precision`, which sets the interval and the point
precision together and restores both, so endpoint conversions, slacks
and midpoints never depend on the caller's global mpmath precision.  No
other code in the package sets an mpmath precision.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from mpmath import iv, mp, mpf

from .primes import PrimeTable

PRECISION_BITS = 128

# The two-sided bound verified by check_theta_bounds:
#   x - 0.334 x / ln x  <  theta(x)  <  x + 0.021 x / ln x   for x >= 1429.
THETA_BOUND_X_MIN = 1429
_LOWER_COEFF = (334, 1000)
_UPPER_COEFF = (21, 1000)

# Margin checks apply from this n on; below it the prime window is
# covered by sieve verification instead.
MARGIN_N_MIN = 50217


def precision_bits() -> int:
    """The working precision in mantissa bits."""
    return PRECISION_BITS


@contextmanager
def working_precision() -> Iterator[None]:
    """Run the body with ``iv.prec`` and ``mp.prec`` both at ``PRECISION_BITS``."""
    saved = iv.prec, mp.prec
    iv.prec = mp.prec = PRECISION_BITS
    try:
        yield
    finally:
        iv.prec, mp.prec = saved


@dataclass(frozen=True)
class ThetaValue:
    value: mpf  # enclosure midpoint
    error_bound: float  # conservative absolute error (full enclosure width)
    precision_bits: int


def subset_size_bound(n: int) -> iv.mpf:
    """The enclosure of b(n) = e*ln(n) + e, for ``symfun.k_cap`` and :func:`case1_margin`."""
    with working_precision():
        return iv.e * iv.log(iv.mpf(n)) + iv.e


def _prime_log_sum(x: float, table: PrimeTable) -> iv.mpf:
    """The enclosure of the sum of ln p over primes p <= x; call under working_precision()."""
    return sum((iv.log(iv.mpf(p)) for p in table.primes[: table.index_gt(x)]), iv.mpf(0))


def theta(x: float, table: PrimeTable) -> ThetaValue:
    """Sum of ln p over primes p <= x, with a rigorous error bound."""
    if x > table.limit:
        raise ValueError(f"x={x} beyond prime table limit {table.limit}")
    with working_precision():
        acc = _prime_log_sum(x, table)
        mid = (mpf(acc.a) + mpf(acc.b)) / 2
        width = float(mpf(acc.delta.b))
    return ThetaValue(value=mid, error_bound=width, precision_bits=PRECISION_BITS)


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
    failures: List[Tuple[float, str]] = []
    min_slack = {"lower": mpf("inf"), "upper": mpf("inf")}
    checks = 0
    with working_precision():
        c_lo = iv.mpf(_LOWER_COEFF[0]) / _LOWER_COEFF[1]
        c_hi = iv.mpf(_UPPER_COEFF[0]) / _UPPER_COEFF[1]

        def check(x, log_x, acc, side):
            # The lower curve must lie below the enclosure `acc` of theta on the
            # plateau whose closure contains x, the upper curve above it; the
            # verdict compares opposing endpoints exactly.  `log_x` encloses ln x.
            nonlocal checks
            xi = iv.mpf(x)
            if side == "lower":
                lo, hi = mpf(acc.a), mpf((xi - c_lo * xi / log_x).b)
            else:
                lo, hi = mpf((xi + c_hi * xi / log_x).a), mpf(acc.b)
            checks += 1
            min_slack[side] = min(min_slack[side], lo - hi)
            if not lo > hi:
                failures.append((float(x), side))

        in_range = table.primes[table.index_gt(x_lo) : table.index_gt(x_hi)]
        acc = _prime_log_sum(x_lo, table)
        # Both bounds at x_lo itself.
        log_x = iv.log(iv.mpf(x_lo))
        check(x_lo, log_x, acc, "lower")
        check(x_lo, log_x, acc, "upper")
        for p in in_range:
            log_p = iv.log(iv.mpf(p))  # serves both checks at p and the jump
            check(p, log_p, acc, "lower")  # left limit at p: x -> p from below
            acc += log_p
            check(p, log_p, acc, "upper")  # right after the jump at p
        check(x_hi, iv.log(iv.mpf(x_hi)), acc, "lower")
        max_width = float(mpf(acc.delta.b))
    return ThetaBoundsReport(
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        precision_bits=PRECISION_BITS,
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
        with working_precision():
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
    """Evaluate the analytic margin at n >= 50217 in interval arithmetic.

    One passing check at n = 50217 covers every larger n.  Write L = ln n,
    b = eL + e and x = b + 3.  The prefactor n/(b+1) is positive and so is
    ln(n/x) while the window bottom n/x is >= 1429, so the margin has the
    sign of g(L) = 2(L - ln x) - 0.355x, and

        g'(L) = 2 - 2e/x - 0.355e >= 2 - 2e/(e+3) - 0.355e ~ 0.0843 > 0

    for every L >= 0: g only grows.  The right-hand sides (b+3)(3b+8) and
    (b+2)(b+3)^2/2 of the auxiliary inequalities have derivatives in n of
    (e/n)(6b+17) ~ 0.0114 and (e/n)(b+3)(3b+7)/2 ~ 0.0984 at n = 50217.
    Both are < 1 and fall as n grows, since the derivatives of (6b+17)/n
    and (b+3)(3b+7)/n have numerators 6e - 6b - 17 < 0 and
    e(6b+16) - (b+3)(3b+7) < 0 for b >= 4; so n, of slope 1, stays above
    them.  The window bottom n/(b+3) has derivative (b+3-e)/(b+3)^2 > 0,
    so it only grows from its value 1429.004 at n = 50217; this is the
    condition that binds.  ``tests/test_theta.py`` checks these bounds in
    interval arithmetic.  The check is at the worst case k = b(n); that
    each fact carries down to every integer k < b is not proved here.
    """
    if n < MARGIN_N_MIN:
        raise ValueError(f"margin check applies for n >= {MARGIN_N_MIN}, got {n}")
    with working_precision():
        n_iv = iv.mpf(n)
        b = subset_size_bound(n)
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
        precision_bits=PRECISION_BITS,
    )

"""Chebyshev prime-log sums and the analytic-case inequality checks.

Everything here evaluates strict inequalities that are claimed to hold
exactly, so plain floating point is not good enough.  The trust base is
mpmath's outward-rounded logarithm (``mpmath.libmp.mpi_log``, the
routine behind ``iv.log``): the theta checks take one enclosure of ln x
per point from it, turn it into fixed-point integers l <= 2^F ln x <= u
with F = ``PRECISION_BITS`` (floor and ceiling), and from there on run in
exact integer arithmetic: the prime-log sum is a pair of integer sums
and every check is one integer inequality.  The margin check and the
subset-size bound b(n) run in mpmath interval arithmetic (outward-rounded
enclosures).  A check passes only when it holds between opposing
endpoints, so a reported pass is rigorous at the stated precision.

There is one working precision, ``PRECISION_BITS`` = 128 bits, and every
report states it.  Every interval evaluation here (``symfun.k_cap``
reads b(n) from :func:`subset_size_bound`) runs in one precision scope,
:func:`working_precision`, which sets the interval and the point
precision together and restores both, so endpoint conversions, slacks
and midpoints never depend on the caller's global mpmath precision; the
log enclosures pass the precision to ``mpi_log`` explicitly.  No other
code in the package sets an mpmath precision.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from mpmath import iv, libmp, mp, mpf

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


def _log_fixed(x: float) -> Tuple[int, int]:
    """Integers l <= 2^F ln x <= u, F = PRECISION_BITS, from mpmath's outward-rounded log.

    x (an int or a float) is an exact dyadic rational, so the point
    interval [x, x] is exact; ``mpi_log`` rounds its ends down and up at
    F bits, and the fixed-point conversion floors l and ceils u.
    """
    a, d = x.as_integer_ratio()
    if d & (d - 1):
        raise ValueError(f"x={x} is not a dyadic rational")
    point = libmp.from_man_exp(a, 1 - d.bit_length())
    lo, hi = libmp.mpi_log((point, point), PRECISION_BITS)
    return libmp.to_fixed(lo, PRECISION_BITS), -libmp.to_fixed(libmp.mpf_neg(hi), PRECISION_BITS)


def _prime_log_sum(x: float, table: PrimeTable) -> Tuple[int, int]:
    """Integers A_lo <= 2^F theta(x) <= A_hi: the sums of the ln p enclosures over primes p <= x."""
    logs = [_log_fixed(p) for p in table.primes[: table.index_gt(x)]]
    return sum(lo for lo, _ in logs), sum(hi for _, hi in logs)


def theta(x: float, table: PrimeTable) -> ThetaValue:
    """Sum of ln p over primes p <= x, with a rigorous error bound."""
    if x > table.limit:
        raise ValueError(f"x={x} beyond prime table limit {table.limit}")
    lo, hi = _prime_log_sum(x, table)
    mid = mp.make_mpf(libmp.from_man_exp(lo + hi, -PRECISION_BITS - 1))  # exact
    return ThetaValue(mid, (hi - lo) / 2**PRECISION_BITS, PRECISION_BITS)


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

    Each check is one exact integer inequality.  Write F = PRECISION_BITS,
    x = a/d (x is an int or a float, so a dyadic rational) and c = cn/cd
    for either coefficient; both are positive.  Every prime's log comes
    as integers l_p <= 2^F ln p <= u_p (:func:`_log_fixed` floors the
    lower end and ceils the upper end of an outward-rounded enclosure),
    and the integer sums A_lo = sum l_p and A_hi = sum u_p add no
    rounding, so A_lo <= 2^F theta <= A_hi on the plateau.  With
    u = u_x >= 2^F ln x > 0 we have 1/ln x >= 2^F/u, hence

        x - c x/ln x <= (a/d)(1 - c 2^F/u),   x + c x/ln x >= (a/d)(1 + c 2^F/u).

    So the lower bound holds if A_lo/2^F exceeds the first right-hand
    side and the upper bound holds if A_hi/2^F is below the second.
    Multiplied by the positive cd 2^F u d these read

        lower:  cd A_lo u d > 2^F a (cd u - cn 2^F),
        upper:  2^F a (cd u + cn 2^F) > cd A_hi u d.

    Only u_x is read: the lower curve rises and the upper curve falls as
    ln x grows, so an upper end of ln x bounds the lower curve from above
    and the upper curve from below, the sides each check needs.  A slack
    is the difference of the two sides over cd 2^F u d, a lower bound on
    the true slack, rounded once to the nearest float.
    """
    # Stated positively, so a NaN bound fails it too.
    if not THETA_BOUND_X_MIN <= x_lo <= x_hi <= table.limit:
        raise ValueError(
            f"need {THETA_BOUND_X_MIN} <= x_lo <= x_hi <= {table.limit} (the prime table"
            f" limit), got [{x_lo}, {x_hi}]"
        )
    F = PRECISION_BITS
    failures: List[Tuple[float, str]] = []
    min_slack = {"lower": float("inf"), "upper": float("inf")}

    def check(x, u_x, acc, side):
        # The lower curve must lie below the enclosure `acc` = (A_lo, A_hi)
        # of 2^F theta on the plateau whose closure contains x, the upper
        # curve above it.  `u_x` >= 2^F ln x.
        a, d = x.as_integer_ratio()
        cn, cd = _LOWER_COEFF if side == "lower" else _UPPER_COEFF
        if side == "lower":
            num = cd * acc[0] * u_x * d - (a << F) * (cd * u_x - (cn << F))
        else:
            num = (a << F) * (cd * u_x + (cn << F)) - cd * acc[1] * u_x * d
        min_slack[side] = min(min_slack[side], num / (cd * u_x * d << F))
        if not num > 0:
            failures.append((float(x), side))

    in_range = table.primes[table.index_gt(x_lo) : table.index_gt(x_hi)]
    acc = _prime_log_sum(x_lo, table)
    for side in ("lower", "upper"):  # both bounds at x_lo itself
        check(x_lo, _log_fixed(x_lo)[1], acc, side)
    for p in in_range:
        l_p, u_p = _log_fixed(p)  # serves both checks at p and the jump
        check(p, u_p, acc, "lower")  # left limit at p: x -> p from below
        acc = (acc[0] + l_p, acc[1] + u_p)
        check(p, u_p, acc, "upper")  # right after the jump at p
    check(x_hi, _log_fixed(x_hi)[1], acc, "lower")
    return ThetaBoundsReport(
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        precision_bits=PRECISION_BITS,
        primes_checked=len(in_range),
        checks=2 * len(in_range) + 3,
        min_lower_slack=min_slack["lower"],
        min_upper_slack=min_slack["upper"],
        max_enclosure_width=(acc[1] - acc[0]) / 2**F,
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
    condition that binds.

    The check at the worst case k = b covers every smaller k.  At subset
    size k the margin is (n/(k+1)) * (2/(k+3) - 0.355/ln(n/(k+3))).  As k
    falls, 2/(k+3) rises and ln(n/(k+3)) rises, so the bracket rises; the
    prefactor n/(k+1) rises too, so a positive margin only grows.  The
    window bottom n/(k+3) rises, and the thresholds (k+3)(3k+8) and
    (k+2)(k+3)^2/2 fall, so all four facts hold at every real k <= b.
    The check runs on the whole enclosure of b, whose upper end is at
    least k_cap(n), so at a checked n it covers every integer
    k <= k_cap(n).  At a larger n, an integer k in (b, k_cap(n)] (one
    exists only when the enclosure of b(n) reaches an integer) needs no
    window: k > e(ln n + 1), so omit(n, i, k) < 1 by the bound in the
    ``symfun.k_cap`` docstring.  ``tests/test_theta.py`` checks these
    bounds in interval arithmetic, and the four facts at every integer
    k <= k_cap(n) for four n.
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

"""Chebyshev prime-log sums and the analytic-case inequality checks.

Everything here evaluates strict inequalities that are claimed to hold
exactly, so plain floating point is not good enough.  Every quantity is
enclosed by exact integers or ``fractions.Fraction`` ends, and every
check is an exact comparison between opposing ends, so a reported pass
is rigorous.  The trust base is two lemmas, each proved in its
docstring:

* the integer artanh lemma (:func:`_artanh_fixed`), integers
  L <= 2^G artanh(d/s) < L + 4J + 2 for 0 < d/s <= 1/3.  Every logarithm
  comes from it: each prime's from the previous prime's through
  ln q = ln p + 2 artanh((q - p)/(q + p)) (:func:`_prime_logs`), and that
  of any rational x >= 1 from
  ln x = 2j artanh(1/3) + 2 artanh((x - 2^j)/(x + 2^j)) with
  2^j <= x < 2^(j+1) (:func:`_log_fixed`);
* the e series (:func:`_e_fixed`), integers E <= 2^G e < E + 2J + 4.

The theta checks run on fixed-point integers l <= 2^F ln x <= u with F =
``PRECISION_BITS`` and from there on in integers: the prime-log sum is a
pair of integer sums and every check is one integer inequality.  The
subset-size bound b(n) = e ln n + e (which ``symfun.k_cap`` reads) and the
margin check are ``Fraction`` enclosures built from the same integers.

There is one working precision, ``PRECISION_BITS`` = 128 bits, and every
report states it.  Nothing here reads a global precision or a rounding
mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Tuple

from .primes import PrimeTable

PRECISION_BITS = 128
# The artanh chain of _prime_logs runs in units of 2^-CHAIN_BITS.  Its 32
# guard bits keep the lemma's allowances (44 to 324 units per prime up to
# 50216, 3.0e5 in all) far below one unit of 2^-F for millions of primes.
_GUARD_BITS = 32
CHAIN_BITS = PRECISION_BITS + _GUARD_BITS

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


class Enclosure(NamedTuple):
    """Exact ends a <= b of an enclosure."""

    a: Fraction
    b: Fraction


def _artanh_fixed(d: int, s: int) -> Tuple[int, int]:
    """Integers L <= 2^G artanh(d/s) < L + 4J + 2, G = CHAIN_BITS, for integers 0 < d <= s/3.

    The lemma.  Write y = d/s, so 0 < y <= 1/3, and
    artanh y = sum_{j>=0} y^(2j+1)/(2j+1).  Set P_0 = floor(2^G d/s) and
    P_{j+1} = floor(P_j d^2/s^2).  By induction on j,

        2^G y^(2j+1) - (j+1) < P_j <= 2^G y^(2j+1):

    it holds at j = 0, and P_{j+1} <= P_j y^2 <= 2^G y^(2j+3) while
    P_{j+1} > P_j y^2 - 1 > 2^G y^(2j+3) - (j+1) y^2 - 1 > 2^G y^(2j+3) - (j+2).
    Let J be the first j with P_J = 0 (P_j falls by a factor y^2 <= 1/9,
    so J exists) and L = sum_{j<J} floor(P_j/(2j+1)).  Each summand is at
    most 2^G y^(2j+1)/(2j+1), and every term of the series is positive,
    so L <= 2^G artanh y.  Each summand also exceeds
    (2^G y^(2j+1) - (j+1))/(2j+1) - 1 >= 2^G y^(2j+1)/(2j+1) - 2, so the
    first J terms lose less than 2J.  P_J = 0 gives 2^G y^(2J+1) < J+1,
    so the tail is at most 2^G y^(2J+1)/(1 - y^2) < (J+1)/(1 - y^2)
    <= 9(J+1)/8 <= 2(J+1).  Hence 2^G artanh y < L + 2J + 2(J+1).

    Consecutive primes p < q have q <= 2p (Bertrand), so d = q - p and
    s = q + p give y <= 1/3.  A pair outside 0 < y <= 1/3 raises
    ``ValueError``.
    """
    if not (0 < d and 3 * d <= s):
        raise ValueError(f"need 0 < d/s <= 1/3, got d={d}, s={s}")
    d2, s2 = d * d, s * s
    term, total, j = (d << CHAIN_BITS) // s, 0, 0
    while term:
        total += term // (2 * j + 1)
        term = term * d2 // s2
        j += 1
    return total, total + 4 * j + 2


_ARTANH_THIRD = _artanh_fixed(1, 3)  # artanh(1/3) = (ln 2)/2


def _log_fixed(x) -> Tuple[int, int]:
    """Integers l <= 2^F ln x <= u, F = PRECISION_BITS, for a rational x >= 1.

    x is an int, a float or a ``Fraction``; write x = a/d and take j with
    2^j <= x < 2^(j+1).  Then ln x = j ln 2 + ln(x/2^j), where
    ln 2 = 2 artanh(1/3) and ln(x/2^j) = 2 artanh((a - 2^j d)/(a + 2^j d)).
    That argument lies in [0, 1/3), and it is 0, so the term vanishes,
    exactly when x = 2^j.  The lemma (:func:`_artanh_fixed`) encloses
    each artanh at G = CHAIN_BITS bits, and the enclosure of the sum is
    floored at its lower end and ceiled at its upper end to F bits.
    x < 1 raises ``ValueError``.
    """
    a, d = x.as_integer_ratio()
    if a < d:
        raise ValueError(f"need x >= 1, got {x}")
    j = (a // d).bit_length() - 1
    l, u = _artanh_fixed(a - (d << j), a + (d << j)) if a != d << j else (0, 0)
    lo, hi = 2 * (j * _ARTANH_THIRD[0] + l), 2 * (j * _ARTANH_THIRD[1] + u)
    return lo >> _GUARD_BITS, -(-hi >> _GUARD_BITS)


def _e_fixed() -> Tuple[int, int]:
    """Integers E <= 2^G e < E + 2J + 4, G = CHAIN_BITS, from e = sum_{j>=0} 1/j!.

    Set t_0 = 2^G and t_j = floor(t_{j-1}/j).  By induction on j,

        2^G/j! - 2 < t_j <= 2^G/j!:

    t_1 = t_0, and for j >= 2, t_j <= t_{j-1}/j <= 2^G/j! while
    t_j > t_{j-1}/j - 1 > 2^G/j! - 2/j - 1 >= 2^G/j! - 2.  Let J be the
    first j with t_J = 0 (t_j falls at least by half from j = 2 on, so J
    exists) and E = t_0 + ... + t_{J-1}.  Each t_j <= 2^G/j! and every
    term of the series is positive, so E <= 2^G e.  The first J terms
    lose less than 2J.  t_J = 0 gives 2^G/J! < 2, so the tail is
    2^G sum_{j>=J} 1/j! <= (2^G/J!)(1 + 1/(J+1) + 1/(J+1)^2 + ...)
    <= 2 * 2^G/J! < 4.  Hence 2^G e < E + 2J + 4.
    """
    term, total, j = 1 << CHAIN_BITS, 0, 0
    while term:
        total += term
        j += 1
        term //= j
    return total, total + 2 * j + 4


_E = tuple(Fraction(end, 1 << CHAIN_BITS) for end in _e_fixed())  # e's ends, once


def subset_size_bound(n: int) -> Enclosure:
    """Fractions a <= b(n) = e*ln(n) + e <= b, for ``symfun.k_cap`` and :func:`case1_margin`.

    b(n) = e (ln n + 1), and both factors are positive for n >= 1, so the
    products of their like ends enclose it.
    """
    ln_lo, ln_hi = (Fraction(end, 1 << PRECISION_BITS) for end in _log_fixed(n))
    return Enclosure(_E[0] * (ln_lo + 1), _E[1] * (ln_hi + 1))


def _prime_logs(primes: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """Integers l_p <= 2^F ln p <= u_p for each of the consecutive primes `primes`, in order.

    The chain starts from :func:`_log_fixed` at the first prime (2 for a
    whole prime table), shifted to G = CHAIN_BITS bits.  From a prime p
    to the next prime q it adds twice the pair _artanh_fixed(q - p, q + p),
    since ln q - ln p = ln(q/p) = 2 artanh((q - p)/(q + p)), so the running
    pair encloses 2^G ln q.
    Each step adds no rounding beyond the lemma's allowance; the yielded
    pair floors the lower end and ceils the upper end to F bits.
    """
    lo = hi = p = None
    for q in primes:
        if p is None:
            l, u = _log_fixed(q)
            lo, hi = l << _GUARD_BITS, u << _GUARD_BITS
        else:
            a, b = _artanh_fixed(q - p, q + p)
            lo, hi = lo + 2 * a, hi + 2 * b
        yield lo >> _GUARD_BITS, -(-hi >> _GUARD_BITS)
        p = q


def _sum_logs(logs: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """The integer sums (sum l_p, sum u_p) of a run of log enclosures."""
    total_lo = total_hi = 0
    for l_p, u_p in logs:
        total_lo += l_p
        total_hi += u_p
    return total_lo, total_hi


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
    x = a/d (x is an int, a float or a ``Fraction``) and c = cn/cd for
    either coefficient; both are positive.  Every prime's log comes as
    integers l_p <= 2^F ln p <= u_p from one streamed pass of the artanh
    chain (:func:`_prime_logs`, which starts from ln 2), and the two
    endpoints' logs from :func:`_log_fixed`, the same lemma.  The integer sums
    A_lo = sum l_p and A_hi = sum u_p add no rounding, so
    A_lo <= 2^F theta <= A_hi on the plateau.  With
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
    the true slack.  The least slack per side is kept as that exact
    fraction, compared by cross-multiplication, and rounded once to the
    nearest float for the report; rounding is monotone, so that float is
    the least of the rounded slacks.
    """
    # Stated positively, so a NaN bound fails it too.
    if not THETA_BOUND_X_MIN <= x_lo <= x_hi <= table.limit:
        raise ValueError(
            f"need {THETA_BOUND_X_MIN} <= x_lo <= x_hi <= {table.limit} (the prime table"
            f" limit), got [{x_lo}, {x_hi}]"
        )
    F = PRECISION_BITS
    failures: List[Tuple[float, str]] = []
    LOWER, UPPER = 0, 1
    # Per side, (cd, cn 2^F) and the least slack as an exact [num, den]; [1, 0] is +inf.
    coeffs = [(cd, cn << F) for cn, cd in (_LOWER_COEFF, _UPPER_COEFF)]
    least = [[1, 0], [1, 0]]

    def check(x, u_x, acc, side):
        # The lower curve must lie below the enclosure `acc` = (A_lo, A_hi)
        # of 2^F theta on the plateau whose closure contains x, the upper
        # curve above it.  `u_x` >= 2^F ln x.
        a, d = x.as_integer_ratio()
        cd, cn_f = coeffs[side]
        cdu = cd * u_x
        if side == UPPER:
            num = (a << F) * (cdu + cn_f) - cdu * acc[1] * d
        else:
            num = cdu * acc[0] * d - (a << F) * (cdu - cn_f)
        den = cdu * d << F
        slack = least[side]
        if num * slack[1] < slack[0] * den:
            slack[:] = num, den
        if not num > 0:
            failures.append((float(x), ("lower", "upper")[side]))

    below, upto = table.index_gt(x_lo), table.index_gt(x_hi)
    logs = _prime_logs(islice(table.primes, upto))  # one pass of the chain
    acc = _sum_logs(islice(logs, below))
    u_lo = _log_fixed(x_lo)[1]
    for side in (LOWER, UPPER):  # both bounds at x_lo itself
        check(x_lo, u_lo, acc, side)
    # (l_p, u_p) serves both checks at p and the jump
    for p, (l_p, u_p) in zip(islice(table.primes, below, upto), logs):
        check(p, u_p, acc, LOWER)  # left limit at p: x -> p from below
        acc = (acc[0] + l_p, acc[1] + u_p)
        check(p, u_p, acc, UPPER)  # right after the jump at p
    check(x_hi, _log_fixed(x_hi)[1], acc, LOWER)
    return ThetaBoundsReport(
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        precision_bits=PRECISION_BITS,
        primes_checked=upto - below,
        checks=2 * (upto - below) + 3,
        min_lower_slack=least[LOWER][0] / least[LOWER][1],
        min_upper_slack=least[UPPER][0] / least[UPPER][1],
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
    margin_lo: Fraction
    margin_hi: Fraction
    aux_product_ok: bool
    aux_square_ok: bool
    window_in_theta_domain: bool
    precision_bits: int

    @property
    def margin(self) -> Fraction:
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
    """Evaluate the analytic margin at n >= 50217 on exact enclosures.

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
    bounds against an independent reference, and the four facts at every
    integer k <= k_cap(n) for four n.

    What the step proves depends on the theta range checked.  The margin
    bounds theta(n/(k+1)) - theta(n/(k+3)) from below, so it reads the
    theta bound at both ends of every window, and at k = 1 the top end is
    n/2.  A theta check on [1429, X] (:func:`check_theta_bounds`) therefore
    proves the step for MARGIN_N_MIN <= n <= 2X, and no further: at
    n = 2X + 1 the k = 1 window reaches past X.  With the checked range
    [1429, 50216] that is 50217 <= n <= 100,432; above it the theta bound
    is an input, not a checked fact.

    The enclosure is exact arithmetic on ``Fraction`` ends.  b lies in
    [a, b] = :func:`subset_size_bound` (n); n/(b+1), 2/(b+3) and
    ln(n/(b+3)) each fall as b grows, so each takes its ends at b's ends,
    the log's from :func:`_log_fixed`.  The prefactor is positive and the
    bracket may have either sign, so the product's enclosure is the least
    and the largest of the four products of their ends.  The auxiliary
    inequalities and the window bottom rise or fall with b, so each is
    one exact comparison at the upper end of b.
    """
    if n < MARGIN_N_MIN:
        raise ValueError(f"margin check applies for n >= {MARGIN_N_MIN}, got {n}")
    b_lo, b_hi = subset_size_bound(n)
    one, c355 = 1 << PRECISION_BITS, Fraction(355, 1000)
    ln_lo = Fraction(_log_fixed(n / (b_hi + 3))[0], one)
    ln_hi = Fraction(_log_fixed(n / (b_lo + 3))[1], one)
    prefactor = (n / (b_hi + 1), n / (b_lo + 1))
    bracket = (2 / (b_hi + 3) - c355 / ln_lo, 2 / (b_lo + 3) - c355 / ln_hi)
    products = [p * q for p in prefactor for q in bracket]
    return MarginReport(
        n=n,
        margin_lo=min(products),
        margin_hi=max(products),
        aux_product_ok=n > (b_hi + 3) * (3 * b_hi + 8),
        aux_square_ok=n > (b_hi + 2) * (b_hi + 3) ** 2 / 2,
        window_in_theta_domain=n / (b_hi + 3) >= THETA_BOUND_X_MIN,
        precision_bits=PRECISION_BITS,
    )

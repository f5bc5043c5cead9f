"""Exact elementary symmetric functions of the reciprocals 1, 1/2, ..., 1/n.

Two families of values are computed here:

* the full-set value ``esf(n, k)``: the k-th elementary symmetric
  function of {1, 1/2, ..., 1/n} (k = 1 gives the harmonic number);
* the omit-one value ``omit(n, i, k)``: the same with 1/i removed from
  the set, defined for 1 <= i <= n and 1 <= k < n.

The production path runs in integers scaled by n!: n! * esf(n, k) is an
integer (the unsigned Stirling number [n+1, k+1]) and so is
n! * omit(n, i, k).  The pair of recursions

    esf(n, k)     = esf(n-1, k) + (1/n) * esf(n-1, k-1)
    omit(n, i, k) = esf(n, k) - (1/i) * omit(n, i, k-1)

times n! becomes

    scaled(n, k) = n * scaled(n-1, k) + scaled(n-1, k-1)
    C_k          = scaled(n, k) - C_{k-1} / i,   C_0 = n!,

with small multipliers, exact divisions and no gcd.  A rolling row of
scaled(n, k) drives :func:`omit_scaled`, the one copy of the
k-recursion; its first step is the seed omit(n, i, 1) = harmonic(n) - 1/i.
It runs for every 1 <= i <= n, i = n included.  The shortcut
omit(n, n, k) = esf(n-1, k) is not a code path; it is an identity the
tests check the sweep against.  The k = 1 column recursion
omit(n, i, 1) = omit(n-1, i, 1) + 1/n is kept as an independent check
of the seed.  Fractions appear only at the edges: the row's ``value``
view and :func:`omit_sweep` divide by n! for ``esfscan value`` and the
tests, while the scan's exact fallback and ``certify.check_valuations``
read integrality and valuations off the integers.

Independent oracles (polynomial expansion for the full set, direct
subset enumeration for omit-one) and the closed forms for n = k+1 and
n = k+2 are provided for cross-checking; they work in fractions and
share no code with the recursion path.  The subset-size cap
:func:`k_cap` is read from the exact enclosure of b(n) = e*ln(n) + e
in :mod:`esfscan.theta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, List, Optional, Tuple

from .rational import Rational, make_rational
from .theta import subset_size_bound

# Enumeration oracles refuse larger n; they exist for correctness, not speed.
ORACLE_BOUND = 20


def _least(pred: Callable[[int], bool], guess: int) -> int:
    """The least m >= 2 with pred(m), for a pred that is false, then true, on m >= 2.

    ``guess`` only says where to start.  The search keeps a bracket
    no < answer <= yes, with pred(no) false (or no = 1) and pred(yes) true.
    It steps up from the guess by 1, 2, 4, ... while pred is false there,
    or, if pred holds at the guess, down by 1, 2, 4, ... while it still
    holds; halving then closes the bracket.  A right guess costs two
    calls of pred and a guess d away O(log d), so a wrong pred yields a
    prompt wrong answer, not one call per step.
    """
    no, yes, step = 1, max(2, guess), 1
    while not pred(yes):
        no, yes, step = yes, yes + step, 2 * step
    while no == 1 and yes > 2:  # no is still 1 only if pred held at the guess
        m = max(2, yes - step)
        no, yes, step = (no, m, 2 * step) if pred(m) else (m, yes, step)
    lo, hi = no + 1, yes
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
    return lo


@lru_cache(maxsize=None)
def _cap_start(c: int) -> int:
    """The least n >= 2 at which the floor of b(n)'s upper end is >= c.

    b(n) = e*ln(n) + e is enclosed by ``theta.subset_size_bound`` (n), and
    int() truncates the exact upper end, a positive Fraction: its floor.
    The float guess ceil(exp(c/e - 1)) only says where :func:`_least`
    starts; the enclosure decides every step of the search.
    """
    return _least(lambda n: int(subset_size_bound(n).b) >= c, math.ceil(math.exp(c / math.e - 1)))


@lru_cache(maxsize=None)
def k_cap(n: int) -> int:
    """Largest subset size k that must be scanned at n.

    This is the largest integer below min(n, e*ln(n) + e), read from the
    exact ``Fraction`` enclosure ``theta.subset_size_bound`` (n), which
    rests on the integer artanh lemma and the e series there.  Ties are
    resolved conservatively upward: if the enclosure of e*ln(n) + e
    touches an integer, that integer is included (scanning one extra k is
    cheap; missing one would break coverage).

    No k with k_cap(n) < k < n needs scanning: such a k exceeds
    e*(ln(n) + 1), so 0 < omit(n, i, k) <= esf(n, k) <= H_n^k / k!
    < (e*H_n/k)^k <= (e*(1 + ln n)/k)^k < 1 is not an integer.  Step one
    drops positive terms (k <= n - 1 leaves one); step two holds since
    H_n^k, expanded, has k! * esf(n, k) among its nonnegative terms; then
    k! > (k/e)^k (from e^k > k^k/k!) and H_n <= 1 + integral_1^n dx/x.

    The cap is read from its breakpoints, not from one enclosure per n:
    it is the c with _cap_start(c) <= n < _cap_start(c + 1).  That is the
    floor of the enclosure's upper end at n because that floor is
    nondecreasing in n: b(n) rises by e*ln(1 + 1/n) > e/(n+1) per step,
    far more than the enclosure's width (about 8e-39) for every n below
    1e30, so the upper end rises too.  :func:`_least` finds the least c
    with _cap_start(c) > n from the float guess e*ln(n) + e + 1, and
    _cap_start finds each breakpoint the same way.  A right guess costs
    two calls at each level, so a run of n with one cap costs its two
    breakpoints, about four enclosures; a guess d away costs O(log d).
    """
    if n < 2:
        raise ValueError("k_cap requires n >= 2")
    c = _least(lambda c: _cap_start(c) > n, int(math.e * math.log(n) + math.e) + 1)
    return min(n - 1, c - 1)


@dataclass(frozen=True)
class EsfRow:
    """Full-set values at a fixed n, scaled by n!: scaled[k] = n! * esf(n, k).

    k runs over 0..min(n, cap), so scaled[0] = n!.  Every entry is an
    integer, the unsigned Stirling number [n+1, k+1]: each 1/prod(T) in
    esf(n, k) has prod(T) dividing n!.  ``value`` (k) is the exact
    rational view of one entry; the harmonic number is ``value`` (1).  Rows
    are immutable; advancing allocates a fresh row, so a row may be
    shared read-only.
    """

    n: int
    cap: int
    scaled: Tuple[int, ...]

    def value(self, k: int) -> Rational:
        """esf(self.n, k) for 1 <= k <= min(n, cap)."""
        if not 1 <= k < len(self.scaled):
            raise ValueError(f"k={k} outside stored row for n={self.n}")
        return make_rational(self.scaled[k], self.scaled[0])


def esf_row_start(cap: int) -> EsfRow:
    """The n = 1 row: 1! * esf(1, 0) = 1! * esf(1, 1) = 1."""
    if cap < 1:
        raise ValueError("row cap must be >= 1")
    return EsfRow(n=1, cap=cap, scaled=(1, 1))


def esf_row_advance(prev: EsfRow) -> EsfRow:
    """Row for n = prev.n + 1 from the row for prev.n.

    esf(n, k) = esf(n-1, k) + (1/n) * esf(n-1, k-1), times n!, is
    scaled[k] = n * prev.scaled[k] + prev.scaled[k-1].  The k = n entry
    (present while n <= cap) is seeded through the convention
    esf(n-1, n) = 0, and k = 0 through esf(n-1, -1) = 0, so a single
    update rule covers the interior and both ends.
    """
    n = prev.n + 1
    old = prev.scaled
    scaled = tuple(n * a + b for a, b in zip(old + (0,), (0,) + old))
    return EsfRow(n=n, cap=prev.cap, scaled=scaled[: min(n, prev.cap) + 1])


def esf_rows(n_target: int, cap: int) -> Iterator[EsfRow]:
    """Yield rows for n = 1, 2, ..., n_target."""
    row = esf_row_start(cap)
    yield row
    while row.n < n_target:
        row = esf_row_advance(row)
        yield row


@dataclass(frozen=True)
class OmitFirstColumn:
    """The k = 1 column at a fixed n: values[i-1] = omit(n, i, 1).

    Equal to harmonic(n) - 1/i for every i <= n.  The recursion seeds
    from the convention omit(1, 1, 1) = 0.
    """

    n: int
    values: Tuple[Rational, ...]

    def value(self, i: int) -> Rational:
        if not 1 <= i <= self.n:
            raise ValueError(f"i={i} outside column for n={self.n}")
        return self.values[i - 1]


def omit_first_column_start() -> OmitFirstColumn:
    return OmitFirstColumn(n=1, values=(make_rational(0),))


def omit_first_column_advance(prev: OmitFirstColumn, prev_row: EsfRow) -> OmitFirstColumn:
    """Column for n = prev.n + 1; needs the full-set row for prev.n."""
    if prev_row.n != prev.n:
        raise ValueError("row/column n mismatch")
    n = prev.n + 1
    r_n = make_rational(1, n)
    vals = [v + r_n for v in prev.values]
    vals.append(prev_row.value(1))
    return OmitFirstColumn(n=n, values=tuple(vals))


def omit_scaled(row: EsfRow, i: int, k_max: int) -> List[int]:
    """[C_1, ..., C_k_max], C_k = n! * omit(n, i, k) at n = row.n, 1 <= i <= n.

    The recursion omit(n, i, k) = esf(n, k) - (1/i) * omit(n, i, k-1),
    times n!, is C_k = row.scaled[k] - C_{k-1} / i from C_0 = n!
    (omit(n, i, 0) = 1); its first step is the seed
    omit(n, i, 1) = harmonic(n) - 1/i.  This is the one copy of the
    k-recursion: the scan, the valuation check and the value helpers all
    reach it.

    The division is exact.  C_{k-1} / i = (n!/i) * omit(n, i, k-1) is
    the sum over (k-1)-subsets T of {1..n} minus {i} of (n!/i) / prod(T),
    and each prod(T) divides the product of all of {1..n} minus {i},
    which is n!/i; so every term, and C_{k-1} / i, is an integer
    (T empty gives n!/i itself).
    """
    if not 1 <= i <= row.n:
        raise ValueError(f"omitted index i={i} out of range for n={row.n}")
    if not 1 <= k_max < len(row.scaled):
        raise ValueError(f"k_max={k_max} outside stored row for n={row.n}")
    acc, values = row.scaled[0], []
    for s_k in row.scaled[1 : k_max + 1]:
        acc = s_k - acc // i
        values.append(acc)
    return values


def omit_sweep(row: EsfRow, i: int, k_max: int) -> List[Rational]:
    """[omit(n, i, 1), ..., omit(n, i, k_max)]: :func:`omit_scaled` over n!."""
    return [make_rational(c, row.scaled[0]) for c in omit_scaled(row, i, k_max)]


def omit_values(
    n: int,
    i: int,
    k_max: int,
    row: EsfRow,
    col: OmitFirstColumn,
    prev_row: Optional[EsfRow] = None,
) -> Iterator[Tuple[int, Rational]]:
    """Yield (k, omit(n, i, k)) for k = 1..k_max from one :func:`omit_sweep`.

    The row must be advanced to n.  ``col`` is only checked for n and
    ``prev_row`` is not read; both stay for the positional signature the
    benchmark calls.
    """
    if not 1 <= k_max < n:
        raise ValueError(f"k_max={k_max} out of range for n={n}")
    if row.n != n or col.n != n:
        raise ValueError(f"row (n={row.n}) or column (n={col.n}) not advanced to n={n}")
    yield from enumerate(omit_sweep(row, i, k_max), 1)


def esf_oracle(n: int, k: int) -> Rational:
    """esf(n, k) by expanding prod_{j=1..n} (x + 1/j) and reading one coefficient.

    An independent implementation path: no rolling rows, no cap, the full
    polynomial is materialized.  Refuses n above ``ORACLE_BOUND``.
    """
    if n < 1 or n > ORACLE_BOUND:
        raise ValueError(f"oracle bound exceeded: n={n} > {ORACLE_BOUND}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    coeffs = [make_rational(1)]
    for j in range(1, n + 1):
        r_j = make_rational(1, j)
        nxt = [coeffs[0] * r_j]
        for d in range(1, len(coeffs)):
            nxt.append(coeffs[d] * r_j + coeffs[d - 1])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs[n - k]


def omit_oracle(n: int, i: int, k: int) -> Rational:
    """omit(n, i, k) by direct enumeration of k-subsets of {1..n} minus {i}.

    The sum runs in integers over the common denominator W = prod(pool):
    each subset T adds W / prod(T), and one rational is built at the end.
    """
    if n < 2 or n > ORACLE_BOUND:
        raise ValueError(f"oracle bound exceeded: n={n} (bound {ORACLE_BOUND})")
    if not 1 <= i <= n:
        raise ValueError(f"omitted index i={i} out of range for n={n}")
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for n={n}")
    pool = [j for j in range(1, n + 1) if j != i]
    whole = math.prod(pool)
    return make_rational(sum(whole // math.prod(s) for s in combinations(pool, k)), whole)


def esf_closed_form(k: int, offset: int) -> Rational:
    """Closed form for the near-diagonal full-set values.

    offset 1: esf(k+1, k) = (k+2) / (2 * k!)
    offset 2: esf(k+2, k) = (k+3)(3k+8) / (24 * k!)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    fact = math.factorial(k)
    if offset == 1:
        return make_rational(k + 2, 2 * fact)
    if offset == 2:
        return make_rational((k + 3) * (3 * k + 8), 24 * fact)
    raise ValueError(f"offset must be 1 or 2, got {offset}")


def omit_closed_form(k: int, i: int, offset: int) -> Rational:
    """Closed form for the near-diagonal omit-one values.

    offset 1: omit(k+1, i, k) = i / (k+1)!
    offset 2: omit(k+2, i, k) = i * ((k+2)(k+3)/2 - i) / (k+2)!
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if offset not in (1, 2):
        raise ValueError(f"offset must be 1 or 2, got {offset}")
    if not 1 <= i <= k + offset:
        raise ValueError(f"omitted index i={i} out of range for n={k + offset}")
    if offset == 1:
        return make_rational(i, math.factorial(k + 1))
    return make_rational(i * ((k + 2) * (k + 3) // 2 - i), math.factorial(k + 2))


def compute_omit(n: int, i: int, k: int) -> Rational:
    """omit(n, i, k) from scratch via the recursions (used by the CLI)."""
    if not (1 <= i <= n and 1 <= k < n):
        raise ValueError(f"need 1 <= i <= n and 1 <= k < n, got n={n}, i={i}, k={k}")
    for row in esf_rows(n, cap=k):
        pass
    return omit_sweep(row, i, k)[-1]

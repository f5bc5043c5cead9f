"""Exact elementary symmetric functions of the reciprocals 1, 1/2, ..., 1/n.

Two families of values are computed here:

* the full-set value ``esf(n, k)``: the k-th elementary symmetric
  function of {1, 1/2, ..., 1/n} (k = 1 gives the harmonic number);
* the omit-one value ``omit(n, i, k)``: the same with 1/i removed from
  the set, defined for 1 <= i <= n and 1 <= k < n.

The production path is the pair of recursions

    esf(n, k)     = esf(n-1, k) + (1/n) * esf(n-1, k-1)
    omit(n, i, k) = esf(n, k) - (1/i) * omit(n, i, k-1)

driven by a rolling row of full-set values and seeded at k = 1 by
omit(n, i, 1) = harmonic(n) - 1/i, the row's first entry minus 1/i.
:func:`omit_sweep` is the one way to an omit-one value: it forms that
seed and runs the k-recursion for every 1 <= i <= n, i = n included.
The shortcut omit(n, n, k) = esf(n-1, k) is not a code path; it is an
identity the tests check the sweep against.  The k = 1 column recursion
omit(n, i, 1) = omit(n-1, i, 1) + 1/n is kept as an independent check
of the seed.  Independent oracles (polynomial expansion for the full
set, direct subset enumeration for omit-one) and the closed forms for
n = k+1 and n = k+2 are provided for cross-checking; they share no code
with the recursion path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, List, Optional, Tuple

from mpmath import iv

from .rational import Rational, make_rational
from .theta import working_precision

# Enumeration oracles refuse larger n; they exist for correctness, not speed.
ORACLE_BOUND_DEFAULT = 20

# k_cap evaluations use a fixed interval precision, independent of the
# configurable theta/margin precision, so cap decisions never drift.
_K_CAP_PREC_BITS = 160


@lru_cache(maxsize=None)
def k_cap(n: int) -> int:
    """Largest subset size k that must be scanned at n.

    This is the largest integer below min(n, e*ln(n) + e), evaluated in
    interval arithmetic.  Ties are resolved conservatively upward: if the
    enclosure of e*ln(n) + e touches an integer, that integer is included
    (scanning one extra k is cheap; missing one would break coverage).
    """
    if n < 2:
        raise ValueError("k_cap requires n >= 2")
    with working_precision(_K_CAP_PREC_BITS):
        bound = iv.e * iv.log(iv.mpf(n)) + iv.e
    # int() truncates the exact upper endpoint, which is positive: its floor.
    return min(n - 1, int(bound.b))


@dataclass(frozen=True)
class EsfRow:
    """Full-set values at a fixed n: values[j] = esf(n, j+1), j+1 <= min(n, cap).

    Rows are immutable; advancing allocates a fresh row, so a row may be
    shared read-only across workers.
    """

    n: int
    cap: int
    values: Tuple[Rational, ...]

    def value(self, k: int) -> Rational:
        """esf(self.n, k) for 1 <= k <= min(n, cap)."""
        if not 1 <= k <= len(self.values):
            raise ValueError(f"k={k} outside stored row for n={self.n}")
        return self.values[k - 1]

    @property
    def harmonic(self) -> Rational:
        return self.values[0]


def esf_row_start(cap: int) -> EsfRow:
    """The n = 1 row: the single value esf(1, 1) = 1."""
    if cap < 1:
        raise ValueError("row cap must be >= 1")
    return EsfRow(n=1, cap=cap, values=(make_rational(1),))


def esf_row_advance(prev: EsfRow) -> EsfRow:
    """Row for n = prev.n + 1 from the row for prev.n.

    The k = n entry (present while n <= cap) is seeded through the
    convention esf(n-1, n) = 0, so a single update rule covers both the
    interior and the diagonal.
    """
    n = prev.n + 1
    r_n = make_rational(1, n)
    width = min(n, prev.cap)
    old = prev.values
    vals = [old[0] + r_n]
    for k in range(2, width + 1):
        above = old[k - 1] if k <= len(old) else 0
        vals.append(old[k - 2] * r_n + above)
    return EsfRow(n=n, cap=prev.cap, values=tuple(vals))


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
    vals.append(prev_row.harmonic)
    return OmitFirstColumn(n=n, values=tuple(vals))


def omit_sweep(row: EsfRow, i: int, k_max: int) -> List[Rational]:
    """[omit(n, i, 1), ..., omit(n, i, k_max)] at n = row.n, for 1 <= i <= n.

    The seed is omit(n, i, 1) = harmonic(n) - 1/i (at i = n that is
    harmonic(n-1)); every further value is
    omit(n, i, k) = esf(n, k) - (1/i) * omit(n, i, k-1).  This is the one
    copy of the k-recursion and the only way to an omit-one value: the
    scan, the valuation check and the value helpers below all call it.
    """
    if not 1 <= i <= row.n:
        raise ValueError(f"omitted index i={i} out of range for n={row.n}")
    if not 1 <= k_max <= len(row.values):
        raise ValueError(f"k_max={k_max} outside stored row for n={row.n}")
    r_i = make_rational(1, i)
    acc = row.harmonic - r_i
    values = [acc]
    for e_k in row.values[1:k_max]:
        acc = e_k - acc * r_i
        values.append(acc)
    return values


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


def esf_oracle(n: int, k: int, bound: int = ORACLE_BOUND_DEFAULT) -> Rational:
    """esf(n, k) by expanding prod_{j=1..n} (x + 1/j) and reading one coefficient.

    An independent implementation path: no rolling rows, no cap, the full
    polynomial is materialized.  Guarded by ``bound`` against misuse.
    """
    if n < 1 or n > bound:
        raise ValueError(f"oracle bound exceeded: n={n} > {bound}")
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


def omit_oracle(n: int, i: int, k: int, bound: int = ORACLE_BOUND_DEFAULT) -> Rational:
    """omit(n, i, k) by direct enumeration of k-subsets of {1..n} minus {i}."""
    if n < 2 or n > bound:
        raise ValueError(f"oracle bound exceeded: n={n} (bound {bound})")
    if not 1 <= i <= n:
        raise ValueError(f"omitted index i={i} out of range for n={n}")
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for n={n}")
    pool = [j for j in range(1, n + 1) if j != i]
    total = make_rational(0)
    for subset in combinations(pool, k):
        total += make_rational(1, math.prod(subset))
    return total


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


def compute_esf(n: int, k: int) -> Rational:
    """esf(n, k) from scratch via the rolling-row recursion."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    row = None
    for row in esf_rows(n, cap=k):
        pass
    return row.value(k)


def compute_omit(n: int, i: int, k: int) -> Rational:
    """omit(n, i, k) from scratch via the recursions (used by the CLI)."""
    if not (1 <= i <= n and 1 <= k < n):
        raise ValueError(f"need 1 <= i <= n and 1 <= k < n, got n={n}, i={i}, k={k}")
    for row in esf_rows(n, cap=k):
        pass
    return omit_sweep(row, i, k)[-1]

"""Prime-window non-integrality certificates.

A certificate for the pair (n, k) is a prime p with

    n/(k+3) < p <= n/(k+1)   and   p > max{(k+2)(k+3)/2, 3k+8}.

Whenever such a prime exists, v_p(omit(n, i, k)) = -k for every omitted
index i, so no omit-one value at (n, k) is an integer.  This is the J = k
case of the lemma in :mod:`esfscan.witness`: p > (k+2)(k+3)/2 >= k+3
gives n < p^2, m = floor(n/p) is k+1 or k+2, and every i leaves
|A_i| >= m - 1 >= k multiples, so J = k, the unit factor is e_0 = 1, and
the claim is that e_k(1/A_i) is a unit mod p, for A_i = {1..m} (i a unit)
or {1..m} minus {a} (i = p*a).  These are the closed forms

    esf(k+1, k) = (k+2)/(2*k!),          omit(k+1, a, k) = a/(k+1)!,
    esf(k+2, k) = (k+3)(3k+8)/(24*k!),   omit(k+2, a, k) = a((k+2)(k+3)/2 - a)/(k+2)!

and every factor in them is a unit mod p: the denominators, k+2, k+3 and
a <= k+2 have no prime factor above k+3 < p, 3k+8 < p, and
0 < (k+1)(k+2)/2 <= (k+2)(k+3)/2 - a < p.

A certificate is the triple (n, k, p) alone: the threshold and the
multiple count floor(n/p) follow from it.  :func:`window_violation` is
the one statement of the conditions above.  Window membership is
decided by integer cross-multiplication only: the window boundaries
n/(k+1) and n/(k+3) can be hit exactly, and float rounding there could
mis-certify.

:func:`certify_range` asks :func:`window_violation` once per run of n,
not once per pair.  Fix k and p; every scanned pair has
1 <= k <= k_cap(n) <= n - 1, so the domain check passes.  Then the verdict
depends on n only through floor(n/p): (k+3)p <= n iff floor(n/p) >= k+3,
(k+1)p > n iff floor(n/p) <= k, the last check reads floor(n/p) itself,
and the threshold does not depend on n.  The candidate p, the largest
prime <= n // (k+1), stays fixed for n in [(k+1)p, (k+1)q - 1], q the
next prime; so each (k, p, floor(n/p)) is one contiguous run of n and
takes one verdict, which holds for every pair in it.

A :class:`CertifyResult` stores only the runs (n_first, n_last, k, p),
with p = 0 for a refused run.  The gap pairs and the pair count are
derived from them.  The certificate file is written by one walk over
the run starts: each run's line tail after n is rendered once, and every
block of n between two run starts shares one row.  Consecutive blocks
with no refused column are rendered in batches of whole n, about
``BATCH_CHARS`` characters each, by one C-level join per batch; a block
with a refused column is rendered line by line, after the pending batch.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from .checkpoint import BATCH_CHARS, write_lines
from .primes import PrimeTable
# make_rational is unused here, but the benchmark's tracer rebinds it by this name.
from .rational import int_valuation, make_rational
from .symfun import _cap_start, esf_rows, k_cap, omit_scaled


@lru_cache(maxsize=None)
def certificate_threshold(k: int) -> int:
    """max{(k+2)(k+3)/2, 3k+8}; (k+2)(k+3) is even, so the division is exact."""
    return max((k + 2) * (k + 3) // 2, 3 * k + 8)


def window_violation(n: int, k: int, p: int) -> Optional[str]:
    """Why p does not certify (n, k), or None when it does."""
    if not 1 <= k < n:
        return f"certificate requires 1 <= k < n, got k={k}, n={n}"
    if (k + 3) * p <= n:
        return f"p={p} at or below the window for (n={n}, k={k})"
    if (k + 1) * p > n:
        return f"p={p} above the window for (n={n}, k={k})"
    threshold = certificate_threshold(k)
    if p <= threshold:
        return f"p={p} does not exceed the threshold {threshold}"
    if n // p not in (k + 1, k + 2):
        return f"floor(n/p)={n // p} outside {{k+1, k+2}}"
    return None


def find_certificate(n: int, k: int, table: PrimeTable) -> Optional[int]:
    """The largest prime p that certifies (n, k), or None.

    Any qualifying prime would do; the largest makes the output
    deterministic.  The threshold does not depend on p, so if
    :func:`window_violation` refuses the largest prime <= n/(k+1), it
    refuses every smaller one too.  A certificate is the triple (n, k, p)
    alone, so the prime is all there is to return.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if table.limit < n:
        raise ValueError(f"prime table limit {table.limit} < n={n}")
    p = table.largest_leq(n // (k + 1))
    return p if p is not None and window_violation(n, k, p) is None else None


def _pairs(runs: Iterable[Tuple[int, int, int, int]]) -> List[Tuple[int, int]]:
    """The (n, k) pairs of the given runs, in (n, k) order."""
    return sorted((n, k) for first, last, k, _ in runs for n in range(first, last + 1))


@dataclass(frozen=True)
class CertifyResult:
    """The verdict on every (n, k) pair, n in [n_lo, n_hi], k = 1..k_cap(n).

    ``runs`` holds the runs (n_first, n_last, k, p), sorted: p certifies
    (n, k) for every n in [n_first, n_last], or p = 0 where the window
    refuses every pair of the run.  Every pair lies in exactly one run.
    """

    n_lo: int
    n_hi: int
    runs: Tuple[Tuple[int, int, int, int], ...]

    @property
    def gaps(self) -> Tuple[Tuple[int, int], ...]:
        """The pairs no prime certifies, in (n, k) order."""
        return tuple(_pairs(run for run in self.runs if not run[3]))

    @property
    def pairs_checked(self) -> int:
        return sum(last - first + 1 for first, last, _, _ in self.runs)


def certify_range(n_lo: int, n_hi: int, table: PrimeTable) -> CertifyResult:
    """Attempt a certificate for every n in [n_lo, n_hi] and every scanned k.

    The k range at each n is 1..k_cap(n) (always < n), so column k starts
    at n = max(n_lo, k+1, _cap_start(k)).  The candidate at (n, k) is the
    largest prime <= n/(k+1), as in :func:`find_certificate`, or 0 where
    there is none, which the window refuses.  Each column is walked one
    run of constant (p, floor(n/p)) at a time, and one
    :func:`window_violation` verdict settles the whole run (see the
    module docstring); a refused run is stored with p = 0.
    """
    if not 2 <= n_lo <= n_hi:
        raise ValueError(f"need 2 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if n_hi > table.limit:
        raise ValueError(f"prime table limit {table.limit} < n_hi={n_hi}")
    # primes[j+1] exists whenever primes[j] <= n // (k+1) <= n_hi / 2: by
    # Bertrand's postulate the next prime lies below n_hi <= table.limit.
    primes = (0, *table.primes)
    runs: List[Tuple[int, int, int, int]] = []
    for k in range(1, k_cap(n_hi) + 1):
        n = max(n_lo, k + 1, _cap_start(k))
        j = bisect_right(primes, n // (k + 1)) - 1
        while n <= n_hi:
            p = primes[j]
            p_last = min(n_hi, (k + 1) * primes[j + 1] - 1)
            while n <= p_last:
                last = min(p_last, (n // p + 1) * p - 1) if p else p_last
                runs.append((n, last, k, p if window_violation(n, k, p) is None else 0))
                n = last + 1
            j += 1
    runs.sort()
    return CertifyResult(n_lo=n_lo, n_hi=n_hi, runs=tuple(runs))


def _render(rows: List[List[Optional[str]]], stop: int) -> str:
    """The lines of the n in [stop - len(rows), stop), rows[i] the row of
    the i-th, as one item: one C-level sweep, the last LF dropped."""
    return "".join(map(str.join, map(str, range(stop - len(rows), stop)), rows))[:-1]


def certificate_lines(result: CertifyResult) -> Iterable[str]:
    """Render the certificate list format: one tab-separated line per
    certificate (n, k, p, threshold, floor(n/p)); gap lines prefixed GAP.

    One walk over the run starts fills the row: a run sets column k at
    its first n, and the column keeps it until the next run of k starts.
    Everything after n is constant on a certified run, so each run's tail
    is rendered once, from column k's constant pieces.  Between two
    consecutive run starts no column changes, so that block of n shares
    one row.  A block with no refused column adds one reference to its
    row per n to a pending batch; once the batch holds about
    ``BATCH_CHARS`` characters (its n count times the length of its
    first n's lines; a row changes by about one column per block) it is
    rendered by one C-level sweep, a str(n).join of each n's row, and
    yielded as one item of LF-joined lines.  A block with a refused
    column first yields the pending batch, whose n all lie below the
    block's, so the lines stay in (n, k) order; it then yields one item
    per line, GAP lines included.

    The row width at n is the largest column started by n, read from the
    runs, not from k_cap(n).  Column k's first run starts at
    max(n_lo, k+1, _cap_start(k)), and for n >= n_lo that is <= n exactly
    when k <= n - 1 and k <= c, c the largest value with
    _cap_start(c) <= n (_cap_start is nondecreasing); that is,
    k <= min(n - 1, c) = k_cap(n).  So the columns started by n are
    1..k_cap(n).
    """
    runs = result.runs
    columns = range(k_cap(result.n_hi) + 1)
    heads = [f"\t{k}\t" for k in columns]
    mids = [f"\t{certificate_threshold(k)}\t" for k in columns]
    # tails[k] is column k's line after n, LF included, None while refused;
    # tails[0] = "" makes str(n).join(row) put n before every tail.
    tails: List[Optional[str]] = [""] * len(columns)
    ends = [run[0] for run in runs[1:]] + [result.n_hi + 1]
    refused = width = 0
    rows: List[List[Optional[str]]] = []  # the pending batch: one row per n
    for (n, _, k, p), end in zip(runs, ends):
        tail = f"{heads[k]}{p}{mids[k]}{n // p}\n" if p else None
        refused += (tail is None) - (tails[k] is None)
        tails[k] = tail
        if k > width:
            width = k
        if end == n:  # another run starts at n
            continue
        row = tails[: width + 1]
        if refused:
            if rows:  # first, so the batch's n precede this block's
                yield _render(rows, n)
                rows = []
            for m in range(n, end):
                for k, t in enumerate(row[1:], 1):
                    yield f"GAP\t{m}\t{k}" if t is None else f"{m}{t[:-1]}"
            continue
        if not rows:  # the batch's first n sizes every n in it
            n_chars = len(str(n).join(row))
        rows += [row] * (end - n)
        if len(rows) * n_chars >= BATCH_CHARS:
            yield _render(rows, end)
            rows = []
    if rows:
        yield _render(rows, result.n_hi + 1)


def write_certificates(path: str, result: CertifyResult) -> None:
    """Write the certificate list file (UTF-8, LF line endings) atomically."""
    write_lines(path, certificate_lines(result))


@dataclass(frozen=True)
class ValuationCheck:
    n: int
    k: int
    p: int
    indices_checked: int
    failures: Tuple[int, ...]  # omitted indices i where v_p != -k

    @property
    def passed(self) -> bool:
        return not self.failures


def check_valuations(pairs: Sequence[Tuple[int, int]], table: PrimeTable) -> List[ValuationCheck]:
    """Verify the valuation property for every omitted index i at each pair.

    One rolling-row sweep up to max n serves all pairs.  Per pair, p is
    the prime :func:`find_certificate` returns, each index takes one
    :func:`omit_scaled` up to k, k integer steps of one subtraction and
    one exact division by i, and
    v_p(omit(n, i, k)) = v_p(C_k) - v_p(n!) is read off the integers: no
    fraction is built and no gcd taken.  The total cost is the sum over
    pairs of n*k such steps on integers of about log2(n!) bits.
    """
    if not pairs:
        return []
    by_n: dict = {}
    for n, k in pairs:
        by_n.setdefault(n, []).append(k)
    cap = max(k for _, k in pairs)
    results: List[ValuationCheck] = []
    for row in esf_rows(max(by_n), cap=cap):
        n = row.n
        for k in sorted(by_n.get(n, ())):
            p = find_certificate(n, k, table)
            if p is None:
                raise ValueError(f"no certificate exists for (n={n}, k={k})")
            v_fact = int_valuation(row.scaled[0], p)
            failures = tuple(
                i
                for i in range(1, n + 1)
                if int_valuation(omit_scaled(row, i, k)[-1], p) - v_fact != -k
            )
            results.append(ValuationCheck(n=n, k=k, p=p, indices_checked=n, failures=failures))
    return results


def sample_certified_pairs(
    table: PrimeTable, n_max: int, count: int, seed: int = 2024
) -> List[Tuple[int, int]]:
    """Deterministically sample ``count`` certified (n, k) pairs with n <= n_max."""
    result = certify_range(2, n_max, table)
    certified = _pairs(run for run in result.runs if run[3])
    if len(certified) < count:
        raise ValueError(f"only {len(certified)} certified pairs below {n_max}")
    rng = random.Random(seed)
    return sorted(rng.sample(certified, count))

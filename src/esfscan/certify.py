"""Prime-window non-integrality certificates.

A certificate for the pair (n, k) is a prime p with

    n/(k+3) < p <= n/(k+1)   and   p > max{(k+2)(k+3)/2, 3k+8}.

Whenever such a prime exists, every omit-one value at (n, i, k) has
p-adic valuation exactly -k and therefore cannot be an integer, for
every omitted index i.  The witness is the triple (n, k, p) alone: the
threshold and the multiple count floor(n/p) follow from it and are
derived on demand.  Window membership is decided by integer
cross-multiplication only: the window boundaries n/(k+1) and n/(k+3)
can be hit exactly, and float rounding there could mis-certify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .primes import PrimeTable
# make_rational is unused here, but the benchmark's tracer rebinds it by this name.
from .rational import make_rational, p_adic_valuation
from .symfun import esf_rows, k_cap, omit_sweep


def certificate_threshold(k: int) -> int:
    """max{(k+2)(k+3)/2, 3k+8}; (k+2)(k+3) is even, so the division is exact."""
    return max((k + 2) * (k + 3) // 2, 3 * k + 8)


@dataclass(frozen=True, slots=True)
class Certificate:
    """The witness (n, k, p) that the prime window certifies (n, k).

    The threshold and floor(n/p) are derived, not stored; every
    condition is checked on construction.
    """

    n: int
    k: int
    p: int

    def __post_init__(self):
        n, k, p = self.n, self.k, self.p
        if not 1 <= k < n:
            raise ValueError(f"certificate requires 1 <= k < n, got k={k}, n={n}")
        if (k + 3) * p <= n:
            raise ValueError(f"p={p} at or below the window for (n={n}, k={k})")
        if (k + 1) * p > n:
            raise ValueError(f"p={p} above the window for (n={n}, k={k})")
        if p <= self.threshold:
            raise ValueError(f"p={p} does not exceed the threshold {self.threshold}")
        if self.multiples_in_range not in (k + 1, k + 2):
            raise ValueError(f"floor(n/p)={self.multiples_in_range} outside {{k+1, k+2}}")

    @property
    def threshold(self) -> int:
        return certificate_threshold(self.k)

    @property
    def multiples_in_range(self) -> int:
        return self.n // self.p


def find_certificate(n: int, k: int, table: PrimeTable) -> Optional[Certificate]:
    """Largest qualifying prime for (n, k), or None.

    Any qualifying prime would do; the largest makes the output
    deterministic.  Since the threshold does not depend on p, only the
    largest prime <= n/(k+1) can qualify: if it fails any condition, no
    smaller prime can do better.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if table.limit < n:
        raise ValueError(f"prime table limit {table.limit} < n={n}")
    p = table.largest_leq(n // (k + 1))
    if p is None:
        return None
    if (k + 3) * p <= n or p <= certificate_threshold(k):
        return None
    return Certificate(n, k, p)


@dataclass(frozen=True)
class CertifyResult:
    n_lo: int
    n_hi: int
    pairs_checked: int
    certificates: Tuple[Certificate, ...]
    gaps: Tuple[Tuple[int, int], ...]


def certify_range(n_lo: int, n_hi: int, table: PrimeTable) -> CertifyResult:
    """Attempt a certificate for every n in [n_lo, n_hi] and every scanned k.

    The k range at each n is 1..k_cap(n) (always < n).  Pairs with no
    qualifying prime are reported as gaps.
    """
    if not 2 <= n_lo <= n_hi:
        raise ValueError(f"need 2 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if n_hi > table.limit:
        raise ValueError(f"prime table limit {table.limit} < n_hi={n_hi}")
    certificates: List[Certificate] = []
    gaps: List[Tuple[int, int]] = []
    pairs = 0
    for n in range(n_lo, n_hi + 1):
        for k in range(1, k_cap(n) + 1):
            pairs += 1
            cert = find_certificate(n, k, table)
            if cert is None:
                gaps.append((n, k))
            else:
                certificates.append(cert)
    return CertifyResult(
        n_lo=n_lo,
        n_hi=n_hi,
        pairs_checked=pairs,
        certificates=tuple(certificates),
        gaps=tuple(gaps),
    )


def certificate_lines(result: CertifyResult) -> Iterable[str]:
    """Render the certificate list format: one tab-separated line per
    certificate (n, k, p, threshold, floor(n/p)); gap lines prefixed GAP.

    Certificates and gaps are each in (n, k) order, so one merge walk
    interleaves them.
    """
    gaps = result.gaps
    g = 0
    for c in result.certificates:
        while g < len(gaps) and gaps[g] < (c.n, c.k):
            yield "GAP\t%d\t%d" % gaps[g]
            g += 1
        yield f"{c.n}\t{c.k}\t{c.p}\t{c.threshold}\t{c.multiples_in_range}"
    for gap in gaps[g:]:
        yield "GAP\t%d\t%d" % gap


def write_certificates(path: str, result: CertifyResult) -> None:
    """Write the certificate list file (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in certificate_lines(result):
            fh.write(line + "\n")


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

    One rolling-row sweep up to max n serves all pairs; per pair each
    omit-one value comes from one :func:`omit_sweep` up to k, so the total
    cost is sum over pairs of n*k exact operations.
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
            cert = find_certificate(n, k, table)
            if cert is None:
                raise ValueError(f"no certificate exists for (n={n}, k={k})")
            failures = tuple(
                i
                for i in range(1, n + 1)
                if p_adic_valuation(omit_sweep(row, i, k)[-1], cert.p) != -k
            )
            results.append(
                ValuationCheck(n=n, k=k, p=cert.p, indices_checked=n, failures=failures)
            )
    return results


def sample_certified_pairs(
    table: PrimeTable, n_max: int, count: int, seed: int = 2024
) -> List[Tuple[int, int]]:
    """Deterministically sample ``count`` certified (n, k) pairs with n <= n_max."""
    certified = [
        (n, k)
        for n in range(2, n_max + 1)
        for k in range(1, k_cap(n) + 1)
        if find_certificate(n, k, table) is not None
    ]
    if len(certified) < count:
        raise ValueError(f"only {len(certified)} certified pairs below {n_max}")
    rng = random.Random(seed)
    return sorted(rng.sample(certified, count))

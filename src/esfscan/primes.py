"""Prime table generation via a sieve of Eratosthenes."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Tuple


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, strictly ascending, immutable and shareable."""

    limit: int
    primes: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)

    def largest_leq(self, x: float) -> Optional[int]:
        """Largest prime <= x, or None if x < 2."""
        idx = bisect.bisect_right(self.primes, x)
        return self.primes[idx - 1] if idx else None

    def index_gt(self, x: float) -> int:
        """Index of the first prime > x."""
        return bisect.bisect_right(self.primes, x)


def sieve(limit: int) -> PrimeTable:
    """Sieve all primes <= limit in one pass over a flag per integer."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return PrimeTable(limit=limit, primes=tuple(compress(range(limit + 1), flags)))

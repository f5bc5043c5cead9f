"""p-adic witnesses that omit(n, i, k) is not an integer, in mod-p arithmetic.

**Lemma.** Let p be a prime with sqrt(n) < p <= n and m = floor(n/p), so
m < p.  Split S = {1..n} minus {i} into the multiples p*a, a in A_i (a
subset of {1..m}), and the units R_i.  Let J = min(k, |A_i|).  If J >= 1,
k - J <= p - 2 and e_J(1/A_i) * e_{k-J}(1/R_i) is not 0 mod p, then
v_p(omit(n, i, k)) = -J < 0, so omit(n, i, k) is not an integer.

*Proof.*  Every a <= m < p is a unit, so 1/(p*a) = p^-1 * (1/a) with
v_p(1/a) = 0.  Expanding the generating function
prod_{s in S} (1 + x/s) = prod_{a in A_i} (1 + x/(p*a)) * prod_{r in R_i} (1 + x/r)
at x^k gives

    omit(n, i, k) = sum_{j <= J} p^-j * e_j(1/A_i) * e_{k-j}(1/R_i),

where every e_j(1/A_i) and e_{k-j}(1/R_i) is p-integral.  The term j < J
has v_p >= -j >= -(J - 1); the term j = J has v_p = -J exactly when its
coefficient is a unit.  So the sum has v_p = -J.

*Reduction mod p.*  The units of {1..n} are m full blocks
{jp+1, ..., jp+p-1}, each a complete set of nonzero residues, and the tail
T = {mp+1..n}.  Over F_p, prod_{u != 0} (1 + x*u) = 1 - x^(p-1) (because
prod_{u != 0} (x - u) = x^(p-1) - 1 and, by Wilson, (p-1)! = -1), so

    prod_{units r} (1 + x/r) = (1 - x^(p-1))^m * prod_{r in T} (1 + x/r)  (mod p),

and e_t(1/units) = e_t(1/T) mod p for t < p - 1.  Taking away a unit i
divides by (1 + x/i), which is the recursion
E_i(t) = E(t) - i^-1 * E_i(t-1); and e_j(1/A_i) for A_i = {1..m} minus
{a} is the same recursion on e_j(1/1, ..., 1/m).  A unit i has
A_i = {1..m}; a multiple i = p*a has R_i = all units.  :func:`_esf` and
:func:`_omit_one` are the F_p images of the two exact recursions of
:mod:`esfscan.symfun`: e_t(X + {x}) = e_t(X) + x * e_{t-1}(X) for the
row and E_i(t) = E(t) - x * E_i(t-1) for one index taken away, with x
the residue of a reciprocal.  symfun runs them on n! * e_t in the
integers; here they run on e_t itself mod p.

**Memo lemma.**  Fix p and m = floor(n/p), so n = mp + t with
0 <= t < p and the tail T = {mp+1..n} has the residues 1..t.  A
multiple i = p*a has |A_i| = m - 1 and a unit has |A_i| = m, so J is
min(k, m - 1) or min(k, m), and e_J(1/A_i) reads only p, m and, for a
multiple, a.  As p is prime, the lemma's product is nonzero mod p iff
both factors are.  Every claim with J = k (a unit at k <= m, a multiple
at k <= m - 1) has unit factor e_0 = 1, so it depends on p, m, k and i
mod p or i/p, not on n.  The other claims read n only through
e_s(1/1, ..., 1/t) mod p for s <= k_max - min(k_max, m - 1):

* a multiple at k >= m holds iff e_{m-1}(1/A_i) != 0, its own verdict
  at k = m - 1, and e_{k-m+1}(1/T) != 0;
* a unit at k > m holds iff e_m(1/1, ..., 1/m) != 0 and its quotient
  E_i(k - m) of e(1/T) by (1 + x/i) is nonzero.

The first factors never vanish: e_{m-1}(1/A_i) = a/m! and
e_m(1/1, ..., 1/m) = 1/m! are units as m < p, so from k = m on only the
tail decides.

So every verdict of p at n is a pure function of (p, m, k_max) and t.
:func:`settle_at` keeps what (p, m, k_max) fixes in a bounded cache:
per k < m, the indices p leaves open there.  It computes only the
e_s(1/T) per n, extended from the last t asked at the same
(p, m, k_max): one residue per n in a rising scan.  Cached or not, the
verdicts are the same.

**Where the work goes.**  An index set is an int, bit i for index i, so
a verdict on a whole class of indices is one bitwise operation.  With
period = the bits 0, p, ..., mp, the multiples of p are period ^ 1 and
the units of residue r are the bits of period << r up to n.  For k < m
the unit claim e_k(1/1, ..., 1/m) != 0 is the same for every unit, so
the cached mask of that k settles all units at once, and the k costs
one AND.  :func:`witness_primes` therefore tries the primes in
(sqrt(n), n/k_max] first, where m >= k_max holds for every k, from the
largest (smallest m) down; then the primes in (n/k_max, n], from the
smallest (largest m) up.  The primes come from a sieve, made on the
first call for each bit length of n.  Units at k > m need E_r per unit
residue r: each call walks E_r once for each residue still open at some
k > m, found by OR-ing the m + 1 blocks of p bits of the open units into
one mask of residues, and each zero E_r(s) ORs the class period << r
into the units that fail at k = m + s.

The tests check every claim against the exact ``p_adic_valuation`` for
every prime in (sqrt(n), n] and every (n, i, k) with n <= 120, and the
memoised kernel against a per-n reference kernel.  On [2, 13542], 214
triples have no witness at any such prime, all with n <= 27; the scan
evaluates them exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .primes import PrimeTable, sieve

# (i, k, p, J): the prime p shows v_p(omit(n, i, k)) = -J.
Claim = Tuple[int, int, int, int]
# k -> the omitted indices i still without a witness at that k, as a
# mask: bit i is set while i is open.
Open = Dict[int, int]

# (p, m, k_max) tables kept at once.  A rising scan reads only the
# few (p, m) around its current n, so older tables are never read again.
RUN_CACHE = 64


def witness_primes(n: int, k_max: int) -> Iterator[int]:
    """The primes in (sqrt(n), n] in the order :func:`unsettled` tries them."""
    table = _primes_below_power_of_two(n.bit_length())
    root, split = math.isqrt(n), n // k_max
    yield from reversed(table.primes[table.index_gt(root) : table.index_gt(split)])
    yield from table.primes[table.index_gt(max(split, root)) : table.index_gt(n)]


@lru_cache(maxsize=None)  # one table per bit length of n
def _primes_below_power_of_two(bits: int) -> PrimeTable:
    return sieve(1 << bits)


def unsettled(n: int, k_max: int, claims: Optional[List[Claim]] = None) -> List[Tuple[int, int]]:
    """The (i, k) with 1 <= i <= n and 1 <= k <= k_max that no prime in
    (sqrt(n), n] witnesses, in (i, k) order.

    Primes are tried in :func:`witness_primes` order until every pair has
    a witness.  If ``claims`` is a list, each witness found is appended to
    it, so a caller can check it against the exact valuation.
    """
    todo: Open = dict.fromkeys(range(1, k_max + 1), (1 << (n + 1)) - 2)
    for p in witness_primes(n, k_max):
        if not todo:
            break
        todo = settle_at(n, p, todo, claims)
    return sorted((i, k) for k, left in todo.items() for i in _bits(left))


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` >= 0, in rising order."""
    flags = bin(mask)[:1:-1]
    i = flags.find("1")
    while i >= 0:
        yield i
        i = flags.find("1", i + 1)


def settle_at(n: int, p: int, todo: Open, claims: Optional[List[Claim]] = None) -> Open:
    """``todo`` less every (i, k) that the prime p witnesses.

    Needs sqrt(n) < p <= n.  Each value of ``todo`` is a mask of the open
    indices at its k, bit i for index i, with no bit outside 1..n; the
    result has the same form, and a k with nothing left is dropped.  The
    tables that do not read n come from the memo lemma's cache, shared by
    every n with the same (p, floor(n/p), max(todo)).
    """
    if not (p * p > n and p <= n):
        raise ValueError(f"p={p} is not in (sqrt({n}), {n}]")
    m, k_max = n // p, max(todo)
    run = _run_table(p, m, k_max)
    period = run.period
    e_unit = run.tail_esf(n - m * p)  # e_t(1/units), valid for t <= p-2
    multiples = period ^ 1
    units = ((1 << (n + 1)) - 2) & ~multiples
    # zeros[s]: the units i, of the residues walked, with E_i(s) = 0 mod p.
    zeros = [0] * len(e_unit)
    wide = 0  # the units open at some k > m
    for k in range(m + 1, k_max + 1):
        wide |= todo.get(k, 0) & units
    if wide:
        classes, low = 0, (1 << p) - 1  # bit r: some open unit has residue r
        while wide:
            classes |= wide & low
            wide >>= p
        for r in _bits(classes):  # E_r(s) = e_s(1/T) - r^-1 * E_r(s - 1), as in _omit_one
            x, e_r = pow(r, -1, p), 1
            for s in range(1, len(e_unit)):
                e_r = (e_unit[s] - x * e_r) % p
                if not e_r:
                    zeros[s] |= period << r
    left: Open = {}
    for k, open_ in todo.items():
        if k < m:  # J = k for every index, and no verdict reads n
            rest = open_ & run.keep[k]
        else:  # J = m - 1 for a multiple and m for a unit; only the tail decides
            multiple_holds = m > 1 and k - m + 1 <= p - 2 and e_unit[k - m + 1]
            rest = 0 if multiple_holds else open_ & multiples
            if k - m > p - 2:
                rest |= open_ & units
            elif k > m:
                rest |= open_ & zeros[k - m]
        if claims is not None:
            won, jm, ju = open_ & ~rest, min(k, m - 1), min(k, m)  # J of a multiple, a unit
            claims.extend((i, k, p, jm) for i in _bits(won & multiples))
            claims.extend((i, k, p, ju) for i in _bits(won & ~multiples))
        if rest:
            left[k] = rest
    return left


class _RunTable:
    """What :func:`settle_at` reads at p for every n with floor(n/p) = m
    and max(todo) = k_max: all but the tail's e_t, by the memo lemma."""

    __slots__ = ("p", "period", "keep", "_tail")

    def __init__(self, p: int, m: int, k_max: int):
        inv = [pow(a, -1, p) for a in range(1, m + 1)]
        top = min(k_max, m - 1)
        self.p = p
        self.period = 0  # bits 0, p, ..., mp
        for a in range(m + 1):
            self.period |= 1 << (p * a)
        e_mult = _esf([1] + [0] * top, inv, p)  # e_j(1/1, ..., 1/m)
        # keep[k], k <= top: the indices p leaves open at k; every unit
        # (a negative mask) where e_k(1/1, ..., 1/m) is 0 mod p, and the
        # multiples p*a whose e_k(1/A_i) is 0 mod p.
        self.keep = [0 if e_mult[k] else ~self.period for k in range(top + 1)]
        for a, x in enumerate(inv, 1):
            e_a = _omit_one(e_mult, x, p)
            for k in range(1, top + 1):
                if not e_a[k]:
                    self.keep[k] |= 1 << (p * a)
        self._tail = (0, [1] + [0] * (k_max - top))  # (t, e_s(1/1, ..., 1/t) for s <= depth)

    def tail_esf(self, t: int) -> List[int]:
        """[e_0, ..., e_depth] of 1/1, ..., 1/t mod p."""
        done, e = self._tail
        if done > t:
            done, e = 0, [1] + [0] * (len(e) - 1)
        if done < t and len(e) > 1:
            p = self.p
            e = _esf(list(e), (pow(r, -1, p) for r in range(done + 1, t + 1)), p)
        self._tail = (t, e)
        return e


_run_table = lru_cache(maxsize=RUN_CACHE)(_RunTable)


def _esf(e: List[int], xs: Iterable[int], p: int) -> List[int]:
    """``e`` = [e_0, ..., e_d] of some residues, extended in place by the
    residues ``xs``, mod p."""
    for x in xs:
        for t in range(len(e) - 1, 0, -1):
            e[t] = (e[t] + x * e[t - 1]) % p
    return e


def _omit_one(e: List[int], x: int, p: int) -> List[int]:
    """The e_t of the residues behind ``e`` with one residue x taken away."""
    out = [1]
    for t in range(1, len(e)):
        out.append((e[t] - x * out[-1]) % p)
    return out

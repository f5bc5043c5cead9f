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

So every verdict of p at n is a pure function of (p, m, k_max) and t.
:func:`settle_at` keeps what (p, m, k_max) fixes, e_j(1/1, ..., 1/m)
and, per k, the multiples that fail, in a bounded cache, and computes
only the e_s(1/T) per n, extended from the last t asked at the same
(p, m, k_max): one residue per n in a rising scan.  Cached or not, the
verdicts are the same.

**Where the work goes.**  For k <= m and a unit i, J = k and the unit
factor is e_0 = 1: the claim is e_k(1/1, ..., 1/m) != 0 mod p, the same
for every unit i, so p settles all units at that k at once and only its m
multiples need their own test.  :func:`witness_primes` therefore tries
the primes in (sqrt(n), n/k_max] first, where m >= k_max holds for every
k, from the largest (smallest m) down; then the primes in (n/k_max, n],
from the smallest (largest m) up.  The primes come from a sieve, made on
the first call for each bit length of n.  A unit column that no prime
tried so far settles stays one symbolic :class:`AllUnits` set, not n
indices.  Units at k > m need E_i per unit residue.

The tests check every claim against the exact ``p_adic_valuation`` for
every prime in (sqrt(n), n] and every (n, i, k) with n <= 120, and the
memoised kernel against a per-n reference kernel.  On [2, 13542], 214
triples have no witness at any such prime, all with n <= 27; the scan
evaluates them exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Container, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .primes import PrimeTable, sieve

# (i, k, p, J): the prime p shows v_p(omit(n, i, k)) = -J.
Claim = Tuple[int, int, int, int]
# k -> the omitted indices i still without a witness at that k.  Each
# index set is iterable and supports ``in``: a range, a set or AllUnits.
Open = Dict[int, Iterable[int]]

# (p, m, k_max) tables kept per process.  A rising scan reads only the
# few (p, m) around its current n, so older tables are never read again.
RUN_CACHE = 64


class AllUnits:
    """Every i in 1..n that no prime in ``primes`` divides, and ``extra``.

    The open set of a k at which each prime tried so far settled no unit;
    ``extra`` holds multiples of those primes that are still open.
    """

    __slots__ = ("n", "primes", "extra")

    def __init__(self, n: int, primes: Tuple[int, ...] = (), extra: FrozenSet[int] = frozenset()):
        self.n, self.primes, self.extra = n, primes, extra

    def __contains__(self, i: int) -> bool:
        return i in self.extra or (0 < i <= self.n and all(i % q for q in self.primes))

    def __iter__(self) -> Iterator[int]:
        flags = bytearray([1]) * (self.n + 1)
        flags[0] = 0
        for q in self.primes:
            flags[q :: q] = bytes(len(range(q, self.n + 1, q)))
        for i in self.extra:
            flags[i] = 1
        return compress(range(self.n + 1), flags)


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
    everything = AllUnits(n)
    todo: Open = {k: everything for k in range(1, k_max + 1)}
    for p in witness_primes(n, k_max):
        if not todo:
            break
        todo = settle_at(n, p, todo, claims)
    return sorted((i, k) for k, left in todo.items() for i in left)


def settle_at(n: int, p: int, todo: Open, claims: Optional[List[Claim]] = None) -> Open:
    """``todo`` less every (i, k) that the prime p witnesses.

    Needs sqrt(n) < p <= n.  Each index set in ``todo`` must support
    ``in`` and iteration; it is not changed.  A k with nothing left is
    dropped.  The tables that do not read n come from the memo lemma's
    cache, shared by every n with the same (p, floor(n/p), max(todo)).
    """
    if not (p * p > n and p <= n):
        raise ValueError(f"p={p} is not in (sqrt({n}), {n}]")
    m = n // p
    run = _run_table(p, m, max(todo))
    e_mult = run.e_mult
    e_unit = run.tail_esf(n - m * p)  # e_t(1/units), valid for t <= p-2
    multiples = range(p, m * p + 1, p)
    rows: Dict[int, List[int]] = {}  # unit residue -> E_i, for the units at k > m

    def unit_row(r: int) -> List[int]:
        row = rows.get(r)
        if row is None:
            row = rows[r] = _omit_one(e_unit, pow(r, -1, p), p)
        return row

    left: Open = {}
    for k, open_ in todo.items():
        jm, ju = min(k, m - 1), min(k, m)  # J of a multiple and of a unit
        if jm and k - jm <= p - 2 and e_unit[k - jm]:
            failing: Container[int] = run.fails[jm]
        else:
            failing = multiples
        rest = {i for i in failing if i in open_}
        if claims is not None:
            claims.extend((i, k, p, jm) for i in multiples if i in open_ and i not in failing)
        symbolic = isinstance(open_, AllUnits)
        # bad: the unit residues p leaves open at this k.
        if not (e_mult[ju] and k - ju <= p - 2):
            if symbolic:  # p settles no unit at this k
                left[k] = AllUnits(n, open_.primes + (p,), open_.extra | rest)
                continue
            bad: Container[int] = range(1, p)
        elif k <= m:
            bad = ()  # J = k and E_i(0) = 1: p settles every unit at once
        else:
            residues = range(1, p) if symbolic else {i % p for i in open_} - {0}
            bad = {r for r in residues if not unit_row(r)[k - m]}
        if claims is not None:
            claims.extend((i, k, p, ju) for i in open_ if i % p and i % p not in bad)
        if symbolic and bad:
            rest.update(i for r in bad for i in range(r, n + 1, p) if i in open_)
        elif bad:
            rest.update(i for i in open_ if i % p in bad)
        if rest:
            left[k] = rest
    return left


class _RunTable:
    """What :func:`settle_at` reads at p for every n with floor(n/p) = m
    and max(todo) = k_max: all but the tail's e_t, by the memo lemma."""

    __slots__ = ("p", "e_mult", "fails", "_tail")

    def __init__(self, p: int, m: int, k_max: int):
        inv = [pow(a, -1, p) for a in range(1, m + 1)]
        top = min(k_max, m - 1)
        self.p = p
        self.e_mult = _esf([1] + [0] * min(k_max, m), inv, p)  # e_j(1/1, ..., 1/m)
        # fails[k]: the multiples p*a whose e_k(1/A_i) is 0 mod p, k <= top.
        fails: List[set] = [set() for _ in range(top + 1)]
        for a, x in enumerate(inv, 1):
            e_a = _omit_one(self.e_mult, x, p)
            for k in range(1, top + 1):
                if not e_a[k]:
                    fails[k].add(p * a)
        self.fails = [frozenset(f) for f in fails]
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

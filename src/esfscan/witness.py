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

**Where the work goes.**  For k <= m and a unit i, J = k and the unit
factor is e_0 = 1: the claim is e_k(1/1, ..., 1/m) != 0 mod p, the same
for every unit i, so p settles all units at that k at once and only its m
multiples need their own test.  :func:`witness_primes` therefore tries
the primes in (sqrt(n), n/k_max] first, where m >= k_max holds for every
k, from the largest (smallest m) down; then the primes in (n/k_max, n],
from the smallest (largest m) up.  Units at k > m need E_i per unit i.

The tests check every claim against the exact ``p_adic_valuation`` for
every prime in (sqrt(n), n] and every (n, i, k) with n <= 120.  On
[2, 13542], 214 triples have no witness at any such prime, all with
n <= 27; the scan evaluates them exactly.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from .rational import is_prime

# (i, k, p, J): the prime p shows v_p(omit(n, i, k)) = -J.
Claim = Tuple[int, int, int, int]
# k -> the omitted indices i still without a witness at that k.
Open = Dict[int, Collection[int]]


def witness_primes(n: int, k_max: int) -> Iterator[int]:
    """The primes in (sqrt(n), n] in the order :func:`unsettled` tries them."""
    root, split = math.isqrt(n), n // k_max
    yield from (p for p in range(split, root, -1) if is_prime(p))
    yield from (p for p in range(max(split, root) + 1, n + 1) if is_prime(p))


def unsettled(n: int, k_max: int, claims: Optional[List[Claim]] = None) -> List[Tuple[int, int]]:
    """The (i, k) with 1 <= i <= n and 1 <= k <= k_max that no prime in
    (sqrt(n), n] witnesses, in (i, k) order.

    Primes are tried in :func:`witness_primes` order until every pair has
    a witness.  If ``claims`` is a list, each witness found is appended to
    it, so a caller can check it against the exact valuation.
    """
    todo: Open = {k: range(1, n + 1) for k in range(1, k_max + 1)}
    for p in witness_primes(n, k_max):
        if not todo:
            break
        todo = settle_at(n, p, todo, claims)
    return sorted((i, k) for k, left in todo.items() for i in left)


def settle_at(n: int, p: int, todo: Open, claims: Optional[List[Claim]] = None) -> Open:
    """``todo`` less every (i, k) that the prime p witnesses.

    Needs sqrt(n) < p <= n.  Each index set in ``todo`` must support
    ``in`` (a range or a set).  A k with nothing left is dropped.
    """
    if not (p * p > n and p <= n):
        raise ValueError(f"p={p} is not in (sqrt({n}), {n}]")
    m = n // p
    k_max = max(todo)
    tail = n - m * p
    # Deepest unit-factor degree any claim reads: k - J with J >= min(k, m - 1).
    depth = k_max - min(k_max, m - 1)
    inv = _inverses(max(m, tail if depth else 0), p)
    e_mult = _esf(inv[1 : m + 1], min(k_max, m), p)  # e_j(1/1, ..., 1/m)
    e_unit = _esf(inv[1 : tail + 1], depth, p)  # e_t(1/units), valid for t <= p-2
    rows: Dict[int, List[int]] = {}  # i % p or i -> [J at k = 0..k_max], 0 for no witness

    def witness_row(i: int) -> List[int]:
        e_a = e_mult if i % p else _omit_one(e_mult, inv[i // p], p)[:m]
        top = len(e_a) - 1  # min(k_max, |A_i|)
        # k <= top: J = k and the unit factor is e_0 = 1.
        row = [0] + [k if e_a[k] else 0 for k in range(1, top + 1)]
        if top < k_max:  # J = top = |A_i|
            e_r = _omit_one(e_unit, pow(i, -1, p), p) if i % p else e_unit
            row += [
                top if top and k - top <= p - 2 and e_a[top] * e_r[k - top] % p else 0
                for k in range(top + 1, k_max + 1)
            ]
        return row

    left: Open = {}
    for k, open_ in todo.items():
        rest, tested = set(), open_
        if k <= m:
            # J = k and the unit factor is e_0 = 1 for every unit i, so p
            # settles all units at this k or none; only the multiples differ.
            if e_mult[k]:
                if claims is not None:
                    claims.extend((i, k, p, k) for i in open_ if i % p)
            else:
                rest = set(open_)
            tested = [p * a for a in range(1, m + 1) if p * a in open_]
        for i in tested:
            key = i % p or i  # a unit's row reads i only mod p; a multiple keeps i >= p
            row = rows.get(key)
            if row is None:
                row = rows[key] = witness_row(i)
            if not row[k]:
                rest.add(i)
            else:
                rest.discard(i)
                if claims is not None:
                    claims.append((i, k, p, row[k]))
        if rest:
            left[k] = rest
    return left


def _inverses(top: int, p: int) -> List[int]:
    """[0, 1^-1, ..., top^-1] mod p, for top < p."""
    inv = [0, 1][: top + 1]
    for r in range(2, top + 1):
        inv.append(-(p // r) * inv[p % r] % p)
    return inv


def _esf(xs: Sequence[int], depth: int, p: int) -> List[int]:
    """[e_0, ..., e_depth] of the residues ``xs``, mod p."""
    e = [1] + [0] * depth
    for count, x in enumerate(xs, 1):
        for t in range(min(count, depth), 0, -1):
            e[t] = (e[t] + x * e[t - 1]) % p
    return e


def _omit_one(e: List[int], x: int, p: int) -> List[int]:
    """The e_t of the residues behind ``e`` with one residue x taken away."""
    out = [1]
    for t in range(1, len(e)):
        out.append((e[t] - x * out[-1]) % p)
    return out

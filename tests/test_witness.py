import importlib
import json
import math

import pytest

from esfscan import witness
from esfscan.rational import is_prime, p_adic_valuation
from esfscan.scan import ScanConfig, ScanError, scan
from esfscan.symfun import esf_rows, k_cap, omit_sweep
from esfscan.witness import settle_at, unsettled, witness_primes


def primes_above_root(n):
    return [p for p in range(math.isqrt(n) + 1, n + 1) if is_prime(p)]


def indices(mask):
    """The set bits of ``mask``, read off its binary digits."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def to_mask(open_):
    return sum(1 << i for i in set(open_))


def all_pairs(n):
    """Every (i, k) open, as the kernel's masks: bit i for index i."""
    return dict.fromkeys(range(1, k_cap(n) + 1), (1 << (n + 1)) - 2)


def lemma_by_definition(n, i, k, p):
    """J if the lemma's condition holds at (n, i, k, p), else 0, straight
    from the sets A_i and R_i with no Wilson reduction or shortcut."""

    def esf_mod(xs, t):
        e = [1] + [0] * t
        for x in xs:
            for j in range(t, 0, -1):
                e[j] = (e[j] + pow(x, -1, p) * e[j - 1]) % p
        return e[t]

    multiples = [a for a in range(1, n // p + 1) if p * a != i]
    units = [r for r in range(1, n + 1) if r % p and r != i]
    j = min(k, len(multiples))
    if j < 1 or k - j > p - 2:
        return 0
    return j if esf_mod(multiples, j) * esf_mod(units, k - j) % p else 0


def reference_settle_at(n, p, todo, claims=None):
    """The kernel before memoisation and bitmasks, on sets of indices: every
    table rebuilt for this n.  Takes and returns masks, as settle_at does."""
    todo = {k: set(indices(mask)) for k, mask in todo.items()}
    m = n // p
    k_max = max(todo)
    tail = n - m * p
    depth = k_max - min(k_max, m - 1)
    top_inv = max(m, tail if depth else 0)
    inv = [0, 1][: top_inv + 1]  # [0, 1^-1, ..., top_inv^-1] mod p
    for r in range(2, top_inv + 1):
        inv.append(-(p // r) * inv[p % r] % p)

    def esf(xs, d):
        e = [1] + [0] * d
        for count, x in enumerate(xs, 1):
            for t in range(min(count, d), 0, -1):
                e[t] = (e[t] + x * e[t - 1]) % p
        return e

    def omit_one(e, x):
        out = [1]
        for t in range(1, len(e)):
            out.append((e[t] - x * out[-1]) % p)
        return out

    e_mult = esf(inv[1 : m + 1], min(k_max, m))
    e_unit = esf(inv[1 : tail + 1], depth)
    rows = {}

    def witness_row(i):
        e_a = e_mult if i % p else omit_one(e_mult, inv[i // p])[:m]
        top = len(e_a) - 1
        row = [0] + [k if e_a[k] else 0 for k in range(1, top + 1)]
        if top < k_max:
            e_r = omit_one(e_unit, pow(i, -1, p)) if i % p else e_unit
            row += [
                top if top and k - top <= p - 2 and e_a[top] * e_r[k - top] % p else 0
                for k in range(top + 1, k_max + 1)
            ]
        return row

    left = {}
    for k, open_ in todo.items():
        rest, tested = set(), open_
        if k <= m:
            if e_mult[k]:
                if claims is not None:
                    claims.extend((i, k, p, k) for i in open_ if i % p)
            else:
                rest = set(open_)
            tested = [p * a for a in range(1, m + 1) if p * a in open_]
        for i in tested:
            key = i % p or i
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
            left[k] = to_mask(rest)
    return left


def same_claims(claims, want):
    """Equal as multisets; the reference claims each (i, k) once."""
    return len(claims) == len(want) and set(claims) == set(want)


def test_every_claim_on_2_to_120_matches_exact_valuation():
    # Every prime in (sqrt n, n], not only the ones the scan reaches.
    claims_checked = 0
    for row in esf_rows(120, k_cap(120)):
        n = row.n
        if n < 2:
            continue
        values = {i: omit_sweep(row, i, k_cap(n)) for i in range(1, n + 1)}
        for p in primes_above_root(n):
            claims = []
            settle_at(n, p, all_pairs(n), claims)
            for i, k, q, j in claims:
                assert q == p and j >= 1
                assert p_adic_valuation(values[i][k - 1], p) == -j, (n, i, k, p, j)
            claims_checked += len(claims)
    assert claims_checked > 10**6


def test_kernel_makes_exactly_the_claims_of_the_lemma():
    for n in range(2, 31):
        for p in primes_above_root(n):
            claims = []
            left = settle_at(n, p, all_pairs(n), claims)
            made = {(i, k): j for i, k, _, j in claims}
            assert len(made) == len(claims)
            for k in range(1, k_cap(n) + 1):
                for i in range(1, n + 1):
                    want = lemma_by_definition(n, i, k, p)
                    assert made.get((i, k), 0) == want, (n, i, k, p)
                    assert bool(left.get(k, 0) >> i & 1) == (not want), (n, i, k, p)


def test_unsettled_only_below_37():
    left = [(n, i, k) for n in range(2, 2001) for i, k in unsettled(n, k_cap(n))]
    assert len(left) == 214
    assert max(n for n, _, _ in left) <= 36
    # Each one really has no witness at any prime in (sqrt n, n].
    for n, i, k in left[::7]:
        assert all(not lemma_by_definition(n, i, k, p) for p in primes_above_root(n))


def leaves_what_the_reference_leaves(window):
    """The open masks at every prime ``unsettled`` tries, for rising n as
    in a scan, so each (p, m, k_max) table is reused."""
    witness._run_table.cache_clear()
    calls = 0
    for n in window:
        todo = all_pairs(n)
        for p in witness_primes(n, k_cap(n)):
            if not todo:
                break
            left = settle_at(n, p, todo)
            assert left == reference_settle_at(n, p, todo), (n, p)
            todo, calls = left, calls + 1
    assert witness._run_table.cache_info().hits > calls // 2


def test_memo_leaves_what_the_reference_leaves():
    leaves_what_the_reference_leaves(range(2, 2001))


def test_memo_leaves_what_the_reference_leaves_where_the_scan_ends():
    # Masks of about 13.5k bits.
    leaves_what_the_reference_leaves(range(13500, 13543))


def test_memo_claims_what_the_reference_claims():
    # Every index open, as ``unsettled`` and the certify tests start (the
    # scan claims to n = 12).
    for n in range(2, 201):
        for p in primes_above_root(n):
            todo = all_pairs(n)
            claims, want = [], []
            left = settle_at(n, p, todo, claims)
            assert left == reference_settle_at(n, p, todo, want)
            assert same_claims(claims, want), (n, p)


@pytest.mark.parametrize("window, depth", [(range(1160, 1180), 0), (range(12961, 12967), 1)])
def test_memo_across_a_change_of_m(window, depth):
    """Consecutive n at each prime ``unsettled`` tries there.  The window
    holds an n where such a prime's m = floor(n/p) has just changed and
    the tail depth k_max - min(k_max, m - 1) is ``depth``."""
    crossings = set()
    for n in window:
        todo = all_pairs(n)
        for p in witness_primes(n, k_cap(n)):
            if not todo:
                break
            m, k_max = n // p, max(todo)
            if m != (n - 1) // p:
                crossings.add(k_max - min(k_max, m - 1))
            claims, want = [], []
            left = settle_at(n, p, todo, claims)
            assert left == reference_settle_at(n, p, todo, want), (n, p)
            assert same_claims(claims, want), (n, p)
            todo = left
    assert depth in crossings


def test_verdicts_do_not_depend_on_the_cache():
    witness._run_table.cache_clear()
    rising = [unsettled(n, k_cap(n)) for n in range(2, 401)]
    witness._run_table.cache_clear()
    falling = [unsettled(n, k_cap(n)) for n in range(400, 1, -1)]
    assert rising == falling[::-1]


def test_witness_primes_order():
    n = 13542
    order = list(witness_primes(n, k_cap(n)))
    assert sorted(order) == primes_above_root(n)
    split = n // k_cap(n)
    big = [p for p in order if p <= split]
    assert order[: len(big)] == sorted(big, reverse=True)
    assert order[len(big) :] == sorted(order[len(big) :])
    assert all(n // p >= k_cap(n) for p in big)
    assert list(witness_primes(10, k_cap(10))) == [5, 7]


def test_settle_at_refuses_small_prime():
    with pytest.raises(ValueError, match="not in"):
        settle_at(25, 5, all_pairs(25))


def test_scan_to_3000_finds_only_known_hits(tmp_path):
    out = tmp_path / "r.csv"
    report = scan(ScanConfig(n_start=2, n_end=3000, report_path=str(out)))
    assert out.read_bytes() == b"n,i,k,numerator,denominator\n2,2,1,1,1\n4,4,2,1,1\n"
    assert [(h.n, h.i, h.k) for h in report.hits] == [(2, 2, 1), (4, 4, 2)]
    summary = json.loads((tmp_path / "r.csv.summary.json").read_text())
    exact = sum(w["triples_exact"] for w in summary["workers"])
    witnessed = sum(w["triples_witnessed"] for w in summary["workers"])
    assert exact + witnessed == report.triples_checked
    # Every triple up to n = 12 and the 93 leftovers of 13..36, nothing
    # above: a kernel that wrongly settles a triple past n = 12 lowers it.
    small = sum(n * k_cap(n) for n in range(2, 13))
    assert exact == small + 93 == 620


def test_exact_count_is_zero_above_36(tmp_path):
    report = scan(ScanConfig(n_start=37, n_end=80, jobs=2, report_path=str(tmp_path / "r.csv")))
    assert 1 <= len(report.worker_stats) <= 2
    assert all(s.triples_exact == 0 for s in report.worker_stats)
    report = scan(ScanConfig(n_start=2, n_end=12, report_path=str(tmp_path / "s.csv")))
    (stat,) = report.worker_stats
    assert stat.triples_exact == stat.triples_checked and stat.triples_witnessed == 0


def _false_witness(kernel):
    """The kernel, plus one false claim at (i, k) = (1, 1)."""

    def patched(n, k_max, claims=None):
        left = kernel(n, k_max, claims)
        if claims is not None:
            claims.append((1, 1, 2, 5))
        return left

    return patched


def test_false_witness_is_caught_online(tmp_path, monkeypatch):
    scan_module = importlib.import_module("esfscan.scan")
    monkeypatch.setattr(scan_module, "unsettled", _false_witness(scan_module.unsettled))
    # omit(2, 1, 1) = 1/2 has v_2 = -1, not -5; the first n reports it.
    with pytest.raises(ScanError, match=r"witness p=2 claims v_p = -5 at \(2,1,1\)"):
        scan(ScanConfig(n_start=2, n_end=40, report_path=str(tmp_path / "r.csv")))

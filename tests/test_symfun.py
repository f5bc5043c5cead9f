import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp

from esfscan import symfun
from esfscan.rational import format_rational, is_integer, make_rational
from esfscan.symfun import (
    _cap_start,
    _least,
    compute_omit,
    esf_closed_form,
    esf_oracle,
    esf_row_advance,
    esf_row_start,
    esf_rows,
    k_cap,
    omit_closed_form,
    omit_first_column_advance,
    omit_first_column_start,
    omit_oracle,
    omit_scaled,
    omit_sweep,
    omit_values,
)
from esfscan.theta import subset_size_bound


def rows_and_columns(n_max, cap):
    """Yield (row, col, prev_row) advanced in lockstep for n = 2..n_max."""
    row = esf_row_start(cap)
    col = omit_first_column_start()
    while row.n < n_max:
        prev = row
        row = esf_row_advance(row)
        col = omit_first_column_advance(col, prev)
        yield row, col, prev


class TestOracles:
    """The enumeration oracles are the ground truth for everything else,
    so they are pinned to the hand-checkable small tables first."""

    def test_full_set_golden(self, golden_full):
        for (n, k), expected in golden_full.items():
            assert format_rational(esf_oracle(n, k)) == expected

    def test_full_set_diagonal(self):
        assert esf_oracle(5, 5) == make_rational(1, math.factorial(5))

    def test_full_set_harmonic(self):
        assert esf_oracle(4, 1) == make_rational(25, 12)

    def test_omit_golden_table(self, golden_omit):
        for (n, i, k), expected in golden_omit.items():
            assert format_rational(omit_oracle(n, i, k)) == expected

    def test_omit_oracle_matches_a_fraction_sum(self):
        # The oracle sums in integers; a plain Fraction sum over the same
        # subsets is the reference, on every triple the scan cross-checks.
        for n in range(2, 13):
            for i in range(1, n + 1):
                pool = [j for j in range(1, n + 1) if j != i]
                for k in range(1, n):
                    want = sum(Fraction(1, math.prod(s)) for s in combinations(pool, k))
                    assert omit_oracle(n, i, k) == want, (n, i, k)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            esf_oracle(21, 3)
        with pytest.raises(ValueError):
            omit_oracle(25, 1, 2)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            esf_oracle(4, 5)
        with pytest.raises(ValueError):
            omit_oracle(4, 5, 2)
        with pytest.raises(ValueError):
            omit_oracle(4, 1, 4)


class TestKCap:
    def test_reference_point(self):
        assert k_cap(13542) == 28

    def test_smallest(self):
        assert k_cap(2) == 1

    def test_crossover(self):
        # e*ln(9) + e = 8.69...; the n-1 limit and the log bound meet here.
        assert k_cap(9) == 8

    def test_matches_high_precision_floor(self):
        # Every n the scan and the certificates use, against a 256-bit floor.
        with mp.workprec(256):
            floors = {n: int(mp.floor(mp.e * mp.log(n) + mp.e)) for n in range(2, 50217)}
        assert [n for n, f in floors.items() if k_cap(n) != min(n - 1, f)] == []

    def test_nondecreasing(self):
        caps = [k_cap(n) for n in range(2, 400)]
        assert all(a <= b for a, b in zip(caps, caps[1:]))

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            k_cap(1)

    def test_independent_of_global_precision(self):
        # A coarse caller precision must neither change a cap nor leave a
        # wrong cap or breakpoint in the caches.
        k_cap.cache_clear()
        _cap_start.cache_clear()
        try:
            with mp.workprec(8):
                assert k_cap(191) == 16
            with mp.workprec(3):
                assert k_cap(23) == 11
            assert k_cap(191) == 16 and k_cap(23) == 11
        finally:
            k_cap.cache_clear()
            _cap_start.cache_clear()

    def test_cold_cap_at_1e20_costs_few_enclosures(self, monkeypatch):
        # The float guess of the breakpoint drifts far from it at this n; a
        # search that walks one n per enclosure needs about 5e5 of them.
        calls = []

        def counted(n):
            calls.append(n)
            return subset_size_bound(n)

        monkeypatch.setattr(symfun, "subset_size_bound", counted)
        k_cap.cache_clear()
        _cap_start.cache_clear()
        try:
            assert k_cap(10**20) == min(10**20 - 1, floor_b(10**20))
            assert len(calls) <= 100
        finally:
            k_cap.cache_clear()
            _cap_start.cache_clear()


class TestLeast:
    """The search behind k_cap and _cap_start, on a predicate with a known answer."""

    @staticmethod
    def search(answer, guess):
        calls = []

        def pred(m):
            calls.append(m)
            return m >= answer

        return _least(pred, guess), len(calls)

    @pytest.mark.parametrize("answer", [3, 4, 1000, 10**7 + 3, 10**30 + 7])
    def test_right_guess_costs_two_calls(self, answer):
        assert self.search(answer, answer) == (answer, 2)

    @pytest.mark.parametrize("answer", [2, 3, 10**6 + 1, 10**7 + 3, 10**30 + 7])
    @pytest.mark.parametrize("offset", [-(10**6), -1, 1, 10**6])
    def test_far_guess_finds_the_answer_in_few_calls(self, answer, offset):
        found, calls = self.search(answer, answer + offset)
        assert found == answer
        assert calls <= 44

    def test_bracket_past_the_machine_word(self):
        # A guess off by about 2^70 leaves a bracket wider than sys.maxsize.
        found, calls = self.search(2**70 + 5, 2)
        assert found == 2**70 + 5
        assert calls <= 150


def floor_b(n):
    """The per-n cap before the n - 1 limit: one enclosure, its upper end's floor."""
    return int(subset_size_bound(n).b)


class TestCapBreakpoints:
    def test_each_breakpoint_is_the_first_n_at_its_cap(self):
        for c in range(1, 61):
            start = _cap_start(c)
            assert floor_b(start) >= c, c
            assert start == 2 or floor_b(start - 1) < c, c

    def test_matches_per_n_enclosure_around_breakpoints(self):
        starts = [_cap_start(c) for c in range(1, 60)]
        points = sorted({m for s in starts for m in (s - 1, s, s + 1) if m >= 2})
        assert [m for m in points if k_cap(m) != min(m - 1, floor_b(m))] == []

    def test_breakpoints_match_a_256_bit_reference(self):
        # Independent of the package's enclosure: the least n >= 2 with
        # e*ln(n) + e >= c, located by mpmath at 256 bits.
        with mp.workprec(256):
            b = lambda m: mp.e * mp.log(m) + mp.e
            for c in range(1, 191):
                n = max(2, int(mp.ceil(mp.exp(mp.mpf(c) / mp.e - 1))))
                assert b(n) >= c and (n == 2 or b(n - 1) < c), c
                assert _cap_start(c) == n, c

    def test_matches_per_n_enclosure_at_random_n(self):
        rng = random.Random(14)
        points = [rng.randrange(2, 10**9) for _ in range(300)]
        assert [m for m in points if k_cap(m) != min(m - 1, floor_b(m))] == []

    def test_matches_per_n_enclosure_at_large_random_n(self):
        # Up to 1e29 the float guesses of the cap and its breakpoints are
        # off by many n; only the enclosure may decide.
        rng = random.Random(23)
        points = [rng.randrange(10**9, 10**29) for _ in range(300)]
        assert [m for m in points if k_cap(m) != floor_b(m)] == []


def row_values(row):
    """[esf(n, 1), ..., esf(n, len(row.scaled) - 1)], each through ``row.value``."""
    return [row.value(k) for k in range(1, len(row.scaled))]


class TestRowRecursion:
    def test_first_rows(self):
        row1 = esf_row_start(cap=10)
        assert [format_rational(v) for v in row_values(row1)] == ["1/1"]
        row2 = esf_row_advance(row1)
        assert [format_rational(v) for v in row_values(row2)] == ["3/2", "1/2"]
        row3 = esf_row_advance(row2)
        assert [format_rational(v) for v in row_values(row3)] == ["11/6", "1/1", "1/6"]

    def test_row4_third_entry(self):
        *_, row4 = esf_rows(4, cap=3)
        assert row4.value(3) == make_rational(5, 12)

    def test_matches_oracle_exhaustively(self):
        row = esf_row_start(cap=12)
        for n in range(1, 13):
            if n > 1:
                row = esf_row_advance(row)
            for k in range(1, n + 1):
                assert row.value(k) == esf_oracle(n, k), (n, k)

    def test_diagonal_is_inverse_factorial(self):
        for row in esf_rows(9, cap=9):
            assert row.value(row.n) == make_rational(1, math.factorial(row.n))

    def test_values_positive(self):
        for row in esf_rows(40, cap=k_cap(40)):
            assert all(v > 0 for v in row_values(row))

    def test_harmonic_not_integer(self):
        for row in esf_rows(300, cap=1):
            if row.n >= 2:
                assert not is_integer(row.value(1))


class TestScaledKernel:
    def test_exact_division_lemma(self):
        # omit_scaled divides C_{k-1} = n! * omit(n, i, k-1) by i with //;
        # the lemma in its docstring says that division is exact.
        checked = 0
        for row in esf_rows(60, cap=k_cap(60)):
            n = row.n
            assert row.scaled[0] == math.factorial(n)
            if n <= 20:
                for k in range(1, len(row.scaled)):
                    assert row.scaled[k] == esf_oracle(n, k) * math.factorial(n), (n, k)
            if n < 2:
                continue
            mk = min(n - 1, k_cap(n))
            for i in range(1, n + 1):
                c = [row.scaled[0], *omit_scaled(row, i, mk)]
                for k in range(1, mk + 1):
                    assert c[k - 1] % i == 0, (n, i, k)
                    checked += 1
        assert checked == sum(n * min(n - 1, k_cap(n)) for n in range(2, 61))


class TestOmitRecursion:
    def test_column_matches_harmonic_difference(self):
        # The scan seeds k = 1 from H_n - 1/i instead of carrying this column.
        for row, col, _prev in rows_and_columns(200, cap=1):
            for i in range(1, row.n + 1):
                assert col.value(i) == row.value(1) - make_rational(1, i), (row.n, i)

    def test_golden_values(self, golden_omit):
        for (n, i, k), expected in golden_omit.items():
            assert format_rational(compute_omit(n, i, k)) == expected

    def test_omit_value_uses_state(self):
        for row, col, prev in rows_and_columns(4, cap=4):
            if row.n == 4:
                assert omit_sweep(row, 1, 2)[-1] == make_rational(3, 8)
                assert omit_sweep(row, 4, 2)[-1] == make_rational(1)
                assert list(omit_values(4, 4, 2, row, col))[-1] == (2, make_rational(1))

    def test_omit_values_stream(self):
        for row, col, prev in rows_and_columns(4, cap=4):
            if row.n == 4:
                got = {k: format_rational(v) for k, v in omit_values(4, 2, 3, row, col)}
                assert got == {1: "19/12", 2: "2/3", 3: "1/12"}

    def test_domain_rejections(self):
        for row, col, prev in rows_and_columns(5, cap=4):
            if row.n == 5:
                with pytest.raises(ValueError):
                    list(omit_values(5, 6, 1, row, col))
                with pytest.raises(ValueError):
                    list(omit_values(5, 1, 5, row, col))
                with pytest.raises(ValueError):
                    omit_sweep(row, 0, 1)
                # i = n needs no previous row.
                assert list(omit_values(5, 5, 2, row, col))[-1] == (2, omit_oracle(5, 5, 2))
            if row.n == 4:
                # A row and column for another n must not be relabelled.
                with pytest.raises(ValueError):
                    list(omit_values(5, 2, 3, row, col))
        with pytest.raises(ValueError):
            compute_omit(4, 1, 4)
        with pytest.raises(ValueError):
            compute_omit(4, 5, 2)

    def test_matches_oracle_exhaustively(self):
        # Every omitted index and every subset size, n up to the
        # enumeration bound used by the scan's online crosscheck; the
        # kernel is also called directly, i = n included.
        checked = 0
        for row, col, prev in rows_and_columns(12, cap=11):
            n = row.n
            for i in range(1, n + 1):
                expected = [omit_oracle(n, i, k) for k in range(1, n)]
                swept = omit_sweep(row, i, n - 1)
                assert swept == expected, (n, i)
                for k, value in omit_values(n, i, n - 1, row, col, prev_row=prev):
                    assert value == expected[k - 1], (n, i, k)
                    checked += 1
        assert checked == sum(n * (n - 1) for n in range(2, 13))


class TestClosedForms:
    def test_pinned_values(self):
        assert esf_closed_form(1, 1) == make_rational(3, 2)
        assert esf_closed_form(3, 1) == make_rational(5, 12)
        # (k+3)(3k+8) / (24 k!) at k=2: 5*14/48 = 35/24.
        assert esf_closed_form(2, 2) == make_rational(35, 24)
        assert omit_closed_form(1, 2, 1) == make_rational(1)
        assert omit_closed_form(2, 4, 2) == make_rational(1)
        assert omit_closed_form(3, 1, 1) == make_rational(1, 24)

    def test_full_set_matches_oracle(self):
        for k in range(1, 11):
            for offset in (1, 2):
                assert esf_closed_form(k, offset) == esf_oracle(k + offset, k), (k, offset)

    def test_omit_matches_oracle(self):
        for k in range(1, 11):
            for offset in (1, 2):
                for i in range(1, k + offset + 1):
                    assert omit_closed_form(k, i, offset) == omit_oracle(k + offset, i, k)

    def test_rejections(self):
        with pytest.raises(ValueError):
            esf_closed_form(0, 1)
        with pytest.raises(ValueError):
            esf_closed_form(3, 3)
        with pytest.raises(ValueError):
            omit_closed_form(3, 5, 1)  # i beyond n = k+1
        with pytest.raises(ValueError):
            omit_closed_form(3, 0, 2)


class TestIdentities:
    def test_decomposition_identity(self):
        # full(n, k) = omit(n, i, k) + (1/i) * omit(n, i, k-1), exactly.
        for row, col, prev in rows_and_columns(25, cap=k_cap(25)):
            n = row.n
            if n < 3:
                continue
            mk = min(n - 1, k_cap(n))
            for i in range(1, n + 1):
                prev_value = None
                for k, value in omit_values(n, i, mk, row, col, prev_row=prev):
                    if prev_value is not None:
                        assert row.value(k) == value + prev_value / i, (n, i, k)
                    prev_value = value

    def test_last_index_shortcut(self):
        # The recursion at i = n reproduces the previous full-set row.
        for row, col, prev in rows_and_columns(25, cap=k_cap(25)):
            n = row.n
            mk = min(n - 1, k_cap(n))
            acc = col.value(n)
            assert acc == prev.value(1)
            for k in range(2, mk + 1):
                acc = row.value(k) - acc / n
                assert acc == prev.value(k), (n, k)
            # The kernel satisfies the shortcut omit(n, n, k) = esf(n-1, k).
            assert omit_sweep(row, n, mk) == row_values(prev)[:mk], n

    def test_bound_above_cutoff(self):
        # Above k_cap the full-set values drop below 1 (the proof is in the
        # k_cap docstring), which is what makes larger subset sizes
        # uninteresting to scan.
        for row in esf_rows(40, cap=40):
            n = row.n
            if n < 2:
                continue
            for k in range(k_cap(n) + 1, n):
                assert row.value(k) < 1, (n, k)

import math

import pytest
from mpmath import mp

from esfscan.rational import format_rational, is_integer, make_rational
from esfscan.symfun import (
    compute_esf,
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
    omit_sweep,
    omit_values,
)


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
        with mp.workdps(60):
            for n in (2, 5, 9, 57, 500, 2000, 13542, 50216):
                bound = mp.e * mp.log(n) + mp.e
                assert k_cap(n) == min(n - 1, int(mp.floor(bound)))

    def test_nondecreasing(self):
        caps = [k_cap(n) for n in range(2, 400)]
        assert all(a <= b for a, b in zip(caps, caps[1:]))

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            k_cap(1)

    def test_independent_of_global_precision(self):
        # A coarse caller precision must neither change a cap nor leave a
        # wrong one in the cache.
        k_cap.cache_clear()
        try:
            with mp.workprec(8):
                assert k_cap(191) == 16
            with mp.workprec(3):
                assert k_cap(23) == 11
            assert k_cap(191) == 16 and k_cap(23) == 11
        finally:
            k_cap.cache_clear()


class TestRowRecursion:
    def test_first_rows(self):
        row1 = esf_row_start(cap=10)
        assert [format_rational(v) for v in row1.values] == ["1/1"]
        row2 = esf_row_advance(row1)
        assert [format_rational(v) for v in row2.values] == ["3/2", "1/2"]
        row3 = esf_row_advance(row2)
        assert [format_rational(v) for v in row3.values] == ["11/6", "1/1", "1/6"]

    def test_row4_third_entry(self):
        assert compute_esf(4, 3) == make_rational(5, 12)

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
            assert all(v > 0 for v in row.values)

    def test_harmonic_not_integer(self):
        for row in esf_rows(300, cap=1):
            if row.n >= 2:
                assert not is_integer(row.harmonic)


class TestOmitRecursion:
    def test_column_matches_harmonic_difference(self):
        # The scan seeds k = 1 from H_n - 1/i instead of carrying this column.
        for row, col, _prev in rows_and_columns(200, cap=1):
            for i in range(1, row.n + 1):
                assert col.value(i) == row.harmonic - make_rational(1, i), (row.n, i)

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
            assert omit_sweep(row, n, mk) == list(prev.values[:mk]), n

    def test_bound_above_cutoff(self):
        # Above the scan cutoff the full-set values drop below 1, which
        # is what makes larger subset sizes uninteresting to scan.
        with mp.workdps(40):
            for row in esf_rows(40, cap=40):
                n = row.n
                if n < 9:
                    continue
                k_min = int(mp.ceil(mp.e * mp.log(n) + mp.e))
                for k in range(k_min, n):
                    assert row.value(k) < 1, (n, k)

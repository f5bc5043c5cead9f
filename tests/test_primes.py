import pytest

from esfscan.primes import PrimeTable, sieve


def trial_division_primes(limit):
    out = []
    for m in range(2, limit + 1):
        d = 2
        while d * d <= m:
            if m % d == 0:
                break
            d += 1
        else:
            out.append(m)
    return out


class TestSieve:
    def test_small(self):
        assert list(sieve(10).primes) == [2, 3, 5, 7]

    def test_minimal(self):
        assert list(sieve(2).primes) == [2]

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve(1)

    def test_matches_trial_division(self):
        assert list(sieve(5000).primes) == trial_division_primes(5000)

    @pytest.mark.parametrize("limit", [65535, 65536, 65537, 70000])
    def test_segment_boundaries(self, limit):
        # Limits on both sides of 2^16 must agree with a reference sieve
        # kept here, independent of the package's code.
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, int(limit**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        assert list(sieve(limit).primes) == [m for m in range(2, limit + 1) if flags[m]]

    def test_count_at_certify_limit(self, table_50216):
        # Independently recomputed by trial division in
        # test_count_matches_trial_division_full; 5133 primes below 50000.
        assert len(table_50216) == 5154

    def test_count_matches_trial_division_full(self, table_50216):
        assert len(trial_division_primes(50216)) == len(table_50216)

    def test_strictly_ascending(self, table_50216):
        primes = table_50216.primes
        assert all(a < b for a, b in zip(primes, primes[1:]))


class TestPrimeTable:
    def test_largest_leq(self, table_5000):
        assert table_5000.largest_leq(10) == 7
        assert table_5000.largest_leq(11) == 11
        assert table_5000.largest_leq(1.9) is None

    def test_index_gt(self, table_5000):
        primes = table_5000.primes
        assert primes[table_5000.index_gt(10)] == 11
        assert table_5000.index_gt(5000) == len(primes)

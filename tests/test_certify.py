import bisect
import dataclasses
import hashlib
import os

import pytest

import esfscan.certify as certify_module
from esfscan.certify import (
    certificate_threshold,
    certify_range,
    check_valuations,
    find_certificate,
    sample_certified_pairs,
    window_violation,
    write_certificates,
)
from esfscan.symfun import _cap_start, k_cap
from esfscan.witness import settle_at


def brute_certificate_prime(n, k, table):
    """Reference scan of the whole window, largest qualifying prime."""
    threshold = certificate_threshold(k)
    primes = table.primes
    start = bisect.bisect_left(primes, max(2, n // (k + 3)))
    best = None
    for p in primes[start:]:
        if (k + 1) * p > n:
            break
        if (k + 3) * p > n and p > threshold:
            best = p
    return best


def pair_cells(result):
    """(n, k, p) for every pair, expanded from the runs, in (n, k) order."""
    return sorted((n, k, p) for first, last, k, p in result.runs for n in range(first, last + 1))


def pair_certificates(result):
    """(n, k, p) for every certified pair, expanded from the runs; each passes the window."""
    certs = [(n, k, p) for n, k, p in pair_cells(result) if p]
    assert all(window_violation(n, k, p) is None for n, k, p in certs)
    return certs


class TestThreshold:
    def test_values(self):
        assert certificate_threshold(1) == 11  # max(6, 11)
        assert certificate_threshold(2) == 14  # max(10, 14)
        assert certificate_threshold(3) == 17  # max(15, 17)
        assert certificate_threshold(4) == 21  # max(21, 20)
        assert certificate_threshold(10) == 78


class TestCertificate:
    # A certificate is the triple (n, k, p); window_violation is its one check.
    def test_valid(self):
        assert window_violation(100, 1, 47) is None
        assert certificate_threshold(1) == 11

    def test_k_out_of_range_rejected(self):
        assert window_violation(100, 0, 47) is not None
        assert window_violation(10, 10, 3) is not None

    def test_prime_below_window_rejected(self):
        assert window_violation(100, 1, 23) is not None

    def test_prime_above_window_rejected(self):
        assert window_violation(100, 1, 53) is not None

    def test_prime_below_threshold_rejected(self):
        # 7 lies in the window (5, 10] for n=20, k=1 but misses the threshold.
        assert window_violation(20, 1, 7) is not None

    def test_construction_raises_the_window_reason(self):
        assert window_violation(100, 1, 47) is None
        for n, k, p, reason in (
            (10, 10, 3, "certificate requires 1 <= k < n, got k=10, n=10"),
            (100, 1, 23, "p=23 at or below the window for (n=100, k=1)"),
            (100, 1, 53, "p=53 above the window for (n=100, k=1)"),
            (20, 1, 7, "p=7 does not exceed the threshold 11"),
        ):
            assert window_violation(n, k, p) == reason


class TestFindCertificate:
    def test_smallest_certified_n(self, table_5000):
        assert find_certificate(26, 1, table_5000) == 13
        assert all(find_certificate(n, 1, table_5000) is None for n in range(2, 26))

    def test_absent_small_n(self, table_5000):
        assert find_certificate(20, 1, table_5000) is None
        assert find_certificate(4, 1, table_5000) is None

    def test_exact_boundary_prime_included(self, table_50216):
        # 29 * 467 = 13543: the window top is hit exactly, and the
        # comparison must include it.
        assert find_certificate(13543, 28, table_50216) == 467

    def test_window_top_prime(self, table_50216):
        assert find_certificate(13543, 1, table_50216) == 6763  # largest prime <= 6771

    def test_table_too_small_rejected(self, table_5000):
        with pytest.raises(ValueError):
            find_certificate(6000, 1, table_5000)

    def test_domain_rejected(self, table_5000):
        with pytest.raises(ValueError):
            find_certificate(10, 10, table_5000)

    def test_matches_brute_force_scan(self, table_5000):
        for n in range(2, 5001):
            for k in range(1, k_cap(n) + 1):
                expected = brute_certificate_prime(n, k, table_5000)
                assert find_certificate(n, k, table_5000) == expected, (n, k)


# sha256 of the certificate file for [13543, 50216], the whole certify leg.
CERTS_FULL_SHA256 = "7549ed0219ebdc25eb8201180a45b77753098fa91957b2bc71413c79444142c9"
# sha256 of the certificate file for [2, 3000]: 63,831 lines, 30,803 of them GAP lines.
CERTS_2_3000_SHA256 = "de8aea933dab789295e1e620dabfe7e6627d4449fcbfca9e2ab7556ad45184a4"


@pytest.fixture(scope="module")
def full_range(table_50216):
    """The certify leg, [13543, 50216], certified once for this module."""
    return certify_range(13543, 50216, table_50216)


def test_full_range_file_is_pinned(full_range, tmp_path):
    path = tmp_path / "certs.tsv"
    write_certificates(str(path), full_range)
    assert not full_range.gaps and full_range.pairs_checked == 1108410
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CERTS_FULL_SHA256


def test_gapped_range_file_is_pinned(table_50216, tmp_path):
    path = tmp_path / "certs.tsv"
    write_certificates(str(path), certify_range(2, 3000, table_50216))
    data = path.read_bytes()
    assert data.count(b"\n") == 63831 and data.count(b"GAP\t") == 30803
    assert hashlib.sha256(data).hexdigest() == CERTS_2_3000_SHA256


def per_pair_file(n_lo, n_hi, table):
    """The certificate file rendered one (n, k) pair at a time, with
    find_certificate and k = 1..k_cap(n) at each n."""
    lines = []
    for n in range(n_lo, n_hi + 1):
        for k in range(1, k_cap(n) + 1):
            p = find_certificate(n, k, table)
            lines.append(
                f"GAP\t{n}\t{k}"
                if p is None
                else f"{n}\t{k}\t{p}\t{certificate_threshold(k)}\t{n // p}"
            )
    return "".join(line + "\n" for line in lines).encode("utf-8")


# [2, 400] is gapped and k_cap steps 18 times in it; [15000, 16500]
# crosses the step k_cap(15811) = 28 -> k_cap(15812) = 29; [9500, 10500]
# has 2,356 gap pairs among 27,027, so batches of gap-free blocks are cut
# off by refused ones, and it crosses n = 9999 -> 10000, where str(n) widens.
@pytest.mark.parametrize("n_lo, n_hi", [(2, 400), (25, 26), (15000, 16500), (9500, 10500)])
def test_file_matches_a_per_pair_rendering(table_50216, tmp_path, n_lo, n_hi):
    path = tmp_path / "certs.tsv"
    write_certificates(str(path), certify_range(n_lo, n_hi, table_50216))
    assert path.read_bytes() == per_pair_file(n_lo, n_hi, table_50216)


def test_refused_blocks_between_batches(table_50216, tmp_path):
    """Every n <= 13542 has a gap and no n in [13543, 50216] has one, so
    no real range has a batch of gap-free n pending when a refused block
    starts.  Here every 10th certified run of [13000, 16000] shorter than
    20 n is refused, so refused blocks cut batches short (23 times) among
    batches that fill up; the file must equal one rendered pair by pair
    from the runs."""
    real = certify_range(13000, 16000, table_50216)
    short = [i for i, (first, last, _, p) in enumerate(real.runs) if p and last - first < 20]
    refused = set(short[::10])
    runs = tuple(run[:3] + (0,) if i in refused else run for i, run in enumerate(real.runs))
    result = dataclasses.replace(real, runs=runs)
    path = tmp_path / "certs.tsv"
    write_certificates(str(path), result)
    lines = [
        f"{n}\t{k}\t{p}\t{certificate_threshold(k)}\t{n // p}" if p else f"GAP\t{n}\t{k}"
        for n, k, p in pair_cells(result)
    ]
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


def test_every_certificate_settles_in_the_witness_kernel(full_range):
    """A second verdict on the certify range: a certificate (n, k, p) is
    the J = k case of the witness lemma, so p must settle every omitted
    index at k.  There m = floor(n/p) >= k + 1 and settle_at reads n only
    through m, and m is constant on a run, so the first n of each run
    covers every certificate in it."""
    assert not full_range.gaps
    assert len(full_range.runs) == 13363
    for n, _, k, p in full_range.runs:
        assert settle_at(n, p, {k: (1 << (n + 1)) - 2}) == {}, (n, k, p)


def test_one_window_verdict_per_run(table_50216, monkeypatch):
    calls = []

    def counted(n, k, p):
        calls.append((n, k, p))
        return window_violation(n, k, p)

    monkeypatch.setattr(certify_module, "window_violation", counted)
    result = certify_range(13543, 50216, table_50216)
    assert len(calls) == len(result.runs) == 13363
    assert result.pairs_checked == 1108410 and not result.gaps


def per_pair_verdicts(n_lo, n_hi, table):
    """The window check asked about every pair, with the candidate
    largest prime <= n // (k+1), or 0 where there is none."""
    primes, gaps = [], []
    for n in range(n_lo, n_hi + 1):
        for k in range(1, k_cap(n) + 1):
            p = table.largest_leq(n // (k + 1)) or 0
            if window_violation(n, k, p) is not None:
                p = 0
                gaps.append((n, k))
            primes.append(p)
    return primes, gaps


@pytest.mark.parametrize("n_lo, n_hi", [(2, 3000), (13543, 13842), (49917, 50216)])
def test_runs_match_the_per_pair_check(table_50216, n_lo, n_hi):
    result = certify_range(n_lo, n_hi, table_50216)
    primes, gaps = per_pair_verdicts(n_lo, n_hi, table_50216)
    assert [p for _, _, p in pair_cells(result)] == primes
    assert list(result.gaps) == gaps
    assert result.pairs_checked == len(primes)


@pytest.mark.parametrize("n_lo, n_hi", [(2, 3000), (25, 26), (13543, 13842)])
def test_runs_partition_every_column(table_50216, n_lo, n_hi):
    """For each k the runs are sorted, contiguous and disjoint, cover
    [max(n_lo, k+1, _cap_start(k)), n_hi], and hold p = 0 exactly where
    the window refuses the candidate prime."""
    result = certify_range(n_lo, n_hi, table_50216)
    assert list(result.runs) == sorted(result.runs)
    columns = {}
    for first, last, k, p in result.runs:
        columns.setdefault(k, []).append((first, last, p))
    assert sorted(columns) == list(range(1, k_cap(n_hi) + 1))
    for k, runs in columns.items():
        start = max(n_lo, k + 1, _cap_start(k))
        for first, last, p in runs:
            assert first == start and first <= last, (k, first, last)
            for n in range(first, last + 1):
                candidate = table_50216.largest_leq(n // (k + 1)) or 0
                refused = window_violation(n, k, candidate) is not None
                assert refused == (p == 0) and p in (0, candidate), (n, k, p)
            start = last + 1
        assert start == n_hi + 1, k
    assert result.pairs_checked == sum(k_cap(n) for n in range(n_lo, n_hi + 1))


class TestCertifyRange:
    def test_all_gaps_at_n4(self, table_5000):
        result = certify_range(4, 4, table_5000)
        assert result.gaps == ((4, 1), (4, 2), (4, 3))
        assert not pair_certificates(result)

    def test_tiny_range_fully_gapped(self, table_5000):
        result = certify_range(2, 5, table_5000)
        assert result.pairs_checked == len(result.gaps) == 10

    def test_zero_gaps_above_sieve_handoff(self, table_50216):
        result = certify_range(13543, 13600, table_50216)
        assert not result.gaps
        assert result.pairs_checked == sum(k_cap(n) for n in range(13543, 13601))
        # Below the handoff the window lemma leaves the scan's top n one gap,
        # at k = k_cap(13542) = 28, so the scan is needed right up to 13542.
        assert certify_range(13542, 13542, table_50216).gaps == ((13542, 28),)

    def test_pair_accounting(self, table_5000):
        result = certify_range(100, 140, table_5000)
        assert result.pairs_checked == sum(k_cap(n) for n in range(100, 141))
        assert len(pair_certificates(result)) + len(result.gaps) == result.pairs_checked

    def test_rejects_bad_range(self, table_5000):
        with pytest.raises(ValueError):
            certify_range(50, 40, table_5000)
        with pytest.raises(ValueError):
            certify_range(2, 6000, table_5000)

    def test_file_format(self, table_5000, tmp_path):
        result = certify_range(25, 26, table_5000)
        path = tmp_path / "certs.tsv"
        write_certificates(str(path), result)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"GAP\t25\t1"
        idx = k_cap(25)  # first line of n=26 block
        assert lines[idx] == "26\t1\t13\t11\t2"
        assert lines[idx + 1] == "GAP\t26\t2"
        assert len(lines) == k_cap(25) + k_cap(26)
        # A range with no certificate at all: every line is a gap line.
        write_certificates(str(path), certify_range(2, 5, table_5000))
        assert path.read_text(encoding="utf-8").splitlines() == [
            f"GAP\t{n}\t{k}" for n in range(2, 6) for k in range(1, n)
        ]

    def test_failed_write_leaves_old_file(self, table_5000, tmp_path):
        path = tmp_path / "certs.tsv"
        write_certificates(str(path), certify_range(25, 26, table_5000))
        before = path.read_bytes()
        good = certify_range(100, 110, table_5000)
        # The run (106, 110, 1, 53) with p = "7" makes rendering raise at
        # n = 106, after the lines of n = 100..105 are out.
        runs = [(*run[:3], "7") if run[0] == 106 else run for run in good.runs]
        broken = dataclasses.replace(good, runs=tuple(runs))
        with pytest.raises(TypeError):
            write_certificates(str(path), broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["certs.tsv"]


class TestValuationProperty:
    def test_batch_all_indices(self, table_5000):
        pairs = [(100, 1), (150, 2), (321, 3), (400, 1)]
        results = check_valuations(pairs, table_5000)
        assert [(r.n, r.k) for r in results] == sorted(pairs)
        for r in results:
            assert r.passed and r.indices_checked == r.n

    def test_batch_rejects_uncertified_pair(self, table_5000):
        with pytest.raises(ValueError):
            check_valuations([(4, 1)], table_5000)


class TestSampling:
    def test_deterministic(self, table_5000):
        a = sample_certified_pairs(table_5000, n_max=300, count=20, seed=7)
        b = sample_certified_pairs(table_5000, n_max=300, count=20, seed=7)
        assert a == b and len(a) == 20
        for n, k in a:
            assert find_certificate(n, k, table_5000) is not None

    def test_acceptance_sample_is_pinned(self, table_50216):
        # The 200 pairs acceptance criterion 07 checks.
        pairs = sample_certified_pairs(table_50216, n_max=2000, count=200, seed=2024)
        digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
        assert digest == "bd680ed27baa5428568a43cdf2dce09a00df83cdd73e3aa7ae19dd3e2e31a78d"

    def test_rejects_oversized_request(self, table_5000):
        with pytest.raises(ValueError):
            sample_certified_pairs(table_5000, n_max=30, count=100, seed=7)

"""Acceptance gate: one test per criterion, exact tolerances, one
printed PASS line each (run with -s to see them inline)."""

import hashlib
import random
import time

from mpmath import mp

from esfscan.certify import check_valuations, sample_certified_pairs
from esfscan.rational import format_rational
from esfscan.scan import ScanConfig, closed_form_triple_count, scan
from esfscan.symfun import (
    esf_closed_form,
    esf_oracle,
    esf_rows,
    k_cap,
    omit_closed_form,
    omit_oracle,
    omit_values,
)
from esfscan.theta import case1_margin, check_theta_bounds

from test_symfun import rows_and_columns


def _report(num, elapsed, detail):
    print(f"ACCEPTANCE {num:02d}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_01_golden_small_n_tables(run_cli, golden_omit, golden_full):
    started = time.perf_counter()
    for (n, i, k), expected in golden_omit.items():
        code, text = run_cli(["value", str(n), str(i), str(k)])
        assert code == 0 and text == expected + "\n", (n, i, k)
    # The one full-set value in the same tables; it also surfaces through
    # the CLI as the last-index value at n = 4.
    *_, row3 = esf_rows(3, cap=2)
    assert format_rational(row3.value(2)) == golden_full[(3, 2)]
    assert run_cli(["value", "4", "4", "2"])[1].strip() == golden_full[(3, 2)]
    _report(1, time.perf_counter() - started, f"{len(golden_omit) + 1} table values exact")


def test_criterion_02_scan_to_500_finds_only_known_hits(run_cli, tmp_path):
    started = time.perf_counter()
    out = str(tmp_path / "scan500.csv")
    code, _ = run_cli(["scan", "--n-start", "2", "--n-end", "500", "--out", out])
    assert code == 0
    payload = (tmp_path / "scan500.csv").read_text(encoding="utf-8")
    assert payload == "n,i,k,numerator,denominator\n2,2,1,1,1\n4,4,2,1,1\n"
    _report(2, time.perf_counter() - started, "scan [2,500]: exactly (2,2,1) and (4,4,2)")


def test_criterion_03_recursion_equals_enumeration_exhaustively():
    started = time.perf_counter()
    checked = 0
    for row, col, prev in rows_and_columns(12, cap=11):
        n = row.n
        for i in range(1, n + 1):
            for k, value in omit_values(n, i, n - 1, row, col, prev_row=prev):
                assert value == omit_oracle(n, i, k), (n, i, k)
                checked += 1
    assert checked == sum(n * (n - 1) for n in range(2, 13))
    _report(3, time.perf_counter() - started, f"{checked} triples, recursion == enumeration")


def test_criterion_04_closed_forms_equal_enumeration():
    started = time.perf_counter()
    checked = 0
    for k in range(1, 11):
        for offset in (1, 2):
            assert esf_closed_form(k, offset) == esf_oracle(k + offset, k)
            checked += 1
            for i in range(1, k + offset + 1):
                assert omit_closed_form(k, i, offset) == omit_oracle(k + offset, i, k)
                checked += 1
    _report(4, time.perf_counter() - started, f"{checked} closed-form values exact")


def test_criterion_05_identity_suite_to_60():
    started = time.perf_counter()
    decompositions = 0
    shortcuts = 0
    for row, col, prev in rows_and_columns(60, cap=k_cap(60)):
        n = row.n
        mk = min(n - 1, k_cap(n))
        for i in range(1, n + 1):
            prev_value = None
            for k, value in omit_values(n, i, mk, row, col, prev_row=prev):
                if prev_value is not None:
                    assert row.value(k) == value + prev_value / i, (n, i, k)
                    decompositions += 1
                prev_value = value
        # last-index shortcut, recomputed through the k-recursion
        acc = col.value(n)
        assert acc == prev.value(1)
        shortcuts += 1
        for k in range(2, mk + 1):
            acc = row.value(k) - acc / n
            assert acc == prev.value(k), (n, k)
            shortcuts += 1
    _report(
        5,
        time.perf_counter() - started,
        f"{decompositions} decomposition + {shortcuts} shortcut identities exact",
    )


# sha256 of the certificate file for [13543, 14000].
CERTS_13543_14000_SHA256 = "4342a955f57be1b6ad9d4c977e0282cdb3b302bd2b0b921579d18fd53dd1d6a3"


def test_criterion_06_certify_subranges_have_zero_gaps(run_cli, tmp_path):
    started = time.perf_counter()
    for lo, hi in ((13543, 14000), (50000, 50216)):
        out = str(tmp_path / f"certs_{lo}.tsv")
        code, text = run_cli(
            ["certify", "--n-start", str(lo), "--n-end", str(hi), "--out", out]
        )
        assert code == 0 and "0 gap(s)" in text
        lines = (tmp_path / f"certs_{lo}.tsv").read_text().splitlines()
        assert not any(line.startswith("GAP") for line in lines)
        assert len(lines) == sum(k_cap(n) for n in range(lo, hi + 1))
    digest = hashlib.sha256((tmp_path / "certs_13543.tsv").read_bytes()).hexdigest()
    assert digest == CERTS_13543_14000_SHA256
    _report(6, time.perf_counter() - started, "zero gaps on [13543,14000] and [50000,50216]")


def test_criterion_07_valuation_property_on_sampled_certificates(table_50216):
    started = time.perf_counter()
    pairs = sample_certified_pairs(table_50216, n_max=2000, count=200, seed=2024)
    results = check_valuations(pairs, table_50216)
    assert len(results) == 200
    indices = 0
    for r in results:
        assert r.passed, (r.n, r.k, r.failures)
        assert r.indices_checked == r.n
        indices += r.indices_checked
    _report(
        7,
        time.perf_counter() - started,
        f"v_p = -k over {indices} omitted indices across 200 certified pairs",
    )


def test_criterion_08_theta_bounds_on_full_certify_range(table_50216):
    started = time.perf_counter()
    report = check_theta_bounds(1429, 50216, table_50216)
    assert report.passed
    assert report.precision_bits >= 96
    assert 0 < report.max_enclosure_width < 1e-20
    assert report.min_lower_slack > report.max_enclosure_width
    assert report.min_upper_slack > report.max_enclosure_width
    _report(
        8,
        time.perf_counter() - started,
        f"{report.checks} checks pass, min slacks "
        f"{report.min_lower_slack:.3g}/{report.min_upper_slack:.3g}, "
        f"enclosure width {report.max_enclosure_width:.2g}",
    )


def test_criterion_09_margin_positive_at_reference_points():
    started = time.perf_counter()
    for n in (50217, 10**5, 10**6, 10**9):
        report = case1_margin(n)
        assert report.precision_bits >= 96
        assert report.margin_lo > 0, n
        assert report.aux_product_ok and report.aux_square_ok, n
        assert report.window_in_theta_domain, n
    _report(9, time.perf_counter() - started, "margin > 0 with auxiliaries at all four n")


def test_criterion_10_interrupt_resume_determinism(tmp_path):
    started = time.perf_counter()
    stops = sorted(random.Random(10).sample(range(20, 281, 20), 3))
    payloads = {}
    for jobs in (1, 4):
        base = str(tmp_path / f"base{jobs}.csv")
        scan(ScanConfig(n_start=2, n_end=300, jobs=jobs, report_path=base))
        expected = (tmp_path / f"base{jobs}.csv").read_bytes()
        payloads[jobs] = expected
        for stop in stops:
            tag = f"{jobs}_{stop}"
            ckpt = str(tmp_path / f"ck{tag}")
            out = str(tmp_path / f"resumed{tag}.csv")
            scan(
                ScanConfig(
                    n_start=2, n_end=300, jobs=jobs, report_path=out,
                    checkpoint_path=ckpt, checkpoint_every=20, stop_after_n=stop,
                )
            )
            report = scan(
                ScanConfig(
                    n_start=2, n_end=300, jobs=jobs, report_path=out,
                    checkpoint_path=ckpt, checkpoint_every=20, resume=True,
                )
            )
            assert (tmp_path / f"resumed{tag}.csv").read_bytes() == expected, (jobs, stop)
            assert report.checkpoint_lineage == ((ckpt, stop),)
            assert report.triples_checked == closed_form_triple_count(2, 300)
    assert payloads[1] == payloads[4]
    _report(
        10,
        time.perf_counter() - started,
        f"byte-identical reports across stops {stops} for jobs 1 and 4",
    )


def test_criterion_11_scan_cutoff_reference_value():
    started = time.perf_counter()
    assert k_cap(13542) == 28
    with mp.workdps(50):
        assert int(mp.floor(mp.e * mp.log(13542) + mp.e)) == 28
    _report(11, time.perf_counter() - started, "k cap at 13542 is 28")

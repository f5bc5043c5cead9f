"""Workload inputs, timed legs and output checks for the esfscan benchmark.

Three workloads, each one closed-loop client running a batch verification
whose calls go back to back:

* ``scan-low``: one worker scans [2, 400] with a checkpoint every 25 n,
  stops at a seed-chosen n and resumes to the end.  Many small n, so
  per-call overhead on small fractions dominates; the only workload that
  hits the two known integers, runs the n <= 12 enumeration cross-check
  and writes and reads checkpoints.
* ``scan-high``: two workers scan five n from a seed-chosen n0 in
  [1180, 1199], without checkpoints.  Every triple is big-number Fraction arithmetic,
  as in the real scan leg up to 13542.
* ``certify-full``: the non-scan legs over their full production ranges
  (certify [13543, 50216], the certificate file, theta [1429, 50216] and
  the margin at four points).  It runs no exact scanning at all, so a
  change to the scan or the recursion kernel must leave it unchanged.

The parent process (run.py) only builds specs; the legs run in rep.py,
one fresh interpreter per repetition.  Specs are plain JSON and carry the
expected outputs, so the self-test can hand a run a wrong expectation.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Tuple

NAMES = ("scan-low", "scan-high", "certify-full")

KNOWN_HITS_REPORT = "n,i,k,numerator,denominator\n2,2,1,1,1\n4,4,2,1,1\n"
HEADER_ONLY_REPORT = "n,i,k,numerator,denominator\n"
SCAN_HIGH_WIDTH = 4  # scan-high covers [n0, n0 + SCAN_HIGH_WIDTH]
SCAN_HIGH_JOBS = 2
MARGIN_POINTS = (50217, 10**5, 10**6, 10**9)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and expected outputs; the self-test swaps in toy ones."""

    scan_low_end: int = 400
    scan_low_every: int = 25
    scan_low_stops: Tuple[int, int] = (100, 300)  # multiples of scan_low_every
    # k_cap(n) is 21 on [1100, 1203], so every window [n0, n0 + 4] drawn
    # from here has nearly the same triple count (within 1.6%).
    scan_high_n0: Tuple[int, int] = (1180, 1199)
    sieve_limit: int = 50216
    certify: Tuple[int, int] = (13543, 50216)
    theta: Tuple[int, int] = (1429, 50216)
    cert_sha256: str = "7549ed0219ebdc25eb8201180a45b77753098fa91957b2bc71413c79444142c9"
    scan_low_report: str = KNOWN_HITS_REPORT


PRODUCTION = Sizes()

# Leg calls per repetition; a call that raises or fails its check is failed.
OPS = {"scan-low": 2, "scan-high": 1, "certify-full": 7}


def make_spec(name: str, seed: int, sizes: Sizes = PRODUCTION) -> dict:
    """The inputs of one run: a pure function of the workload and the seed."""
    rng = random.Random(f"{name}:{seed}")
    spec = {"workload": name, "seed": seed, "sizes": asdict(sizes)}
    if name == "scan-low":
        lo, hi = sizes.scan_low_stops
        every = sizes.scan_low_every
        spec["stop"] = every * rng.randint(lo // every, hi // every)
    elif name == "scan-high":
        spec["n0"] = rng.randint(*sizes.scan_high_n0)
        spec["jobs"] = SCAN_HIGH_JOBS
    elif name != "certify-full":
        raise ValueError(f"unknown workload {name!r}")
    return spec


@dataclass
class Outcome:
    """What one repetition measured and whether each leg call passed."""

    wall_s: float = 0.0
    work: int = 0  # triples (scans) or pairs (certify) the timed region covered
    work_s: float = 0.0  # time the work count is divided by
    failures: Dict[str, str] = field(default_factory=dict)  # leg call -> reason
    layer: Dict[str, float] = field(default_factory=dict)


def _fail(out: Outcome, op: str, why: str) -> None:
    out.failures.setdefault(op, why)


def run_scan_low(spec: dict, work: str, tracer) -> Outcome:
    from esfscan import ScanConfig, closed_form_triple_count, scan

    sz = spec["sizes"]
    n_end, stop = sz["scan_low_end"], spec["stop"]
    ckpt = os.path.join(work, "scan-low.ckpt")
    report = os.path.join(work, "scan-low.csv")
    common = dict(
        n_start=2,
        n_end=n_end,
        jobs=1,
        checkpoint_path=ckpt,
        report_path=report,
        checkpoint_every=sz["scan_low_every"],
    )
    out = Outcome()
    first = second = None
    t0 = time.perf_counter()
    try:
        with tracer.span("scan.scan"):
            first = scan(ScanConfig(**common, stop_after_n=stop))
        with tracer.span("scan.scan"):
            second = scan(ScanConfig(**common, resume=True))
    except Exception as exc:  # a leg that raises is a failed operation
        _fail(out, "scan" if first is None else "resume", repr(exc))
    out.wall_s = out.work_s = time.perf_counter() - t0
    out.work = closed_form_triple_count(2, n_end)

    if first is not None:
        want = closed_form_triple_count(2, stop)
        if first.n_completed != stop:
            _fail(out, "scan", f"stopped at {first.n_completed}, not {stop}")
        elif first.triples_checked != want or _worker_sum(first) != want:
            _fail(out, "scan", f"counted {first.triples_checked} triples, closed form {want}")
    else:
        _fail(out, "resume", "not attempted")
    if second is not None:
        with open(report, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        if text != sz["scan_low_report"]:
            _fail(out, "resume", f"report bytes {text!r}")
        elif second.checkpoint_lineage != ((ckpt, stop),):
            _fail(out, "resume", f"lineage {second.checkpoint_lineage!r}")
        elif second.triples_checked != out.work or _worker_sum(second) != (
            closed_form_triple_count(stop + 1, n_end)
        ):
            _fail(out, "resume", "triple counts differ from the closed form")
    if tracer.enabled and first is not None and second is not None:
        out.layer.update(scan_layer([first, second], out.work))
    return out


def run_scan_high(spec: dict, work: str, tracer) -> Outcome:
    from esfscan import ScanConfig, closed_form_triple_count, scan

    n0 = spec["n0"]
    n_end = n0 + SCAN_HIGH_WIDTH
    report_path = os.path.join(work, "scan-high.csv")
    out = Outcome()
    report = None
    t0 = time.perf_counter()
    try:
        with tracer.span("scan.scan"):
            report = scan(
                ScanConfig(
                    n_start=n0,
                    n_end=n_end,
                    jobs=spec["jobs"],
                    report_path=report_path,
                )
            )
    except Exception as exc:
        _fail(out, "scan", repr(exc))
    out.wall_s = out.work_s = time.perf_counter() - t0
    out.work = closed_form_triple_count(n0, n_end)

    if report is not None:
        with open(report_path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        if text != HEADER_ONLY_REPORT:
            _fail(out, "scan", f"report bytes {text!r}")
        elif report.triples_checked != out.work or _worker_sum(report) != out.work:
            _fail(out, "scan", "triple counts differ from the closed form")
        if tracer.enabled:
            out.layer.update(scan_layer([report], out.work))
    return out


def run_certify_full(spec: dict, work: str, tracer, table) -> Outcome:
    from esfscan import certify_range, check_theta_bounds, case1_margin, k_cap
    from esfscan import write_certificates

    sz = spec["sizes"]
    path = os.path.join(work, "certificates.tsv")
    out = Outcome()
    result = theta = None
    margins = []
    t0 = time.perf_counter()
    try:
        with tracer.span("certify.certify_range"):
            result = certify_range(*sz["certify"], table)
        t1 = time.perf_counter()
        out.work_s = t1 - t0
        with tracer.span("certify.write_certificates"):
            write_certificates(path, result)
        with tracer.span("theta.check_theta_bounds"):
            theta = check_theta_bounds(*sz["theta"], table)
        for n in MARGIN_POINTS:
            with tracer.span("theta.case1_margin"):
                margins.append(case1_margin(n))
    except Exception as exc:
        # The checks below fail every call that did not complete.
        error = repr(exc)
    else:
        error = "not completed"
    out.wall_s = time.perf_counter() - t0

    lo, hi = sz["certify"]
    out.work = sum(k_cap(n) for n in range(lo, hi + 1))
    if result is None:
        _fail(out, "certify_range", error)
    elif result.gaps:
        _fail(out, "certify_range", f"{len(result.gaps)} gaps, first {result.gaps[0]}")
    elif result.pairs_checked != out.work:
        _fail(out, "certify_range", f"{result.pairs_checked} pairs, sum of k_cap {out.work}")
    digest = _sha256(path) if os.path.exists(path) else "no file"
    if digest != sz["cert_sha256"]:
        _fail(out, "write_certificates", f"sha256 {digest}")
    if theta is None:
        _fail(out, "check_theta_bounds", error)
    elif not theta.passed:
        _fail(out, "check_theta_bounds", f"failed at {theta.failures[:3]}")
    for idx, n in enumerate(MARGIN_POINTS):
        if idx >= len(margins):
            _fail(out, f"case1_margin({n})", error)
        elif not margins[idx].passed:
            _fail(out, f"case1_margin({n})", "did not pass")
    if tracer.enabled and result is not None and theta is not None:
        out.layer.update(
            {
                "certify.pairs": result.pairs_checked,
                "certify.gaps": len(result.gaps),
                "certify.bytes_written": os.path.getsize(path),
                "theta.checks": theta.checks,
                "theta.min_lower_slack": theta.min_lower_slack,
                "theta.min_upper_slack": theta.min_upper_slack,
                "theta.max_enclosure_width": theta.max_enclosure_width,
            }
        )
    return out


def _worker_sum(report) -> int:
    return sum(s.triples_checked for s in report.worker_stats)


def scan_layer(reports, triples: int) -> Dict[str, float]:
    """Scan-layer numbers from ScanReport.worker_stats.

    Spans inside forked workers are lost, so the workers' own busy times
    stand in for them.
    """
    busy = [s.busy_seconds for r in reports for s in r.worker_stats]
    per_call_max = [max(s.busy_seconds for s in r.worker_stats) for r in reports]
    per_call_mean = [
        sum(s.busy_seconds for s in r.worker_stats) / len(r.worker_stats) for r in reports
    ]
    return {
        "scan.triples": sum(_worker_sum(r) for r in reports),
        "scan.us_per_triple": sum(busy) / triples * 1e6,
        "scan.worker_imbalance": sum(per_call_max) / sum(per_call_mean),
        "scan.coord_s": sum(r.elapsed_seconds for r in reports) - sum(per_call_max),
    }


def symfun_probes(n0: int) -> Dict[str, float]:
    """Time the public recursion API on the scan-high problem.

    ``advance_s`` is the untested pre-advance from n = 1 to n0 that every
    scan-high call pays; ``omit_us_per_triple`` is one omit_values sweep
    over every i at the top n of the window.
    """
    from esfscan import (
        esf_row_advance,
        esf_row_start,
        k_cap,
        omit_first_column_advance,
        omit_first_column_start,
        omit_values,
    )

    n_top = n0 + SCAN_HIGH_WIDTH
    row, col = esf_row_start(k_cap(n_top)), omit_first_column_start()
    t0 = time.perf_counter()
    advance_s = None
    prev = row
    while row.n < n_top:
        col = omit_first_column_advance(col, row)
        prev, row = row, esf_row_advance(row)
        if row.n == n0:
            advance_s = time.perf_counter() - t0
    k_max = min(n_top - 1, k_cap(n_top))
    t0 = time.perf_counter()
    count = 0
    for i in range(1, n_top + 1):
        for _ in omit_values(n_top, i, k_max, row, col, prev):
            count += 1
    omit_s = time.perf_counter() - t0
    return {"symfun.advance_s": advance_s, "symfun.omit_us_per_triple": omit_s / count * 1e6}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

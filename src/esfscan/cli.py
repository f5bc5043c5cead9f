"""Command line interface.

Exit codes: 0 = success with expected findings; 1 = usage or domain
error, or an output path refused before any work; 2 = unexpected
finding (an integer hit outside the two known ones, a certificate gap, or
a failed bound check), so CI can alarm on the interesting case specifically.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import List, Optional

from .certify import certify_range, write_certificates
from .checkpoint import CheckpointError, probe_outputs
from .primes import sieve
from .scan import KNOWN_HITS, ScanConfig, ScanError, scan
from .symfun import compute_omit
from .rational import format_rational
from .theta import THETA_BOUND_X_MIN, case1_margin, check_theta_bounds

USAGE_ERROR = 1
UNEXPECTED_FINDING = 2

MARGIN_DIGITS = 20  # significant digits of the printed margin enclosure


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default, which
    # collides with the "unexpected finding" code; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="esfscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="exhaustive integrality scan over an n-range")
    p_scan.add_argument("--n-start", type=int, required=True)
    p_scan.add_argument("--n-end", type=int, required=True)
    p_scan.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p_scan.add_argument("--out", default="scan_report.csv", help="hit report CSV path")
    p_scan.add_argument("--checkpoint-every", type=int, default=100)
    p_scan.add_argument("--resume", action="store_true", help="resume from --checkpoint")
    p_scan.add_argument(
        "--stop-after-n",
        type=int,
        default=None,
        help="stop gracefully after completing this n (checkpoint written there)",
    )

    p_value = sub.add_parser("value", help="print one omit-one value as num/den")
    p_value.add_argument("n", type=int)
    p_value.add_argument("i", type=int)
    p_value.add_argument("k", type=int)

    p_cert = sub.add_parser("certify", help="prime-window certificates over an n-range")
    p_cert.add_argument("--n-start", type=int, required=True)
    p_cert.add_argument("--n-end", type=int, required=True)
    p_cert.add_argument("--out", default=None, help="certificate list file path")

    p_theta = sub.add_parser("theta", help="verify the prime-log sum bounds on a range")
    p_theta.add_argument("--x-lo", type=float, required=True)
    p_theta.add_argument("--x-hi", type=float, required=True)

    p_margin = sub.add_parser("margin", help="analytic prime-window margin at large n")
    p_margin.add_argument("n", type=int)

    return parser


def _cmd_scan(args) -> int:
    config = ScanConfig(
        n_start=args.n_start,
        n_end=args.n_end,
        checkpoint_path=args.checkpoint,
        report_path=args.out,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        stop_after_n=args.stop_after_n,
    )
    report = scan(config)
    exact = sum(s.triples_exact for s in report.worker_stats)
    witnessed = sum(s.triples_witnessed for s in report.worker_stats)
    print(
        f"scanned n in [{report.n_start}, {report.n_completed}]: "
        f"{report.triples_checked} triples checked "
        f"(this run: {witnessed} settled by a witness, {exact} evaluated exactly), "
        f"{len(report.hits)} integer hit(s), {report.elapsed_seconds:.2f}s"
    )
    for h in report.hits:
        marker = "known" if (h.n, h.i, h.k) in KNOWN_HITS else "UNEXPECTED"
        print(f"  hit ({h.n},{h.i},{h.k}) = {h.value} [{marker}]")
    print(f"report: {report.report_path}  summary: {report.summary_path}")
    if report.unexpected_hits:
        return UNEXPECTED_FINDING
    return 0


def _cmd_value(args) -> int:
    print(format_rational(compute_omit(args.n, args.i, args.k)))
    return 0


def _cmd_certify(args) -> int:
    if not 2 <= args.n_start <= args.n_end:
        print("need 2 <= n-start <= n-end", file=sys.stderr)
        return USAGE_ERROR
    if args.out is not None:
        probe_outputs([args.out])
    result = certify_range(args.n_start, args.n_end, sieve(args.n_end))
    if args.out is not None:
        write_certificates(args.out, result)
    gaps = result.gaps
    print(
        f"certified n in [{result.n_lo}, {result.n_hi}]: {result.pairs_checked} (n,k) pairs, "
        f"{result.pairs_checked - len(gaps)} certificates, {len(gaps)} gap(s)"
    )
    for n, k in gaps[:20]:
        print(f"  GAP at (n={n}, k={k})")
    if len(gaps) > 20:
        print(f"  ... and {len(gaps) - 20} more")
    return UNEXPECTED_FINDING if gaps else 0


def _cmd_theta(args) -> int:
    # Stated positively, so NaN and infinite bounds are refused before sieving.
    if not THETA_BOUND_X_MIN <= args.x_lo <= args.x_hi < math.inf:
        print(
            f"theta bounds check requires finite {THETA_BOUND_X_MIN} <= x-lo <= x-hi",
            file=sys.stderr,
        )
        return USAGE_ERROR
    table = sieve(max(2, math.ceil(args.x_hi)))
    report = check_theta_bounds(args.x_lo, args.x_hi, table)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"theta bounds on [{report.x_lo:g}, {report.x_hi:g}]: {status} "
        f"({report.checks} checks at {report.precision_bits}-bit precision)"
    )
    print(
        f"  min lower slack {report.min_lower_slack:.6g}, "
        f"min upper slack {report.min_upper_slack:.6g}, "
        f"max enclosure width {report.max_enclosure_width:.3g}"
    )
    for x, side in report.failures[:20]:
        print(f"  violation ({side}) at x = {x}")
    return 0 if report.passed else UNEXPECTED_FINDING


def _directed(x: Fraction, rounding: str) -> Decimal:
    """x rounded to MARGIN_DIGITS significant digits in one direction."""
    context = Context(prec=MARGIN_DIGITS, rounding=rounding)
    return context.divide(Decimal(x.numerator), Decimal(x.denominator))


def _cmd_margin(args) -> int:
    report = case1_margin(args.n)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"margin at n={report.n}: [{_directed(report.margin_lo, ROUND_FLOOR)}, "
        f"{_directed(report.margin_hi, ROUND_CEILING)}] {status} "
        f"({report.precision_bits}-bit precision, rounded outward to {MARGIN_DIGITS} digits)"
    )
    print(
        f"  aux product inequality: {'ok' if report.aux_product_ok else 'VIOLATED'};"
        f" aux square inequality: {'ok' if report.aux_square_ok else 'VIOLATED'};"
        f" window bottom >= 1429: {'ok' if report.window_in_theta_domain else 'VIOLATED'}"
    )
    return 0 if report.passed else UNEXPECTED_FINDING


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "value": _cmd_value,
        "certify": _cmd_certify,
        "theta": _cmd_theta,
        "margin": _cmd_margin,
    }
    try:
        return handlers[args.command](args)
    except (ScanError, CheckpointError, ValueError, OSError) as exc:
        print(f"esfscan {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

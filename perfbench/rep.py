"""One repetition of one workload, in a fresh interpreter.

Usage (run.py starts it; the argument is a JSON spec from
``workloads.make_spec`` plus ``mode``, ``workdir`` and ``trace_path``;
the single-threaded scan-high baseline overrides ``jobs``):

    python3 perfbench/rep.py '<spec json>'

``mode`` is ``setup`` (import and set up, then exit), ``run`` (the timed
legs, untraced) or ``trace`` (the same legs with tracing hooks installed,
followed by the layer probes).  Nothing is warmed before the timed region:
every real CLI call pays for cold caches too.  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_esfscan():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import esfscan

    if os.path.dirname(os.path.dirname(os.path.abspath(esfscan.__file__))) != src:
        raise SystemExit(f"esfscan was imported from {esfscan.__file__}, not from {src}")
    return esfscan


def main() -> int:
    spec = json.loads(sys.argv[1])
    esfscan = _import_esfscan()
    from tracing import Tracer, install
    import workloads

    name, mode = spec["workload"], spec["mode"]
    table, sieve_s = None, 0.0
    if name == "certify-full":
        t0 = time.perf_counter()
        table = esfscan.sieve(spec["sizes"]["sieve_limit"])
        sieve_s = time.perf_counter() - t0
    ready = time.monotonic()
    result = {"ready": ready}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = Tracer(enabled=mode == "trace")
    if tracer.enabled:
        install(tracer)
    misses_before = esfscan.k_cap.cache_info().misses
    # A fresh directory, so no output of an earlier repetition can pass a check.
    work = tempfile.mkdtemp(dir=spec["workdir"])
    try:
        if name == "scan-low":
            out = workloads.run_scan_low(spec, work, tracer)
        elif name == "scan-high":
            out = workloads.run_scan_high(spec, work, tracer)
        else:
            out = workloads.run_certify_full(spec, work, tracer, table)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    result.update(
        wall_s=out.wall_s,
        work=out.work,
        work_s=out.work_s,
        failures=out.failures,
        peak_rss_mb=usage / 1024.0,  # ru_maxrss is in KiB on Linux
        env={
            "backend": esfscan.BACKEND,
            "precision_bits": esfscan.precision_bits(),
            "mpmath": _version("mpmath"),
            "numpy": _version("numpy"),
        },
    )
    if tracer.enabled:
        layer = dict(out.layer)
        layer.update(_traced_layer(tracer, layer, sieve_s, table))
        layer["symfun.k_cap_misses"] = esfscan.k_cap.cache_info().misses - misses_before
        if name == "scan-high":
            layer.update(workloads.symfun_probes(spec["n0"]))
        result["layer"] = layer
        tracer.dump(spec["trace_path"])
    print(json.dumps(result))
    return 0


def _traced_layer(tracer, layer: dict, sieve_s: float, table) -> dict:
    """Per-layer numbers from the recorded spans and counters."""
    checks = layer.get("theta.checks", 0)
    numbers = {
        "symfun.k_cap_calls": tracer.calls("symfun.k_cap"),
        "symfun.k_cap_s": tracer.seconds("symfun.k_cap"),
        "symfun.oracle_calls": tracer.calls("symfun.omit_oracle"),
        "rational.make_rational_calls": tracer.calls("rational.make_rational"),
        "rational.make_rational_s": tracer.seconds("rational.make_rational"),
        "primes.sieve_s": sieve_s,
        "primes.largest_leq_calls": tracer.calls("primes.largest_leq"),
        "certify.find_s": tracer.seconds("certify.find_certificate"),
        "certify.self_s": tracer.self_seconds("certify.certify_range"),
        "certify.write_s": tracer.seconds("certify.write_certificates"),
        "theta.us_per_check": (
            tracer.seconds("theta.check_theta_bounds") / checks * 1e6 if checks else 0.0
        ),
        "margin.calls": tracer.calls("theta.case1_margin"),
        "margin.s": tracer.seconds("theta.case1_margin"),
        "checkpoint.saves": tracer.calls("checkpoint.save_checkpoint"),
        "checkpoint.save_s": tracer.seconds("checkpoint.save_checkpoint"),
        "checkpoint.bytes_written": tracer.counters.get("checkpoint.bytes_written", 0),
        "checkpoint.load_s": tracer.seconds("checkpoint.load_checkpoint"),
        "checkpoint.bytes_read": tracer.counters.get("checkpoint.bytes_read", 0),
    }
    if table is not None:
        numbers["primes.count"] = len(table)
    return numbers


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


if __name__ == "__main__":
    sys.exit(main())

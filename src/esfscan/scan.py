"""Exhaustive integrality scan with checkpoint/resume.

The scan tests every omit-one value at 1 <= i <= n, 1 <= k <= k_cap(n)
for integrality, one n at a time, and carries nothing from one n to the
next but the hits.  Its hot path is the p-adic witness kernel of
:mod:`esfscan.witness`: a prime p > sqrt(n) that shows
v_p(omit(n, i, k)) < 0 settles the triple in mod-p arithmetic, with no
exact value.  Only the triples no witness settles (none above n = 27),
and at n <= ORACLE_CROSSCHECK_MAX every triple, are evaluated exactly,
through ``symfun.omit_sweep`` on a full-set row the worker builds for
that n; a hit is reported only from an exact value, and every exact
value passes an identity self-check.  Up to ORACLE_CROSSCHECK_MAX every
exact value is also compared with subset enumeration and every witness
with the exact valuation.

The scan is one loop over n, and one n, with all of its indices, is one
stateless task.  One worker, or a range of at most CHUNK_N n, runs
in-process; otherwise a process pool that lives only as long as the scan
sends each worker CHUNK_N consecutive n in one message, so every
per-(n, p) witness table is built once.  The closed-form triple count is
taken before the first n, so forked workers inherit every cached
k_cap(n).  Results come back in n order.  A check
that fails in a worker raises its ``ScanError`` in the scan; when
several n fail, the first of them in n order is reported.  After each n
the loop rewrites the report if that n had hits and then, at a
checkpoint n, saves the checkpoint: the last completed n and the hits so
far.  The checkpoint, the report and its ``.summary.json`` are each
written atomically by ``checkpoint.write_lines``, and
``checkpoint.probe_outputs`` vets all three paths at once, before a
checkpoint is read or an n is tested.  A resume is a fresh start at the
next n.  The hit report is kept in (n, i, k) order, so its bytes are a
pure function of the configured range, independent of worker count, of
checkpoint cadence, and of interrupt/resume history.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .checkpoint import (
    CheckpointRecord,
    IntegerHit,
    load_checkpoint,
    probe_outputs,
    save_checkpoint,
    write_lines,
)
from .rational import format_rational, is_integer, p_adic_valuation
from .symfun import esf_rows, k_cap, omit_oracle, omit_sweep
from .witness import Claim, unsettled

REPORT_HEADER = "n,i,k,numerator,denominator"
SUMMARY_SUFFIX = ".summary.json"

# The only integrality hits that are supposed to exist, ever.
KNOWN_HITS = ((2, 2, 1), (4, 4, 2))

# Every triple with n at most this is re-checked against subset enumeration.
ORACLE_CROSSCHECK_MAX = 12

# Consecutive n a pool worker receives in one message.
CHUNK_N = 32


class ScanError(RuntimeError):
    """A scan could not run to completion or failed a self-check."""


@dataclass
class ScanConfig:
    n_start: int
    n_end: int
    jobs: int = 1
    checkpoint_path: Optional[str] = None
    report_path: str = "scan_report.csv"
    checkpoint_every: int = 100
    resume: bool = False
    stop_after_n: Optional[int] = None  # graceful stop at a completed n

    def validate(self) -> None:
        if not 2 <= self.n_start <= self.n_end:
            raise ScanError(f"need 2 <= n_start <= n_end, got [{self.n_start}, {self.n_end}]")
        if self.jobs < 1:
            raise ScanError(f"jobs must be >= 1, got {self.jobs}")
        if self.checkpoint_every < 1:
            raise ScanError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_path is None:
            raise ScanError("resume requested without a checkpoint path")
        if self.stop_after_n is not None and self.stop_after_n < self.n_start:
            raise ScanError(
                f"stop_after_n={self.stop_after_n} is below n_start={self.n_start}"
            )


@dataclass(frozen=True)
class WorkerStat:
    worker: int
    triples_checked: int
    triples_exact: int  # evaluated exactly
    busy_seconds: float

    @property
    def triples_witnessed(self) -> int:
        """Triples settled by a p-adic witness alone, with no exact value."""
        return self.triples_checked - self.triples_exact


@dataclass(frozen=True)
class ScanReport:
    n_start: int
    n_end: int
    n_completed: int
    triples_checked: int
    hits: Tuple[IntegerHit, ...]
    elapsed_seconds: float
    worker_stats: Tuple[WorkerStat, ...]
    checkpoint_lineage: Tuple[Tuple[str, int], ...]
    report_path: str
    summary_path: str

    @property
    def unexpected_hits(self) -> Tuple[IntegerHit, ...]:
        return tuple(h for h in self.hits if (h.n, h.i, h.k) not in KNOWN_HITS)


def closed_form_triple_count(n_start: int, n_end: int) -> int:
    """Number of (n, i, k) triples the scan tests on [n_start, n_end]."""
    if n_start > n_end:
        return 0
    return sum(n * k_cap(n) for n in range(max(2, n_start), n_end + 1))


def _test_n(n: int) -> Tuple[List[IntegerHit], int, int, float, int]:
    """Test every i <= n at n, for every k <= k_cap(n).

    The witness kernel settles what it can mod p; the rest, and at
    n <= ORACLE_CROSSCHECK_MAX every triple, is evaluated exactly.
    Returns the integer hits in (i, k) order, the triples tested, those
    evaluated exactly, the seconds spent and the id of the process that
    ran it.  It keeps no state from one call to the next, so it runs the
    same in-process or in a pool worker.
    """
    started = time.perf_counter()
    mk = k_cap(n)
    claims: Optional[List[Claim]] = [] if n <= ORACLE_CROSSCHECK_MAX else None
    left = unsettled(n, mk, claims)
    exact: Dict[int, Sequence[int]] = {}  # i -> the k to evaluate exactly
    if claims is not None:
        exact = {i: range(1, mk + 1) for i in range(1, n + 1)}
    else:
        for i, k in left:
            exact.setdefault(i, []).append(k)
    hits = _evaluate(n, mk, exact, claims) if exact else []
    n_exact = sum(len(ks) for ks in exact.values())
    return hits, mk * n, n_exact, time.perf_counter() - started, os.getpid()


def _evaluate(
    n: int, mk: int, exact: Dict[int, Sequence[int]], claims: Optional[List[Claim]]
) -> List[IntegerHit]:
    """The integer hits among the exact values of omit(n, i, k), k in exact[i].

    The values come from one full-set row for n.  Each value at k >= 2 is
    checked against esf(n, k) = omit(n, i, k) + omit(n, i, k-1)/i; when
    ``claims`` is given (n <= ORACLE_CROSSCHECK_MAX), each value is also
    compared with subset enumeration and each witness claim with the
    exact valuation.
    """
    for row in esf_rows(n, mk):
        pass
    if is_integer(row.harmonic):
        raise ScanError(f"self-check failed: harmonic value integral at n={n}")
    full = row.values
    values = {i: omit_sweep(row, i, ks[-1]) for i, ks in exact.items()}
    hits: List[IntegerHit] = []
    for i, ks in exact.items():
        for k in ks:
            v = values[i][k - 1]
            if is_integer(v):
                hits.append(IntegerHit(n=n, i=i, k=k, value=format_rational(v)))
            if k >= 2 and full[k - 1] != v + values[i][k - 2] / i:
                raise ScanError(f"identity self-check failed at ({n},{i},{k})")
            if claims is not None and v != omit_oracle(n, i, k):
                raise ScanError(f"recursion disagrees with enumeration at ({n},{i},{k})")
    for i, k, p, j in claims or ():
        if p_adic_valuation(values[i][k - 1], p) != -j:
            raise ScanError(
                f"witness p={p} claims v_p = -{j} at ({n},{i},{k}),"
                " which the exact value refutes"
            )
    return hits


def _write_report(path: str, hits: Sequence[IntegerHit]) -> None:
    rows = (f"{h.n},{h.i},{h.k},{h.value.replace('/', ',')}" for h in hits)
    write_lines(path, [REPORT_HEADER, *rows])


def scan(config: ScanConfig) -> ScanReport:
    """Run the configured scan and return the report (also written to disk)."""
    config.validate()
    started = time.perf_counter()
    summary_path = config.report_path + SUMMARY_SUFFIX
    ckpt = [] if config.checkpoint_path is None else [config.checkpoint_path]
    try:
        probe_outputs([*ckpt, config.report_path, summary_path])
    except OSError as exc:
        raise ScanError(str(exc)) from exc

    lineage: List[Tuple[str, int]] = []
    base_n = 1
    stop_n = min(config.stop_after_n or config.n_end, config.n_end)
    hits: List[IntegerHit] = []
    if config.resume:
        record = load_checkpoint(config.checkpoint_path)
        if record.n_start != config.n_start:
            raise ScanError(
                f"checkpoint {config.checkpoint_path} belongs to a scan from"
                f" n_start={record.n_start}, not n_start={config.n_start}"
            )
        if stop_n < record.n:
            raise ScanError(
                f"checkpoint {config.checkpoint_path} already reaches n={record.n},"
                f" beyond the requested stop at n={stop_n}"
            )
        lineage.append((config.checkpoint_path, record.n))
        base_n = record.n
        hits = list(record.hits)

    _write_report(config.report_path, hits)

    # A resume is a fresh start after the checkpointed n.  The count comes
    # first, so pool workers fork with every k_cap(n) already cached.
    test_from = max(config.n_start, base_n + 1)
    expected = closed_form_triple_count(test_from, stop_n)
    stats = _scan_range(config, test_from, stop_n, hits) if test_from <= stop_n else ()
    actual = sum(s.triples_checked for s in stats)
    if actual != expected:
        raise ScanError(f"triple count mismatch: checked {actual}, closed form says {expected}")

    report = ScanReport(
        n_start=config.n_start,
        n_end=config.n_end,
        n_completed=stop_n,
        triples_checked=closed_form_triple_count(config.n_start, stop_n),
        hits=tuple(hits),
        elapsed_seconds=time.perf_counter() - started,
        worker_stats=stats,
        checkpoint_lineage=tuple(lineage),
        report_path=config.report_path,
        summary_path=summary_path,
    )
    _write_summary(report)
    return report


def _scan_range(
    config: ScanConfig, test_from: int, stop_n: int, hits: List[IntegerHit]
) -> Tuple[WorkerStat, ...]:
    """Test every n in [test_from, stop_n], appending its hits to ``hits``.

    After each n the report is rewritten if that n had hits, and then the
    checkpoint is saved if n is a checkpoint n, so a checkpoint never
    claims an n whose hits are not on disk.  Returns one WorkerStat per
    process that tested at least one n, numbered in order of its first
    result.  No more workers are started than there are pool messages of
    CHUNK_N n, so a range that fits in one message runs in this process.
    """
    counts: Dict[int, List[Tuple[int, int, float]]] = {}  # process id -> per-n counts
    span = range(test_from, stop_n + 1)
    with _fan_out(min(config.jobs, -(-len(span) // CHUNK_N))) as fan_out:
        for n, (found, checked, exact, busy, pid) in zip(span, fan_out(_test_n, span)):
            counts.setdefault(pid, []).append((checked, exact, busy))
            if found:
                hits += found
                _write_report(config.report_path, hits)
            if config.checkpoint_path and (n % config.checkpoint_every == 0 or n == stop_n):
                record = CheckpointRecord(n_start=config.n_start, n=n, hits=tuple(hits))
                save_checkpoint(config.checkpoint_path, record)
    return tuple(WorkerStat(w, *map(sum, zip(*c))) for w, c in enumerate(counts.values()))


@contextmanager
def _fan_out(jobs: int) -> Iterator[Callable]:
    """A map that yields the task results in task order: the builtin one
    for a single worker, else that of a process pool which ends with the
    scan.  The pool sends CHUNK_N consecutive tasks to a worker as one
    message; chunks not yet started when the scan ends early are
    cancelled."""
    if jobs == 1:
        yield map
        return
    # Imported here: a scan with one worker should not pay for the import.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(jobs) as pool:
        try:
            yield partial(pool.map, chunksize=CHUNK_N)
        except BrokenProcessPool as exc:
            raise ScanError(f"a scan worker exited without reporting: {exc}") from exc
        finally:
            pool.shutdown(cancel_futures=True)


def _write_summary(report: ScanReport) -> None:
    payload = {
        "format": "esfscan-report v2",
        "n_start": report.n_start,
        "n_end": report.n_end,
        "n_completed": report.n_completed,
        "triples_checked": report.triples_checked,
        "integer_hits": [asdict(h) for h in report.hits],
        "elapsed_seconds": report.elapsed_seconds,
        "workers": [
            {**asdict(s), "triples_witnessed": s.triples_witnessed} for s in report.worker_stats
        ],
        "checkpoint_lineage": [
            {"path": path, "resumed_at_n": n} for path, n in report.checkpoint_lineage
        ],
        "report_csv": report.report_path,
    }
    write_lines(report.summary_path, json.dumps(payload, indent=2, sort_keys=True).split("\n"))

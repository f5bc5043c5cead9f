"""Exhaustive exact-arithmetic integrality scan with checkpoint/resume.

The scan walks n upward with the rolling full-set row and tests every
omit-one value at 1 <= i <= n, 1 <= k <= k_cap(n) for
integrality.  The row is the only state carried from one n to the next:
``symfun.omit_sweep`` reads every omit-one value at n off it, i = n
included, seeding k = 1 with omit(n, i, 1) = H_n - 1/i.  Rows below
``n_start`` are advanced but not tested.

The scan is one loop over n, and it owns the only row.  At each n it
advances the row once and maps one stateless test over the workers:
worker w of J tests the interleaved indices i = w+1, w+1+J, w+1+2J, ...
(so i = n falls to worker (n-1) mod J), which spreads low and high
indices evenly.  One worker runs in-process; more run in a process pool
that lives only as long as the scan, and each receives the one row for
n with its task.  A check that fails in a worker raises its
``ScanError`` in the scan; when several fail, the first in worker order
is reported.  After each n the loop rewrites the report if that n had
hits and then, at a checkpoint n, saves the checkpoint: the last
completed n and the hits so far.  The checkpoint, the report and its
``.summary.json`` are each written atomically by
``checkpoint.write_lines``, and all three paths are checked before the
first n is tested.  A resume is a fresh start at the next
n.  The hit report is kept in (n, i, k) order, so its bytes are a pure
function of the configured range, independent of worker count, of
checkpoint cadence, and of interrupt/resume history.

Every test is performed on the exact reduced value.  The residue of a
rational modulo a prime cannot show that it is not an integer, but the
coefficient that leads its p-adic valuation can; no such witness sieve
exists yet, so there is no pre-filter.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .checkpoint import (
    TMP_SUFFIX,
    CheckpointError,
    CheckpointRecord,
    IntegerHit,
    load_checkpoint,
    probe_output,
    save_checkpoint,
    write_lines,
)
from .rational import format_rational, is_integer
from .symfun import EsfRow, esf_row_advance, esf_row_start, k_cap, omit_oracle, omit_sweep

REPORT_HEADER = "n,i,k,numerator,denominator"
SUMMARY_SUFFIX = ".summary.json"

# The only integrality hits that are supposed to exist, ever.
KNOWN_HITS = ((2, 2, 1), (4, 4, 2))

# Every triple with n at most this is re-checked against subset enumeration.
ORACLE_CROSSCHECK_MAX = 12


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
        if self.resume and not self.checkpoint_path:
            raise ScanError("resume requested without a checkpoint path")
        # No output, nor the temporary file it is written through, may be another.
        outputs = (self.checkpoint_path, self.report_path, self.report_path + SUMMARY_SUFFIX)
        written = [os.path.abspath(p + tmp) for p in outputs if p for tmp in ("", TMP_SUFFIX)]
        if len(set(written)) < len(written):
            raise ScanError(
                f"checkpoint path {self.checkpoint_path!r} is the report or its summary,"
                " or shares a temporary file with one"
            )
        if self.stop_after_n is not None and self.stop_after_n < self.n_start:
            raise ScanError(
                f"stop_after_n={self.stop_after_n} is below n_start={self.n_start}"
            )


@dataclass(frozen=True)
class WorkerStat:
    worker: int
    triples_checked: int
    busy_seconds: float


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


def _identity_sampled(n: int, i: int, k: int) -> bool:
    # Deterministic 1-in-1000 selection for the online identity self-check.
    return (n * 1000003 + i * 733 + k) % 1000 == 0


def _test_indices(task: Tuple[EsfRow, int, int]) -> Tuple[List[IntegerHit], int, float]:
    """Test i = w+1, w+1+jobs, ... <= n at n = row.n, given the row for n.

    Returns the integer hits in (i, k) order, the triples tested and the
    seconds spent.  It keeps no state from one call to the next, so it runs
    the same in-process or in a pool worker.
    """
    row, w, jobs = task
    started = time.perf_counter()
    n = row.n
    mk = k_cap(n)
    crosscheck = n <= ORACLE_CROSSCHECK_MAX
    full = row.values
    hits: List[IntegerHit] = []
    checked = 0
    for i in range(w + 1, n + 1, jobs):
        values = omit_sweep(row, i, mk)
        for k, v in enumerate(values, 1):
            if is_integer(v):
                hits.append(IntegerHit(n=n, i=i, k=k, value=format_rational(v)))
            if (
                k >= 2
                and _identity_sampled(n, i, k)
                and full[k - 1] != v + values[k - 2] / i
            ):
                raise ScanError(f"identity self-check failed at ({n},{i},{k})")
            if crosscheck and v != omit_oracle(n, i, k):
                raise ScanError(f"recursion disagrees with enumeration at ({n},{i},{k})")
        checked += mk
    return hits, checked, time.perf_counter() - started


def _write_report(path: str, hits: Sequence[IntegerHit]) -> None:
    rows = (f"{h.n},{h.i},{h.k},{h.value.replace('/', ',')}" for h in hits)
    write_lines(path, [REPORT_HEADER, *rows])


def scan(config: ScanConfig) -> ScanReport:
    """Run the configured scan and return the report (also written to disk)."""
    config.validate()
    started = time.perf_counter()

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

    # Every output is checked before any n is tested.
    ckpt, summary_path = config.checkpoint_path, config.report_path + SUMMARY_SUFFIX
    if ckpt:
        try:
            probe_output(ckpt)
        except OSError as exc:
            raise CheckpointError(f"cannot save checkpoint {ckpt}: {exc}") from exc
    for what, path in (("report", config.report_path), ("summary", summary_path)):
        try:
            probe_output(path)
        except OSError as exc:
            raise ScanError(f"{what} path {path!r} is not writable: {exc}") from exc
    _write_report(config.report_path, hits)

    # A resume is a fresh start after the checkpointed n.
    test_from = max(config.n_start, base_n + 1)
    jobs = min(config.jobs, config.n_end)
    stats = _scan_range(config, test_from, stop_n, jobs, hits) if test_from <= stop_n else ()

    actual = sum(s.triples_checked for s in stats)
    expected_exec = closed_form_triple_count(test_from, stop_n)
    if actual != expected_exec:
        raise ScanError(
            f"triple count mismatch: checked {actual}, closed form says {expected_exec}"
        )

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
    config: ScanConfig, test_from: int, stop_n: int, jobs: int, hits: List[IntegerHit]
) -> Tuple[WorkerStat, ...]:
    """Test every n in [test_from, stop_n], appending its hits to ``hits``.

    After each n the report is rewritten if that n had hits, and then the
    checkpoint is saved if n is a checkpoint n, so a checkpoint never
    claims an n whose hits are not on disk.
    """
    checked, busy = [0] * jobs, [0.0] * jobs
    row = esf_row_start(k_cap(config.n_end))
    with _fan_out(jobs) as fan_out:
        for n in range(2, stop_n + 1):
            row = esf_row_advance(row)
            if n < test_from:
                continue
            if is_integer(row.harmonic):
                raise ScanError(f"self-check failed: harmonic value integral at n={n}")
            found: List[IntegerHit] = []
            tasks = [(row, w, jobs) for w in range(jobs)]
            for w, (w_hits, w_checked, w_busy) in enumerate(fan_out(_test_indices, tasks)):
                found += w_hits
                checked[w] += w_checked
                busy[w] += w_busy
            if found:
                hits += sorted(found, key=IntegerHit.sort_key)
                _write_report(config.report_path, hits)
            if config.checkpoint_path and (n % config.checkpoint_every == 0 or n == stop_n):
                record = CheckpointRecord(n_start=config.n_start, n=n, hits=tuple(hits))
                save_checkpoint(config.checkpoint_path, record)
    return tuple(WorkerStat(w, checked[w], busy[w]) for w in range(jobs))


@contextmanager
def _fan_out(jobs: int) -> Iterator[Callable]:
    """The map that runs one n's tasks: the builtin one for a single worker,
    else that of a process pool which ends with the scan."""
    if jobs == 1:
        yield map
        return
    # Imported here: a scan with one worker should not pay for the import.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(jobs) as pool:
        try:
            yield pool.map
        except BrokenProcessPool as exc:
            raise ScanError(f"a scan worker exited without reporting: {exc}") from exc


def _write_summary(report: ScanReport) -> None:
    payload = {
        "format": "esfscan-report v2",
        "n_start": report.n_start,
        "n_end": report.n_end,
        "n_completed": report.n_completed,
        "triples_checked": report.triples_checked,
        "integer_hits": [asdict(h) for h in report.hits],
        "elapsed_seconds": report.elapsed_seconds,
        "workers": [asdict(s) for s in report.worker_stats],
        "checkpoint_lineage": [
            {"path": path, "resumed_at_n": n} for path, n in report.checkpoint_lineage
        ],
        "report_csv": report.report_path,
    }
    write_lines(report.summary_path, json.dumps(payload, indent=2, sort_keys=True).split("\n"))

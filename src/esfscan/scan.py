"""Exhaustive exact-arithmetic integrality scan with checkpoint/resume.

The scan walks n upward with the rolling full-set row and tests every
omit-one value at 1 <= i <= n, 1 <= k <= min(n-1, k_cap(n)) for
integrality.  The row is the only state carried from one n to the next:
the k = 1 seed omit(n, i, 1) = H_n - 1/i comes from the row's first
entry, i = n is read off the previous row, and the k-recursion is
``symfun.omit_sweep``.  Rows below ``n_start`` are advanced but not
tested.

Parallelism is over the omitted index i: worker w of J owns the
interleaved indices i = w+1, w+1+J, w+1+2J, ... at every n (so i = n
falls to worker (n-1) mod J), which spreads low and high indices evenly,
and advances its own copy of the (cheap) row, so no per-n coordination
is needed at all.  Workers stream integer hits, the checkpoint n they
complete, and final counts to the coordinator over a queue; per-worker
message order makes checkpointing race-free.  A checkpoint holds only
the last completed n and the hits so far, and a resume is a fresh start
at the next n.  The hit report is merged in (n, i, k) order, so its
bytes are a pure function of the configured range, independent of worker
count, of checkpoint cadence, and of interrupt/resume history.

There is deliberately no modular-arithmetic pre-filter: residues modulo
a word-size prime cannot witness that a rational is not an integer, so
every test is performed on the exact reduced value.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from queue import Empty
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .checkpoint import (
    CheckpointRecord,
    IntegerHit,
    load_checkpoint,
    save_checkpoint,
)
from .rational import format_rational, make_rational
from .symfun import EsfRow, esf_row_advance, esf_row_start, k_cap, omit_oracle, omit_sweep

REPORT_HEADER = "n,i,k,numerator,denominator"
SUMMARY_SUFFIX = ".summary.json"

# The only integrality hits that are supposed to exist, ever.
KNOWN_HITS = ((2, 2, 1), (4, 4, 2))


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
    oracle_crosscheck_max: int = 12
    resume: bool = False
    stop_after_n: Optional[int] = None  # graceful stop at a completed n

    def validate(self) -> None:
        if not 2 <= self.n_start <= self.n_end:
            raise ScanError(f"need 2 <= n_start <= n_end, got [{self.n_start}, {self.n_end}]")
        if self.jobs < 1:
            raise ScanError(f"jobs must be >= 1, got {self.jobs}")
        if self.checkpoint_every < 1:
            raise ScanError("checkpoint_every must be >= 1")
        if not 0 <= self.oracle_crosscheck_max <= 20:
            raise ScanError("oracle_crosscheck_max must be within the enumeration bound (<= 20)")
        if self.resume and not self.checkpoint_path:
            raise ScanError("resume requested without a checkpoint path")
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
    return sum(n * min(n - 1, k_cap(n)) for n in range(max(2, n_start), n_end + 1))


def _identity_sampled(n: int, i: int, k: int) -> bool:
    # Deterministic 1-in-1000 selection for the online identity self-check.
    return (n * 1000003 + i * 733 + k) % 1000 == 0


@dataclass
class _Engine:
    """Tests the interleaved omitted indices i = worker+1, worker+1+jobs, ...

    At every n the owned indices include i = n exactly when
    (n - 1) mod jobs == worker.  The engine advances its own copy of the
    rolling row from n = 1 (recomputing the row per worker is far cheaper
    than shipping it) and tests every n in [test_from, stop_n].
    """

    worker: int
    jobs: int
    test_from: int
    stop_n: int
    row_cap: int
    oracle_max: int
    checkpoint_ns: frozenset
    checked: int = 0
    busy_seconds: float = 0.0

    def run(
        self,
        on_hit: Callable[[int, int, int, str], None],
        on_checkpoint: Callable[[int], None],
    ) -> None:
        started = time.perf_counter()
        prev = esf_row_start(self.row_cap)
        for n in range(2, self.stop_n + 1):
            row = esf_row_advance(prev)
            if n >= self.test_from:
                self._test(n, row, prev, on_hit)
            if n in self.checkpoint_ns:
                on_checkpoint(n)
            prev = row
        self.busy_seconds = time.perf_counter() - started

    def _test(self, n: int, row: EsfRow, prev: EsfRow, on_hit) -> None:
        harmonic = row.harmonic
        if harmonic.denominator == 1:
            raise ScanError(f"self-check failed: harmonic value integral at n={n}")
        mk = min(n - 1, k_cap(n))
        crosscheck = n <= self.oracle_max
        full = row.values
        for i in range(self.worker + 1, n + 1, self.jobs):
            r_i = make_rational(1, i)
            if i < n:
                values = omit_sweep(harmonic - r_i, r_i, row, mk)
            else:
                values = prev.values[:mk]
            for k, v in enumerate(values, 1):
                if v.denominator == 1:
                    on_hit(n, i, k, format_rational(v))
                if (
                    k >= 2
                    and _identity_sampled(n, i, k)
                    and full[k - 1] != v + values[k - 2] * r_i
                ):
                    raise ScanError(f"identity self-check failed at ({n},{i},{k})")
                if crosscheck and v != omit_oracle(n, i, k):
                    raise ScanError(f"recursion disagrees with enumeration at ({n},{i},{k})")
            self.checked += mk


def _worker_main(engine: _Engine, queue) -> None:
    wid = engine.worker
    try:
        engine.run(
            on_hit=lambda n, i, k, s: queue.put(("hit", wid, n, i, k, s)),
            on_checkpoint=lambda n: queue.put(("ckpt", wid, n)),
        )
        queue.put(("done", wid, engine.checked, engine.busy_seconds))
    except BaseException:
        queue.put(("error", wid, traceback.format_exc()))


def _write_report(path: str, hits: Sequence[IntegerHit]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_HEADER + "\n")
        for h in hits:
            num, den = h.value.split("/")
            fh.write(f"{h.n},{h.i},{h.k},{num},{den}\n")
        fh.flush()
        os.fsync(fh.fileno())


class _Coordinator:
    """Collects worker messages: hits, completed checkpoint n, final counts."""

    def __init__(
        self, config: ScanConfig, jobs: int, base_n: int,
        hits: Dict[Tuple[int, int, int], IntegerHit],
    ):
        self.config = config
        self.hits = hits
        self.reached = [base_n] * jobs  # last checkpoint n each worker completed
        self.stats: Dict[int, WorkerStat] = {}

    def sorted_hits(self) -> List[IntegerHit]:
        return [self.hits[key] for key in sorted(self.hits)]

    def on_hit(self, worker_id: int, n: int, i: int, k: int, value: str) -> None:
        self.hits[(n, i, k)] = IntegerHit(n=n, i=i, k=k, value=value)
        # A hit is the most valuable datum the scan can produce: persist
        # it before any more work is acknowledged.
        _write_report(self.config.report_path, self.sorted_hits())

    def on_checkpoint(self, worker_id: int, n: int) -> None:
        # Workers report the same checkpoint n in the same order, and each
        # sends its hits before its mark, so once the slowest worker has
        # completed n every hit at or below n is here.
        self.reached[worker_id] = n
        if min(self.reached) == n:
            hits = tuple(h for h in self.sorted_hits() if h.n <= n)
            record = CheckpointRecord(n_start=self.config.n_start, n=n, hits=hits)
            save_checkpoint(self.config.checkpoint_path, record)

    def on_done(self, worker_id: int, checked: int, busy: float) -> None:
        self.stats[worker_id] = WorkerStat(
            worker=worker_id, triples_checked=checked, busy_seconds=busy
        )


def scan(config: ScanConfig) -> ScanReport:
    """Run the configured scan and return the report (also written to disk)."""
    config.validate()
    started = time.perf_counter()

    lineage: List[Tuple[str, int]] = []
    base_n = 1
    stop_n = min(config.stop_after_n or config.n_end, config.n_end)
    hits: Dict[Tuple[int, int, int], IntegerHit] = {}
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
        hits = {(h.n, h.i, h.k): h for h in record.hits}

    jobs = min(config.jobs, config.n_end)
    coord = _Coordinator(config, jobs, base_n, hits)
    try:
        _write_report(config.report_path, coord.sorted_hits())
    except OSError as exc:
        raise ScanError(f"report path {config.report_path!r} is not writable: {exc}") from exc

    checkpoint_ns = frozenset()
    if config.checkpoint_path and stop_n > base_n:
        checkpoint_ns = frozenset(
            n for n in range(base_n + 1, stop_n + 1) if n % config.checkpoint_every == 0
        ) | {stop_n}

    # A resume is a fresh start after the checkpointed n.
    test_from = max(config.n_start, base_n + 1)
    if stop_n > base_n:
        row_cap = k_cap(config.n_end)
        engines = [
            _Engine(
                worker=w,
                jobs=jobs,
                test_from=test_from,
                stop_n=stop_n,
                row_cap=row_cap,
                oracle_max=config.oracle_crosscheck_max,
                checkpoint_ns=checkpoint_ns,
            )
            for w in range(jobs)
        ]
        if jobs == 1:
            _run_inline(engines[0], coord)
        else:
            _run_workers(engines, coord)

    actual = sum(s.triples_checked for s in coord.stats.values())
    expected_exec = closed_form_triple_count(test_from, stop_n)
    if actual != expected_exec:
        raise ScanError(
            f"triple count mismatch: checked {actual}, closed form says {expected_exec}"
        )
    total = closed_form_triple_count(config.n_start, stop_n)

    final_hits = tuple(coord.sorted_hits())
    _write_report(config.report_path, final_hits)
    elapsed = time.perf_counter() - started
    stats = tuple(coord.stats[w] for w in sorted(coord.stats))
    summary_path = config.report_path + SUMMARY_SUFFIX
    report = ScanReport(
        n_start=config.n_start,
        n_end=config.n_end,
        n_completed=stop_n,
        triples_checked=total,
        hits=final_hits,
        elapsed_seconds=elapsed,
        worker_stats=stats,
        checkpoint_lineage=tuple(lineage),
        report_path=config.report_path,
        summary_path=summary_path,
    )
    _write_summary(report)
    return report


def _run_inline(engine: _Engine, coord: _Coordinator) -> None:
    engine.run(
        on_hit=lambda n, i, k, s: coord.on_hit(0, n, i, k, s),
        on_checkpoint=lambda n: coord.on_checkpoint(0, n),
    )
    coord.on_done(0, engine.checked, engine.busy_seconds)


def _run_workers(engines: List[_Engine], coord: _Coordinator) -> None:
    ctx = multiprocessing.get_context()
    queue = ctx.Queue(maxsize=256)
    procs = [ctx.Process(target=_worker_main, args=(e, queue), daemon=True) for e in engines]
    for p in procs:
        p.start()
    remaining = len(engines)
    try:
        while remaining:
            try:
                msg = queue.get(timeout=10)
            except Empty:
                dead = [i for i, p in enumerate(procs) if not p.is_alive() and i not in coord.stats]
                if dead:
                    raise ScanError(f"worker(s) {dead} exited without reporting")
                continue
            kind = msg[0]
            if kind == "hit":
                _, wid, n, i, k, value = msg
                coord.on_hit(wid, n, i, k, value)
            elif kind == "ckpt":
                _, wid, n = msg
                coord.on_checkpoint(wid, n)
            elif kind == "done":
                _, wid, checked, busy = msg
                coord.on_done(wid, checked, busy)
                remaining -= 1
            else:
                _, wid, tb = msg
                raise ScanError(f"worker {wid} failed:\n{tb}")
    except BaseException:
        for p in procs:
            if p.is_alive():
                p.terminate()
        raise
    finally:
        for p in procs:
            p.join(timeout=30)


def _write_summary(report: ScanReport) -> None:
    payload = {
        "format": "esfscan-report v2",
        "n_start": report.n_start,
        "n_end": report.n_end,
        "n_completed": report.n_completed,
        "triples_checked": report.triples_checked,
        "integer_hits": [
            {"n": h.n, "i": h.i, "k": h.k, "value": h.value} for h in report.hits
        ],
        "elapsed_seconds": report.elapsed_seconds,
        "workers": [
            {
                "worker": s.worker,
                "triples_checked": s.triples_checked,
                "busy_seconds": s.busy_seconds,
            }
            for s in report.worker_stats
        ],
        "checkpoint_lineage": [
            {"path": path, "resumed_at_n": n} for path, n in report.checkpoint_lineage
        ],
        "report_csv": report.report_path,
    }
    with open(report.summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

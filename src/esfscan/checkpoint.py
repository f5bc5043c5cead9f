"""Versioned, line-oriented scan checkpoints.

A checkpoint records how far a scan got: the scan's ``n_start``, the
last fully completed n, and every integer hit found so far.  Nothing else
is needed to resume: the scan carries nothing from one n to the next
but the hits and a bounded cache of pure functions, so a resume is a
fresh start at the next n.  The format is
UTF-8 text so checkpoints are human-auditable and diff-able:

    ESF-CKPT v2 n_start=<a> n=<n> hits=<h>
    HIT <n> <i> <k> <num>/<den>      h lines, sorted by (n, i, k)

Every output of the package goes through :func:`write_lines`, so a
reader sees the old file or the whole new one, and every command passes
all of its outputs to :func:`probe_outputs` once, before it does any
work; no other code decides whether a path may be written.  Loading
validates the version (v1 files, which also carried the row and the
k = 1 column, are refused), n_start <= n, the hit count, each hit's
range, canonical form ("2/2" is refused) and integrality, and that hits
strictly increase in (n, i, k); corruption fails loudly instead of
silently restarting the scan.
"""

from __future__ import annotations

import os
import re
import stat
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .rational import format_rational, is_integer, parse_rational

FORMAT_VERSION = 2
_VERSION_RE = re.compile(r"^ESF-CKPT v(\d+)\b")
_HEADER_RE = re.compile(r"^ESF-CKPT v2 n_start=(\d+) n=(\d+) hits=(\d+)$")
_HIT_RE = re.compile(r"^HIT (\d+) (\d+) (\d+) (\S+)$")
TMP_SUFFIX = ".tmp"  # write_lines writes here first
BATCH_CHARS = 64 * 1024  # write_lines writes at most this many characters at once


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot be saved, parsed, or trusted."""


@dataclass(frozen=True)
class IntegerHit:
    n: int
    i: int
    k: int
    value: str  # canonical "num/den", e.g. "1/1"

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.n, self.i, self.k)


@dataclass(frozen=True)
class CheckpointRecord:
    n_start: int  # first n the scan tests
    n: int  # last fully completed n
    hits: Tuple[IntegerHit, ...]


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Stream the items to ``path + ".tmp"``, fsync it and rename it over
    path; on failure path is left as it was.

    An item is one line or several LF-joined lines, and each item gets
    one trailing LF.  Items are joined into batches of at most 64 KiB
    (``BATCH_CHARS`` characters, LFs included; an item longer than that
    is a batch of its own), never into the whole file, and each batch is
    encoded to UTF-8 and written in binary mode.

    After each MiB written, the range written since the last hint gets
    ``posix_fadvise(..., POSIX_FADV_DONTNEED)`` where ``os`` has it.  On
    Linux that starts writeback of those pages and returns, so the disk
    works while later batches render and the final fsync waits only on
    the tail; it also drops the pages from the cache, so a later reader
    reads the file from disk.  Outputs under 1 MiB make no such call.
    The hint changes no byte and no durability: the fsync still comes
    after the last write and before the rename.
    """
    tmp = path + TMP_SUFFIX
    try:
        with open(tmp, "wb") as fh:
            batch: List[str] = []
            size = hinted = 0  # the bytes before `hinted` have had their hint
            for line in lines:
                if size + len(line) >= BATCH_CHARS and batch:
                    fh.write("\n".join(batch + [""]).encode("utf-8"))
                    batch, size = [], 0
                    written = fh.tell()
                    if written - hinted >= 1 << 20 and hasattr(os, "posix_fadvise"):
                        fh.flush()  # the hinted range must be in the file, not in fh's buffer
                        os.posix_fadvise(fh.fileno(), hinted, written - hinted,
                                         os.POSIX_FADV_DONTNEED)
                        hinted = written
                batch.append(line)
                size += len(line) + 1
            fh.write("\n".join(batch + [""]).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def probe_outputs(paths: Sequence[str]) -> None:
    """Raise OSError, naming the path, unless :func:`write_lines` can write
    each of ``paths`` now, to a file of its own.

    A path is refused when it is empty; when it exists and is not a regular
    file (``os.replace`` would replace a FIFO or a device node); when it or
    its temporary file is an earlier output or that output's temporary file;
    or when its temporary file cannot be created.  Only that file is
    created, without blocking, and removed again.
    """
    taken = set()
    for path in paths:
        if not path:
            raise OSError(f"output path {path!r} is empty")
        mine = {os.path.abspath(path), os.path.abspath(path + TMP_SUFFIX)}
        if mine & taken:
            raise OSError(f"output path {path!r} is another output or its temporary file")
        taken |= mine
        with suppress(FileNotFoundError):  # a missing path is written anew
            if not stat.S_ISREG(os.stat(path).st_mode):
                raise OSError(f"output path {path!r} exists and is not a regular file")
        try:
            os.close(os.open(path + TMP_SUFFIX, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK))
            os.remove(path + TMP_SUFFIX)
        except OSError as exc:
            raise OSError(f"output path {path!r} is not writable: {exc}") from exc


def save_checkpoint(path: str, record: CheckpointRecord) -> None:
    hits = sorted(record.hits, key=IntegerHit.sort_key)
    header = f"ESF-CKPT v{FORMAT_VERSION} n_start={record.n_start} n={record.n} hits={len(hits)}"
    try:
        write_lines(path, [header] + [f"HIT {h.n} {h.i} {h.k} {h.value}" for h in hits])
    except OSError as exc:
        raise CheckpointError(f"cannot save checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str) -> CheckpointRecord:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    lines = raw.splitlines()
    if not lines:
        raise CheckpointError(f"checkpoint {path} is empty")
    m = _VERSION_RE.match(lines[0])
    if m and int(m.group(1)) != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format version {m.group(1)} unsupported"
            f" (expected {FORMAT_VERSION})"
        )
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise CheckpointError(f"checkpoint {path}: bad header {lines[0]!r}")
    n_start, n, count = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not 2 <= n_start <= n:
        raise CheckpointError(f"checkpoint {path}: implausible header n_start={n_start} n={n}")

    body = [line for line in lines[1:] if line.strip()]
    if len(body) != count:
        state = "truncated" if len(body) < count else "overlong"
        raise CheckpointError(
            f"checkpoint {path}: {state} ({len(body)} HIT lines, header says hits={count})"
        )
    hits: List[IntegerHit] = []
    for line in body:
        m = _HIT_RE.match(line)
        if not m:
            raise CheckpointError(f"checkpoint {path}: unexpected line {line!r}")
        hn, hi, hk = int(m.group(1)), int(m.group(2)), int(m.group(3))
        try:
            value = parse_rational(m.group(4))
        except ValueError as exc:
            raise CheckpointError(f"checkpoint {path}: HIT {hn} {hi} {hk}: {exc}") from exc
        if not is_integer(value):
            raise CheckpointError(f"checkpoint {path}: HIT {hn} {hi} {hk}: value not an integer")
        if not (n_start <= hn <= n and 1 <= hi <= hn and 1 <= hk < hn):
            raise CheckpointError(f"checkpoint {path}: implausible hit {line!r}")
        hit = IntegerHit(n=hn, i=hi, k=hk, value=format_rational(value))
        if hits and hit.sort_key() <= hits[-1].sort_key():
            raise CheckpointError(f"checkpoint {path}: hit {line!r} repeats or is out of order")
        hits.append(hit)

    return CheckpointRecord(n_start=n_start, n=n, hits=tuple(hits))

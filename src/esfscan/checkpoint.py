"""Versioned, line-oriented scan checkpoints.

A checkpoint records how far a scan got: the scan's ``n_start``, the
last fully completed n, and every integer hit found so far.  Nothing else
is needed to resume.  The scan carries no state from one n to the next
except the full-set row, and the scan rebuilds the row once, from n = 1,
at about the cost of testing a single n.  The format is UTF-8 text so
checkpoints are human-auditable and diff-able:

    ESF-CKPT v2 n_start=<a> n=<n> hits=<h>
    HIT <n> <i> <k> <num>/<den>      h lines, sorted by (n, i, k)

Files are written to a temporary name and atomically renamed, so a
half-written checkpoint can never replace a good one.  Loading validates
the version (v1 files, which also carried the row and the k = 1 column,
are refused), the hit count against the header, and each hit's range,
canonical form (a value like "2/2" is refused) and integrality;
corruption fails loudly instead of silently restarting the scan.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Tuple

from .rational import format_rational, parse_rational

FORMAT_VERSION = 2
_VERSION_RE = re.compile(r"^ESF-CKPT v(\d+)\b")
_HEADER_RE = re.compile(r"^ESF-CKPT v2 n_start=(\d+) n=(\d+) hits=(\d+)$")
_HIT_RE = re.compile(r"^HIT (\d+) (\d+) (\d+) (\S+)$")


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


def save_checkpoint(path: str, record: CheckpointRecord) -> None:
    hits = sorted(record.hits, key=IntegerHit.sort_key)
    lines = [f"ESF-CKPT v{FORMAT_VERSION} n_start={record.n_start} n={record.n} hits={len(hits)}"]
    lines.extend(f"HIT {h.n} {h.i} {h.k} {h.value}" for h in hits)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot save checkpoint {path}: {exc}") from exc


def probe_checkpoint_path(path: str) -> None:
    """Raise CheckpointError unless :func:`save_checkpoint` can write to path.

    Only the temporary file a save renames into place is created, and it
    is removed again, so no checkpoint appears before the first save.
    """
    if os.path.isdir(path):
        raise CheckpointError(f"cannot save checkpoint {path}: it is a directory")
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8"):
            pass
        os.remove(tmp)
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
    if n_start < 2 or n < 2:
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
        if value.denominator != 1:
            raise CheckpointError(f"checkpoint {path}: HIT {hn} {hi} {hk}: value not an integer")
        if not (n_start <= hn <= n and 1 <= hi <= hn and 1 <= hk < hn):
            raise CheckpointError(f"checkpoint {path}: implausible hit {line!r}")
        hits.append(IntegerHit(n=hn, i=hi, k=hk, value=format_rational(value)))

    return CheckpointRecord(
        n_start=n_start, n=n, hits=tuple(sorted(hits, key=IntegerHit.sort_key))
    )

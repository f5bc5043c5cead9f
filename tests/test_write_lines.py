import os

import pytest

import esfscan.checkpoint as checkpoint_module
from esfscan.checkpoint import (
    BATCH_CHARS,
    TMP_SUFFIX,
    CheckpointRecord,
    IntegerHit,
    load_checkpoint,
    save_checkpoint,
    write_lines,
)


def expected_bytes(items):
    return "".join(item + "\n" for item in items).encode("utf-8")


CASES = {
    # 4,000 items of 39 characters plus LF: batches end inside the run of items.
    "crosses-batches": [f"{i:06d}\t" + "x" * 32 for i in range(4000)],
    # A batch filled exactly (item plus LF is BATCH_CHARS), then one more.
    "exact-fill": ["a" * (BATCH_CHARS - 1), "b" * (BATCH_CHARS - 1), "c"],
    "item-larger-than-a-batch": ["head", "y" * (2 * BATCH_CHARS + 5), "tail"],
    "multi-line-items": ["1\t2\n1\t3", "", "GAP\t4\t1\nGAP\t4\t2\n4\t3", "last"],
    "non-ascii": ["né", "→ ü \U0001d53c", "z" * BATCH_CHARS, "é" * 10],
    "no-items": [],
}


@pytest.mark.parametrize("items", list(CASES.values()), ids=list(CASES))
def test_bytes_are_the_items_with_one_lf_each(tmp_path, items):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")
    write_lines(str(path), iter(items))
    assert path.read_bytes() == expected_bytes(items)
    assert os.listdir(tmp_path) == ["out.txt"]


def test_batches_are_bounded(tmp_path, monkeypatch):
    """Each write holds whole items, at most BATCH_CHARS characters of
    them, except an item longer than that, which is written alone."""
    writes = []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes.append(data)
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    real_open = open
    monkeypatch.setattr(
        checkpoint_module, "open", lambda *a, **kw: Recorder(real_open(*a, **kw)), raising=False
    )
    items = CASES["crosses-batches"] + CASES["item-larger-than-a-batch"]
    write_lines(str(tmp_path / "out.txt"), items)
    assert b"".join(writes) == expected_bytes(items)
    # 160,000 characters of short items in three batches, the large item
    # alone, then "tail".
    assert len(writes) == 5
    for data in writes:
        assert len(data) <= BATCH_CHARS or data == expected_bytes(items[4001:4002])


def test_failure_after_a_flush_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")
    flushed = []

    def items():
        for i in range(3 * BATCH_CHARS // 10):
            yield f"{i:09d}"
        flushed.append(os.path.getsize(str(path) + TMP_SUFFIX))
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        write_lines(str(path), items())
    assert flushed and flushed[0] >= 2 * BATCH_CHARS
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


# About 2.5 MiB: 41,000 items of 63 characters plus LF.
LARGE = [f"{i:07d}" + "w" * 56 for i in range(41000)]


@pytest.fixture
def calls(monkeypatch):
    """Record write_lines' posix_fadvise, fsync and replace calls, in
    order, with the size of the file on disk at each, and make them."""
    events = []
    real_fadvise = getattr(os, "posix_fadvise", None)
    real_fsync, real_replace = os.fsync, os.replace

    def fadvise(fd, start, length, advice):
        events.append(("hint", start, length, advice, os.fstat(fd).st_size))
        if real_fadvise is not None:
            real_fadvise(fd, start, length, advice)

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint_module.os, "posix_fadvise", fadvise, raising=False)
    monkeypatch.setattr(checkpoint_module.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint_module.os, "replace", replace)
    return events


def test_a_large_write_hints_ranges_already_on_disk(tmp_path, calls):
    path = str(tmp_path / "out.txt")
    write_lines(path, LARGE)
    data = expected_bytes(LARGE)
    with open(path, "rb") as fh:
        assert fh.read() == data
    hints = [event for event in calls if event[0] == "hint"]
    assert len(hints) >= 2
    start = 0
    for _, begin, length, advice, on_disk in hints:
        # Consecutive ranges of at least 1 MiB, each written before its hint.
        assert begin == start and length >= 1 << 20 and begin + length <= on_disk
        assert advice == os.POSIX_FADV_DONTNEED
        start += length
    assert start < len(data)


def test_fsync_follows_the_last_write_and_precedes_the_rename(tmp_path, calls):
    path = str(tmp_path / "out.txt")
    write_lines(path, LARGE)
    hints = len(calls) - 2
    assert hints >= 2 and [event[0] for event in calls] == ["hint"] * hints + ["fsync", "replace"]
    assert calls[-2] == ("fsync", len(expected_bytes(LARGE)))
    assert calls[-1] == ("replace", path + TMP_SUFFIX, path)


def test_a_checkpoint_sized_write_makes_no_hint(tmp_path, calls):
    path = str(tmp_path / "ckpt.txt")
    hits = tuple(IntegerHit(n=n, i=n, k=n - 1, value="1/1") for n in range(3, 3000))
    save_checkpoint(path, CheckpointRecord(n_start=2, n=3000, hits=hits))
    assert [event[0] for event in calls] == ["fsync", "replace"]
    assert load_checkpoint(path).hits == hits


def test_bytes_without_posix_fadvise(tmp_path, monkeypatch):
    monkeypatch.delattr(checkpoint_module.os, "posix_fadvise", raising=False)
    path = tmp_path / "out.txt"
    write_lines(str(path), LARGE)
    assert path.read_bytes() == expected_bytes(LARGE)
    assert os.listdir(tmp_path) == ["out.txt"]

import os

import pytest

import esfscan.checkpoint as checkpoint_module
from esfscan.checkpoint import BATCH_CHARS, TMP_SUFFIX, write_lines


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

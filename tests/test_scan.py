import dataclasses
import importlib
import json
import os
import re
import stat
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import esfscan
from esfscan.checkpoint import (
    CheckpointError,
    CheckpointRecord,
    IntegerHit,
    load_checkpoint,
    save_checkpoint,
)
from esfscan.scan import (
    ScanConfig,
    ScanError,
    closed_form_triple_count,
    scan,
)
from esfscan.symfun import k_cap
from esfscan.theta import case1_margin


_unpatched_test_n = importlib.import_module("esfscan.scan")._test_n


def _overcount_at_30(n):
    """``scan._test_n``, reporting one triple too many at n = 30."""
    found, checked, *rest = _unpatched_test_n(n)
    return (found, checked + (n == 30), *rest)


def run_scan(tmp_path, name, **kwargs):
    kwargs.setdefault("report_path", str(tmp_path / f"{name}.csv"))
    config = ScanConfig(**kwargs)
    report = scan(config)
    return report, (tmp_path / f"{name}.csv").read_bytes()


class TestScan:
    def test_known_hits_only(self, tmp_path):
        report, payload = run_scan(tmp_path, "r", n_start=2, n_end=50)
        assert [(h.n, h.i, h.k, h.value) for h in report.hits] == [
            (2, 2, 1, "1/1"),
            (4, 4, 2, "1/1"),
        ]
        assert not report.unexpected_hits
        assert payload == b"n,i,k,numerator,denominator\n2,2,1,1,1\n4,4,2,1,1\n"

    def test_no_hits_from_five_up(self, tmp_path):
        report, payload = run_scan(tmp_path, "r", n_start=5, n_end=50)
        assert report.hits == ()
        assert payload == b"n,i,k,numerator,denominator\n"

    def test_triple_count_closed_form(self, tmp_path):
        report, _ = run_scan(tmp_path, "r", n_start=2, n_end=40)
        expected = sum(n * min(n - 1, k_cap(n)) for n in range(2, 41))
        assert report.triples_checked == expected == closed_form_triple_count(2, 40)

    def test_online_oracle_crosscheck_runs_clean(self, tmp_path):
        # n <= 12 is fully re-verified against subset enumeration inline.
        report, _ = run_scan(tmp_path, "r", n_start=2, n_end=12)
        assert report.triples_checked == closed_form_triple_count(2, 12)

    def test_identity_self_check_on_every_exact_triple(self, tmp_path, monkeypatch):
        # Above n = 12 only the identity esf(n, k) = omit(n, i, k) +
        # omit(n, i, k-1)/i checks an exact value.  At n = 20 the triples
        # (20, 1, 8) and (20, 1, 10) have no witness; corrupt the second.
        # omit_scaled gives n! * omit(n, i, k), so adding n! adds 1 to the value.
        scan_module = importlib.import_module("esfscan.scan")
        kernel = scan_module.omit_scaled

        def corrupted(row, i, k_max):
            scaled = kernel(row, i, k_max)
            if (row.n, i) == (20, 1):
                scaled[-1] += row.scaled[0]
            return scaled

        monkeypatch.setattr(scan_module, "omit_scaled", corrupted)
        with pytest.raises(ScanError, match=r"identity self-check failed at \(20,1,10\)"):
            run_scan(tmp_path, "r", n_start=13, n_end=27)

    def test_harmonic_self_check(self, tmp_path, monkeypatch):
        # A row whose harmonic entry n! * H_n is a multiple of n! must stop
        # the scan: H_n is an integer at no n >= 2.
        scan_module = importlib.import_module("esfscan.scan")
        rows = scan_module.esf_rows

        def integral_harmonic(n, cap):
            for row in rows(n, cap):
                if row.n == 20:
                    fact = row.scaled[0]
                    row = dataclasses.replace(row, scaled=(fact, fact, *row.scaled[2:]))
                yield row

        monkeypatch.setattr(scan_module, "esf_rows", integral_harmonic)
        with pytest.raises(ScanError, match=r"harmonic value integral at n=20"):
            run_scan(tmp_path, "r", n_start=13, n_end=27)

    def test_deterministic_across_jobs_and_cadence(self, tmp_path):
        _, base = run_scan(tmp_path, "a", n_start=2, n_end=60)
        report2, jobs2 = run_scan(tmp_path, "b", n_start=2, n_end=60, jobs=2)
        report4, jobs4 = run_scan(
            tmp_path,
            "c",
            n_start=2,
            n_end=60,
            jobs=4,
            checkpoint_path=str(tmp_path / "c.ckpt"),
            checkpoint_every=7,
        )
        assert base == jobs2 == jobs4
        # One entry per process that tested an n, and every triple counted once.
        for report, jobs in ((report2, 2), (report4, 4)):
            assert 1 <= len(report.worker_stats) <= jobs
            assert sum(s.triples_checked for s in report.worker_stats) == (
                closed_form_triple_count(2, 60)
            )

    def test_summary_sidecar(self, tmp_path):
        report, _ = run_scan(tmp_path, "r", n_start=2, n_end=30, jobs=2)
        summary = json.loads((tmp_path / "r.csv.summary.json").read_text())
        assert summary["format"] == "esfscan-report v2"
        assert summary["n_start"] == 2 and summary["n_end"] == 30
        assert summary["triples_checked"] == report.triples_checked
        assert summary["integer_hits"] == [
            {"n": 2, "i": 2, "k": 1, "value": "1/1"},
            {"n": 4, "i": 4, "k": 2, "value": "1/1"},
        ]
        assert [w["worker"] for w in summary["workers"]] in ([0], [0, 1])
        assert sum(w["triples_checked"] for w in summary["workers"]) == report.triples_checked

    def test_checkpoints_only_at_tested_n(self, tmp_path, monkeypatch):
        # The package rebinds esfscan.scan to the function, so reach the
        # module through importlib.
        scan_module = importlib.import_module("esfscan.scan")
        saved = []
        monkeypatch.setattr(
            scan_module, "save_checkpoint", lambda path, record: saved.append(record.n)
        )
        run_scan(
            tmp_path, "r", n_start=30, n_end=40, checkpoint_every=10,
            checkpoint_path=str(tmp_path / "r.ckpt"),
        )
        assert saved == [30, 40]

    def test_unwritable_report_is_startup_failure(self, tmp_path, monkeypatch):
        scan_module = importlib.import_module("esfscan.scan")
        tested = []
        monkeypatch.setattr(scan_module, "_test_n", tested.append)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # A FIFO with no reader at <path>.tmp is refused, not waited on.
        os.mkfifo(tmp_path / "q.csv.tmp")
        for bad, why in ((tmp_path / "no" / "dir.csv", "is not writable"),
                         ("", "is empty"), (fifo, "is not a regular file"),
                         (tmp_path / "q.csv", "is not writable")):
            with pytest.raises(ScanError, match=re.escape(f"output path {str(bad)!r}") + ".*" + why):
                scan(ScanConfig(n_start=2, n_end=10, report_path=str(bad)))
        assert tested == []
        assert sorted(os.listdir(tmp_path)) == ["fifo", "q.csv.tmp"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_unwritable_checkpoint_is_startup_failure(self, tmp_path, monkeypatch):
        scan_module = importlib.import_module("esfscan.scan")
        tested = []

        def fail_at_first_n(n):
            tested.append(n)
            raise ScanError("stop")

        monkeypatch.setattr(scan_module, "_test_n", fail_at_first_n)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for bad in (tmp_path / "no" / "dir.ckpt", tmp_path, "", fifo):
            with pytest.raises(ScanError, match=re.escape(f"output path {str(bad)!r}")):
                run_scan(tmp_path, "r", n_start=2, n_end=30, checkpoint_every=10,
                         checkpoint_path=str(bad))
        assert tested == []
        assert os.listdir(tmp_path) == ["fifo"] and stat.S_ISFIFO(os.stat(fifo).st_mode)
        # A writable path is probed without leaving a checkpoint below n_start.
        ckpt = tmp_path / "r.ckpt"
        with pytest.raises(ScanError, match="stop"):
            run_scan(tmp_path, "r", n_start=2, n_end=30, checkpoint_path=str(ckpt))
        assert tested == [2]
        assert sorted(os.listdir(tmp_path)) == ["fifo", "r.csv"]

    def test_summary_directory_is_startup_failure(self, tmp_path, monkeypatch):
        scan_module = importlib.import_module("esfscan.scan")
        tested = []
        monkeypatch.setattr(scan_module, "_test_n", tested.append)
        for make in (os.mkdir, os.mkfifo):
            where = tmp_path / make.__name__
            where.mkdir()
            summary = where / "r.csv.summary.json"
            make(summary)
            kind = stat.S_IFMT(os.stat(summary).st_mode)
            with pytest.raises(ScanError, match=re.escape(f"output path {str(summary)!r}")):
                run_scan(where, "r", n_start=2, n_end=30)
            assert os.listdir(where) == ["r.csv.summary.json"]
            assert stat.S_IFMT(os.stat(summary).st_mode) == kind
        assert tested == []

    def test_config_validation(self, tmp_path, monkeypatch):
        with pytest.raises(ScanError):
            ScanConfig(n_start=1, n_end=10).validate()
        with pytest.raises(ScanError):
            ScanConfig(n_start=5, n_end=4).validate()
        with pytest.raises(ScanError):
            ScanConfig(n_start=2, n_end=4, jobs=0).validate()
        with pytest.raises(ScanError):
            ScanConfig(n_start=2, n_end=4, resume=True).validate()
        with pytest.raises(ScanError, match="stop_after_n=50 is below n_start=100"):
            ScanConfig(n_start=100, n_end=200, stop_after_n=50).validate()
        # No output may be another, nor the temporary file (<path>.tmp)
        # another is written through; scan() refuses them before any n.
        scan_module = importlib.import_module("esfscan.scan")
        tested = []
        monkeypatch.setattr(scan_module, "_test_n", tested.append)
        monkeypatch.chdir(tmp_path)
        for report, ckpt, named in (
            ("r.csv", "./r.csv", "r.csv"),
            ("r.csv", "r.csv.summary.json", "r.csv.summary.json"),
            ("r.csv", "r.csv.tmp", "r.csv"),
            ("r.csv", "r.csv.summary.json.tmp", "r.csv.summary.json"),
            ("c.tmp", "c", "c.tmp"),
        ):
            config = ScanConfig(n_start=2, n_end=4, report_path=report, checkpoint_path=ckpt)
            config.validate()
            with pytest.raises(ScanError, match=re.escape(
                f"output path {named!r} is another output or its temporary file"
            )):
                scan(config)
        assert tested == []
        assert os.listdir(tmp_path) == []


class TestParallelFailure:
    def test_worker_check_failure_names_triple(self, tmp_path, monkeypatch):
        scan_module = importlib.import_module("esfscan.scan")
        monkeypatch.setattr(scan_module, "omit_oracle", lambda n, i, k: -1)
        # Every n fails; the first index at the first n is reported.
        with pytest.raises(ScanError, match=r"enumeration at \(2,1,1\)"):
            run_scan(tmp_path, "r", n_start=2, n_end=40)

    def test_first_failing_n_is_reported(self, tmp_path, monkeypatch):
        scan_module = importlib.import_module("esfscan.scan")
        kernel = scan_module.unsettled

        def fail_at(n, k_max, claims=None):
            if n in (40, 70):
                raise ScanError(f"planted failure at n={n}")
            return kernel(n, k_max, claims)

        monkeypatch.setattr(scan_module, "unsettled", fail_at)
        ckpt = tmp_path / "r.ckpt"
        with pytest.raises(ScanError, match="planted failure at n=40"):
            run_scan(tmp_path, "r", n_start=2, n_end=100,
                     checkpoint_path=str(ckpt), checkpoint_every=1)
        # Every n before the failing one was completed and checkpointed.
        assert load_checkpoint(str(ckpt)).n == 39

    def test_triple_count_mismatch_is_reported(self, tmp_path, monkeypatch):
        scan_module = importlib.import_module("esfscan.scan")
        monkeypatch.setattr(scan_module, "_test_n", _overcount_at_30)
        want = closed_form_triple_count(2, 40)
        with pytest.raises(ScanError, match=re.escape(
            f"triple count mismatch: checked {want + 1}, closed form says {want}"
        )):
            run_scan(tmp_path, "r", n_start=2, n_end=40)

    def test_scan_starts_no_pool(self, tmp_path):
        # A fresh interpreter, so no other test's import of
        # concurrent.futures can hide one made by the scan.
        code = textwrap.dedent(
            f"""
            import sys
            from esfscan.scan import ScanConfig, scan
            report = scan(ScanConfig(n_start=2, n_end=100, jobs=2,
                                     report_path={str(tmp_path / "r.csv")!r}))
            assert "concurrent.futures" not in sys.modules
            assert len(report.worker_stats) == 1, report.worker_stats
            """
        )
        src = str(Path(esfscan.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


KNOWN = (IntegerHit(2, 2, 1, "1/1"), IntegerHit(4, 4, 2, "1/1"))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        record = CheckpointRecord(n_start=2, n=20, hits=KNOWN)
        path = str(tmp_path / "state.ckpt")
        save_checkpoint(path, record)
        assert load_checkpoint(path) == record

    def test_header_shape(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        save_checkpoint(path, CheckpointRecord(n_start=2, n=20, hits=KNOWN))
        assert (tmp_path / "state.ckpt").read_text().splitlines() == [
            "ESF-CKPT v2 n_start=2 n=20 hits=2",
            "HIT 2 2 1 1/1",
            "HIT 4 4 2 1/1",
        ]

    def _write_variant(self, tmp_path, mutate):
        path = tmp_path / "state.ckpt"
        save_checkpoint(str(path), CheckpointRecord(n_start=2, n=12, hits=KNOWN))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        return str(path)

    def test_version_mismatch_refused(self, tmp_path):
        # A v1 file also carried the row (T lines) and the k = 1 column (S1 lines).
        path = self._write_variant(
            tmp_path, lambda ls: ["ESF-CKPT v1 n=12 K=8", "T 1 86021/27720"] + ls[1:]
        )
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_unreduced_value_refused(self, tmp_path):
        def mutate(lines):
            lines[2] = "HIT 4 4 2 2/2"
            return lines

        with pytest.raises(CheckpointError, match="not reduced"):
            load_checkpoint(self._write_variant(tmp_path, mutate))

    def test_non_integer_hit_refused(self, tmp_path):
        def mutate(lines):
            lines[2] = "HIT 4 4 2 1/2"
            return lines

        with pytest.raises(CheckpointError, match="not an integer"):
            load_checkpoint(self._write_variant(tmp_path, mutate))

    def test_truncation_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(self._write_variant(tmp_path, lambda ls: ls[:2]))

    def test_garbage_line_refused(self, tmp_path):
        def mutate(lines):
            lines[1] = "what is this"
            return lines

        with pytest.raises(CheckpointError):
            load_checkpoint(self._write_variant(tmp_path, mutate))

    @pytest.mark.parametrize(
        "text, why",
        [
            # The count matches the header, but no save writes a hit twice.
            ("ESF-CKPT v2 n_start=2 n=12 hits=2\nHIT 2 2 1 1/1\nHIT 2 2 1 1/1\n", "repeats"),
            ("ESF-CKPT v2 n_start=2 n=12 hits=2\nHIT 4 4 2 1/1\nHIT 2 2 1 1/1\n", "order"),
            # No save records a completed n below the scan's n_start.
            ("ESF-CKPT v2 n_start=100 n=50 hits=0\n", "implausible header"),
        ],
        ids=["repeated-hit", "hits-out-of-order", "n-below-n_start"],
    )
    def test_unsaveable_file_refused(self, tmp_path, text, why):
        path = tmp_path / "state.ckpt"
        path.write_text(text)
        with pytest.raises(CheckpointError, match=why):
            load_checkpoint(str(path))

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_unwritable_path_refused(self, tmp_path):
        record = CheckpointRecord(n_start=2, n=20, hits=KNOWN)
        with pytest.raises(CheckpointError, match="cannot save"):
            save_checkpoint(str(tmp_path / "no" / "state.ckpt"), record)


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        _, expected = run_scan(tmp_path, "full", n_start=2, n_end=120)
        ckpt = str(tmp_path / "part.ckpt")
        run_scan(
            tmp_path,
            "part",
            n_start=2,
            n_end=120,
            checkpoint_path=ckpt,
            checkpoint_every=25,
            stop_after_n=60,
        )
        assert load_checkpoint(ckpt).n == 60
        report, resumed = run_scan(
            tmp_path,
            "part",
            n_start=2,
            n_end=120,
            checkpoint_path=ckpt,
            checkpoint_every=25,
            resume=True,
        )
        assert resumed == expected
        assert report.checkpoint_lineage == ((ckpt, 60),)
        assert report.triples_checked == closed_form_triple_count(2, 120)

    def test_resume_parallel(self, tmp_path):
        _, expected = run_scan(tmp_path, "full", n_start=2, n_end=80)
        ckpt = str(tmp_path / "p.ckpt")
        run_scan(
            tmp_path, "p", n_start=2, n_end=80, jobs=3,
            checkpoint_path=ckpt, checkpoint_every=10, stop_after_n=40,
        )
        _, resumed = run_scan(
            tmp_path, "p", n_start=2, n_end=80, jobs=3,
            checkpoint_path=ckpt, checkpoint_every=10, resume=True,
        )
        assert resumed == expected

    def test_resume_with_larger_n_end(self, tmp_path):
        # The first run ends at 60, where k_cap is smaller than at 120; the
        # continuation tests the wider k range of its own n.
        _, expected = run_scan(tmp_path, "full", n_start=2, n_end=120)
        ckpt = str(tmp_path / "short.ckpt")
        run_scan(tmp_path, "s", n_start=2, n_end=60, checkpoint_path=ckpt)
        assert k_cap(60) < k_cap(120)
        report, resumed = run_scan(
            tmp_path, "s", n_start=2, n_end=120, checkpoint_path=ckpt, resume=True
        )
        assert resumed == expected
        assert report.checkpoint_lineage == ((ckpt, 60),)
        assert sum(s.triples_checked for s in report.worker_stats) == (
            closed_form_triple_count(61, 120)
        )

    def test_resume_with_other_n_start_refused(self, tmp_path):
        # Resuming [10, 30] as if it were [2, 30] would claim n < 10 as
        # tested and lose the hits (2,2,1) and (4,4,2).
        ckpt = str(tmp_path / "from10.ckpt")
        run_scan(
            tmp_path, "a", n_start=10, n_end=30, checkpoint_path=ckpt, stop_after_n=20
        )
        with pytest.raises(ScanError, match="n_start=10.*n_start=2"):
            scan(
                ScanConfig(
                    n_start=2,
                    n_end=30,
                    checkpoint_path=ckpt,
                    report_path=str(tmp_path / "b.csv"),
                    resume=True,
                )
            )

    def test_resume_stopping_before_checkpoint_refused(self, tmp_path):
        # Stopping at n = 3 would drop the recorded hit (4,4,2) and still
        # report n up to 60 as scanned.
        ckpt = str(tmp_path / "to60.ckpt")
        _, expected = run_scan(
            tmp_path, "a", n_start=2, n_end=60, checkpoint_path=ckpt, checkpoint_every=10
        )
        with pytest.raises(ScanError, match="n=60.*n=3"):
            run_scan(
                tmp_path, "a", n_start=2, n_end=60, checkpoint_path=ckpt,
                checkpoint_every=10, resume=True, stop_after_n=3,
            )
        assert (tmp_path / "a.csv").read_bytes() == expected
        assert load_checkpoint(ckpt).n == 60

    def test_resume_at_end_is_noop(self, tmp_path):
        ckpt = str(tmp_path / "done.ckpt")
        _, expected = run_scan(
            tmp_path, "d", n_start=2, n_end=30, checkpoint_path=ckpt
        )
        report, again = run_scan(
            tmp_path, "d", n_start=2, n_end=30, checkpoint_path=ckpt, resume=True
        )
        assert again == expected
        assert report.triples_checked == closed_form_triple_count(2, 30)


class TestCli:
    def test_value_golden(self, run_cli):
        assert run_cli(["value", "4", "4", "2"]) == (0, "1/1\n")
        assert run_cli(["value", "3", "1", "2"]) == (0, "1/6\n")

    def test_value_domain_error(self, run_cli):
        code, _ = run_cli(["value", "4", "5", "2"])
        assert code == 1
        code, _ = run_cli(["value", "4", "1", "4"])
        assert code == 1

    def test_usage_error_exit_code(self, run_cli):
        code, _ = run_cli(["scan", "--n-start", "2"])  # missing --n-end
        assert code == 1
        code, _ = run_cli(["nonsense"])
        assert code == 1
        code, _ = run_cli(["scan", "--n-start", "2", "--n-end", "50", "--jobs", "2"])
        assert code == 1  # the scan runs in one process and has no --jobs

    def test_scan_roundtrip(self, run_cli, tmp_path):
        out = str(tmp_path / "cli.csv")
        code, text = run_cli(["scan", "--n-start", "2", "--n-end", "50", "--out", out])
        assert code == 0
        assert "2 integer hit(s)" in text
        assert (tmp_path / "cli.csv").read_bytes() == (
            b"n,i,k,numerator,denominator\n2,2,1,1,1\n4,4,2,1,1\n"
        )

    def test_certify_gap_exit_code(self, run_cli, tmp_path):
        out = str(tmp_path / "gaps.tsv")
        code, text = run_cli(["certify", "--n-start", "4", "--n-end", "4", "--out", out])
        assert code == 2
        assert "3 gap(s)" in text
        assert (tmp_path / "gaps.tsv").read_text().splitlines() == [
            "GAP\t4\t1",
            "GAP\t4\t2",
            "GAP\t4\t3",
        ]

    def test_certify_clean_range(self, run_cli, tmp_path):
        code, text = run_cli(["certify", "--n-start", "13543", "--n-end", "13550"])
        assert code == 0 and "0 gap(s)" in text

    def test_theta_pass(self, run_cli):
        code, text = run_cli(["theta", "--x-lo", "1429", "--x-hi", "2000"])
        assert code == 0 and "PASS" in text

    def test_theta_domain_error(self, run_cli, capsys):
        code, _ = run_cli(["theta", "--x-lo", "2", "--x-hi", "10"])
        assert code == 1
        # Non-finite bounds are refused before sieving, with the domain message.
        for x_lo, x_hi in (("1429", "inf"), ("nan", "2000"), ("1429", "nan")):
            capsys.readouterr()
            code, _ = run_cli(["theta", "--x-lo", x_lo, "--x-hi", x_hi])
            assert code == 1 and "requires finite" in capsys.readouterr().err, (x_lo, x_hi)

    def test_margin(self, run_cli):
        code, text = run_cli(["margin", "50217"])
        assert code == 0 and "PASS" in text
        # The printed enclosure is rounded outward and keeps its width.
        printed_lo, printed_hi = text[text.index("[") + 1 : text.index("]")].split(", ")
        report = case1_margin(50217)
        lo, hi = Fraction(printed_lo), Fraction(printed_hi)
        assert lo <= report.margin_lo
        assert hi >= report.margin_hi
        assert lo < hi
        code, _ = run_cli(["margin", "50216"])
        assert code == 1

    def test_resume_from_corrupt_checkpoint_fails_cleanly(self, run_cli, tmp_path):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text("ESF-CKPT v2 n_start=2 n=10 hits=1\nHIT 4 4 2 6/4\n")
        code, _ = run_cli(
            [
                "scan", "--n-start", "2", "--n-end", "20",
                "--checkpoint", str(ckpt), "--resume",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1

    def test_resume_with_other_n_start_exits_1(self, run_cli, tmp_path):
        ckpt = str(tmp_path / "from10.ckpt")
        common = ["--n-end", "30", "--checkpoint", ckpt, "--out", str(tmp_path / "o.csv")]
        code, _ = run_cli(["scan", "--n-start", "10", "--stop-after-n", "20", *common])
        assert code == 0
        code, _ = run_cli(["scan", "--n-start", "2", "--resume", *common])
        assert code == 1

    def test_bad_checkpoint_path_exits_1(self, run_cli, tmp_path, capsys):
        ckpt = str(tmp_path / "no" / "ck")
        code, text = run_cli(
            [
                "scan", "--n-start", "2", "--n-end", "30", "--checkpoint-every", "10",
                "--checkpoint", ckpt, "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == 1 and text == ""
        assert ckpt in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("where", ["missing directory", "directory", "empty", "fifo"])
    def test_certify_unwritable_out_refused_before_work(
        self, run_cli, tmp_path, capsys, monkeypatch, where
    ):
        cli_module = importlib.import_module("esfscan.cli")
        called = []
        monkeypatch.setattr(cli_module, "sieve", lambda *args: called.append("sieve"))
        monkeypatch.setattr(cli_module, "certify_range", lambda *args: called.append("certify"))
        out = {
            "missing directory": str(tmp_path / "no" / "c.tsv"),
            "directory": str(tmp_path),
            "empty": "",
            "fifo": str(tmp_path / "fifo"),
        }[where]
        if where == "fifo":
            os.mkfifo(out)
        code, text = run_cli(["certify", "--n-start", "13543", "--n-end", "13550", "--out", out])
        assert (code, text) == (1, "")
        assert repr(out) in capsys.readouterr().err
        assert called == []
        assert os.listdir(tmp_path) == (["fifo"] if where == "fifo" else [])
        assert where != "fifo" or stat.S_ISFIFO(os.stat(out).st_mode)

    def test_resume_stopping_before_checkpoint_exits_1(self, run_cli, tmp_path):
        ckpt = str(tmp_path / "to60.ckpt")
        common = [
            "--n-start", "2", "--n-end", "60", "--checkpoint", ckpt,
            "--checkpoint-every", "10", "--out", str(tmp_path / "o.csv"),
        ]
        assert run_cli(["scan", *common])[0] == 0
        code, _ = run_cli(["scan", *common, "--resume", "--stop-after-n", "3"])
        assert code == 1

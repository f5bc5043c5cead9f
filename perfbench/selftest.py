"""Self-test of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selftest.py

It runs every workload, traced, at toy sizes (scan [2, 30], certify
[13543, 13600]) and checks that the run passes and prints every metric
name with its unit, and that BENCHMARK.json lists the same metrics.  It
then hands the certify and scan-low runs a deliberately wrong expected
output and checks that the failures are counted in ``fail_ratio`` and
make the command exit non-zero.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run
import workloads

TOY = workloads.Sizes(
    scan_low_end=30,
    scan_low_every=5,
    scan_low_stops=(10, 20),
    scan_high_n0=(40, 44),
    sieve_limit=13600,
    certify=(13543, 13600),
    theta=(1429, 13600),
    cert_sha256="d6777f53b22e43834b1abcd945c71e74c317882d0a6e73499bcab4f1ed5a52e4",
)


def invoke(argv, sizes):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, sizes=sizes)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    code, lines, result = invoke(["--workload", "all", "--seed", "3", "--seconds", "0"], TOY)
    expect(code == 0, f"toy run exited {code}")
    expect(result["correct"] and result["failed"] == 0, f"toy run failed: {result}")
    printed = [line.split() for line in lines[:-1]]
    for name, unit, _ in run.END_TO_END + run.PER_LAYER:
        expect(
            any(name in words and words[-1] == unit for words in printed),
            f"metric {name} not printed with unit {unit}",
        )
    for label in ("(triples_per_s)", "(pairs_per_s)", "fail_ratio"):
        expect(any(label in words for words in printed), f"{label} not printed")
    for key, metric in result["metrics"].items():
        expect(
            metric["unit"] == run.UNITS[key.split(".", 1)[1]], f"{key} has unit {metric['unit']}"
        )

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    expect(declared == run.UNITS, "BENCHMARK.json metrics differ from run.py's tables")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.NAMES), "workload names")

    wrong = dataclasses.replace(TOY, cert_sha256="0" * 64, scan_low_report="n,i,k\n")
    for name in ("certify-full", "scan-low"):
        argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"]
        code, lines, result = invoke(argv, wrong)
        expect(code != 0, f"{name}: a wrong expected output still exited 0")
        expect(not result["correct"], f"{name}: a wrong expected output still reads correct")
        expect(result["failed"] >= 1, f"{name}: the wrong output was not counted as failed")
        ratio = [words for words in map(str.split, lines) if words[:1] == ["fail_ratio"]]
        expect(bool(ratio) and float(ratio[0][1]) > 0, f"{name}: fail_ratio is not above 0")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""esfscan benchmark: end-to-end and per-layer numbers from one command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-low --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --out BENCH_x.json

Each workload (see workloads.py) is one closed-loop client.  Every
repetition runs in a fresh interpreter (rep.py), back to back, for as
many repetitions as fit in ``--seconds`` (at least one); each end-to-end
metric is the median over the repetitions.  ``setup_s`` is the median over
several extra set-up-only interpreters, half started before the
repetitions and half after them, plus the repetitions' own set-up.
``--trace 1`` adds one traced repetition whose spans give the per-layer
metrics (and, on scan-high, one untraced ``jobs=1`` repetition as the
single-threaded baseline).

Every line but the last is for people: the environment, then each metric
with its median, quartiles, sample count and unit.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

# (name, unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("scan.triples", "count", "higher"),
    ("scan.us_per_triple", "us", "lower"),
    ("scan.worker_imbalance", "ratio", "lower"),
    ("scan.coord_s", "s", "lower"),
    ("scan.speedup_2v1", "ratio", "higher"),
    ("symfun.advance_s", "s", "lower"),
    ("symfun.omit_us_per_triple", "us", "lower"),
    ("symfun.k_cap_calls", "count", "lower"),
    ("symfun.k_cap_misses", "count", "lower"),
    ("symfun.k_cap_s", "s", "lower"),
    ("symfun.oracle_calls", "count", "higher"),
    ("rational.make_rational_calls", "count", "lower"),
    ("rational.make_rational_s", "s", "lower"),
    ("primes.sieve_s", "s", "lower"),
    ("primes.count", "count", "higher"),
    ("primes.largest_leq_calls", "count", "lower"),
    ("certify.pairs", "count", "higher"),
    ("certify.gaps", "count", "lower"),
    ("certify.find_s", "s", "lower"),
    ("certify.self_s", "s", "lower"),
    ("certify.us_per_pair", "us", "lower"),
    ("certify.write_s", "s", "lower"),
    ("certify.bytes_written", "B", "lower"),
    ("theta.checks", "count", "higher"),
    ("theta.us_per_check", "us", "lower"),
    ("theta.min_lower_slack", "1", "higher"),
    ("theta.min_upper_slack", "1", "higher"),
    ("theta.max_enclosure_width", "1", "lower"),
    ("margin.calls", "count", "higher"),
    ("margin.s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.bytes_written", "B", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes_read", "B", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

SETUP_PROBES = 12
RUN_BUDGET_S = 170.0  # a run must end within 180 s
REFERENCE_LOOP_N = 2_000_000


class Rep(NamedTuple):
    """One finished repetition: its parsed result, or why it produced none."""

    result: Optional[dict]
    duration: float
    error: str = ""


def spawn(spec: dict, mode: str, workdir: str, timeout: float, **extra) -> Rep:
    """Run rep.py in a fresh interpreter and wait for it and its workers to end."""
    payload = json.dumps(dict(spec, mode=mode, workdir=workdir, **extra))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, REP, payload],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return Rep(None, time.monotonic() - start, f"timed out after {timeout:.0f} s")
    finally:
        _kill_group(proc.pid)
    duration = time.monotonic() - start
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return Rep(None, duration, f"exit {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start
    return Rep(result, duration)


def _kill_group(pgid: int) -> None:
    # Forked scan workers share the repetition's process group.
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.PRODUCTION):
    """Run one workload.

    Returns the spec, the end-to-end samples, the per-layer numbers, the
    attempted and failed leg calls, notes on each failure and the
    environment the repetitions reported.
    """
    spec = workloads.make_spec(name, seed, sizes)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    started = time.monotonic()

    def left() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    try:
        # Half the set-up probes go after the repetitions, so the median
        # spans the run rather than one moment of a host whose speed drifts.
        setups = [spawn(spec, "setup", work, left()) for _ in range(SETUP_PROBES // 2)]
        reps: List[Rep] = []
        timed_from = time.monotonic()
        while True:
            rep = spawn(spec, "run", work, left())
            reps.append(rep)
            # Start another repetition only if it should end within the
            # window and leave room for the traced one (about two untraced).
            elapsed = time.monotonic() - timed_from
            reserve = 2.5 * rep.duration if trace else 0.0
            if rep.result is None or elapsed + rep.duration > seconds:
                break
            if left() < rep.duration + reserve:
                break
        setups += [spawn(spec, "setup", work, left()) for _ in range(SETUP_PROBES // 2)]
        traced = single = None
        if trace:
            trace_path = os.path.join(WORK_ROOT, f"{name}-seed{seed}.trace.json")
            traced = spawn(spec, "trace", work, left(), trace_path=trace_path)
            if name == "scan-high":
                single = spawn(spec, "run", work, left(), jobs=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [r for r in reps + [traced, single] if r is not None]
    attempted = workloads.OPS[name] * len(runs)
    failed = 0
    notes = []
    for r in runs:
        if r.result is None:
            failed += workloads.OPS[name]
            notes.append(r.error)
        else:
            failed += len(r.result["failures"])
            notes.extend(f"{op}: {why}" for op, why in r.result["failures"].items())
    notes.extend(s.error for s in setups if s.result is None)

    good = [r.result for r in reps if r.result is not None]
    samples: Dict[str, List[float]] = {
        "wall_s": [g["wall_s"] for g in good],
        "throughput_per_s": [g["work"] / g["work_s"] for g in good if g["work_s"] > 0],
        "setup_s": [s.result["setup_s"] for s in setups if s.result] + [
            g["setup_s"] for g in good
        ],
        "peak_rss_mb": [g["peak_rss_mb"] for g in good],
    }
    layer = dict.fromkeys(UNITS, 0)
    for key, _, _ in END_TO_END:
        layer.pop(key)
    wall = statistics.median(samples["wall_s"]) if samples["wall_s"] else 0.0
    if traced is not None and traced.result is not None:
        layer.update(traced.result.get("layer", {}))
        if wall:
            layer["trace.overhead"] = traced.result["wall_s"] / wall
    if single is not None and single.result is not None and wall:
        layer["scan.speedup_2v1"] = single.result["wall_s"] / wall
    if name == "certify-full" and good:
        # From the untraced repetitions: the traced one also pays for the wrappers.
        pairs_s = statistics.median(g["work_s"] for g in good)
        layer["certify.us_per_pair"] = pairs_s / good[0]["work"] * 1e6
    env = good[0]["env"] if good else {}
    return spec, samples, layer, attempted, failed, notes, env


def summarize(values: List[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def reference_loop() -> float:
    """A fixed pure-Python loop; a slow host shows here, no metric is divided by it."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    # The ceiling keeps git from taking a repository above the checkout for this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: Optional[List[str]] = None, sizes=workloads.PRODUCTION) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write every summary to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "esfscan", "__init__.py")):
        print(f"no esfscan sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    trace = args.workload == "all" or args.trace == 1
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "reference_loop_s": reference_loop(),
    }
    report = {"env": env, "workloads": {}}
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for name in names:
        spec, samples, layer, att, fail, notes, rep_env = measure(
            name, args.seed, args.seconds, trace, sizes
        )
        env.update(rep_env)
        attempted += att
        failed += fail
        summary = {key: summarize(vals) for key, vals in samples.items()}
        inputs = {k: v for k, v in spec.items() if k not in ("workload", "sizes")}
        print(f"{name} inputs={json.dumps(inputs, sort_keys=True)}")
        _print_end_to_end(name, summary, att, fail)
        if trace:
            for key, unit, _ in PER_LAYER:
                print(f"  {key:30s} {layer[key]!r} {unit}")
        for note in notes:
            print(f"  FAILED {note}")
        # End-to-end metrics come from untraced repetitions, per-layer ones from the traced one.
        prefix = f"{name}." if len(names) > 1 else ""
        if len(names) > 1 or not trace:
            for key, unit, _ in END_TO_END:
                metrics[prefix + key] = {"value": summary[key]["median"], "unit": unit}
        if trace:
            for key, unit, _ in PER_LAYER:
                metrics[prefix + key] = {"value": layer[key], "unit": unit}
        report["workloads"][name] = {
            "inputs": inputs,
            "attempted": att,
            "failed": fail,
            "notes": notes,
            "end_to_end": summary,
            "layer": layer if trace else None,
        }
    print("env " + json.dumps(env, sort_keys=True))
    correct = failed == 0 and attempted > 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _print_end_to_end(name: str, summary: dict, attempted: int, failed: int) -> None:
    work = "(pairs_per_s)" if name == "certify-full" else "(triples_per_s)"
    for key, unit, _ in END_TO_END:
        s = summary[key]
        label = f"{key} {work}" if key == "throughput_per_s" else key
        print(
            f"  {label:30s} median {s['median']!r} q1 {s['q1']!r} q3 {s['q3']!r}"
            f" n={s['n']} {unit}"
        )
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':30s} {ratio!r} ({failed}/{attempted}) 1")


if __name__ == "__main__":
    sys.exit(main())

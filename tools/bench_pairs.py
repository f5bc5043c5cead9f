"""Compare two checkouts on one benchmark workload in alternating pairs.

For each seed the benchmark runs once in each checkout, one after the
other: the parent first on odd seeds, the change first on even seeds, so
a host whose speed drifts favours neither side.  Each run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

started in the checkout's own directory, with W one of the workloads and
T the ``run_seconds`` of the parent's BENCHMARK.json; the run's last
output line (one JSON object) gives the end-to-end metrics.  For every end-to-end metric
in the parent's BENCHMARK.json this prints each side's median and
quartiles over the seeds, how many pairs the change won (ties count for
neither side), and whether the change shows a gain: it won at least nine
tenths of the pairs and its median beats the parent's by more than the
distance between the parent's quartiles.  It prints WORSE instead when
the change's median is worse than the parent's by more than the metric's
``bound`` (a fraction of the parent's median), and ``unresolved`` when
neither applies, the parent's quartiles lie further apart than the bound
(``bound`` times the parent's median), and not every run of the change
beats every run of the parent: the runs then spread too widely to show
the metric unchanged.  It prints each side's ``failed``/``attempted``
operations, summed over its runs.  Standard library only:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload certify-full --seeds 1-10
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload certify-full --seeds 4242

The exit code is 1 if any run failed or reported ``correct: false``, or
if any end-to-end metric has no sample from some run; a WORSE or
``unresolved`` verdict leaves it 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def parse_seeds(text: str) -> List[int]:
    """'3' -> [3]; '1-10' -> [1, ..., 10]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Tuple[bool, Dict, Dict]:
    """One benchmark run in `checkout`: (correct, {metric: value},
    {"failed": f, "attempted": a}); the counts are absent if the run
    printed no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return False, {}, {}
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    counts = {key: result[key] for key in ("failed", "attempted") if key in result}
    return proc.returncode == 0 and bool(result.get("correct")), values, counts


def spread(values: List[float]) -> Tuple[float, float, float]:
    """(median, q1, q3), quartiles as perfbench/run.py takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="N or FIRST-LAST")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}, got {args.workload!r}")
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    samples: Dict[str, Dict[str, List[float]]] = {side: {} for side in sides}
    ops = {side: {"failed": 0, "attempted": 0} for side in sides}
    all_correct = complete = True
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {}
        for side in order:
            correct, pair[side], counts = run_once(sides[side], args.workload, seed, seconds)
            all_correct &= correct
            for key, value in counts.items():
                ops[side][key] += value
            if not correct:
                print(f"seed {seed}: {side} run failed or was not correct")
        for side, values in pair.items():
            for name, value in values.items():
                samples[side].setdefault(name, []).append(value)
        shown = " ".join(
            f"{name} {pair['parent'].get(name, float('nan')):.4g}->"
            f"{pair['change'].get(name, float('nan')):.4g}"
            for name, _, _ in metrics
        )
        print(f"seed {seed} ({order[0]} first): {shown}", flush=True)

    print(f"{args.workload}, {len(args.seeds)} pairs, {seconds:g} s per run,"
          " median [q1, q3], parent -> change")
    print("  failed/attempted: " + ", ".join(
        f"{side} {ops[side]['failed']}/{ops[side]['attempted']}" for side in sides))
    for name, better, bound in metrics:
        parent, change = samples["parent"].get(name, []), samples["change"].get(name, [])
        if len(parent) != len(args.seeds) or len(change) != len(args.seeds):
            print(f"  {name}: missing samples")
            complete = False
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(parent), spread(change)
        gap, iqr = sign * (cm - pm), pq3 - pq1
        if gap < -bound * abs(pm):
            verdict = f"WORSE (beyond the bound {bound:g} of the parent's median)"
        elif wins >= 0.9 * len(parent) and gap > iqr:
            verdict = "GAIN"
        elif iqr > bound * abs(pm) and not all(sign * (c - p) > 0 for p in parent for c in change):
            verdict = f"unresolved (parent IQR wider than the bound {bound:g} of its median)"
        else:
            verdict = "no gain shown"
        print(
            f"  {name:18s} {pm:.4g} [{pq1:.4g}, {pq3:.4g}] -> {cm:.4g} [{cq1:.4g}, {cq3:.4g}];"
            f" change won {wins}/{len(parent)}; median gap {gap:+.3g} ({better} is better)"
            f" vs parent IQR {iqr:.3g}; {verdict}"
        )
    return 0 if all_correct and complete else 1


if __name__ == "__main__":
    sys.exit(main())

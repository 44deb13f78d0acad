#!/usr/bin/env python3
"""Paired comparison of two source trees with the same benchmark code.

    python3 benchmarks/compare.py --parent ../parent-checkout --change . \\
        [--workload count-large ...]

For each workload it makes ten pairs of untraced runs of ``run.py``, one per
tree, both with the same seed (1 to 10), alternating which tree runs first.
For each end-to-end metric it prints each side's median and quartiles, the
fraction of pairs the change wins (ties count for neither side) and a
verdict, using the bounds in BENCHMARK.json:

* improved: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's own spread (q3 - q1);
* unresolved: the spread of either side, as a share of its median, is wider
  than the bound, and not every change run beats every parent run;
* no worse: the change's median is within the bound of the parent's;
* regressed: otherwise.

A run that reports ``correct: false`` is listed and makes the workload fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, SPEC_PATH, WORKLOADS, describe

PAIRS = 10  # the 9-of-10 rule below needs at least ten pairs


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--root", str(root)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    sign = 1 if better == "lower" else -1   # sign * (a - b) > 0 means b is better than a
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    win_fraction = wins / len(parent)
    p, c = describe(parent), describe(change)
    spread = max((d["q3"] - d["q1"]) / d["median"] for d in (p, c))
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    every_run_better = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    if win_fraction >= 0.9 and -worse_by * p["median"] > p["q3"] - p["q1"]:
        return win_fraction, "improved"
    if spread > bound and not every_run_better:
        return win_fraction, "unresolved"
    if worse_by <= bound:
        return win_fraction, "no worse"
    return win_fraction, "regressed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads(SPEC_PATH.read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    status = 0
    for workload in args.workload or list(WORKLOADS):
        runs = {"parent": [], "change": []}
        for seed in range(1, PAIRS + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                result = run_once(sides[side], workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"{workload} {side} seed {seed}: "
                          f"{result['failed']} of {result['attempted']} cases failed")
                    status = 1
                runs[side].append(result["metrics"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[name]["value"] for r in runs["parent"]]
            change = [r[name]["value"] for r in runs["change"]]
            win_fraction, outcome = verdict(parent, change, metric["better"], metric["bound"])
            p, c = describe(parent), describe(change)
            print(f"{workload} {name} ({metric['unit']}, bound {metric['bound']}): "
                  f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
                  f"change wins {win_fraction:.0%} of {len(parent)}  -> {outcome}")
            if outcome == "regressed":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

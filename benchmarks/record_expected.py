#!/usr/bin/env python3
"""Record the expected output of every benchmark case into expected.json.

    python3 benchmarks/record_expected.py

Run this only at a commit whose outputs are trusted: every later run is
checked for exact equality against what it writes.  Before writing, each
case must pass the checks that do not depend on recorded values (reference
data for p <= 9 and the per-kind identities in run.check_case).
"""

import json
import subprocess
import sys

from run import BENCH_DIR, SMOKE, WORKLOADS, _golden_counts, check_case, child_env, run_group


def main() -> int:
    root = BENCH_DIR.parent
    env = child_env(root)
    golden = _golden_counts(root)
    cases = {}
    for case in sorted({c for group in (*WORKLOADS.values(), *SMOKE.values()) for c in group}):
        report = run_group(root, env, "plain", [case])
        record = report["cases"][0] if "cases" in report else {"error": report["error"]}
        if "error" in record:
            print(f"{case}: {record['error']}", file=sys.stderr)
            return 1
        output = record["output"]
        problems = check_case(case, output, report.get("stdout", ""), {case: output}, golden)
        if problems:
            print(f"{case}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        cases[case] = output
        print(f"{case}: {record['seconds']:.3f} s")
    sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                         text=True).stdout.strip()
    (BENCH_DIR / "expected.json").write_text(
        json.dumps({"recorded_at": sha, "cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

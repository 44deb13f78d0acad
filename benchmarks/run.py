#!/usr/bin/env python3
"""plexcount benchmark: exact counts and polynomials, each pass in a fresh process.

Run from the repository root:

    python3 benchmarks/run.py --workload count-large --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Every pass runs its cases in a new interpreter (``cli-cold``: one new
interpreter per command), so caches start cold, as they do for a script or a
CLI user.  Passes run one after another (closed loop, single-threaded) until
the next one would end after ``--seconds``; there is always at least one.
The seed shuffles the cases within each pass.  Every output is checked
exactly: against ``expected.json`` (recorded at a trusted commit with
``record_expected.py``), against the bundled reference data for p <= 9, and
by an internal identity per case kind (see ``check_case``).

With ``--trace 0`` the end-to-end metrics come from untraced passes:

* wall_s: wall time of one pass, process start to exit, less the time the
  child spends summarising outputs for the checks (median over passes);
* setup_s: CPU time of the child's main thread from process start to
  ``import plexcount`` done, or to the CLI's ``main`` entered on cli-cold
  (median over every process of the run);
* peak_rss_mb: peak resident set (VmHWM) of the pass's largest process (median).

With ``--trace 1`` each untraced pass is followed by a traced one, and the
per-layer metrics come from the traced passes (see ``tracer.py``).

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment and every pass, is written under ``results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"

# Why each workload exists, and which ROADMAP item it exercises or bypasses,
# is in README.md next to this file.
WORKLOADS = {
    "count-large": ["count 20 1", "count 26 3", "count 28 2", "count 30 1"],
    "poly-wide": ["poly 11 5", "poly 12 3", "poly 11 4", "poly 18 1"],
    "oracle-check": ["verify all", "exhaustive 6 1", "exhaustive 6 3", "burnside 10 4"],
    "cli-cold": [
        "cli count --p 9 --n 3",
        "cli poly --p 10 --n 3",
        "cli cycle-index --p 10 --r 4 --format json-like",
        "cli cycle-index --p 8 --r 4 --format latex --unmerged",
        "cli table --max-p 9 --max-n 3",
        "cli verify --scope table",
    ],
}
# Tiny cases with the same shape, for --smoke.
SMOKE = {
    "count-large": ["count 8 1", "count 12 2"],
    "poly-wide": ["poly 7 2", "poly 9 3"],
    "oracle-check": ["verify table", "exhaustive 4 2", "burnside 6 3"],
    "cli-cold": ["cli count --p 6 --n 2", "cli cycle-index --p 5 --r 2 --format latex"],
}
# Layer counters that each smoke workload must move, so that a target the
# tracer silently stopped reaching shows up as a failure.
SMOKE_LAYERS = {
    "count-large": ["cycle_index.induced_cycle_type.calls", "partitions.power_cycle_type.calls",
                    "partitions.partitions_of.cache_hits"],
    "poly-wide": ["counting.poly_mul.calls", "counting.substitute.calls"],
    "oracle-check": ["oracle.exhaustive_plex_histogram.calls",
                     "oracle.burnside_polynomial.calls", "verify.check_counts.calls",
                     "golden.load_golden.calls"],
    "cli-cold": ["cli.main.calls", "render.calls"],
}
CHILD_TIMEOUT_S = 150


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PLEXCOUNT_THREADS", None)  # the oracle would split its sweep across threads
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as an install does
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_group(root: Path, env: dict, mode: str, cases: list[str]) -> dict:
    """Run cases in one fresh interpreter and return its timings and report."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), mode, *cases], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"wall": time.monotonic() - start, "error": "timed out"}
    wall = time.monotonic() - start
    try:
        report = json.loads(proc.stderr.rstrip().rsplit("\n", 1)[-1])
    except ValueError:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"wall": wall, "error": f"exit {proc.returncode}: {tail[0]}"}
    report["wall"] = wall - report.get("check_s", 0.0)
    report["setup_wall"] = report.pop("ready") - start
    if cases[0].startswith("cli ") and mode != "probe":
        output = report["cases"][0].get("output")
        if output is not None:
            output["returncode"] = proc.returncode
            output["stdout_sha256"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
        report["stdout"] = proc.stdout
    return report


def _golden_counts(root: Path):
    """load_golden().counts of the tree under test, or None if it cannot load."""
    sys.path.insert(0, str(root / "src"))
    try:
        from plexcount.golden import load_golden
        return load_golden().counts
    except Exception:  # reported as a failed check on every case that needs it
        return None
    finally:
        sys.path.pop(0)


def _cli_flag(args: list[str], flag: str) -> int:
    return int(args[args.index(flag) + 1])


def check_case(case: str, output: dict, stdout: str, expected: dict, golden) -> list[str]:
    """Reasons why a case's output is wrong; empty when it is exactly right."""
    problems = []
    if case not in expected:
        problems.append("no recorded value")
    elif output != expected[case]:
        problems.append("differs from the recorded value")

    def matches_golden(p: int, n: int, value: int) -> None:
        if p > 9:
            return
        if golden is None:
            problems.append("reference data did not load")
        elif golden.get((p, n)) != value:
            problems.append(f"count ({p},{n}) = {value} differs from load_golden()")

    kind, *args = case.split()
    if kind == "count":
        matches_golden(int(args[0]), int(args[1]), int(output["value"], 16))
    elif kind == "poly":
        if output["at_one"] != output["count"]:
            problems.append("plex_polynomial(p,n)(1) != plex_count(p,n)")
        matches_golden(int(args[0]), int(args[1]), int(output["count"], 16))
    elif kind == "verify":
        if output["passed"] != output["total"]:
            problems.append(f"{output['total'] - output['passed']} checks failed")
    elif kind == "exhaustive":
        if output["histogram"] != output["poly"]:
            problems.append("exhaustive histogram != plex_polynomial coefficients")
        matches_golden(int(args[0]), int(args[1]), sum(output["histogram"]))
    elif kind == "burnside":
        if output["sha256"] != output["poly_sha256"]:
            problems.append("burnside_polynomial(p,r) != plex_polynomial(p,r-1)")
    elif kind == "cli":
        if output["exit"] != 0 or output["returncode"] != 0:
            problems.append(f"exit status {output['exit']}/{output['returncode']}")
        elif args[0] == "count":
            matches_golden(_cli_flag(args, "--p"), _cli_flag(args, "--n"), int(stdout))
        elif args[0] == "table":
            rows = [line.split() for line in stdout.splitlines()[1:]]
            for row in rows:
                for n, cell in enumerate(row[1:], start=1):
                    matches_golden(int(row[0]), n, int(cell))
            if len(rows) != _cli_flag(args, "--max-p"):
                problems.append(f"table has {len(rows)} rows")
    return problems


def run_pass(root: Path, env: dict, cases: list[str], traced: bool, rng: random.Random,
             expected: dict, golden) -> dict:
    order = list(cases)
    rng.shuffle(order)
    groups = [[case] for case in order] if order[0].startswith("cli ") else [order]
    mode = "traced" if traced else "plain"
    result = {"wall": 0.0, "setup": [], "setup_wall": [], "rss_kb": 0, "import_s": [],
              "numpy_loaded": 0, "layers": {}, "cases": {}}
    for group in groups:
        report = run_group(root, env, mode, group)
        result["wall"] += report["wall"]
        if "error" in report:
            for case in group:
                result["cases"][case] = {"problems": [report["error"]]}
            continue
        result["setup"].append(report["setup_cpu"])
        result["setup_wall"].append(report["setup_wall"])
        result["rss_kb"] = max(result["rss_kb"], report["rss_kb"])
        result["import_s"].append(report["import_s"])
        result["numpy_loaded"] = max(result["numpy_loaded"], int(report["numpy_loaded"]))
        for key, value in report.get("layers", {}).items():
            if key == "counting.max_coeff_bits":
                result["layers"][key] = max(result["layers"].get(key, 0), value)
            else:
                result["layers"][key] = result["layers"].get(key, 0) + value
        for record in report["cases"]:
            case = record["case"]
            if "error" in record:
                problems = [record["error"]]
            else:
                problems = check_case(case, record["output"], report.get("stdout", ""),
                                      expected, golden)
            if report.get("wrappers_left"):
                problems.append(f"{report['wrappers_left']} wrappers left patched")
            if report.get("missing_targets"):
                problems.append(f"tracer found no {', '.join(report['missing_targets'])}")
            result["cases"][case] = {"seconds": record["seconds"],
                                     "output": record.get("output"), "problems": problems}
    return result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced_pass: dict, names: list[str]) -> dict[str, float]:
    layers = traced_pass["layers"]
    values = {name: layers.get(name, 0) for name in names}
    hits = layers.get("partitions.partitions_of.cache_hits", 0)
    values["partitions.partitions_of.hit_ratio"] = _ratio(
        hits, hits + layers.get("partitions.partitions_of.cache_misses", 0))
    values["cycle_index.inversion_steps_per_type"] = _ratio(
        layers.get("cycle_index.fixed_subset_count.calls", 0),
        layers.get("cycle_index.induced_cycle_type.calls", 0))
    values["cli.import_s"] = statistics.median(traced_pass["import_s"] or [0.0])
    values["cli.numpy_loaded"] = traced_pass["numpy_loaded"]
    values["traced_wall_s"] = traced_pass["wall"]
    return values


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(root: Path, cases: list[str], seed: int, seconds: float, trace: bool,
                 spec: dict, expected: dict) -> dict:
    rng = random.Random(seed)
    env = child_env(root)
    golden = _golden_counts(root)
    run_group(root, env, "probe", cases[:1])  # writes bytecode caches; not measured
    begin = time.monotonic()
    plain, traced, rounds = [], [], []
    while True:
        started = time.monotonic()
        plain.append(run_pass(root, env, cases, False, rng, expected, golden))
        if trace:
            traced.append(run_pass(root, env, cases, True, rng, expected, golden))
            for case, record in traced[-1]["cases"].items():
                if record.get("output") != plain[-1]["cases"][case].get("output"):
                    record["problems"].append("traced output differs from untraced")
        rounds.append(time.monotonic() - started)
        if time.monotonic() - begin + statistics.median(rounds) > seconds:
            break

    passes = plain + traced
    attempted = sum(len(p["cases"]) for p in passes)
    problems = [f"{case}: {problem}" for p in passes for case, record in p["cases"].items()
                for problem in record["problems"]]
    failed = sum(1 for p in passes for record in p["cases"].values() if record["problems"])

    walls = [p["wall"] for p in plain]
    samples = {
        "wall_s": walls,
        "setup_s": [s for p in plain for s in p["setup"]],
        "peak_rss_mb": [p["rss_kb"] / 1024 for p in plain if p["rss_kb"]],
    }
    wanted = spec["end_to_end"]
    if trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        per_pass = [layer_metrics(p, names) for p in traced]
        samples.update({name: [values[name] for values in per_pass] for name in names})
        samples["trace_overhead"] = [statistics.median(samples["traced_wall_s"])
                                     / statistics.median(walls)]
        wanted = wanted + spec["per_layer"]
    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"]) or [0.0]  # no sample: every pass failed
        metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"],
                                   **describe(values)}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "passes": plain, "traced_passes": traced}


def environment(root: Path, seed: int) -> dict:
    sha = dirty = None
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        try:
            sha = git("rev-parse", "HEAD") or None
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu, "nproc": os.cpu_count(), "seed": seed}


def _strip_outputs(passes: list[dict]) -> list[dict]:
    return [{**p, "cases": {case: {k: v for k, v in record.items() if k != "output"}
                            for case, record in p["cases"].items()}}
            for p in passes]


def smoke(root: Path, spec: dict, expected: dict) -> int:
    """Tiny cases of every workload, untraced then traced; exit status 1 on any problem.

    run_workload already fails a case whose traced output differs from its
    untraced output, whose process left a wrapper patched, or whose tracer
    could not find one of its targets.
    """
    bad = 0
    for workload, cases in SMOKE.items():
        result = run_workload(root, cases, 0, 0, True, spec, expected)
        problems = list(result["problems"])
        layers = result["traced_passes"][0]["layers"]
        idle = [name for name in SMOKE_LAYERS[workload] if not layers.get(name)]
        if idle:
            problems.append(f"layer counters at 0: {idle}")
        bad += bool(problems)
        print(f"smoke {workload}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                        help="source tree to measure (default: this checkout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cases of every workload, traced and untraced")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "plexcount" / "__init__.py").is_file():
        print(f"error: no plexcount source under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    expected = json.loads((BENCH_DIR / "expected.json").read_text())["cases"]
    if args.smoke:
        return smoke(root, spec, expected)
    if args.workload is None:
        parser.error("--workload is required without --smoke")

    result = run_workload(root, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), spec, expected)
    env = environment(root, args.seed)
    print("environment: " + json.dumps(env))
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['median']:.6g} {metric['unit']} (median; q1 {metric['q1']:.6g},"
              f" q3 {metric['q3']:.6g}; n={metric['n']})")
    error_rate = result["failed"] / result["attempted"]
    print(f"error_rate: {error_rate:.6g} ({result['failed']} of {result['attempted']} cases)")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "error_rate": error_rate,
              "attempted": result["attempted"], "failed": result["failed"],
              "problems": result["problems"], "metrics": result["metrics"],
              "passes": _strip_outputs(result["passes"]),
              "traced_passes": _strip_outputs(result["traced_passes"])}
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {out_path.relative_to(BENCH_DIR.parent)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                    for m in (spec["per_layer"] if args.trace else spec["end_to_end"])},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs benchmark cases inside one fresh interpreter and reports on stderr.

    python3 benchmarks/child.py MODE CASE [CASE ...]

MODE is ``probe`` (import only), ``plain`` or ``traced``.  A case is a
space-separated string such as ``count 40 1`` or ``cli count --p 9 --n 3``;
a ``cli`` case runs alone, and its command's output is this process's
stdout, exactly as from the ``plexcount`` console script.  The last line of
stderr is one JSON report: the monotonic time at which the package was
ready, the main thread's CPU time up to then, the import time, peak RSS, one
record per case (its duration and a canonical summary of its output, or its
error) and, when traced, the layer metrics.  Integers are summarised in
hexadecimal, which has no length limit.  Canonical summaries are computed
after the timed calls, and after the tracer is removed; ``check_s`` is the
time they took, which the parent takes off the process's wall time.
"""

import sys
import time


def _digest(items) -> str:
    import hashlib
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()


def _call(plexcount, case: str):
    kind, *args = case.split()
    if kind == "cli":
        return plexcount.cli.main(args)
    if kind == "verify":
        return plexcount.run_scope(args[0])
    a, b = int(args[0]), int(args[1])
    if kind == "count":
        return plexcount.plex_count(a, b)
    if kind == "poly":
        return plexcount.plex_polynomial(a, b)
    if kind == "exhaustive":
        return plexcount.exhaustive_plex_histogram(a, b)
    if kind == "burnside":
        return plexcount.burnside_polynomial(a, b)
    raise ValueError(f"unknown case {case!r}")


def _summary(plexcount, case: str, result) -> dict:
    kind, *args = case.split()
    if kind == "cli":
        return {"exit": result}
    if kind == "verify":
        return {"sha256": _digest(r.line() for r in result),
                "passed": sum(r.passed for r in result), "total": len(result)}
    a, b = int(args[0]), int(args[1])
    if kind == "count":
        return {"value": hex(result)}
    if kind == "poly":
        return {"sha256": _digest(result.coeffs), "degree": result.degree,
                "at_one": hex(result(1)), "count": hex(plexcount.plex_count(a, b))}
    if kind == "exhaustive":
        return {"histogram": result, "poly": list(plexcount.plex_polynomial(a, b).coeffs)}
    return {"sha256": _digest(result.coeffs),
            "poly_sha256": _digest(plexcount.plex_polynomial(a, b - 1).coeffs)}


def _peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ru_maxrss also counts the parent's resident set, which Linux carries into
    the child's figure across vfork and exec; VmHWM belongs to this image only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    mode, cases = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    if cases and cases[0].startswith("cli "):
        import plexcount.cli
    else:
        import plexcount
    import_s = time.perf_counter() - start
    ready = time.monotonic()  # CLOCK_MONOTONIC: comparable with the parent's clock
    # CPU time of the main thread since the process started.  Unlike wall
    # time it leaves out waiting for a core, and the threads numpy starts.
    setup_cpu = time.thread_time()
    numpy_loaded = "numpy" in sys.modules

    import json

    report = {"ready": ready, "setup_cpu": setup_cpu, "import_s": import_s,
              "numpy_loaded": numpy_loaded}
    if mode != "probe":
        tracer = None
        if mode == "traced":
            import plexcount.cli  # so that every layer's module is there to wrap
            from tracer import Tracer  # the script's own directory is on sys.path
            tracer = Tracer()
            tracer.install()
            report["missing_targets"] = tracer.missing
        results, records = [], []
        for case in cases:
            begin = time.perf_counter()
            try:
                results.append(_call(plexcount, case))
            except Exception as exc:  # a failed case is reported, the others still run
                results.append(exc)
            records.append({"case": case, "seconds": time.perf_counter() - begin})
        sys.stdout.flush()
        done = time.perf_counter()
        report["rss_kb"] = _peak_rss_kb()  # before the summaries below allocate
        if tracer is not None:
            report["wrappers_left"] = tracer.remove()
            report["layers"] = tracer.metrics()
        for record, result in zip(records, results):
            if isinstance(result, Exception):
                record["error"] = f"{type(result).__name__}: {result}"
            else:
                record["output"] = _summary(plexcount, record["case"], result)
        report["cases"] = records
        report["check_s"] = time.perf_counter() - done
    else:
        report["rss_kb"] = _peak_rss_kb()
    sys.stderr.write("\n" + json.dumps(report) + "\n")


if __name__ == "__main__":
    main()

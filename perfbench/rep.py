"""One repetition: a fresh interpreter sets cck up and makes one pass.

    python3 rep.py SPAWN TRACE_FILE < ops.json

SPAWN is the CLOCK_MONOTONIC time at which the parent started this
process, so the set-up time counts interpreter start-up.  ops.json holds
{"argv": [...], "trace": [names to wrap], "cpus": [allowed CPUs]}; with a
non-empty trace list the spans are written to TRACE_FILE.  Before each
operation, outside the timed region, the process pins itself to the
fastest allowed CPU and times the spin there; after it, it times the
spin again (see cpu.py).  The result goes to stdout as one JSON
document: set-up seconds, each operation's exit code, output,
nanoseconds inside cli.main and the faster of the two spins around it,
the peak RSS, and the per-span summary.
"""

import sys
import time


def main() -> int:
    spawn = float(sys.argv[1])
    import cck.cli as cli

    cli.build_parser()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn

    import contextlib
    import io
    import json
    import resource
    import traceback

    from cpu import pin_fastest, speed_ns
    from tracer import Tracer

    job = json.load(sys.stdin)
    tracer = Tracer() if job["trace"] else None
    absent = tracer.install(job["trace"]) if tracer else []
    results = []
    for index, argv in enumerate(job["argv"]):
        before = pin_fastest(job["cpus"])
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op = index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception is a failed operation, not a crash
                code = "exception"
                traceback.print_exc()
            ns = time.perf_counter_ns() - start
        spin_ns = min(before, speed_ns())
        results.append({"code": code, "ns": ns, "spin_ns": spin_ns,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        with open(sys.argv[2], "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "op", "start_ns", "end_ns", "self_ns"],
                       "spans": tracer.spans}, fh)
    json.dump({
        "setup_s": setup_s,
        "ops": results,
        "peak_rss_mb": peak_rss_mb,
        "layers": tracer.summary() if tracer else None,
        "absent": absent,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

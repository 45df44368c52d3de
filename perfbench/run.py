"""Benchmark of the cck command line, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is not installed, so
each repetition gets the checkout's ``src`` on PYTHONPATH.  A run
repeats whole passes over the workload's operations, each pass in a
fresh interpreter (``rep.py``), one process at a time, with BLAS and
OpenMP held to one thread, until the next pass would overrun
``--seconds``.  Every output is checked by ``checks.py``.

Times are scaled to a reference speed.  Each operation's time is
divided by the time of a short pure-Python loop (the spin, ``cpu.py``)
timed on the same CPU right before and after it, and multiplied by
``REF_SPIN_NS``: a figure is the time the operation would take on a
machine whose spin takes exactly 1 ms.  A shared two-core VM drifts by
up to ~1.8x over seconds to minutes, and the spin drifts with it, so
scaled figures repeat from run to run where raw ones do not.  An operation's figure is its fastest scaled repetition, and
``setup_s`` is the fastest set-up, scaled by the spins of the first
operation that follows it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics, the traced pass time and the
tracing overhead.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set before numpy loads, in this process and in every repetition
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from cpu import pin_fastest  # noqa: E402

#: the CPUs this process may use; each pass starts on the fastest of them
CPUS = sorted(os.sched_getaffinity(0))

#: the spin time (cpu.py) of the reference speed that op times are scaled to
REF_SPIN_NS = 1_000_000
#: fewest passes a run makes, whatever --seconds says
MIN_PASSES = 3
#: a pass that takes longer than this is killed and the run fails
PASS_TIMEOUT_S = 100


def repetition(ops: list[dict], trace: list[str], trace_file: Path) -> dict:
    """One pass over ops in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = json.dumps({"argv": [op["argv"] for op in ops], "trace": trace, "cpus": CPUS})
    pin_fastest(CPUS)
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), repr(spawn), str(trace_file)],
        input=job, capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def scale(took: float, op: dict) -> float:
    """A time taken next to op's spins, at the reference speed, in its own unit."""
    return took * REF_SPIN_NS / op["spin_ns"]


def fastest(passes: list[dict], count: int) -> list[float]:
    """Each operation's fastest scaled time over passes, in ns."""
    return [min(scale(p["ops"][k]["ns"], p["ops"][k]) for p in passes) for k in range(count)]


def end_to_end(ops, passes) -> dict[str, float]:
    best = fastest(passes, len(ops))
    return {
        # the first operation's spins are timed right after the set-up
        "setup_s": min(scale(p["setup_s"], p["ops"][0]) for p in passes),
        "pass_s": sum(best) / 1e9,
        "op_p50_ms": statistics.median(best) / 1e6,
        "op_max_ms": max(best) / 1e6,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(spec, ops, passes, traced, problems) -> dict:
    metrics = {}
    pass_s = sum(fastest(passes, len(ops))) / 1e9
    traced_s = sum(fastest(traced, len(ops))) / 1e9
    absent = set(traced[0]["absent"])
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        span, _, kind = name.rpartition(".")
        if name == "trace.pass_s":
            value = traced_s
        elif name == "trace.overhead_pct":
            value = 100.0 * (traced_s / pass_s - 1.0)
        elif span in absent:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
            continue
        elif kind == "calls":
            counts = {sum(calls for calls, _ in t["layers"].get(span, {}).values()) for t in traced}
            if len(counts) > 1:
                problems.append(f"{name} differs between traced passes: {sorted(counts)}")
            value = max(counts)
        elif kind == "self_s":
            # per operation, the fastest scaled traced pass, as for pass_s
            value = sum(min(scale(t["layers"].get(span, {}).get(str(k), [0, 0])[1], t["ops"][k])
                            for t in traced)
                        for k in range(len(ops))) / 1e9
        else:
            raise ValueError(f"per-layer metric {name!r} is neither .calls nor .self_s")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def span_names(spec) -> list[str]:
    names = {e["name"].rpartition(".")[0] for e in spec["per_layer"]}
    return sorted(n for n in names if not n.startswith("trace"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cck" / "cli.py").is_file():
        print(f"error: no cck sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = OUT / f"spans-{tag}.json"
    names = span_names(spec) if args.trace else []

    ops = workloads.build(args.workload, args.seed, args.seconds)
    start = time.monotonic()
    passes, traced, problems, failures = [], [], [], []
    failed = wrong = longest = 0
    while True:
        began = time.monotonic()
        tracing = bool(names) and len(passes) > len(traced)
        rep = repetition(ops, names if tracing else [], trace_file)
        for op, res in zip(ops, rep["ops"]):
            signalled, disagreed = checks.check(op, res["code"], res["stdout"])
            if signalled or disagreed:
                failed += 1
                wrong += bool(disagreed)
                failures.append({"argv": op["argv"], "failures": signalled + disagreed,
                                 "stderr": res["stderr"][-2000:]})
        (traced if tracing else passes).append(rep)
        longest = max(longest, time.monotonic() - began)
        done = len(passes) >= MIN_PASSES and (not names or len(traced) >= MIN_PASSES)
        if done and time.monotonic() - start + longest > args.seconds:
            break

    if args.trace:
        values = per_layer(spec, ops, passes, traced, problems)
    else:
        measured = end_to_end(ops, passes)
        values = {e["name"]: {"value": measured[e["name"]], "unit": e["unit"]} for e in spec["end_to_end"]}
    attempted = len(ops) * (len(passes) + len(traced))
    result = {
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    best = fastest(passes, len(ops))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": len(passes), "traced_passes": len(traced),
        "wall_s": time.monotonic() - start,
        "setup_s": [p["setup_s"] for p in passes],
        "ops": [{"argv": op["argv"], "fastest_ms": ns / 1e6,
                 "ms": [p["ops"][k]["ns"] / 1e6 for p in passes],
                 "spin_ms": [p["ops"][k]["spin_ns"] / 1e6 for p in passes]}
                for k, (op, ns) in enumerate(zip(ops, best))],
        "failures": failures[:50], "problems": problems, "result": result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    for item in failures[:10]:
        print(f"FAILED {' '.join(item['argv'])}: {'; '.join(item['failures'])}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"{tag}: {len(passes)} passes + {len(traced)} traced, {failed}/{attempted} failed, "
          f"{detail['wall_s']:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

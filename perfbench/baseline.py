"""Regenerate the baseline table of ROADMAP.md.

    python3 perfbench/baseline.py

Each case runs in a fresh interpreter, one at a time, with BLAS and
OpenMP held to one thread and the process on the fastest CPU (as in
run.py).  A case reports the fastest of up to five calls made within
about a second; a case that outlives its timeout is killed and shown as
"> timeout (killed)".  Prints the markdown table to stdout.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

CPUS = sorted(os.sched_getaffinity(0))

JACOBI = ("import numpy as np\nfrom cck import spectrum\n"
          "C = spectrum.build_action_matrix(spectrum.CirculantActionForm(n=1, N={N}, M={M}, A=-0.7))\n")
CLI = "import io, contextlib\nfrom cck import cli\n"
GAMMA = "from cck import projector_geometry as pg\nq1, q2 = [0.3, 0.1], [0.2, 0.4]\n"

#: (row label, column label, setup code, timed statement, timeout in s)
CASES = [
    *[("`nonsqueezing_certificate(1, 1, c_R)`", f"N = {N}",
       "from cck.certificate import nonsqueezing_certificate as f", f"f(1, 1, '{cR}')", 120)
      for N, cR in ((5, "2"), (11, "11/10"), (23, "21/20"), (31, "31/30"), (47, "47/46"))],
    ("`cck certificate --cr 1 --cR 101/100`", "N = 101", CLI,
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    cli.main(['certificate', '--cr', '1', '--cR', '101/100'])", 20),
    ("of which `find_witness_prime`", "N = 47",
     "from cck.certificate import find_witness_prime as f", "f(1, '47/46')", 60),
    *[("`numeric_eigenvalues` (Jacobi oracle)", f"MN = {N * M}", JACOBI.format(N=N, M=M),
       "spectrum.numeric_eigenvalues(C)", 60)
      for N, M in ((5, 5), (7, 5), (7, 7), (11, 5), (11, 11))],
    *[("`np.linalg.eigvalsh`, for scale only", f"MN = {N * M}", JACOBI.format(N=N, M=M),
       "np.linalg.eigvalsh(C)", 60)
      for N, M in ((5, 5), (11, 11))],
    ("`grid_extrema` vs `critical_values`", "2-d endpoints", GAMMA, "pg.grid_extrema(1.0, q1, q2)", 60),
    ("`grid_extrema` vs `critical_values`", "2-d endpoints", GAMMA, "pg.critical_values(1.0, q1, q2)", 60),
]


def measure(setup: str, stmt: str) -> float:
    """Fastest of up to five runs of stmt within about a second, in seconds."""
    namespace: dict = {}
    exec(setup, namespace)
    code = compile(stmt, "<case>", "exec")
    best, spent = float("inf"), 0.0
    for _ in range(5):
        start = time.perf_counter()
        exec(code, namespace)
        took = time.perf_counter() - start
        best, spent = min(best, took), spent + took
        if spent > 1.0:
            break
    return best


def show(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.1f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.0f} ms" if seconds >= 0.01 else f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} µs"


def run_case(index: int) -> str:
    _, _, setup, stmt, timeout = CASES[index]
    from cpu import pin_fastest

    pin_fastest(CPUS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, __file__, "--case", str(index)], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"> {timeout} s (killed)"
    if proc.returncode != 0:
        return f"error: {proc.stderr.strip().splitlines()[-1]}"
    return show(float(proc.stdout))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case is not None:
        _, _, setup, stmt, _ = CASES[args.case]
        print(repr(measure(setup, stmt)))
        return 0
    rows: dict[str, list[tuple[str, str]]] = {}
    for index, (row, column, *_rest) in enumerate(CASES):
        rows.setdefault(row, []).append((column, run_case(index)))
    import numpy

    print(f"Baselines ({os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {numpy.__version__})\n")
    print("| layer / command | size | time |\n|---|---|---|")
    for row, cells in rows.items():
        print(f"| {row} | {' / '.join(c for c, _ in cells)} | {' / '.join(t for _, t in cells)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

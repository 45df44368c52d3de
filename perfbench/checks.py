"""Independent checks of cck reports.

Every check recomputes what the report claims from the operation's own
inputs (never from the report's echo of them) with code that shares
nothing with the program: exact trial division in Fractions for
certificates, numpy's LAPACK solver on a circulant built here for
spectra, a dense evaluation of f(a) for the projector geometry, and
closed-form bounds for the squeeze map and the cohomology profiles.

``check(op, code, stdout)`` returns the failures the program signalled
and the ones only these checks found; two empty lists mean the
operation's output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: absolute tolerance on critical values, as the program's grid cross-check
GAMMA_TOL = 1e-6
#: the program's documented bound on the finite-difference contact check
CONTACT_TOL = 1e-4
#: relative tolerance for eigenvalues against LAPACK, scaled by the spectrum
EIG_RTOL = 1e-9
#: points of the dense f(a) evaluation on (0, pi/2)
DENSE_POINTS = 1 << 17


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def witness(c_r: Fraction, c_R: Fraction) -> tuple[int, int, int]:
    """Smallest prime N > 3 with ceil(N/c_R) < ceil(N/c_r), and both ceilings."""
    N = 5
    while True:
        if is_prime(N):
            ceil_R = math.ceil(Fraction(N) / c_R)
            ceil_r = math.ceil(Fraction(N) / c_r)
            if ceil_R < ceil_r:
                return N, ceil_R, ceil_r
        N += 1


def degree(n: int, ceiling: int) -> int:
    return 2 * n * ceiling - 2 * n + 2


def circulant(N: int, M: int, A: float) -> np.ndarray:
    """The MN x MN action form: cot(phi) diagonal, -1/(2 sin phi) cyclic off-diagonals."""
    phi = 2.0 * A / M
    size = M * N
    C = np.diag(np.full(size, math.cos(phi) / math.sin(phi)))
    idx = np.arange(size)
    C[idx, (idx + 1) % size] = -0.5 / math.sin(phi)
    C[(idx + 1) % size, idx] = -0.5 / math.sin(phi)
    return C


def flow_parameter(op: dict) -> float:
    if op.get("A") is not None:
        return float(op["A"])
    return -math.pi * float(Fraction(op["T"]) / (op["N"] * Fraction(op["c"])))


@lru_cache(maxsize=None)
def reference_spectrum(N: int, M: int, A: float) -> np.ndarray:
    return np.linalg.eigvalsh(circulant(N, M, A))


def action(R: float, q1, q2, a: np.ndarray) -> np.ndarray:
    """f(a) = -S_a(q1, q2) - a R^2 with S_a the (q1, q2) generating function."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    s, c = np.sin(2.0 * a), np.cos(2.0 * a)
    S = c / (2.0 * s) * float(q1 @ q1 + q2 @ q2) - float(q1 @ q2) / s
    return -S - a * R * R


@lru_cache(maxsize=None)
def dense_extrema(R: float, q1: tuple, q2: tuple) -> tuple[float, float]:
    """(f1, f2): the interior local maximum and minimum of f on a dense grid.

    Raises ValueError unless f has exactly one of each, the generic case
    the workloads are drawn from.
    """
    a = np.arange(1, DENSE_POINTS) * (0.5 * math.pi / DENSE_POINTS)
    f = action(R, q1, q2, a)
    inner = f[1:-1]
    maxima = inner[(inner >= f[:-2]) & (inner >= f[2:])]
    minima = inner[(inner <= f[:-2]) & (inner <= f[2:])]
    if maxima.size != 1 or minima.size != 1:
        raise ValueError(f"f has {maxima.size} maxima and {minima.size} minima")
    return float(maxima[0]), float(minima[0])


def _certificate(op, out) -> list[str]:
    if op["expect"] == 2:
        if out["verdict"] != "NoObstruction":
            return [f"out-of-regime verdict {out['verdict']!r}"]
        return []
    errs = []
    n = op["n"]
    N, ceil_R, ceil_r = witness(Fraction(op["cr"]), Fraction(op["cR"]))
    for key, want in (("N", N), ("ceil_R", ceil_R), ("ceil_r", ceil_r)):
        if out[key] != want:
            errs.append(f"{key} = {out[key]}, trial division gives {want}")
    for key, ceiling in (("deg_R", out["ceil_R"]), ("deg_r", out["ceil_r"])):
        if out[key] != degree(n, ceiling):
            errs.append(f"{key} = {out[key]}, 2n ceil - 2n + 2 gives {degree(n, ceiling)}")
    if not out["deg_R"] < out["deg_r"]:
        errs.append(f"deg_R = {out['deg_R']} is not below deg_r = {out['deg_r']}")
    if out["verdict"] != "Obstructed":
        errs.append(f"verdict {out['verdict']!r}, expected 'Obstructed'")
    return errs


def _spectrum(op, out) -> list[str]:
    errs = []
    n, N, M = op["n"], op["N"], op["M"]
    A = flow_parameter(op)
    ref = reference_spectrum(N, M, A)
    scale = max(1.0, float(np.max(np.abs(ref))))
    for key in ("eigenvalues_numeric", "eigenvalues_analytic"):
        got = np.sort(np.asarray(out[key], dtype=float))
        if got.shape != ref.shape:
            errs.append(f"{key} has {got.size} values, expected {ref.size}")
            continue
        dev = float(np.max(np.abs(got - ref)))
        if dev > EIG_RTOL * scale:
            errs.append(f"{key} deviates from eigvalsh by {dev:.3e}")
    trace = M * N * math.cos(2.0 * A / M) / math.sin(2.0 * A / M)
    total = float(np.sum(np.asarray(out["eigenvalues_numeric"], dtype=float)))
    if abs(total - trace) > EIG_RTOL * scale:
        errs.append(f"eigenvalue sum {total!r} differs from MN cot(phi) = {trace!r}")
    if op.get("T") is not None:
        index = math.ceil(Fraction(op["T"]) / Fraction(op["c"])) - 1
    else:
        if float(np.min(np.abs(ref))) < 1e-6:
            errs.append("reference spectrum has an eigenvalue at zero; sign count ill-posed")
        index = (int(np.sum(ref > 0)) - 1) // 2
    if out["positive_index"] != index:
        errs.append(f"positive_index = {out['positive_index']}, expected {index}")
    if out["sphere_dim"] != 2 * n * index - 1:
        errs.append(f"sphere_dim = {out['sphere_dim']}, expected {2 * n * index - 1}")
    weights = [l for l in range(1, index + 1) for _ in range(n)]
    if out["weights"] != weights:
        errs.append(f"weights {out['weights']} differ from 1..{index}, each {n} times")
    return errs


def _gamma(op, out) -> list[str]:
    errs = []
    f1, f2 = dense_extrema(op["R"], tuple(op["q1"]), tuple(op["q2"]))
    if out["f1"] is None or out["f2"] is None:
        return ["critical values missing"]
    if not out["f1"] >= out["f2"]:
        errs.append(f"f1 = {out['f1']!r} below f2 = {out['f2']!r}")
    for key, want in (("f1", f1), ("f2", f2)):
        if abs(out[key] - want) > GAMMA_TOL:
            errs.append(f"{key} = {out[key]!r}, dense evaluation gives {want!r}")
    t = op["t"]
    if out["member"] != (out["f2"] <= t < out["f1"]) or out["member"] != (f2 <= t < f1):
        errs.append(f"member = {out['member']} disagrees with f2 <= t < f1 at t = {t!r}")
    return errs


def _squeeze(op, out) -> list[str]:
    errs = []
    R, N = op["R"], op["N"]
    radius = R / (1.0 + N * R)
    if not math.isclose(out["squeezed_radius"], radius, rel_tol=1e-12):
        errs.append(f"squeezed_radius = {out['squeezed_radius']!r}, R/(1+NR) = {radius!r}")
    if not out["contact_deviation"] <= CONTACT_TOL:
        errs.append(f"contact_deviation {out['contact_deviation']!r} above {CONTACT_TOL}")
    # nu^2 = 1/(1 + N pi |w|^2) with pi |w|^2 <= R; 1e-9 absorbs the
    # finite-difference error of the measured factor
    low = 1.0 / (1.0 + N * R)
    if not low - 1e-9 <= out["min_conformal"] <= 1.0 + 1e-9:
        errs.append(f"min_conformal {out['min_conformal']!r} outside [{low!r}, 1]")
    return errs


def _ext(op, out) -> list[str]:
    if op.get("lens") is not None:
        d = len(op["lens"])
        want = {"dims": {str(k): 1 for k in range(2 * d)}, "top": 2 * d - 1, "bounded": True}
    else:
        want = {"dims": {str(k): 1 for k in range(op["max_degree"] + 1)}, "top": None, "bounded": False}
    return [f"{key} = {out[key]!r}, expected {value!r}" for key, value in want.items() if out[key] != value]


CHECKS = {
    "certificate": _certificate,
    "spectrum": _spectrum,
    "gamma": _gamma,
    "squeeze": _squeeze,
    "ext": _ext,
}


def check(op: dict, code, stdout: str) -> tuple[list[str], list[str]]:
    """Failures of one operation, as (signalled, wrong).

    signalled: the program itself reports the failure (an unexpected exit
    code, no JSON report, or a report check with passed: false).
    wrong: the program reports success but an independent check disagrees.
    """
    if code != op["expect"]:
        return [f"exit code {code!r}, expected {op['expect']}"], []
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"], []
    signalled = [f"report check {c['name']!r} failed" for c in report.get("checks", []) if not c["passed"]]
    if report.get("command") != op["cmd"]:
        return signalled, [f"report command {report.get('command')!r}, expected {op['cmd']!r}"]
    try:
        wrong = CHECKS[op["cmd"]](op, report["outputs"])
    except (KeyError, TypeError, ValueError) as exc:
        wrong = [f"malformed report: {type(exc).__name__}: {exc}"]
    return signalled, wrong

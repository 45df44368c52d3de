"""Command-line front end: certificate, spectrum, gamma, squeeze, ext.

Each subcommand prints exactly one UTF-8 JSON report document to stdout
and keeps diagnostics on stderr.  Report schema:

    {"command": ..., "inputs": {...}, "outputs": {...},
     "checks": [{"name": ..., "passed": ..., "residual": ..., "tolerance": ...}]}

Exit codes: 0 success (certificate: Obstructed), 2 certificate regime
mismatch / NoObstruction, 3 the report was printed but one of its checks
failed, 1 domain error (including an input over a stated budget), 64
usage error (including a malformed rational or a non-finite number).
Reports are strict JSON: a NaN or infinity is never printed.

A report does each piece of work once.  gamma computes the critical
values once and reads membership from them (false where they do not
exist), and the spectrum check index_vs_eigenvalue_count counts the
positive pairs of the Jacobi solve the report already holds, with --A
and with --T/--c alike, by the same spectrum.positive_count_from_eigenvalues
that gives the --A index from the closed-form eigenvalues.

The default tolerance for numeric checks is 1e-9 (finite-difference
contact checks use 1e-4); the --tol flag overrides it.  The spectrum
check analytic_vs_numeric scales it by max(1, max|lambda|), since its
deviation grows with the eigenvalues.  A tolerance is a finite
number >= 0: a negative --tol is a usage error.  Capacity flags take exact
rationals ("3/2" or "2"); floats appear only where the underlying
quantities are genuinely real (angles, coordinates, flow parameters).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import certificate, equivariant, hamflow, projector_geometry, spectrum
from .errors import CckError, InvalidCapacities, OutsideDomain, OverBudget

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_OBSTRUCTION = 2
EXIT_CHECK_FAILED = 3
EXIT_USAGE = 64

DEFAULT_TOL = 1e-9
CONTACT_TOL = 1e-4
GRID_TOL = 1e-6

# Budgets: a larger input fails with OverBudget (exit 1) before any work.
MAX_CERTIFICATE_N = 10  # cck certificate --n: an input check; n is only an exponent mod N
MAX_WITNESS_LIMIT = certificate.DEFAULT_WITNESS_LIMIT  # cck certificate --limit: N up to 10^6
MAX_EXT_DEGREE = 10_000  # cck ext --max-degree, and the top degree 2d - 1 of --lens: ~0.1 MB of report
MAX_SPECTRUM_N = 100  # cck spectrum --n: the report lists n weights per positive pair
MAX_SQUEEZE_SAMPLES = 10_000  # cck squeeze --samples: ~0.2 s of sampling and contact checks
# cck squeeze --N: on the exact map the fixed-step contact check errs by ~6.6e-10 N^2,
# 6.6e-6 at the budget; from N ~ 390 on it would exceed CONTACT_TOL and blame the map
MAX_SQUEEZE_N = 100


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse with BSD-style exit code 64 on usage errors.

    A negative number or comma-separated vector such as -0.2,0.4 or
    -1e-3,2.5E-1 is read as a value, not as an unknown flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = r"\d*\.?\d+(?:[eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(?:,-?{number})*$")

    def error(self, message):
        raise UsageError(message)


def _rational(flag: str):
    """argparse type for an exact rational; a malformed value is a usage error naming flag."""

    def parse(text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{flag} is not a rational: {text!r}") from exc

    return parse


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative number: {text!r}")
    return value


def _vector(text: str) -> list[float]:
    return [_finite(part) for part in text.split(",")]


def _weights(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(command: str, inputs: dict, outputs: dict, checks: list, code: int = EXIT_OK) -> int:
    """Print the report; return code, or EXIT_CHECK_FAILED if any check failed.

    The whole document is serialized before anything is written, so a
    non-finite value raises ValueError (exit 1) with stdout left empty.
    """
    report = {"command": command, "inputs": inputs, "outputs": outputs, "checks": checks}
    text = json.dumps(report, default=_json_default, allow_nan=False)
    sys.stdout.write(text + "\n")
    if any(not check["passed"] for check in checks):
        return EXIT_CHECK_FAILED
    return code


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "passed": bool(residual <= tolerance),
        "residual": float(residual),
        "tolerance": float(tolerance),
    }


def _within_budget(flag: str, value: int, budget: int) -> None:
    if value > budget:
        raise OverBudget(f"{flag} {value} is above its budget of {budget}")


def _tol(args, fallback: float) -> float:
    return fallback if args.tol is None else args.tol


@functools.cache
def build_parser() -> Parser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = Parser(prog="cck", description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=_tolerance, default=None, help="tolerance for numeric checks (>= 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certificate", help="emit a non-squeezing certificate")
    p.add_argument("--n", type=int, default=1, help="complex dimension of the ball factor")
    p.add_argument(
        "--cr", type=_rational("--cr"), required=True,
        help="inner capacity (rational, or radius with --from-radius)",
    )
    p.add_argument(
        "--cR", type=_rational("--cR"), required=True,
        help="outer capacity (rational, or radius with --from-radius)",
    )
    p.add_argument("--limit", type=int, default=certificate.DEFAULT_WITNESS_LIMIT)
    p.add_argument(
        "--from-radius",
        action="store_true",
        help="interpret --cr/--cR as Euclidean radii; pi r^2 is rationalized to 12 digits (lossy)",
    )
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("spectrum", help="action-form spectrum and positive index")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--A", type=_finite, default=None, help="flow parameter (negative)")
    p.add_argument("--T", type=_rational("--T"), default=None, help="window width (rational)")
    p.add_argument("--c", type=_rational("--c"), default=None, help="capacity pi R^2 (rational)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gamma", help="projector block geometry")
    p.add_argument("--R", type=_finite, required=True)
    p.add_argument("--q1", type=_vector, required=True)
    p.add_argument("--q2", type=_vector, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--grid", action="store_true", help="cross-check against the grid oracle")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("squeeze", help="squeeze map: image size and contact check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=_finite, required=True, help="ball size pi r^2")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_squeeze)

    p = sub.add_parser("ext", help="group cohomology over F_N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lens", type=_weights, default=None, help="comma-separated unit weights")
    p.add_argument("--max-degree", type=int, default=20)
    p.set_defaults(func=cmd_ext)
    return parser


def _capacities(args) -> tuple[Fraction, Fraction]:
    if args.from_radius:
        caps = []
        for name, value in (("cr", args.cr), ("cR", args.cR)):
            r = float(value)
            if r <= 0:
                raise InvalidCapacities(f"radius --{name} must be positive")
            c = Fraction(f"{math.pi * r * r:.12g}")
            print(
                f"warning: --from-radius rationalizes pi*{r}^2 to 12 digits: {c}",
                file=sys.stderr,
            )
            caps.append(c)
        return caps[0], caps[1]
    return certificate.as_capacity(args.cr), certificate.as_capacity(args.cR)


def cmd_certificate(args) -> int:
    _within_budget("--n", args.n, MAX_CERTIFICATE_N)
    _within_budget("--limit", args.limit, MAX_WITNESS_LIMIT)
    c_r, c_R = _capacities(args)
    regime = certificate.classify_regime(c_r, c_R, args.n)
    inputs = {
        "n": args.n,
        "c_r": c_r,
        "c_R": c_R,
        "limit": args.limit,
        "from_radius": bool(args.from_radius),
    }
    regime_doc = {
        "labels": [label.value for label in regime.labels],
        "primary": regime.primary.value,
        "integer_witness": regime.integer_witness,
        "scale": "sub-quantum" if c_R < 1 else ("large" if c_r >= 1 else "mixed"),
    }
    if certificate.RegimeLabel.LARGE_SCALE in regime.labels:
        cert = certificate.nonsqueezing_certificate(args.n, c_r, c_R, args.limit)
        outputs = {
            "verdict": cert.verdict.value,
            "N": cert.N,
            "ceil_R": cert.ceil_R,
            "ceil_r": cert.ceil_r,
            "deg_R": cert.deg_R,
            "deg_r": cert.deg_r,
            "regime": regime_doc,
            "trace": cert.trace,
        }
        checks = [
            _check("ceiling_drop", max(0, cert.ceil_R - cert.ceil_r + 1), 0),
            _check("degree_drop", max(0, cert.deg_R - cert.deg_r + 1), 0),
        ]
        return _emit("certificate", inputs, outputs, checks)
    outputs = {
        "verdict": certificate.Verdict.NO_OBSTRUCTION.value,
        "N": None,
        "ceil_R": None,
        "ceil_r": None,
        "deg_R": None,
        "deg_r": None,
        "regime": regime_doc,
        "trace": "outside the certified regime 1 <= c_r < c_R; no obstruction emitted",
    }
    return _emit("certificate", inputs, outputs, [], EXIT_NO_OBSTRUCTION)


def cmd_spectrum(args) -> int:
    _within_budget("--n", args.n, MAX_SPECTRUM_N)
    tol = _tol(args, DEFAULT_TOL)
    # --A alone, or --T and --c together: an A beside T or c would contradict their index
    given = (args.A is not None, args.T is not None, args.c is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise UsageError("spectrum needs either --A or both --T and --c")
    have_substitution = args.A is None
    N = args.N
    A = spectrum.substituted_flow_parameter(N, args.T, args.c) if have_substitution else args.A
    form = spectrum.CirculantActionForm(n=args.n, N=N, M=args.M, A=A)
    matrix = spectrum.build_action_matrix(form)  # checks the size budget first
    analytic = spectrum.analytic_eigenvalues(form)
    numeric = spectrum.numeric_eigenvalues(matrix)
    deviation = float(np.max(np.abs(np.sort(analytic) - numeric)))
    if have_substitution:
        index = spectrum.positive_index(args.n, N, form.M, args.T, args.c)
    else:
        index = spectrum.positive_count_from_eigenvalues(analytic)
    brute = spectrum.positive_count_from_eigenvalues(numeric)  # the Jacobi oracle in both modes
    sphere_dim = 2 * args.n * index - 1
    weights = spectrum.cyclic_weights(args.n, index, N)
    checks = [
        _check("analytic_vs_numeric", deviation, tol * max(1.0, float(np.max(np.abs(analytic))))),
        _check("index_vs_eigenvalue_count", abs(index - brute), 0),
    ]
    inputs = {"n": args.n, "N": N, "M": form.M, "A": A, "T": args.T, "c": args.c}
    outputs = {
        "eigenvalues_analytic": analytic,
        "eigenvalues_numeric": numeric,
        "positive_index": index,
        "sphere_dim": sphere_dim,
        "weights": weights,
        "deviation": deviation,
    }
    return _emit("spectrum", inputs, outputs, checks)


def cmd_gamma(args) -> int:
    tol = _tol(args, GRID_TOL)
    R, q1, q2, t = args.R, args.q1, args.q2, args.t
    d = projector_geometry.discriminant(R, q1, q2)  # checks R > 0 and equal lengths first
    try:
        cv = projector_geometry.critical_values(R, q1, q2)
    except OutsideDomain:  # d < 0, or an endpoint no trajectory on the sphere reaches
        cv = None
    member = cv is not None and cv.contains(t)
    outputs = {"discriminant": d, "member": member, "a1": None, "a2": None, "f1": None, "f2": None}
    checks = []
    if cv is not None:
        outputs.update({"a1": cv.a1, "a2": cv.a2, "f1": cv.f1, "f2": cv.f2})
        if args.grid:
            g1, g2 = projector_geometry.grid_extrema(R, q1, q2)
            member_grid = projector_geometry.sigma_membership_grid(R, q1, q2, t)
            outputs["f1_grid"] = g1
            outputs["f2_grid"] = g2
            outputs["member_grid"] = member_grid
            # a grid value the scan cannot find is null, and has no check
            for name, exact, grid in (("f1_vs_grid", cv.f1, g1), ("f2_vs_grid", cv.f2, g2)):
                if grid is not None:
                    checks.append(_check(name, abs(exact - grid), tol))
            checks.append(_check("membership_vs_grid", float(member != member_grid), 0))
    inputs = {"R": R, "q1": q1, "q2": q2, "t": t, "grid": bool(args.grid)}
    return _emit("gamma", inputs, outputs, checks)


def cmd_squeeze(args) -> int:
    _within_budget("--N", args.N, MAX_SQUEEZE_N)
    _within_budget("--samples", args.samples, MAX_SQUEEZE_SAMPLES)
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    tol = _tol(args, CONTACT_TOL)
    if args.R <= 0:
        raise InvalidCapacities("--R must be positive")
    radius = hamflow.squeezed_radius(args.R, args.N)
    rng = np.random.default_rng(args.seed)
    samples = []
    for _ in range(args.samples):
        k = int(rng.integers(1, 3))
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        norm = float(np.sqrt(np.sum(np.abs(w) ** 2)))
        target = math.sqrt(args.R * float(rng.random()) / math.pi)
        w = w / norm * target if norm > 0 else w
        samples.append(hamflow.PrequantPoint(w, float(rng.random())))
    result = hamflow.contact_check(args.N, samples)
    checks = [
        _check("contact_pullback", result.deviation, tol),
        _check("conformal_positive", 0.0 if result.min_conformal > 0 else 1.0, 0),
    ]
    inputs = {"N": args.N, "R": args.R, "samples": args.samples, "seed": args.seed}
    outputs = {
        "squeezed_radius": radius,
        "contact_deviation": result.deviation,
        "min_conformal": result.min_conformal,
    }
    return _emit("squeeze", inputs, outputs, checks)


def cmd_ext(args) -> int:
    _within_budget("--max-degree", args.max_degree, MAX_EXT_DEGREE)
    if args.lens is not None:
        _within_budget("--lens top degree", 2 * len(args.lens) - 1, MAX_EXT_DEGREE)
        graded = equivariant.lens_cohomology(args.N, args.lens)
    else:
        graded = equivariant.point_equivariant_cohomology(args.N, args.max_degree)
    outputs = {
        "kind": "point" if args.lens is None else "lens",
        "weights": args.lens,
        "dims": {str(k): v for k, v in sorted(graded.dims.items())},
        "top": graded.top,
        "bounded": graded.bounded,
    }
    inputs = {"N": args.N, "lens": args.lens, "max_degree": args.max_degree}
    return _emit("ext", inputs, outputs, [])


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

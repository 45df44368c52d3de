"""Geometry of the projector building block over a ball of radius R.

For endpoints q1, q2 in E = R^n and a in (0, pi/2), set

    f(a) = -S_a(q1, q2) - a R^2.

Critical points of f solve the quadratic

    R^2 xi^2 - 2 <q1, q2> xi + (|q1|^2 + |q2|^2 - R^2) = 0

in xi = cos(2a), whose quarter discriminant is

    d = <q1, q2>^2 - R^2 (|q1|^2 + |q2|^2 - R^2).

With both endpoints inside the closed ball and d >= 0 the two roots lie
in [-1, 1]; ordering the angles 0 <= a1 <= a2 <= pi/2 gives critical
values f(a1) >= f(a2), and the support slab at (q1, q2) is the
half-open interval f(a2) <= t < f(a1).  Degenerations:

* q1 = q2 = q: one root is xi = 1 (a1 = 0, boundary value f = 0) and the
  interior critical angle satisfies cos(a2) = |q|/R;
* q1 = -q2 = q: one root is xi = -1 (a2 = pi/2, closed end with value
  f = -pi R^2 / 2) and the interior angle satisfies sin(a1) = |q|/R.

At the critical angles the reconstructed momenta
p1 = (q2 - xi q1)/sin 2a, p2 = (xi q2 - q1)/sin 2a lie on the energy
sphere |q_i|^2 + |p_i|^2 = R^2.

A grid search over f on (0, pi/2] is kept alongside the closed forms as
an independent oracle for the critical values and for membership in the
support set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain

#: round-off absorbed when clamping cos(2a) roots into [-1, 1]
XI_CLAMP = 1e-12


@dataclass
class BlockQuery:
    """Endpoint pair plus the extra coordinate t probed for membership."""

    R: float
    q1: np.ndarray
    q2: np.ndarray
    t: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")
        self.q1 = np.atleast_1d(np.asarray(self.q1, dtype=float))
        self.q2 = np.atleast_1d(np.asarray(self.q2, dtype=float))
        if self.q1.shape != self.q2.shape:
            raise ValueError("q1 and q2 must have the same length")
        self.t = float(self.t)


@dataclass
class CriticalData:
    """Ordered critical angles in [0, pi/2] and the values of f there."""

    a1: float
    a2: float
    f1: float
    f2: float

    def __post_init__(self):
        if not 0.0 <= self.a1 <= self.a2 <= math.pi / 2.0 + 1e-15:
            raise ValueError("critical angles must satisfy 0 <= a1 <= a2 <= pi/2")
        if self.f2 > self.f1 + 1e-9:
            raise ValueError("critical values must satisfy f2 <= f1")


def discriminant(R: float, q1, q2) -> float:
    """Quarter discriminant d = <q1,q2>^2 - R^2 (|q1|^2 + |q2|^2 - R^2)."""
    if R <= 0:
        raise ValueError("R must be positive")
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    q2 = np.atleast_1d(np.asarray(q2, dtype=float))
    P = float(q1 @ q2)
    return P * P - R * R * float(q1 @ q1 + q2 @ q2 - R * R)


def _cos_roots(R: float, q1: np.ndarray, q2: np.ndarray) -> tuple[float, float]:
    """Both roots xi of the critical quadratic, descending, clamped.

    Raises OutsideDomain when d < 0 or when a root leaves [-1, 1] by more
    than the clamp tolerance (endpoints that no trajectory on the energy
    sphere connects; happens only with an endpoint outside the ball).
    """
    P = float(q1 @ q2)
    C = float(q1 @ q1 + q2 @ q2) - R * R
    d = P * P - R * R * C
    if d < 0.0:
        raise OutsideDomain(f"negative discriminant d = {d:.3e}")
    sq = math.sqrt(d)
    # root of larger magnitude first, partner via the product, to avoid
    # cancellation when P ~ +-sqrt(d)
    xi_a = (P + sq) / (R * R) if P >= 0 else (P - sq) / (R * R)
    xi_b = C / (R * R * xi_a) if xi_a != 0.0 else 0.0
    xi_hi, xi_lo = max(xi_a, xi_b), min(xi_a, xi_b)
    if xi_hi > 1.0 + XI_CLAMP or xi_lo < -1.0 - XI_CLAMP:
        raise OutsideDomain(
            f"cos(2a) root outside [-1, 1] (xi = {xi_hi:.6f}, {xi_lo:.6f}); "
            "no critical trajectory on the energy sphere"
        )
    return min(xi_hi, 1.0), max(xi_lo, -1.0)


def _f_at_root(xi: float, R: float, q1: np.ndarray, q2: np.ndarray) -> float:
    """f at the critical angle a = arccos(xi)/2, stable near xi = +-1."""
    if xi >= 1.0 - 1e-15:
        return 0.0
    if xi <= -1.0 + 1e-15:
        return -0.5 * math.pi * R * R
    Q = float(q1 @ q1 + q2 @ q2)
    if xi <= 0.0:
        diff = q1 + q2
        num = float(diff @ diff) - (1.0 + xi) * Q
    else:
        diff = q1 - q2
        num = (1.0 - xi) * Q - float(diff @ diff)
    s = math.sqrt((1.0 - xi) * (1.0 + xi))
    return num / (2.0 * s) - 0.5 * math.acos(xi) * R * R


def critical_values(R: float, q1, q2) -> CriticalData:
    """Critical angles together with f(a1) >= f(a2).

    Boundary roots use the degenerate limits: f -> 0 at a = 0 (only
    reachable with q1 = q2) and f = -pi R^2 / 2 at the closed end
    a = pi/2 (only reachable with q1 = -q2).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    q2 = np.atleast_1d(np.asarray(q2, dtype=float))
    xi_hi, xi_lo = _cos_roots(R, q1, q2)
    f1 = _f_at_root(xi_hi, R, q1, q2)
    f2 = _f_at_root(xi_lo, R, q1, q2)
    if f2 > f1:  # round-off at a double root
        f1 = f2 = 0.5 * (f1 + f2)
    return CriticalData(0.5 * math.acos(xi_hi), 0.5 * math.acos(xi_lo), f1, f2)


def critical_momenta(R: float, q1, q2) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(a, p1, p2) for each critical angle with sin(2a) != 0.

    The momenta solve the endpoint conditions of the time-a trajectory;
    both phase points then lie on the energy sphere of level R^2.
    """
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    q2 = np.atleast_1d(np.asarray(q2, dtype=float))
    out = []
    for xi in _cos_roots(R, q1, q2):
        s = math.sqrt(max(0.0, (1.0 - xi) * (1.0 + xi)))
        if s < 1e-9:
            continue
        p1 = (q2 - xi * q1) / s
        p2 = (xi * q2 - q1) / s
        out.append((0.5 * math.acos(xi), p1, p2))
    return out


def _action(P: float, Q: float, R: float, a):
    """f(a) from P = <q1, q2> and Q = |q1|^2 + |q2|^2; a is a float or an array."""
    return (2.0 * P - np.cos(2.0 * a) * Q) / (2.0 * np.sin(2.0 * a)) - a * R * R


def action_profile(R: float, q1, q2, a) -> np.ndarray:
    """f(a) = -S_a(q1, q2) - a R^2 evaluated on an array of angles in (0, pi/2]."""
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    q2 = np.atleast_1d(np.asarray(q2, dtype=float))
    return _action(float(q1 @ q2), float(q1 @ q1 + q2 @ q2), R, np.asarray(a, dtype=float))


def sigma_membership(query: BlockQuery) -> bool:
    """Whether (q1, q2, t) lies in the support set: d >= 0 and f(a2) <= t < f(a1)."""
    try:
        cv = critical_values(query.R, query.q1, query.q2)
    except OutsideDomain:
        return False
    return cv.f2 <= query.t < cv.f1


# ---------------------------------------------------------------------------
# grid oracle, independent of the closed forms above
# ---------------------------------------------------------------------------

def _golden(fun, lo: float, hi: float, maximize: bool, iters: int = 80) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = -1.0 if maximize else 1.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = sign * fun(c), sign * fun(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = sign * fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = sign * fun(d)
    return 0.5 * (lo + hi)


def grid_extrema(R: float, q1, q2, grid_points: int = 10_000) -> tuple[float, float]:
    """Grid-search estimate of (f(a1), f(a2)) using only f evaluations.

    Interior local extrema of f on (0, pi/2] are located on a uniform
    grid and refined by golden-section search; when an extremum sits at
    the boundary instead, the boundary value of the matching degenerate
    case is used (0 at the open left end for q1 = q2, f(pi/2) at the
    closed right end).  Entirely independent of the critical-angle
    quadratic.
    """
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    q2 = np.atleast_1d(np.asarray(q2, dtype=float))
    a = (np.arange(1, grid_points + 1) / grid_points) * (math.pi / 2.0)
    f = action_profile(R, q1, q2, a)
    P, Q = float(q1 @ q2), float(q1 @ q1 + q2 @ q2)

    def f1d(x: float) -> float:
        return float(_action(P, Q, R, x))

    maxima = np.where((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]))[0] + 1
    minima = np.where((f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:]))[0] + 1

    if maxima.size:
        i = maxima[np.argmax(f[maxima])]
        f_hi = f1d(_golden(f1d, a[i - 1], a[i + 1], maximize=True))
    elif np.allclose(q1, q2):
        f_hi = 0.0
    else:
        f_hi = math.inf

    if minima.size:
        i = minima[np.argmin(f[minima])]
        f_lo = f1d(_golden(f1d, a[i - 1], a[i + 1], maximize=False))
    elif f[-1] <= f[-2]:
        f_lo = float(f[-1])
    else:
        f_lo = -math.inf
    return f_hi, f_lo


def sigma_membership_grid(query: BlockQuery, grid_points: int = 10_000) -> bool:
    """Membership oracle: does {a : f(a) <= t} have a compact component?

    The sublevel set is scanned on a uniform grid over (0, pi/2]; a run
    of sublevel points counts as compact unless it touches the open left
    end.  The right end a = pi/2 belongs to the domain, so runs ending
    there count.
    """
    a = (np.arange(1, grid_points + 1) / grid_points) * (math.pi / 2.0)
    f = action_profile(query.R, query.q1, query.q2, a)
    mask = f <= query.t
    # a run starting after index 0 is one that does not touch the open left end
    return bool(np.any(mask[1:] & ~mask[:-1]))

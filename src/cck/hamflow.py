"""Hamiltonian rotations of the harmonic oscillator and the explicit
prequantization squeeze.

The flow of H(q, p) = q^2 + p^2 acts blockwise on (q, p) in R^n x R^n by
the rotation

    (q, p) -> (cos(2a) q + sin(2a) p, -sin(2a) q + cos(2a) p).

Away from sin(2a) = 0 the time-a graph is cut out by the generating
function

    S_a(q1, q2) = cos(2a)/(2 sin 2a) * (|q1|^2 + |q2|^2) - <q1, q2>/sin 2a

through dS/dq1 = -p1 and dS/dq2 = p2, in the contact convention p dq + dz.
Every squeeze-map check uses the other convention, dz + (q dp - p dq)/2
on R^2n x S^1; the two are never mixed inside one operation.

Squeeze-map size convention: ball sizes R passed to ``squeezed_radius``
and used in the sphere-mapping identity are symplectic areas,
R = pi * (Euclidean radius)^2.  That is the gauge in which the shrink
factor takes the exact form R -> R/(1 + N R) for the map
(w, z) -> (nu(w) e^{2 pi i N z} w, z), nu(w) = 1/sqrt(1 + N pi |w|^2).

Complex identification: w = q - i p.  With w = q + i p the printed phase
would have to be reversed for the pullback identity to hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularAngle

#: below this, |sin 2a| is treated as zero and the (q1, q2) chart rejected
SIN_TOLERANCE = 1e-12

#: central-difference step; balances truncation against round-off
FD_STEP = 1e-5


@dataclass
class PhasePoint:
    """A point (q, p) of R^n x R^n."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if self.q.shape != self.p.shape or self.q.ndim != 1 or self.q.size < 1:
            raise ValueError("q and p must be 1-d vectors of equal length >= 1")


@dataclass
class PrequantPoint:
    """A point (w, z) of C^n x S^1 with z reduced into [0, 1)."""

    w: np.ndarray
    z: float

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=complex))
        if self.w.ndim != 1 or self.w.size < 1:
            raise ValueError("w must be a 1-d complex vector of length >= 1")
        self.z = float(self.z) % 1.0


def _require_regular(a: float) -> float:
    s = math.sin(2.0 * a)
    if abs(s) < SIN_TOLERANCE:
        raise SingularAngle(f"sin(2a) = {s:.2e} at a = {a}; the (q1, q2) chart degenerates")
    return s


def apply_rotation(a: float, x: PhasePoint) -> PhasePoint:
    """The time-a flow: each pair (q_i, p_i) turns clockwise by the angle 2a."""
    c, s = math.cos(2.0 * a), math.sin(2.0 * a)
    return PhasePoint(c * x.q + s * x.p, -s * x.q + c * x.p)


def gen_fn_qq(a: float, q1, q2) -> float:
    """Generating function S_a(q1, q2) of the time-a rotation.

    Requires sin(2a) != 0; raises SingularAngle otherwise.
    """
    s = _require_regular(a)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != q2.shape:
        raise ValueError("q1 and q2 must have the same length")
    c = math.cos(2.0 * a)
    return float(c / (2.0 * s) * (q1 @ q1 + q2 @ q2) - (q1 @ q2) / s)


def check_graph_identity(a: float, x: PhasePoint) -> float:
    """Finite-difference residual of dS/dq1 = -p1, dS/dq2 = p2.

    The image point (q2, p2) is the rotation of x; the partial
    derivatives of S_a are formed by central differences with step
    FD_STEP and compared coordinatewise against the momenta.  Returns
    the max absolute residual.  S_a is quadratic, so the truncation
    error vanishes and the residual is pure round-off.
    """
    _require_regular(a)
    y = apply_rotation(a, x)
    n = x.q.size
    worst = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = FD_STEP
        dq1 = (gen_fn_qq(a, x.q + e, y.q) - gen_fn_qq(a, x.q - e, y.q)) / (2.0 * FD_STEP)
        dq2 = (gen_fn_qq(a, x.q, y.q + e) - gen_fn_qq(a, x.q, y.q - e)) / (2.0 * FD_STEP)
        worst = max(worst, abs(dq1 + x.p[i]), abs(dq2 - y.p[i]))
    return worst


def _shrink(N: int, rho2):
    """The factor nu = 1/sqrt(1 + N pi |w|^2) of the squeeze map, from rho2 = |w|^2."""
    return 1.0 / np.sqrt(1.0 + N * math.pi * rho2)


def squeezed_radius(R: float, N: int) -> float:
    """Image ball size R/(1 + N R); sizes are symplectic areas pi r^2."""
    if R <= 0:
        raise ValueError("R must be positive")
    if N < 1:
        raise ValueError("N must be a positive integer")
    return R / (1.0 + N * R)


class ContactCheck(NamedTuple):
    deviation: float
    min_conformal: float


def _squeeze_real(x: np.ndarray, N: int) -> np.ndarray:
    """Squeeze map in real coordinates (q, p, z), z unreduced; w = q - i p.

    x has shape (..., 2n + 1); the map acts on the last axis.
    """
    n = (x.shape[-1] - 1) // 2
    q, p, z = x[..., :n], x[..., n : 2 * n], x[..., 2 * n :]
    w = q - 1j * p
    rho2 = np.sum(q * q, axis=-1, keepdims=True) + np.sum(p * p, axis=-1, keepdims=True)
    wp = _shrink(N, rho2) * np.exp(2j * math.pi * N * z) * w
    return np.concatenate([wp.real, -wp.imag, z], axis=-1)


def _alpha_prequant(x: np.ndarray) -> np.ndarray:
    """Coefficients of dz + (q dp - p dq)/2 in the (dq, dp, dz) basis, on the last axis of x."""
    n = (x.shape[-1] - 1) // 2
    one = np.ones(x.shape[:-1] + (1,))
    return np.concatenate([-x[..., n : 2 * n] / 2.0, x[..., :n] / 2.0, one], axis=-1)


def contact_check(N: int, samples) -> ContactCheck:
    """Numerical test that the squeeze map preserves the contact planes.

    At each sample the contact form is pulled back through a central
    finite-difference Jacobian and decomposed against the form at the
    source: the component proportional to alpha is the conformal factor,
    and everything orthogonal to alpha should vanish.  Returns the max
    orthogonal norm together with the smallest conformal factor seen
    (a genuine contactomorphism gives a positive factor everywhere).

    The samples are grouped by real dimension m = 2n + 1.  Each group is
    one (S, m) array; its 2m perturbed copies x +- FD_STEP e_j form one
    (2, S, m, m) array that goes through the map in a single call, and
    the Jacobians, pullbacks, factors and residuals of the whole group
    are array operations.  Raises ValueError when there is no sample.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    groups: dict[int, list[np.ndarray]] = {}
    for pt in samples:
        x = np.concatenate([pt.w.real, -pt.w.imag, [pt.z]])
        groups.setdefault(x.size, []).append(x)
    if not groups:
        raise ValueError("need at least one sample")
    worst = 0.0
    min_factor = math.inf
    for m, rows in groups.items():
        x = np.array(rows)  # (S, m)
        step = FD_STEP * np.eye(m)  # row j is FD_STEP e_j
        shifted = np.stack([x[:, None, :] + step, x[:, None, :] - step])  # (2, S, m, m)
        image = _squeeze_real(shifted, N)
        # jac[s, i, j] = dF_i/dx_j at sample s
        jac = np.swapaxes((image[0] - image[1]) / (2.0 * FD_STEP), 1, 2)
        beta = np.matmul(_alpha_prequant(_squeeze_real(x, N))[:, None, :], jac)[:, 0, :]
        alpha = _alpha_prequant(x)
        factor = np.sum(beta * alpha, axis=-1) / np.sum(alpha * alpha, axis=-1)
        worst = max(worst, float(np.max(np.abs(beta - factor[:, None] * alpha))))
        min_factor = min(min_factor, float(np.min(factor)))
    return ContactCheck(worst, min_factor)

"""Discretized action form on broken loops and its exact spectrum.

The action of a broken loop with MN nodes q_0, ..., q_{MN-1} (cyclic
indexing) under the time-(A/M) oscillator flow is the quadratic form

    Omega(A) = sum_l S_{A/M}(q_l, q_{l+1}),

a circulant: with phi = 2A/M the matrix has cot(phi) on the diagonal,
-1/(2 sin phi) on the two cyclic off-diagonals, and zeros elsewhere; the
n-dimensional version is this matrix tensored with the n x n identity.
Roots of unity diagonalize it:

    lambda_l = cot(phi) - csc(phi) cos(2 pi l / MN),   l = 0..MN-1,

with lambda_l = lambda_{MN-l} and eigenvectors the real and imaginary
parts of (1, w^l, w^{2l}, ...), w = exp(2 pi i / MN).

Substituting -A = T pi / (N c) for an exact rational capacity c = pi R^2
makes the positivity threshold exact: lambda_l > 0 iff l < T/c for
l >= 1, so the positive-pair count is ceil(T/c) - 1, computed in
rational arithmetic.  A self-contained Jacobi eigensolver serves as the
oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoConvergence, OverBudget, SingularAngle
from .primes import is_prime

#: Jacobi sweep limit and relative off-diagonal convergence threshold
SWEEP_LIMIT = 100
OFF_DIAGONAL_TOL = 1e-12
#: largest matrix size MN the action form is built at: 17 x 17, whose
#: Jacobi solve takes ~3.6 s on 2 cores (the cost grows as ~MN^3)
MAX_ACTION_SIZE = 289


@dataclass
class CirculantActionForm:
    """Parameters (n, N, M, A) of the discretized action form.

    n is dim E, N an odd prime > 3, M a positive integer with MN odd,
    and A < 0 the flow parameter with |2A/M| < pi/2.  M defaults to N.
    A = 0 is constructible but rejected with SingularAngle by every
    operation that needs the endpoint chart.
    """

    n: int
    N: int
    M: int | None = None
    A: float = -0.1

    def __post_init__(self):
        if self.M is None:
            self.M = self.N
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.N <= 3 or not is_prime(self.N):
            raise ValueError("N must be an odd prime > 3")
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if (self.M * self.N) % 2 == 0:
            raise ValueError("M*N must be odd")
        self.A = float(self.A)
        if self.A > 0:
            raise ValueError("flow parameter A must be nonpositive")
        if abs(2.0 * self.A / self.M) >= math.pi / 2.0:
            raise ValueError("|2A/M| must be below pi/2")

    @property
    def size(self) -> int:
        return self.M * self.N

    @property
    def phi(self) -> float:
        return 2.0 * self.A / self.M


def _check_phi(phi: float) -> float:
    s = math.sin(phi)
    if abs(s) < 1e-12:
        raise SingularAngle(f"sin(2A/M) = {s:.2e}; action form undefined")
    return s


def build_action_matrix(form: CirculantActionForm) -> np.ndarray:
    """Scalar MN x MN circulant of the action form (tensor with I_n for dim n).

    Raises OverBudget, before allocating, when MN exceeds MAX_ACTION_SIZE.
    """
    size = form.size
    if size > MAX_ACTION_SIZE:
        raise OverBudget(f"matrix size MN = {size} is above the budget MAX_ACTION_SIZE = {MAX_ACTION_SIZE}")
    s = _check_phi(form.phi)
    C = np.zeros((size, size))
    np.fill_diagonal(C, math.cos(form.phi) / s)
    off = -0.5 / s
    for l in range(size):
        C[l, (l + 1) % size] += off
        C[(l + 1) % size, l] += off
    return C


def analytic_eigenvalues(form: CirculantActionForm) -> np.ndarray:
    """lambda_l = cot(phi) - csc(phi) cos(2 pi l / MN) for l = 0..MN-1.

    The cosine is evaluated at min(l, MN-l) so the pairing
    lambda_l = lambda_{MN-l} holds bit-for-bit, as the parity of the
    cosine demands.
    """
    s = _check_phi(form.phi)
    l = np.arange(form.size)
    k = np.minimum(l, form.size - l)
    return math.cos(form.phi) / s - np.cos(2.0 * math.pi * k / form.size) / s


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One sweep of the round-robin ordering, as (p, q, p ++ q) index arrays.

    The circle method: index 0 stays put while the others rotate one
    place per round, and each of the n - 1 rounds (an odd n is padded
    with a dummy index n) pairs the order head to tail.  Pairs touching
    the dummy are dropped, so every round holds floor(n/2) disjoint
    pairs p < q, and every such pair appears exactly once per sweep.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, r)))
        a, b = order[: m // 2], order[::-1][: m // 2]
        real = (a < n) & (b < n)
        p, q = np.minimum(a, b)[real], np.maximum(a, b)[real]
        rounds.append((p, q, np.concatenate((p, q))))
    return rounds


def jacobi_eigensystem(matrix, sweep_limit: int = SWEEP_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by Jacobi rotations.

    Each sweep visits every off-diagonal pair once in the round-robin
    ordering of Brent and Luk (1985): n - 1 rounds of floor(n/2)
    disjoint pairs (p, q).  Rotations on disjoint pairs commute, so a
    round computes all of its (c, s) at once and applies them together,
    with index arrays, to the rows of A, then its columns, then V.

    Classic threshold scheme: the first 3 sweeps skip entries below
    0.2 * sum|off| / n^2, later sweeps rotate everything and, from the
    fifth on, zero out entries negligible against their diagonal
    neighbours.  A skipped pair gets the identity rotation (c, s) =
    (1, 0), which leaves its rows and columns bit-for-bit unchanged.
    Converges when the off-diagonal Frobenius norm falls below 1e-12
    relative to the input scale (or reaches exactly zero).
    Self-contained on purpose: this is the oracle the closed-form
    spectrum is checked against.

    Returns (eigenvalues, column eigenvectors), unsorted.
    Raises NoConvergence, carrying the sweep count, the final
    off-diagonal norm, its bound and the size, after sweep_limit sweeps.
    """
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(A))))):
        raise ValueError("matrix must be symmetric")
    n = A.shape[0]
    V = np.eye(n)
    k = n // 2
    rounds = _round_robin(n)
    swapped = np.empty((2, k, n))
    upper = np.triu_indices(n, 1)
    off_bound = OFF_DIAGONAL_TOL * max(1.0, float(np.linalg.norm(A)))
    sweep = 0
    # a skipped pair may divide by a zero h or apq; np.where discards those lanes
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            off = A[upper]
            sm = float(np.sum(np.abs(off)))
            off_norm = math.sqrt(2.0 * float(off @ off))
            if sm == 0.0 or off_norm <= off_bound:
                return np.diag(A).copy(), V
            if sweep == sweep_limit:
                raise NoConvergence(n, off_bound, sweeps=sweep, off_norm=off_norm)
            tresh = 0.2 * sm / (n * n) if sweep < 3 else 0.0
            for p, q, pq in rounds:
                apq = A[p, q]
                d = A[pq, pq]
                h = d[k:] - d[:k]
                g = 100.0 * np.abs(apq)
                rotate = np.abs(apq) > tresh
                clear = rotate
                if sweep > 3:
                    tiny = np.abs(d) + np.concatenate((g, g)) == np.abs(d)
                    negligible = tiny[:k] & tiny[k:]
                    rotate = rotate & ~negligible
                    clear = rotate | negligible
                theta = 0.5 * h / apq
                t = 1.0 / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
                t = np.where(np.abs(h) + g == np.abs(h), apq / h, np.where(theta < 0.0, -t, t))
                t = np.where(rotate, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # rows p ++ q as a (2, k, n) stack: new p = c p - s q, new q = s p + c q,
                # updated in place: fresh temporaries make a large n ~2x slower
                cs = np.concatenate((c, c)).reshape(2, k, 1)
                sn = np.concatenate((-s, s)).reshape(2, k, 1)
                for M in (A, A.T, V.T):
                    R = M[pq].reshape(2, k, n)
                    np.multiply(R[::-1], sn, out=swapped)
                    R *= cs
                    R += swapped
                    M[pq] = R.reshape(2 * k, n)
                kept = np.where(clear, 0.0, apq)
                A[p, q] = kept
                A[q, p] = kept
            sweep += 1


def numeric_eigenvalues(matrix) -> np.ndarray:
    """Sorted spectrum of a symmetric matrix via the Jacobi oracle.

    Each eigenpair residual ||C v - lambda v|| is validated against
    1e-9 relative to the matrix scale; a larger one raises
    NoConvergence carrying the residual and the bound.
    """
    C = np.asarray(matrix, dtype=float)
    w, V = jacobi_eigensystem(C)
    resid = float(np.max(np.linalg.norm(C @ V - V * w, axis=0)))
    bound = 1e-9 * max(1.0, float(np.linalg.norm(C)))
    if resid > bound:
        raise NoConvergence(C.shape[0], bound, residual=resid)
    return np.sort(w)


def _positive_rationals(T, c) -> tuple[Fraction, Fraction]:
    T = Fraction(T)
    c = Fraction(c)
    if T <= 0 or c <= 0:
        raise ValueError("T and c must be positive")
    return T, c


def substituted_flow_parameter(N: int, T, c) -> float:
    """The flow parameter A = -T pi / (N c) probed at window width T.

    N, T and c must be positive; ValueError otherwise.
    """
    if N < 1:
        raise ValueError("N must be positive")
    T, c = _positive_rationals(T, c)
    return -math.pi * float(T / (N * c))


def positive_index(n: int, N: int, M: int, T, c) -> int:
    """Number of positive-eigenvalue pairs: ceil(T/c) - 1, exact.

    T and c are exact rationals (c is the capacity pi R^2); at the
    substituted flow parameter -A = T pi/(N c) the eigenvalue lambda_l
    is positive iff l < T/c, with strict inequality governing integer
    ratios.  The count is independent of n; each pair carries n complex
    coordinates.  Requires T/c < MN/4 so the substitution stays in the
    admissible window.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T, c = _positive_rationals(T, c)
    ratio = T / c
    if ratio >= Fraction(M * N, 4):
        raise ValueError("substituted flow parameter out of the admissible window")
    return math.ceil(ratio) - 1


def positive_count_from_eigenvalues(N: int, M: int, T, c, tol: float = 1e-9) -> int:
    """Brute-force positive count over l = 1..(MN-1)/2 at the substituted A.

    Floating-point oracle for positive_index; eigenvalues within tol of
    zero are not counted (the boundary eigenvalue at integer T/c).
    """
    theta = float(Fraction(T) / Fraction(c)) * 2.0 * math.pi / (M * N)
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("substituted angle outside the admissible window")
    s = math.sin(theta)
    if abs(s) < 1e-12:
        raise SingularAngle("substituted angle is singular")
    l = np.arange(1, (M * N - 1) // 2 + 1)
    lam = (np.cos(2.0 * math.pi * l / (M * N)) - math.cos(theta)) / s
    return int(np.sum(lam > tol))


def cyclic_weights(n: int, index_count: int, N: int) -> list[int]:
    """Rotation weights mod N of the positive pairs: 1..I, each n times.

    Pair l rotates by the l-th power of the primitive N-th root, and the
    n coordinates of E share each pair's weight.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if index_count < 0:
        raise ValueError("index count must be >= 0")
    if N <= 3 or not is_prime(N):
        raise ValueError("N must be an odd prime > 3")
    return [l % N for l in range(1, index_count + 1) for _ in range(n)]


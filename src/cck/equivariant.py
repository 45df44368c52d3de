"""Cyclic group cohomology over F_N, lens spaces and the Euler class.

For G = Z/N, N an odd prime, H*(BG; F_N) = F_N[u] (x) Lambda[x] is
one-dimensional in every degree: that is Ext between trivial
F_N[G]-modules, and the unbounded profile of the point.  A weighted
rotation action on the sphere S(V), V = L_(w_1) + ... + L_(w_d), gets
its equivariant cohomology from the Gysin sequence of S(V) -> BG, in
which the Euler class e(V) = (prod w_i mod N) u^d acts between lines
as one scalar, at O(1) per degree.  A nonzero scalar gives dimension 1
in degrees 0..2d-1 and 0 above (the bounded lens profile of a free
action); a zero one, from a weight 0 mod N, gives dimension 2 from
degree 2d-1 on.  So the scalar alone, euler_class, decides between
the bounded profile and the unbounded one of the point: the
certificate reads it and builds no profile.

This is the production path, and it builds no matrix.  The dense route
on the N x N regular representation (generator_matrix, resolution_maps,
and cck.fp), with the 2-periodic resolution ... -> F_N[G] --norm-->
F_N[G] --(g-1)--> F_N[G] --aug--> F_N -> 0, is the reference the tests
compare against.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import NonFreeAction
from .fp import FpMatrix
from .primes import is_prime


def _require_odd_prime(N: int) -> None:
    if not is_prime(N) or N == 2:
        raise ValueError("N must be an odd prime")


@dataclass
class GradedFpVector:
    """Graded dimensions of an F_N vector space, with a boundedness flag.

    top is the largest degree carrying a nonzero dimension, or None when
    the pattern continues without bound beyond the computed window.
    """

    dims: dict[int, int] = field(default_factory=dict)
    top: int | None = None

    def __post_init__(self):
        if self.top is not None:
            for deg, dim in self.dims.items():
                if dim and deg > self.top:
                    raise ValueError("nonzero dimension above the declared top")

    @property
    def bounded(self) -> bool:
        return self.top is not None


@dataclass(frozen=True)
class LensData:
    """Modulus N and the unit weights of a free cyclic sphere action."""

    N: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        _require_odd_prime(self.N)


def generator_matrix(N: int) -> FpMatrix:
    """Permutation matrix of g acting on the regular representation."""
    return FpMatrix.from_rows(
        [[1 if i == (j + 1) % N else 0 for j in range(N)] for i in range(N)], N
    )


def resolution_maps(N: int) -> tuple[FpMatrix, FpMatrix]:
    """Multiplication by (g - 1) and by the norm on the regular representation.

    rank(g - 1) = N - 1 and rank(norm) = 1, and the two compose to zero
    in both orders: the 2-periodic resolution of the trivial module.
    This dense view is the reference the Gysin path is tested against.
    """
    _require_odd_prime(N)
    g = generator_matrix(N)
    tminus1 = FpMatrix.from_rows(
        [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(g.entries)], N
    )
    norm = FpMatrix.from_rows([[1] * N for _ in range(N)], N)
    return tminus1, norm


def euler_class(N: int, weights: Iterable[int]) -> int:
    """The scalar prod w_i mod N of the Euler class e(V) = (prod w_i) u^d.

    It is nonzero exactly when every weight is a unit mod N, that is
    when the action on S(V) is free; no weights give the empty product 1.
    weights may be any iterable, such as a range, so a caller need not
    build a list.
    """
    e = 1
    for w in weights:
        e = e * w % N
    return e


def _gysin_dims(lens: LensData, max_degree: int) -> list[int]:
    """dim H^k_G(S(V); F_N) for k = 0..max_degree, from the Gysin sequence.

    V is the sum of the lines of the lens weights, d = len(weights), and
    multiplication by the Euler class maps H^j(BG) to H^(j+2d), both
    one-dimensional for j >= 0, by the scalar euler_class(N, weights).  The
    exact sequence

        H^(k-2d)(BG) -e-> H^k(BG) -> H^k_G(S(V)) -> H^(k-2d+1)(BG) -e-> H^(k+1)(BG)

    gives dim coker(e on H^(k-2d)) + dim ker(e on H^(k-2d+1)).
    """
    e = euler_class(lens.N, lens.weights)
    shift = 2 * len(lens.weights)
    # e is injective from the line H^j(BG), j >= 0, exactly when the scalar is nonzero
    return [
        (0 if e and k >= shift else 1)  # coker of e: H^(k-2d) -> H^k
        + (1 if not e and k >= shift - 1 else 0)  # ker of e on H^(k-2d+1)
        for k in range(max_degree + 1)
    ]


def lens_cohomology(lens: LensData) -> GradedFpVector:
    """F_N cohomology of the quotient of the free weighted sphere action.

    For d weights the sphere has dimension 2d - 1 and, when the Euler
    class is nonzero, the result is one-dimensional in every degree
    0..2d-1 and zero above: bounded with top = 2d - 1.  Raises
    NonFreeAction when the computed profile is unbounded, which happens
    exactly when a weight is 0 mod N: the Euler class vanishes and the
    action fixes a subsphere.
    """
    if not lens.weights:
        raise ValueError("weight list must be nonempty")
    top = 2 * len(lens.weights) - 1
    # from degree top on the profile is constant, so one degree past top decides it
    dims = _gysin_dims(lens, top + 1)
    if dims[top + 1]:
        raise NonFreeAction(
            f"Euler class of weights {lens.weights} is 0 mod {lens.N}: "
            f"the profile is 2-dimensional from degree {top} on, unbounded"
        )
    return GradedFpVector(dict(enumerate(dims[: top + 1])), top=top)


def point_equivariant_cohomology(N: int, max_degree: int) -> GradedFpVector:
    """H^i(Z/N; F_N) for i = 0..max_degree: all one-dimensional, unbounded.

    The boundedness flag is left unset: the fixed point of the trivial
    action keeps contributing in every degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    _require_odd_prime(N)
    return GradedFpVector(dict.fromkeys(range(max_degree + 1), 1), top=None)


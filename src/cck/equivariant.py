"""Homological algebra over the group ring F_N[Z/N].

The trivial module has the 2-periodic free resolution

    ... -> F_N[G] --norm--> F_N[G] --(g-1)--> F_N[G] --aug--> F_N -> 0

with norm = 1 + g + ... + g^(N-1); applying module homs into the
trivial module kills every differential, so Ext^i is one-dimensional in
every degree i >= 0.  The same machinery computes the F_N cohomology of
the quotient of an odd sphere by a free weighted rotation action: the
equivariant cell complex has one free module in each degree 0..2d-1
(d = number of weights), odd differentials multiply by (g^w - 1) with
the weight of the corresponding complex coordinate and even ones by the
norm.  Its hom-complex into the trivial module has one-dimensional
cohomology in every degree up to the top; the point with trivial action
yields the same dimensions in every degree without bound, and the
mechanized dichotomy between the two behaviours is the contradiction
engine of the certificate.

Every differential is multiplication by a group-ring element, g^w - 1 or
the norm, kept as its N coefficients.  hom_G(F_N[G], F_N) is the line of
constant functionals, so each cochain map is the 1 x 1 matrix of the
element's augmentation mod N, and the cohomology comes from exact ranks
of those.  No N x N matrix is built on this path; the dense regular
representation (generator_matrix, resolution_maps) is kept as the
reference the tests compare against.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import InvalidInput, NonFreeAction
from .fp import FpMatrix, cochain_cohomology_dims
from .primes import is_prime


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

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


@dataclass(frozen=True)
class LensData:
    """Modulus N and the unit weights of a free cyclic sphere action."""

    N: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if self.N <= 2 or not is_prime(self.N):
            raise ValueError("N must be an odd prime")


class Dichotomy(enum.Enum):
    CONTRADICTION = "contradiction"


def generator_matrix(N: int) -> FpMatrix:
    """Permutation matrix of g acting on the regular representation."""
    return FpMatrix.from_rows(
        [[1 if i == (j + 1) % N else 0 for j in range(N)] for i in range(N)], N
    )


def resolution_maps(N: int) -> tuple[FpMatrix, FpMatrix]:
    """Multiplication by (g - 1) and by the norm on the regular representation.

    rank(g - 1) = N - 1 and rank(norm) = 1, and the two compose to zero
    in both orders: the 2-periodic resolution of the trivial module.
    This dense view is the reference the group-ring path is tested
    against.
    """
    if not is_prime(N) or N == 2:
        raise ValueError("N must be an odd prime")
    g = generator_matrix(N)
    tminus1 = FpMatrix.from_rows(
        [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(g.entries)], N
    )
    norm = FpMatrix.from_rows([[1] * N for _ in range(N)], N)
    return tminus1, norm


def _shift_minus_one(N: int, w: int) -> tuple[int, ...]:
    """g^w - 1 in F_N[Z/N], as the coefficients of 1, g, ..., g^(N-1)."""
    coeffs = [0] * N
    coeffs[0] = N - 1
    coeffs[w % N] = (coeffs[w % N] + 1) % N
    return tuple(coeffs)


def _norm(N: int) -> tuple[int, ...]:
    """1 + g + ... + g^(N-1) in F_N[Z/N]."""
    return (1,) * N


def _hom_complex_dims(differentials: Iterable[tuple[int, ...]], N: int) -> list[int]:
    """H^0..H^m of hom_G(C_., F_N) for a complex of free rank-one modules.

    The i-th element of differentials (from 1) is the group-ring element
    by which C_i -> C_(i-1) multiplies; an iterator keeps only one of them
    in memory at a time.  hom_G(F_N[G], F_N) is the line of constant
    functionals, and precomposing one with multiplication by x scales it
    by the augmentation of x, so every cochain map is that 1 x 1 matrix.
    """
    deltas = [FpMatrix.from_rows([[sum(x)]], N) for x in differentials]
    return cochain_cohomology_dims(deltas, [1] * (len(deltas) + 1))


def _periodic_differentials(N: int, count: int) -> list[tuple[int, ...]]:
    if not is_prime(N) or N == 2:
        raise ValueError("N must be an odd prime")
    tminus1, norm = _shift_minus_one(N, 1), _norm(N)
    return [tminus1 if i % 2 == 1 else norm for i in range(1, count + 1)]


def ext_trivial(N: int, degree: int) -> int:
    """dim Ext^degree between trivial F_N[Z/N]-modules; equals 1 for all degrees."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    dims = _hom_complex_dims(_periodic_differentials(N, degree + 1), N)
    return dims[degree]


def lens_cohomology(lens: LensData) -> GradedFpVector:
    """F_N cohomology of the quotient of the free weighted sphere action.

    For d weights the sphere has dimension 2d - 1 and the result is
    one-dimensional in every degree 0..2d-1, zero above: bounded with
    top = 2d - 1.  Raises NonFreeAction when a weight is 0 mod N (the
    action fixes a subsphere and the quotient is not a manifold of this
    shape).
    """
    if not lens.weights:
        raise ValueError("weight list must be nonempty")
    N = lens.N
    for w in lens.weights:
        if w % N == 0:
            raise NonFreeAction(f"weight {w} is not a unit mod {N}")
    d = len(lens.weights)
    norm = _norm(N)
    differentials = (
        _shift_minus_one(N, lens.weights[i // 2]) if i % 2 == 0 else norm
        for i in range(2 * d - 1)
    )
    dims = _hom_complex_dims(differentials, N)
    return GradedFpVector({i: dims[i] for i in range(2 * d) if dims[i]}, top=2 * d - 1)


def point_equivariant_cohomology(N: int, max_degree: int) -> GradedFpVector:
    """H^i(Z/N; F_N) for i = 0..max_degree: all one-dimensional, unbounded.

    The boundedness flag is left unset: the fixed point of the trivial
    action keeps contributing in every degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    dims = _hom_complex_dims(_periodic_differentials(N, max_degree + 1), N)
    return GradedFpVector({i: dims[i] for i in range(max_degree + 1) if dims[i]}, top=None)


def boundedness_dichotomy(free_part: GradedFpVector, fixed_part: GradedFpVector) -> Dichotomy:
    """Certify the contradiction between a bounded and an unbounded profile.

    The cone of the restriction class cannot be both the bounded lens
    cohomology (free action side) and the unbounded split cohomology
    (fixed point side); given one profile of each kind the verdict is
    Contradiction.  Raises InvalidInput when the flags do not match the
    preconditions.
    """
    if not free_part.bounded:
        raise InvalidInput("free-action side must be bounded")
    if fixed_part.bounded:
        raise InvalidInput("fixed-point side must be unbounded")
    return Dichotomy.CONTRADICTION

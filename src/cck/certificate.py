"""End-to-end non-squeezing certification.

Sizes are exact rational capacities c = pi r^2.  Given
1 <= c_r < c_R, a witness prime N > 3 with

    ceil(N / c_R) < ceil(N / c_r)

forces the restriction degrees deg(c) = 2n ceil(N/c) - 2n + 2 to
satisfy deg_R < deg_r, while composing restrictions would force
deg_R = deg(j) + deg_r >= deg_r: the contradiction certifying that the
larger ball cannot be squeezed into the smaller one.  Nonvanishing of
the restriction classes is certified through the boundedness dichotomy:
the weighted sphere action of the positive spectral pairs has bounded
quotient cohomology exactly when it is free, while the fixed-point side
is unbounded.  The Gysin sequence reduces freeness to one scalar, the
Euler class of the weights (equivariant.euler_class), so each side
costs one product of its n ceil(N/c) - n weights mod N.

Ceilings at integer boundaries decide verdicts, so capacities are
Fractions everywhere and never floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from . import equivariant, spectrum
from .errors import (
    CapacityTooSmall,
    InvalidCapacities,
    NonFreeAction,
    NoWitnessBelowLimit,
)
from .primes import is_prime, primes_from

DEFAULT_WITNESS_LIMIT = 10**6


def as_capacity(value) -> Fraction:
    """Exact positive rational capacity from int, str ('p/q'), or Fraction."""
    try:
        c = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidCapacities(f"cannot parse capacity {value!r}") from exc
    if c <= 0:
        raise InvalidCapacities(f"capacity must be positive, got {c}")
    return c


class RegimeLabel(enum.Enum):
    SUB_QUANTUM_SQUEEZABLE = "SubQuantumSqueezable"
    INTEGER_GAP = "IntegerGap"
    LARGE_SCALE = "LargeScale"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class RegimeReport:
    labels: tuple[RegimeLabel, ...]
    primary: RegimeLabel
    integer_witness: int | None = None


class Verdict(enum.Enum):
    OBSTRUCTED = "Obstructed"
    NO_OBSTRUCTION = "NoObstruction"


@dataclass(frozen=True)
class NonSqueezeCertificate:
    n: int
    c_r: Fraction
    c_R: Fraction
    N: int
    ceil_R: int
    ceil_r: int
    deg_R: int
    deg_r: int
    verdict: Verdict
    trace: str

    def __post_init__(self):
        if self.verdict is Verdict.OBSTRUCTED:
            if self.N <= 3 or not is_prime(self.N):
                raise ValueError("witness must be a prime > 3")
            if not (self.ceil_R < self.ceil_r and self.deg_R < self.deg_r):
                raise ValueError("obstructed certificate requires strict degree drop")


def classify_regime(c_r, c_R, n: int) -> RegimeReport:
    """All applicable regime labels for the capacity pair, plus a primary.

    SubQuantumSqueezable: c_R < 1 and n >= 2 (a single twist squeezes).
    IntegerGap: some integer m lies in [c_r, c_R].
    LargeScale: 1 <= c_r < c_R, the certified non-squeezing regime.
    Unresolved: none of the above (the n = 1 sub-quantum case).
    LargeScale takes display precedence when several labels apply.
    """
    c_r = as_capacity(c_r)
    c_R = as_capacity(c_R)
    if c_r > c_R:
        raise InvalidCapacities(f"need c_r <= c_R, got {c_r} > {c_R}")
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = []
    witness = None
    if c_R < 1 and n >= 2:
        labels.append(RegimeLabel.SUB_QUANTUM_SQUEEZABLE)
    if math.ceil(c_r) <= math.floor(c_R):
        labels.append(RegimeLabel.INTEGER_GAP)
        witness = math.ceil(c_r)
    if 1 <= c_r < c_R:
        labels.append(RegimeLabel.LARGE_SCALE)
    if not labels:
        labels.append(RegimeLabel.UNRESOLVED)
    primary = labels[-1] if RegimeLabel.LARGE_SCALE in labels else labels[0]
    return RegimeReport(tuple(labels), primary, witness)


def restriction_degree(n: int, N: int, c) -> int:
    """Degree 2n ceil(N/c) - 2n + 2 of the ball restriction class.

    Requires c >= 1: below capacity 1 the class is not certified nonzero
    and the degree has no meaning for the certificate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if N <= 3 or not is_prime(N):
        raise ValueError("N must be a prime > 3")
    c = as_capacity(c)
    if c < 1:
        raise CapacityTooSmall(f"restriction degree needs capacity >= 1, got {c}")
    return 2 * n * math.ceil(Fraction(N) / c) - 2 * n + 2


def find_witness_prime(c_r, c_R, limit: int = DEFAULT_WITNESS_LIMIT) -> int:
    """Smallest prime N with 3 < N <= limit and ceil(N/c_R) < ceil(N/c_r)."""
    c_r = as_capacity(c_r)
    c_R = as_capacity(c_R)
    if not c_r < c_R:
        raise InvalidCapacities(f"need c_r < c_R, got {c_r} >= {c_R}")
    if limit < 5:
        raise ValueError("limit must be at least 5")
    for N in primes_from(5):
        if N > limit:
            break
        if math.ceil(Fraction(N) / c_R) < math.ceil(Fraction(N) / c_r):
            return N
    raise NoWitnessBelowLimit(
        f"no witness prime below {limit} separates ceil(N/{c_R}) from ceil(N/{c_r})"
    )


def _certify_lens_side(n: int, N: int, c: Fraction) -> int:
    """Free-action data for one capacity: the positive index.

    The positive pairs rotate their n coordinates by the weights of
    spectrum.cyclic_weights; the action on their unit sphere is free,
    and its quotient cohomology bounded, exactly when the Euler class of
    these weights is nonzero.  Raises NonFreeAction when it vanishes.
    """
    index = math.ceil(Fraction(N) / c) - 1
    lens = equivariant.LensData(N, tuple(spectrum.cyclic_weights(n, index, N)))
    if not equivariant.euler_class(lens):
        raise NonFreeAction(
            f"Euler class of the {len(lens.weights)} weights of {index} positive pairs is 0 mod {N}"
        )
    return index


def nonsqueezing_certificate(
    n: int, c_r, c_R, limit: int = DEFAULT_WITNESS_LIMIT
) -> NonSqueezeCertificate:
    """Machine-checkable obstruction to squeezing capacity c_R into c_r.

    Requires 1 <= c_r < c_R.  Finds the smallest witness prime, computes
    both restriction degrees, certifies nonvanishing of the restriction
    classes through a nonzero Euler class for both capacities, and emits
    the Obstructed verdict with a human-readable contradiction trace.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c_r = as_capacity(c_r)
    c_R = as_capacity(c_R)
    if c_r < 1:
        raise CapacityTooSmall(f"certified regime needs c_r >= 1, got {c_r}")
    if not c_r < c_R:
        raise InvalidCapacities(f"need c_r < c_R, got {c_r} >= {c_R}")
    N = find_witness_prime(c_r, c_R, limit)
    ceil_R = math.ceil(Fraction(N) / c_R)
    ceil_r = math.ceil(Fraction(N) / c_r)
    deg_R = restriction_degree(n, N, c_R)
    deg_r = restriction_degree(n, N, c_r)
    idx_R = _certify_lens_side(n, N, c_R)
    idx_r = _certify_lens_side(n, N, c_r)
    trace = (
        f"witness prime N = {N} (search limit {limit}): "
        f"ceil(N/c_R) = {ceil_R} < {ceil_r} = ceil(N/c_r); "
        f"deg([j_R*]) = {deg_R} and deg([j_r*]) = {deg_r}; "
        f"deg([j_R*]) = deg([j*]) + deg([j_r*]) >= deg([j_r*]) is violated "
        f"({deg_R} < {deg_r}); "
        f"boundedness dichotomy certified with free weighted actions of "
        f"{idx_R} and {idx_r} positive pairs."
    )
    return NonSqueezeCertificate(
        n=n,
        c_r=c_r,
        c_R=c_R,
        N=N,
        ceil_R=ceil_R,
        ceil_r=ceil_r,
        deg_R=deg_R,
        deg_r=deg_r,
        verdict=Verdict.OBSTRUCTED,
        trace=trace,
    )

"""cck: contact-ball certification kit.

Libraries for the explicit invariants of prequantized balls: Hamiltonian
rotations and their generating functions, the projector block geometry,
the circulant action-form spectrum, cyclic group cohomology over F_N,
and machine-checkable non-squeezing certificates, all cross-validated
against independent brute-force oracles.
"""

from . import certificate, equivariant, hamflow, projector_geometry, spectrum
from .certificate import (
    NonSqueezeCertificate,
    RegimeLabel,
    Verdict,
    as_capacity,
    classify_regime,
    find_witness_prime,
    nonsqueezing_certificate,
    restriction_degree,
)
from .errors import (
    CapacityTooSmall,
    CckError,
    InvalidCapacities,
    NoConvergence,
    NonFreeAction,
    NonStationary,
    NoWitnessBelowLimit,
    OutsideDomain,
    OverBudget,
    SingularAngle,
)

__version__ = "0.1.0"

__all__ = [
    "certificate",
    "equivariant",
    "hamflow",
    "projector_geometry",
    "spectrum",
    "NonSqueezeCertificate",
    "RegimeLabel",
    "Verdict",
    "as_capacity",
    "classify_regime",
    "find_witness_prime",
    "nonsqueezing_certificate",
    "restriction_degree",
    "CapacityTooSmall",
    "CckError",
    "InvalidCapacities",
    "NoConvergence",
    "NonFreeAction",
    "NonStationary",
    "NoWitnessBelowLimit",
    "OutsideDomain",
    "OverBudget",
    "SingularAngle",
]

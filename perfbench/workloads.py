"""The operations of each workload, made from a seed.

An operation is a dict with the CLI argv, the expected exit code, the
subcommand, and the inputs the checks recompute from.  The seed changes
the inputs and their order but never the work: certificate capacities
move only inside the cell that keeps the witness prime and both
ceilings, spectra keep their matrices (the seed picks n and how T/c is
written), gamma and squeeze work does not depend on the values drawn,
and ext keeps its weight multisets.  So every seed costs the same, and
runs with different seeds can be compared.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import checks

WORKLOADS = ("certify", "spectrum_oracle", "mixed_cli")

#: (n, c_r, c_R): in-regime pairs, witness primes 5..37; see README.md
CERTIFY_PAIRS = (
    (1, "1", "2"),
    (1, "3/2", "2"),
    (1, "1", "6/5"),
    (1, "1", "11/10"),
    (1, "1", "19/18"),
    (1, "11", "12"),
    (1, "19/2", "10"),
    (1, "10", "21/2"),
    (1, "17/2", "28/3"),
    (2, "1", "2"),
    (2, "1", "13/12"),
    (2, "11/2", "13/2"),
    (2, "15/2", "17/2"),
    (2, "11", "12"),
    (2, "10", "31/3"),
)

#: (n, c_r, c_R) outside 1 <= c_r < c_R: sub-quantum (n = 1, 2) and mixed
OUT_OF_REGIME = ((1, "1/2", "3/4"), (2, "1/3", "2/3"), (1, "1/2", "3/2"))

#: (N, M) rungs of the MN ladder 25, 35, 49, 55, 65, 77, 91, 121, 169
LADDER = ((5, 5), (7, 5), (7, 7), (11, 5), (13, 5), (11, 7), (13, 7), (11, 11), (13, 13))

#: ext --lens weight multisets and ext --max-degree depths
LENS = ((11, (1, 2, 3, 4, 5)), (13, (1, 2, 3, 4, 5, 6)), (17, (1, 2, 3, 4, 5, 6, 7, 8)))
POINT = ((7, 12), (13, 20), (19, 30))


def top_rung(seconds: int) -> int:
    """Largest ladder MN whose Jacobi solve fits the run: MN <= 16 seconds^(1/3).

    The solve costs ~MN^3, so the top rung stays near a two-hundredth of
    the run and a run makes dozens of passes: the fastest of many short
    operations repeats from run to run, that of a few long ones does not.
    """
    limit = 16.0 * seconds ** (1.0 / 3.0)
    return max([N * M for N, M in LADDER if N * M <= limit] or [LADDER[0][0] * LADDER[0][1]])


def certificate_op(rng: random.Random, n: int, cr: str, cR: str) -> dict:
    """A certificate op at a pair moved by up to 3/100 inside its work cell."""
    base = checks.witness(Fraction(cr), Fraction(cR))
    c_r, c_R = Fraction(cr), Fraction(cR)
    for _ in range(50):
        jr = c_r + Fraction(rng.randrange(30), 1000)
        jR = c_R + Fraction(rng.randrange(30), 1000)
        if jr < jR and checks.witness(jr, jR) == base:
            c_r, c_R = jr, jR
            break
    return {
        "argv": ["certificate", "--n", str(n), "--cr", str(c_r), "--cR", str(c_R)],
        "expect": 0, "cmd": "certificate", "n": n, "cr": str(c_r), "cR": str(c_R),
    }


def out_of_regime_op(rng: random.Random, n: int, cr: str, cR: str) -> dict:
    c_r = Fraction(cr) + Fraction(rng.randrange(30), 1000)
    c_R = Fraction(cR) + Fraction(rng.randrange(30), 1000)
    return {
        "argv": ["certificate", "--n", str(n), "--cr", str(c_r), "--cR", str(c_R)],
        "expect": 2, "cmd": "certificate", "n": n, "cr": str(c_r), "cR": str(c_R),
    }


def spectrum_op(rng: random.Random, N: int, M: int, kind: str) -> dict:
    """A spectrum op whose matrix depends only on (N, M, kind).

    Both kinds put |A| N / pi at I + 1/2, halfway between two sign
    changes, so no eigenvalue is near zero; I < N keeps the weights
    below N, and I + 1/2 < MN/4 keeps the angle admissible.
    """
    n = rng.choice((1, 2))
    room = math.ceil(M * N / 4 - 0.5) - 1
    op = {"expect": 0, "cmd": "spectrum", "n": n, "N": N, "M": M, "A": None, "T": None, "c": None}
    if kind == "T":
        ratio = Fraction(2 * min(N // 3, room) + 1, 2)
        c = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)))
        op.update(T=str(ratio * c), c=str(c))
        op["argv"] = ["spectrum", "--n", str(n), "--N", str(N), "--M", str(M), "--T", op["T"], "--c", op["c"]]
    else:
        op["A"] = -math.pi * (min((N - 1) // 2 - 1, room) + 0.5) / N
        op["argv"] = ["spectrum", "--n", str(n), "--N", str(N), "--M", str(M), "--A", repr(op["A"])]
    return op


def _vector(rng: random.Random, dim: int, radius: float) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    scale = radius * rng.uniform(0.2, 1.0) / math.sqrt(sum(x * x for x in v))
    return [round(x * scale, 4) for x in v]


def gamma_op(rng: random.Random, index: int, member: bool) -> dict:
    """A gamma --grid op with both critical angles interior.

    A member puts t inside the slab f2 <= t < f1, a non-member above f1
    (odd index) or below f2 (even index), each at least a quarter of the
    slab away from its ends.  A non-member costs the same on every draw,
    because the grid membership scan then visits every grid point; a
    member stops where the second sublevel run starts, which depends on
    the draw.
    """
    dim = 1 + index % 3
    while True:
        R = round(rng.uniform(0.8, 2.0), 4)
        q1, q2 = _vector(rng, dim, 0.6 * R), _vector(rng, dim, 0.6 * R)
        apart = min(math.dist(q1, q2), math.dist(q1, [-x for x in q2]))
        if apart < 0.1 * R:
            continue
        try:
            f1, f2 = checks.dense_extrema(R, tuple(q1), tuple(q2))
        except ValueError:
            continue
        if f1 - f2 > 0.05:
            break
    u = rng.uniform(0.25, 0.75) * (f1 - f2)
    t = round(f2 + u if member else (f1 + u if index % 2 else f2 - u), 6)
    return {
        "argv": ["gamma", f"--R={R!r}", "--q1=" + ",".join(map(repr, q1)),
                 "--q2=" + ",".join(map(repr, q2)), f"--t={t!r}", "--grid"],
        "expect": 0, "cmd": "gamma", "R": R, "q1": q1, "q2": q2, "t": t,
    }


def squeeze_op(rng: random.Random, index: int) -> dict:
    """A squeeze op; its fixed --seed and sample count fix the work."""
    N, R = 1 + index % 4, round(rng.uniform(0.5, 3.0), 4)
    return {
        "argv": ["squeeze", "--N", str(N), "--R", repr(R), "--samples", "60", "--seed", str(index)],
        "expect": 0, "cmd": "squeeze", "N": N, "R": R,
    }


def lens_op(rng: random.Random, N: int, weights: tuple[int, ...]) -> dict:
    order = list(weights)
    rng.shuffle(order)
    return {
        "argv": ["ext", "--N", str(N), "--lens", ",".join(map(str, order))],
        "expect": 0, "cmd": "ext", "lens": order,
    }


def point_op(N: int, depth: int) -> dict:
    return {
        "argv": ["ext", "--N", str(N), "--max-degree", str(depth)],
        "expect": 0, "cmd": "ext", "lens": None, "max_degree": depth,
    }


def build(workload: str, seed: int, seconds: int) -> list[dict]:
    """The operations of one pass, in the order a repetition runs them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        ops = [certificate_op(rng, *pair) for pair in CERTIFY_PAIRS]
    elif workload == "spectrum_oracle":
        rungs = [(N, M) for N, M in LADDER if N * M <= top_rung(seconds)]
        ops = [spectrum_op(rng, N, M, kind) for N, M in rungs for kind in "TA"]
    elif workload == "mixed_cli":
        ops = [gamma_op(rng, i, member=i < 4) for i in range(24)]
        ops += [squeeze_op(rng, i) for i in range(12)]
        ops += [lens_op(rng, N, w) for N, w in LENS]
        ops += [point_op(N, depth) for N, depth in POINT]
        ops += [certificate_op(rng, *pair) for pair in CERTIFY_PAIRS[:4]]
        ops += [out_of_regime_op(rng, *pair) for pair in OUT_OF_REGIME]
        ops += [spectrum_op(rng, 5, 3, "T"), spectrum_op(rng, 7, 3, "T"), spectrum_op(rng, 5, 5, "A")]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops

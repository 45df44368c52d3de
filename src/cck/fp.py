"""Exact linear algebra over the prime field F_p.

Everything here is integer arithmetic with Gaussian elimination mod p;
no floating point is involved anywhere.  This is only the dense oracle:
products, kernels, solve_in_basis, restricted_map and
cochain_cohomology_dims realize the hom complexes of cck.equivariant on
the N x N regular representation, which the tests compare with the
Gysin computation of the production path, so plain list-of-list
elimination is adequate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .primes import is_prime


@dataclass(frozen=True)
class FpMatrix:
    """A rows x cols matrix with entries reduced into [0, p)."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if any(not (0 <= x < self.p) for row in self.entries for x in row):
            raise ValueError("entries must be reduced mod p")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows, p: int) -> "FpMatrix":
        return cls(p, tuple(tuple(x % p for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("incompatible shapes or moduli")
        p = self.p
        ot = list(zip(*other.entries)) if other.entries else []
        prod = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in ot)
            for row in self.entries
        )
        return FpMatrix(p, prod)

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, tuple(zip(*self.entries)) if self.entries else ())

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def rank(self) -> int:
        return len(_row_echelon([list(r) for r in self.entries], self.p))

    def nullity(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of {x : A x = 0}, as column vectors of length cols."""
        return _kernel([list(r) for r in self.entries], self.cols, self.p)

    def apply(self, vec) -> tuple[int, ...]:
        p = self.p
        return tuple(sum(a * x for a, x in zip(row, vec)) % p for row in self.entries)


def _row_echelon(mat: list[list[int]], p: int) -> list[list[int]]:
    """In-place reduction; returns the nonzero rows (echelon form)."""
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col] % p != 0), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, p)
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p != 0:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [row for row in mat[:pivot_row]]


def _kernel(mat: list[list[int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    rows = _row_echelon([row[:] for row in mat], p)
    pivots = []
    for row in rows:
        pivots.append(next(j for j, x in enumerate(row) if x != 0))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i in range(len(rows) - 1, -1, -1):
            j = pivots[i]
            s = sum(rows[i][k] * vec[k] for k in range(j + 1, ncols)) % p
            vec[j] = (-s) % p
        basis.append(tuple(vec))
    return basis


def solve_in_basis(basis: list[tuple[int, ...]], vec, p: int) -> tuple[int, ...]:
    """Coordinates of vec in the given independent column basis.

    Raises ValueError if vec is not in the span.
    """
    n = len(vec)
    k = len(basis)
    aug = [[basis[j][i] for j in range(k)] + [vec[i] % p] for i in range(n)]
    rows = _row_echelon(aug, p)
    coords = [0] * k
    for row in rows:
        lead = next(j for j, x in enumerate(row) if x != 0)
        if lead == k:
            raise ValueError("vector not in span of basis")
        coords[lead] = row[k]
        for j in range(lead + 1, k):
            if row[j] != 0:
                raise ValueError("basis vectors are dependent")
    # echelon rows of the augmented system are fully reduced, so the
    # leading-coordinate reads above are the unique solution
    return tuple(coords)


def restricted_map(matrix: FpMatrix, domain_basis, codomain_basis) -> FpMatrix:
    """Matrix of x -> A x restricted to span(domain_basis) -> span(codomain_basis)."""
    p = matrix.p
    cols = []
    for b in domain_basis:
        image = matrix.apply(b)
        cols.append(solve_in_basis(list(codomain_basis), image, p))
    rows = tuple(zip(*cols)) if cols else tuple(() for _ in codomain_basis)
    return FpMatrix.from_rows(rows, p) if cols else FpMatrix(p, tuple(tuple() for _ in codomain_basis))


def cochain_cohomology_dims(deltas: list[FpMatrix], space_dims: list[int]) -> list[int]:
    """Cohomology dimensions of 0 -> C^0 -> C^1 -> ... -> C^m -> 0.

    deltas[i] is the matrix of C^i -> C^(i+1); len(deltas) == m.
    Returns [dim H^0, ..., dim H^m] via exact rank computations.
    """
    m = len(space_dims) - 1
    ranks = [d.rank() for d in deltas]
    dims = []
    for i in range(m + 1):
        ker = space_dims[i] - (ranks[i] if i < m else 0)
        im = ranks[i - 1] if i > 0 else 0
        dims.append(ker - im)
    return dims

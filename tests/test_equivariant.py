import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cck.equivariant import (
    _gysin_dims,
    GradedFpVector,
    euler_class,
    lens_cohomology,
    point_equivariant_cohomology,
    generator_matrix,
    resolution_maps,
)
from cck.errors import NonFreeAction
from cck.fp import FpMatrix, cochain_cohomology_dims, restricted_map

PRIMES = (3, 5, 7, 11)


@pytest.mark.parametrize("N", PRIMES)
def test_resolution_map_ranks(N):
    tminus1, norm = resolution_maps(N)
    assert tminus1.rank() == N - 1
    assert norm.rank() == 1


@pytest.mark.parametrize("N", PRIMES)
def test_resolution_products_vanish(N):
    tminus1, norm = resolution_maps(N)
    assert (tminus1 @ norm).is_zero()
    assert (norm @ tminus1).is_zero()


@pytest.mark.parametrize("N", PRIMES)
def test_resolution_is_exact(N):
    # products vanish, so image sits in kernel; dimensions force equality
    tminus1, norm = resolution_maps(N)
    assert tminus1.nullity() == norm.rank()
    assert norm.nullity() == tminus1.rank()


def test_kernel_of_shift_is_norm_line():
    tminus1, norm = resolution_maps(3)
    kernel = tminus1.kernel_basis()
    assert len(kernel) == 1
    image_gen = norm.apply((1, 0, 0))
    k = kernel[0]
    # the kernel line is spanned by the all-ones vector, the norm image
    scale = next(x for x in k if x)
    assert all((x * image_gen[0]) % 3 == (scale * y) % 3 for x, y in zip(k, image_gen))


def test_lens_two_weights():
    graded = lens_cohomology(5, (1, 2))
    assert graded.dims == {0: 1, 1: 1, 2: 1, 3: 1}
    assert graded.top == 3
    assert graded.bounded


def test_lens_four_weights():
    graded = lens_cohomology(5, (1, 2, 3, 4))
    assert graded.dims == {i: 1 for i in range(8)}
    assert graded.top == 7


def test_lens_rejects_non_unit_weight():
    with pytest.raises(NonFreeAction):
        lens_cohomology(5, (5,))
    with pytest.raises(NonFreeAction):
        lens_cohomology(5, (1, 10, 2))


@pytest.mark.parametrize(
    "N, weights, profile",
    [
        (5, (1, 2), [1, 1, 1, 1, 0, 0, 0, 0]),
        (7, (3, 4, 6), [1, 1, 1, 1, 1, 1, 0, 0]),
        (5, (1, 5), [1, 1, 1, 2, 2, 2, 2, 2]),
        (7, (14,), [1, 2, 2, 2, 2, 2, 2, 2]),
        (11, (0, 3), [1, 1, 1, 2, 2, 2, 2, 2]),
        (5, (2, 3, 10), [1, 1, 1, 1, 1, 2, 2, 2]),
    ],
)
def test_gysin_profile_follows_euler_class(N, weights, profile):
    # prod w_i != 0 mod N: bounded with top 2d - 1; prod w_i == 0: dimension 2 from 2d - 1 on
    assert _gysin_dims(N, weights, 7) == profile
    assert _gysin_dims(N, weights, 1000)[1000] == profile[7]
    assert bool(euler_class(N, weights)) == (profile[7] == 0)


def test_euler_class_is_weight_product_mod_N():
    assert euler_class(7, (3, 4, 6)) == 72 % 7
    assert euler_class(11, (10, 10, 10)) == 10
    assert euler_class(5, (2, 3, 10)) == 0
    assert euler_class(5, ()) == 1  # the empty product
    assert euler_class(11, range(1, 11)) == 10  # Wilson: (N - 1)! = -1 mod N, from any iterable


def test_lens_rejects_empty_weights():
    with pytest.raises(ValueError):
        lens_cohomology(5, ())


def test_lens_independent_of_unit_weights():
    base = lens_cohomology(5, (1, 2, 3, 4)).dims
    for perm in itertools.permutations((1, 2, 3, 4)):
        assert lens_cohomology(5, perm).dims == base
    for scale in (2, 3, 4):
        rescaled = tuple((scale * w) % 5 for w in (1, 2, 3, 4))
        assert lens_cohomology(5, rescaled).dims == base


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_lens_total_dimension(weights):
    weights = tuple(w % 7 or 1 for w in weights)
    graded = lens_cohomology(7, weights)
    d = len(weights)
    assert sum(graded.dims.values()) == 2 * d
    # Euler characteristic vanishes in positive dimension
    assert sum((-1) ** k * v for k, v in graded.dims.items()) == 0


def test_point_cohomology_degree_zero():
    graded = point_equivariant_cohomology(5, 0)
    assert graded.dims == {0: 1}
    assert not graded.bounded


def test_point_cohomology_all_ones():
    graded = point_equivariant_cohomology(5, 10)
    assert graded.dims == {i: 1 for i in range(11)}
    assert graded.top is None


def test_graded_vector_validates_top():
    with pytest.raises(ValueError):
        GradedFpVector({0: 1, 5: 2}, top=3)
    assert GradedFpVector({0: 1, 3: 1}, top=3).bounded


def test_fp_matrix_basics():
    m = FpMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert m.rank() == 2
    ident = FpMatrix.identity(2, 5)
    assert (m @ ident).entries == m.entries
    with pytest.raises(ValueError):
        FpMatrix.from_rows([[1, 2], [3]], 5)
    with pytest.raises(ValueError):
        FpMatrix.from_rows([[1]], 4)  # modulus not prime


def test_fp_matrix_kernel():
    m = FpMatrix.from_rows([[1, 1, 1], [0, 0, 0]], 3)
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert m.apply(v) == (0, 0)


def _dense_power_minus_one(N, w):
    """g^w - 1 on the regular representation, from powers of generator_matrix."""
    g = generator_matrix(N)
    power = FpMatrix.identity(N, N)
    for _ in range(w % N):
        power = g @ power
    return FpMatrix.from_rows(
        [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(power.entries)], N
    )


def _dense_hom_dims(differentials, N):
    """Reference hom-complex cohomology: the invariant functionals are the
    kernel of (g - 1)^T, and each cochain map is a transposed differential
    restricted to them."""
    tminus1, _ = resolution_maps(N)
    basis = tminus1.transpose().kernel_basis()
    deltas = [restricted_map(d.transpose(), basis, basis) for d in differentials]
    return cochain_cohomology_dims(deltas, [len(basis)] * (len(differentials) + 1))


def _unit_weight_tuples(N):
    """Every tuple of length 1 and 2, and a fixed sample of lengths 3 and 4."""
    units = range(1, N)
    rng = random.Random(N)
    for length in (1, 2):
        yield from itertools.product(units, repeat=length)
    for length in (3, 4):
        for _ in range(12):
            yield tuple(rng.choice(units) for _ in range(length))


@pytest.mark.parametrize("N", (5, 7, 11))
def test_lens_and_point_match_dense_reference(N):
    tminus1, norm = resolution_maps(N)
    shifts = {w: _dense_power_minus_one(N, w) for w in range(1, N)}
    assert shifts[1] == tminus1
    for weights in _unit_weight_tuples(N):
        d = len(weights)
        differentials = [shifts[weights[i // 2]] if i % 2 == 0 else norm for i in range(2 * d - 1)]
        dense = _dense_hom_dims(differentials, N)
        graded = lens_cohomology(N, weights)
        assert graded.dims == {i: x for i, x in enumerate(dense) if x}, weights
        assert graded.top == 2 * d - 1
    for max_degree in (0, 1, 2, 7, 12):
        periodic = [tminus1 if i % 2 == 0 else norm for i in range(max_degree)]
        dense = _dense_hom_dims(periodic, N)
        graded = point_equivariant_cohomology(N, max_degree)
        assert graded.dims == {i: x for i, x in enumerate(dense) if x}
        assert not graded.bounded

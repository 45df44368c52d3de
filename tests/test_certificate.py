import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cck.certificate import (
    RegimeLabel,
    Verdict,
    as_capacity,
    classify_regime,
    find_witness_prime,
    nonsqueezing_certificate,
    restriction_degree,
)
from cck import cli, equivariant, spectrum
from cck.errors import (
    CapacityTooSmall,
    InvalidCapacities,
    NonFreeAction,
    NoWitnessBelowLimit,
)
from cck.fp import FpMatrix
from cck.primes import is_prime
from cck.spectrum import positive_index


def test_capacity_parsing():
    assert as_capacity("3/2") == Fraction(3, 2)
    assert as_capacity(2) == 2
    with pytest.raises(InvalidCapacities):
        as_capacity(0)
    with pytest.raises(InvalidCapacities):
        as_capacity("-1/2")


def test_classify_sub_quantum():
    report = classify_regime("1/2", "2/3", 2)
    assert report.labels == (RegimeLabel.SUB_QUANTUM_SQUEEZABLE,)
    assert report.primary == RegimeLabel.SUB_QUANTUM_SQUEEZABLE


def test_classify_integer_gap():
    report = classify_regime("3/2", "5/2", 1)
    assert RegimeLabel.INTEGER_GAP in report.labels
    assert report.integer_witness == 2
    # both labels apply; the large-scale one takes display precedence
    assert RegimeLabel.LARGE_SCALE in report.labels
    assert report.primary == RegimeLabel.LARGE_SCALE


def test_classify_large_scale_without_integer():
    report = classify_regime("11/10", "19/10", 1)
    assert report.labels == (RegimeLabel.LARGE_SCALE,)
    assert report.integer_witness is None


def test_classify_unresolved_low_dimension():
    report = classify_regime("1/2", "2/3", 1)
    assert report.labels == (RegimeLabel.UNRESOLVED,)


def test_classify_rejects_bad_capacities():
    with pytest.raises(InvalidCapacities):
        classify_regime(2, 1, 1)
    with pytest.raises(InvalidCapacities):
        classify_regime(0, 1, 1)


def test_restriction_degree_values():
    assert restriction_degree(1, 5, 1) == 10
    assert restriction_degree(1, 5, 2) == 6
    assert restriction_degree(2, 5, 2) == 10


def test_restriction_degree_rejects_small_capacity():
    with pytest.raises(CapacityTooSmall):
        restriction_degree(1, 5, "9/10")


def test_restriction_degree_rejects_bad_prime():
    with pytest.raises(ValueError):
        restriction_degree(1, 4, 1)
    with pytest.raises(ValueError):
        restriction_degree(1, 3, 1)


def test_witness_prime_examples():
    assert find_witness_prime(1, 2) == 5
    assert find_witness_prime(1, "3/2") == 5


def test_witness_prime_requires_strict_gap():
    with pytest.raises(InvalidCapacities):
        find_witness_prime(1, 1)


def test_witness_prime_respects_limit():
    # capacities this close need a witness beyond the tiny limit
    with pytest.raises(NoWitnessBelowLimit):
        find_witness_prime(Fraction(1000, 999), Fraction(1001, 999), limit=7)


def test_witness_prime_is_smallest():
    c_r, c_R = Fraction(1), Fraction(6, 5)
    N = find_witness_prime(c_r, c_R)
    assert math.ceil(N / c_R) < math.ceil(N / c_r)
    for candidate in (5, 7, 11, 13):
        if candidate >= N:
            break
        assert not math.ceil(candidate / c_R) < math.ceil(candidate / c_r)


def test_witness_prime_matches_sieve_and_fraction_reference():
    limit = 2000
    sieve = [False, False] + [True] * (limit - 1)
    for p in range(2, limit + 1):
        if sieve[p]:
            for multiple in range(p * p, limit + 1, p):
                sieve[multiple] = False
    primes = [N for N in range(5, limit + 1) if sieve[N]]
    grid = sorted({Fraction(k, d) for d in range(1, 7) for k in range(d, 6 * d + 1)})
    pairs = [(c_r, c_R) for i, c_r in enumerate(grid) for c_R in grid[i + 1 :]]
    pairs += [(Fraction(1), Fraction(m + 1, m)) for m in range(1, 201)]
    for c_r, c_R in pairs:
        expected = next(N for N in primes if math.ceil(N / c_R) < math.ceil(N / c_r))
        assert find_witness_prime(c_r, c_R, limit) == expected, (c_r, c_R)


def test_certificate_unit_capacities():
    cert = nonsqueezing_certificate(1, 1, 2)
    assert cert.N == 5
    assert (cert.ceil_R, cert.ceil_r) == (3, 5)
    assert (cert.deg_R, cert.deg_r) == (6, 10)
    assert cert.verdict is Verdict.OBSTRUCTED
    assert "violated" in cert.trace


def test_certificate_higher_dimension():
    cert = nonsqueezing_certificate(2, 1, 2)
    assert cert.N == 5
    assert (cert.deg_R, cert.deg_r) == (10, 18)
    assert cert.verdict is Verdict.OBSTRUCTED


def test_certificate_rejects_sub_unit_inner_capacity():
    with pytest.raises(CapacityTooSmall):
        nonsqueezing_certificate(1, "1/2", 2)


def test_certificate_rejects_reversed_capacities():
    with pytest.raises(InvalidCapacities):
        nonsqueezing_certificate(1, 2, 1)


def test_certificate_large_outer_capacity():
    # outer capacity beyond the witness makes the outer lens side empty
    cert = nonsqueezing_certificate(1, 1, 12)
    assert cert.verdict is Verdict.OBSTRUCTED
    assert cert.ceil_R < cert.ceil_r
    assert cert.N > 3 and is_prime(cert.N)


def test_certificate_close_capacities():
    cert = nonsqueezing_certificate(1, "21/20", "23/20")
    assert cert.deg_R < cert.deg_r
    assert math.ceil(Fraction(cert.N, 1) / Fraction(23, 20)) == cert.ceil_R


def test_obstructed_certificate_enforces_invariants():
    from cck.certificate import NonSqueezeCertificate

    with pytest.raises(ValueError):
        NonSqueezeCertificate(
            n=1, c_r=Fraction(1), c_R=Fraction(2), N=4, ceil_R=3, ceil_r=5,
            deg_R=6, deg_r=10, verdict=Verdict.OBSTRUCTED, trace="",
        )
    with pytest.raises(ValueError):
        NonSqueezeCertificate(
            n=1, c_r=Fraction(1), c_R=Fraction(2), N=5, ceil_R=5, ceil_r=5,
            deg_R=10, deg_r=10, verdict=Verdict.OBSTRUCTED, trace="",
        )


def test_restriction_degree_consistent_with_positive_index():
    for n in (1, 2, 3):
        for N in (5, 7, 11, 13):
            for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5)):
                lhs = restriction_degree(n, N, c) - 2
                assert lhs == 2 * n * positive_index(n, N, N, N, c)


@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([5, 7, 11]),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150)
def test_restriction_degree_monotone_in_capacity(n, N, num, den):
    c = Fraction(num, den)
    if c < 1:
        return
    assert restriction_degree(n, N, c + Fraction(1, 7)) <= restriction_degree(n, N, c)


@pytest.mark.parametrize(
    "c_R, N, ceil_R, deg_R",
    [
        ("101/100", 101, 100, 200),
        ("1001/1000", 1009, 1008, 2016),
        ("10001/10000", 10007, 10006, 20012),
        ("999983/999982", 999983, 999982, 1999964),
    ],
)
def test_certificate_large_witness_builds_no_dense_matrix(monkeypatch, c_R, N, ceil_R, deg_R):
    def refuse(*args):
        raise AssertionError("dense matrix, profile or weight list built on the certificate path")

    monkeypatch.setattr(FpMatrix, "__matmul__", refuse)
    monkeypatch.setattr(equivariant, "generator_matrix", refuse)
    monkeypatch.setattr(equivariant, "lens_cohomology", refuse)
    monkeypatch.setattr(equivariant, "point_equivariant_cohomology", refuse)
    monkeypatch.setattr(spectrum, "cyclic_weights", refuse)
    cert = nonsqueezing_certificate(1, 1, c_R)
    assert cert.verdict is Verdict.OBSTRUCTED
    assert (cert.N, cert.ceil_R, cert.ceil_r) == (N, ceil_R, N)
    assert (cert.deg_R, cert.deg_r) == (deg_R, 2 * N)


def test_factorial_power_is_the_euler_class_of_the_weight_list():
    # the certificate's (k! mod N)^n against the product over spectrum.cyclic_weights
    for n in (1, 2, 3):
        for N in (5, 7, 11, 13):
            for k in range(N + 1):
                listed = equivariant.euler_class(N, spectrum.cyclic_weights(n, k, N))
                assert pow(equivariant.euler_class(N, range(1, k + 1)), n, N) == listed


def test_certificate_rejects_vanishing_euler_class(monkeypatch, capsys):
    monkeypatch.setattr(equivariant, "euler_class", lambda N, weights: 0)
    with pytest.raises(NonFreeAction):
        nonsqueezing_certificate(1, 1, 2)
    assert cli.main(["certificate", "--cr", "1", "--cR", "2"]) == 1
    assert "NonFreeAction" in capsys.readouterr().err

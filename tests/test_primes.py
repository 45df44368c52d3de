import pytest

from cck import cli
from cck.primes import is_prime

#: least strong pseudoprimes to the prime bases 2..37 and 2..41 (Sorenson and Webster)
PSEUDOPRIME_TO_37 = 318665857834031151167461  # 399165290221 * 798330580441
PSEUDOPRIME_TO_41 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_small_numbers_match_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, limit):
        if sieve[p]:
            for multiple in range(p * p, limit, p):
                sieve[multiple] = False
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_large_prime_and_composite():
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_pseudoprime_to_bases_up_to_37_is_composite():
    assert PSEUDOPRIME_TO_37 == 399165290221 * 798330580441
    assert not is_prime(PSEUDOPRIME_TO_37)


def test_unproven_range_is_refused():
    assert PSEUDOPRIME_TO_41 == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="not proven"):
        is_prime(PSEUDOPRIME_TO_41)
    assert not is_prime(PSEUDOPRIME_TO_41 - 1)  # just below the bound: answered


@pytest.mark.parametrize(
    "N, message",
    [(PSEUDOPRIME_TO_37, "N must be an odd prime"), (PSEUDOPRIME_TO_41, "not proven")],
)
def test_ext_refuses_pseudoprime_modulus(capsys, N, message):
    assert cli.main(["ext", "--N", str(N), "--lens", "1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err

"""Deterministic primality testing and prime iteration.

Miller-Rabin with the first thirteen primes 2..41 as bases is proven
deterministic for all n below 3317044064679887385961981, the least
strong pseudoprime to all of them (Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 2017).  Bases 2..37
alone are fooled by 318665857834031151167461.  The bound is far beyond
the default witness search limit of 10**6 used by the certificate
module; is_prime refuses larger n rather than guess.
"""

from collections.abc import Iterator

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime; ValueError at n >= 3317044064679887385961981, past the proof."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"primality of {n} is not proven by the Miller-Rabin bases 2..41")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start: int) -> Iterator[int]:
    """Yield primes >= start in increasing order."""
    n = max(2, start)
    if n > 2 and n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 1 if n == 2 else 2

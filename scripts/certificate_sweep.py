#!/usr/bin/env python3
"""Sweep capacity pairs and tabulate non-squeezing certificates.

For each pair (c_r, c_R) on a rational grid with 1 <= c_r < c_R, find
the witness prime and both restriction degrees, and print one row per
pair.  Pairs straddling an integer are marked, since an integer in
[c_r, c_R] already obstructs squeezing by older methods; the interesting
rows are the ones without such an integer.

Usage:
    python scripts/certificate_sweep.py
    python scripts/certificate_sweep.py --n 2 --denominator 4 --max-capacity 5
"""

import argparse
import time
from fractions import Fraction

from cck.certificate import RegimeLabel, classify_regime, nonsqueezing_certificate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1, help="complex dimension")
    parser.add_argument("--denominator", type=int, default=3, help="grid denominator")
    parser.add_argument("--max-capacity", type=int, default=4, help="largest capacity")
    parser.add_argument("--limit", type=int, default=10**6, help="witness search limit")
    args = parser.parse_args()

    den = args.denominator
    grid = [Fraction(k, den) for k in range(den, args.max_capacity * den + 1)]
    print(f"{'c_r':>8} {'c_R':>8} {'N':>6} {'ceil_R':>7} {'ceil_r':>7} "
          f"{'deg_R':>6} {'deg_r':>6} {'gap?':>5} {'ms':>7}")
    for i, c_r in enumerate(grid):
        for c_R in grid[i + 1:]:
            t0 = time.perf_counter()
            cert = nonsqueezing_certificate(args.n, c_r, c_R, args.limit)
            elapsed = (time.perf_counter() - t0) * 1e3
            regime = classify_regime(c_r, c_R, args.n)
            has_gap = RegimeLabel.INTEGER_GAP in regime.labels
            print(f"{str(c_r):>8} {str(c_R):>8} {cert.N:>6} {cert.ceil_R:>7} "
                  f"{cert.ceil_r:>7} {cert.deg_R:>6} {cert.deg_r:>6} "
                  f"{'yes' if has_gap else 'no':>5} {elapsed:>7.2f}")
            assert cert.deg_R < cert.deg_r
    frac = Fraction(11, 10), Fraction(19, 10)
    cert = nonsqueezing_certificate(args.n, *frac, args.limit)
    print(f"\npreviously open shape (no integer between sizes): "
          f"c_r = {frac[0]}, c_R = {frac[1]} -> witness N = {cert.N}, "
          f"degrees {cert.deg_R} < {cert.deg_r}")
    print(f"ceilings: ceil(N/c_R) = {cert.ceil_R} < ceil(N/c_r) = {cert.ceil_r}")


if __name__ == "__main__":
    main()

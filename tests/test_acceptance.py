"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the line per
criterion; every tolerance is pinned in the assertions below.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cck import certificate, cli, equivariant, hamflow, projector_geometry, spectrum


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_certificate_reproduction(capsys):
    t0 = time.perf_counter()
    cert = certificate.nonsqueezing_certificate(1, 1, 2)
    elapsed = time.perf_counter() - t0
    assert cert.N == 5
    assert cert.ceil_R == 3 and cert.ceil_r == 5
    assert cert.deg_R == 6 and cert.deg_r == 10
    assert cert.verdict is certificate.Verdict.OBSTRUCTED
    assert elapsed < 0.1, f"certificate took {elapsed * 1e3:.1f} ms"
    code = cli.main(["certificate", "--n", "1", "--cr", "1", "--cR", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["outputs"]["verdict"] == "Obstructed"
    assert doc["outputs"]["N"] == 5
    report("1 (certificate reproduction, < 100 ms)")


def test_criterion_2_squeeze_radius_and_contact_check():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        R = float(rng.uniform(0.01, 20.0))
        N = int(rng.integers(1, 200))
        assert hamflow.squeezed_radius(R, N) == R / (1.0 + N * R)
    for N in (1, 2, 3):
        samples = []
        for _ in range(100):
            k = int(rng.integers(1, 3))
            w = rng.normal(size=k) + 1j * rng.normal(size=k)
            w *= math.sqrt(float(rng.uniform(0.0, 1.0)) / math.pi) / np.linalg.norm(w)
            samples.append(hamflow.PrequantPoint(w, float(rng.random())))
        result = hamflow.contact_check(N, samples)
        assert result.deviation < 1e-4, f"N={N}: deviation {result.deviation:.2e}"
        assert result.min_conformal > 0
    report("2 (squeeze radius exact on 1000 cases; contact deviation < 1e-4)")


def test_criterion_3_spectral_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for (N, M) in ((5, 5), (5, 7), (7, 5)):
        for _ in range(20):
            phi = -float(rng.uniform(0.02, 0.98)) * math.pi / 2.0
            form = spectrum.CirculantActionForm(n=1, N=N, M=M, A=phi * M / 2.0)
            analytic = np.sort(spectrum.analytic_eigenvalues(form))
            numeric = spectrum.numeric_eigenvalues(spectrum.build_action_matrix(form))
            worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"multiset deviation {worst:.2e}"
    assert elapsed < 5.0, f"spectral cross-check took {elapsed:.2f} s"
    report(f"3 (analytic vs Jacobi multisets, dev {worst:.1e}, {elapsed:.2f} s)")


def test_criterion_4_index_formula_exact():
    rng = np.random.default_rng(102)
    cases = []
    for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5, 2)):
        for k in (1, 2, 3, 4):
            cases.append((k * c, c))  # exact-integer ratios
    while len(cases) < 200:
        T = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
        c = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
        if 0 < T / c < 5:
            cases.append((T, c))
    for T, c in cases:
        expected = spectrum.positive_count_from_eigenvalues(5, 5, T, c)
        assert spectrum.positive_index(1, 5, 5, T, c) == expected, (T, c)
    report("4 (ceiling index equals brute-force count on 200 cases, exact)")


def test_criterion_5_gamma_geometry():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 1000:
        R = float(rng.uniform(0.3, 2.5))
        k = int(rng.integers(1, 4))
        q1 = rng.normal(size=k)
        q1 *= float(rng.uniform(0, 0.999)) * R / np.linalg.norm(q1)
        q2 = rng.normal(size=k)
        q2 *= float(rng.uniform(0, 0.999)) * R / np.linalg.norm(q2)
        if projector_geometry.discriminant(R, q1, q2) < 0:
            continue
        cv = projector_geometry.critical_values(R, q1, q2)
        g1, g2 = projector_geometry.grid_extrema(R, q1, q2)
        assert abs(cv.f1 - g1) < 1e-6, (R, q1, q2)
        assert abs(cv.f2 - g2) < 1e-6, (R, q1, q2)
        for _, p1, p2 in projector_geometry.critical_momenta(R, q1, q2):
            assert abs(float(q1 @ q1 + p1 @ p1) - R * R) < 1e-9
            assert abs(float(q2 @ q2 + p2 @ p2) - R * R) < 1e-9
        checked += 1
    # degenerate formulas cos(a2) = |q|/R and sin(a1) = |q|/R as limits
    R = 1.4
    q = np.array([0.6, 0.2])
    qn = float(np.linalg.norm(q))
    seq = [1e-5, 1e-6, 1e-7]
    for eps in seq:
        cv = projector_geometry.critical_values(R, q, q + eps * np.array([1.0, 0.5]))
        assert abs(math.cos(cv.a2) - qn / R) < 1e-4
    cv = projector_geometry.critical_values(R, q, q + seq[-1] * np.array([1.0, 0.5]))
    assert abs(cv.a2 - math.acos(qn / R)) < 1e-6
    assert abs(cv.f2 - (math.tan(math.acos(qn / R)) * qn * qn - math.acos(qn / R) * R * R)) < 1e-6
    cv = projector_geometry.critical_values(R, q, -q + seq[-1] * np.array([1.0, 0.5]))
    assert abs(cv.a1 - math.asin(qn / R)) < 1e-6
    assert abs(cv.f1 - (-qn * qn / math.tan(math.asin(qn / R)) - math.asin(qn / R) * R * R)) < 1e-6
    report("5 (block geometry: grid oracle 1e-6, sphere momenta 1e-9, limits)")


def test_criterion_6_homological_algebra():
    for N in (3, 5, 7, 11):
        tminus1, norm = equivariant.resolution_maps(N)
        assert tminus1.rank() == N - 1
        assert norm.rank() == 1
        assert (tminus1 @ norm).is_zero() and (norm @ tminus1).is_zero()
        assert tminus1.nullity() == norm.rank()
        assert norm.nullity() == tminus1.rank()
    lens = equivariant.lens_cohomology(equivariant.LensData(5, (1, 2, 3, 4)))
    assert lens.dims == {i: 1 for i in range(8)}
    assert lens.top == 7 and lens.bounded
    point = equivariant.point_equivariant_cohomology(5, 20)
    assert point.dims == {i: 1 for i in range(21)}
    assert not point.bounded
    report("6 (periodic resolution exact; Ext flat; lens bounded vs point unbounded)")


def test_criterion_7_cross_module_consistency():
    cases = 0
    for n in (1, 2):
        for N in (5, 7, 11, 13, 17):
            for c in (
                Fraction(1), Fraction(6, 5), Fraction(3, 2), Fraction(2),
                Fraction(7, 3), Fraction(3), Fraction(7, 2), Fraction(4),
                Fraction(9, 2), Fraction(5),
            ):
                deg = certificate.restriction_degree(n, N, c)
                index = spectrum.positive_index(n, N, N, N, c)
                assert deg - 2 == 2 * n * index, (n, N, c)
                cases += 1
    assert cases == 100
    for n in (1, 2):
        for N in (5, 7):
            degs = [
                certificate.restriction_degree(n, N, Fraction(k, 7))
                for k in range(7, 50)
            ]
            assert all(a >= b for a, b in zip(degs, degs[1:]))
    report("7 (restriction degree = 2 n index + 2 on 100-case grid; monotone)")

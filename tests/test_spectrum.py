import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cck import spectrum
from cck.errors import NoConvergence, OverBudget, SingularAngle
from cck.hamflow import gen_fn_qq
from cck.spectrum import (
    MAX_ACTION_SIZE,
    CirculantActionForm,
    _round_robin,
    analytic_eigenvalues,
    build_action_matrix,
    cyclic_weights,
    jacobi_eigensystem,
    numeric_eigenvalues,
    positive_count_from_eigenvalues,
    positive_index,
    substituted_flow_parameter,
)


def test_matrix_realizes_broken_loop_action():
    rng = np.random.default_rng(20)
    form = CirculantActionForm(n=1, N=5, M=3, A=-0.3)
    C = build_action_matrix(form)
    assert C.shape == (15, 15)
    a = form.A / form.M
    for _ in range(10):
        x = rng.normal(size=15)
        direct = sum(
            gen_fn_qq(a, [x[l]], [x[(l + 1) % 15]]) for l in range(15)
        )
        assert float(x @ C @ x) == pytest.approx(direct, abs=1e-10)


def test_zero_flow_parameter_is_singular():
    form = CirculantActionForm(n=1, N=5, M=5, A=0.0)
    with pytest.raises(SingularAngle):
        build_action_matrix(form)
    with pytest.raises(SingularAngle):
        analytic_eigenvalues(form)


def test_row_sums_give_constant_eigenvector_value():
    form = CirculantActionForm(n=1, N=5, M=5, A=-0.7)
    C = build_action_matrix(form)
    phi = form.phi
    lam0 = math.cos(phi) / math.sin(phi) - 1.0 / math.sin(phi)
    assert np.max(np.abs(C.sum(axis=1) - lam0)) < 1e-12
    assert analytic_eigenvalues(form)[0] == pytest.approx(lam0, abs=1e-12)


def test_constant_eigenvalue_positive_for_negative_flow():
    rng = np.random.default_rng(21)
    for _ in range(50):
        M = int(rng.choice([5, 7]))
        form = CirculantActionForm(n=1, N=5, M=M, A=-float(rng.uniform(0.001, 0.99)) * M * math.pi / 4)
        assert analytic_eigenvalues(form)[0] > 0


def test_eigenvalue_pairing_is_exact():
    form = CirculantActionForm(n=1, N=7, M=5, A=-0.9)
    lam = analytic_eigenvalues(form)
    size = form.size
    for l in range(1, size):
        assert lam[l] == lam[size - l]


def test_positive_index_examples():
    assert positive_index(1, 5, 5, 5, 1) == 4
    assert positive_index(1, 5, 5, 5, 2) == 2
    assert positive_index(1, 5, 5, 5, 5) == 0


def test_positive_index_matches_eigenvalue_count():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 60:
        N = int(rng.choice([5, 7]))
        M = N
        T = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        c = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        if not 0 < T / c < N:
            continue
        form = CirculantActionForm(n=1, N=N, M=M, A=substituted_flow_parameter(N, T, c))
        assert positive_index(1, N, M, T, c) == positive_count_from_eigenvalues(analytic_eigenvalues(form))
        checked += 1


def test_positive_index_integer_boundary():
    # strict inequality governs exact-integer ratios
    for m in (1, 2, 3, 4):
        assert positive_index(1, 5, 5, m, 1) == m - 1
    assert positive_index(1, 5, 5, Fraction(9, 3), 1) == 2
    form = CirculantActionForm(n=1, N=5, A=substituted_flow_parameter(5, 3, 1))
    assert positive_count_from_eigenvalues(analytic_eigenvalues(form)) == 2


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=150)
def test_positive_index_monotone_in_capacity(tn, td, cn, cd):
    T = Fraction(tn, td)
    c = Fraction(cn, cd)
    bigger = c + Fraction(1, 3)
    if T / c >= 6 or T <= 0:
        return
    assert positive_index(1, 5, 5, T, bigger) <= positive_index(1, 5, 5, T, c)


def test_substituted_flow_parameter_in_window():
    A = substituted_flow_parameter(5, 5, 1)
    assert A == pytest.approx(-math.pi, abs=1e-15)
    form = CirculantActionForm(n=1, N=5, M=5, A=A)
    assert abs(form.phi) < math.pi / 2


def test_cyclic_weights_examples():
    assert cyclic_weights(1, 4, 5) == [1, 2, 3, 4]
    assert cyclic_weights(2, 2, 5) == [1, 1, 2, 2]
    assert cyclic_weights(3, 0, 5) == []


def test_jacobi_on_identity_and_diagonal():
    assert np.allclose(numeric_eigenvalues(np.eye(6)), np.ones(6), atol=0)
    assert np.allclose(numeric_eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3], atol=0)


def test_jacobi_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        numeric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_eigenpairs_have_small_residuals():
    rng = np.random.default_rng(24)
    for _ in range(15):
        n = int(rng.integers(2, 25))
        B = rng.normal(size=(n, n))
        B = (B + B.T) / 2
        w, V = jacobi_eigensystem(B)
        resid = np.linalg.norm(B @ V - V * w, axis=0)
        assert float(np.max(resid)) < 1e-9
        assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(B)), atol=1e-10)


def test_jacobi_handles_degenerate_spectra():
    for B in (np.zeros((4, 4)), np.full((3, 3), 2.0), np.eye(5) * -3.0):
        w = numeric_eigenvalues(B)
        assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(B)), atol=1e-12)


def test_jacobi_raises_after_too_many_sweeps(monkeypatch):
    form = CirculantActionForm(n=1, N=5, M=5, A=-0.5)
    monkeypatch.setattr(spectrum, "SWEEP_LIMIT", 1)
    with pytest.raises(NoConvergence) as info:
        jacobi_eigensystem(build_action_matrix(form))
    err = info.value
    assert (err.sweeps, err.size, err.residual) == (1, 25, None)
    assert err.off_norm > err.bound > 0.0
    assert "after 1 sweeps" in str(err)
    assert f"{err.off_norm:.3e}" in str(err) and f"{err.bound:.3e}" in str(err)


def test_residual_failure_reports_its_state(monkeypatch):
    # eigenvalues right, eigenvectors wrong: residual 1 per column
    monkeypatch.setattr(spectrum, "jacobi_eigensystem", lambda m: (np.array([1.0, 2.0]), np.eye(2)))
    with pytest.raises(NoConvergence) as info:
        numeric_eigenvalues(np.array([[1.0, 1.0], [1.0, 2.0]]))
    err = info.value
    assert err.residual == pytest.approx(1.0)
    assert err.bound == pytest.approx(1e-9 * math.sqrt(7.0))
    assert (err.sweeps, err.off_norm, err.size) == (None, None, 2)
    assert f"{err.residual:.3e}" in str(err) and f"{err.bound:.3e}" in str(err)


@pytest.mark.parametrize("n", range(1, 11))
def test_jacobi_every_small_size(n):
    # the round-robin schedule: n - 1 rounds (n for odd n, padded with a
    # dummy index), floor(n/2) disjoint pairs each, every pair once a sweep
    rounds = _round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for p, q, pq in rounds:
        assert len(p) == n // 2 and np.all(p < q)
        assert len(set(pq.tolist())) == 2 * (n // 2)
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    B = np.random.default_rng(30 + n).normal(size=(n, n))
    B = (B + B.T) / 2
    w, V = jacobi_eigensystem(B)
    assert float(np.max(np.linalg.norm(B @ V - V * w, axis=0))) < 1e-9
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(B), atol=1e-10)
    assert np.allclose(V.T @ V, np.eye(n), atol=1e-12)


def test_jacobi_skips_pairs_already_zero():
    # zero two pairs of the first round; (p1, q1) also gets equal diagonal
    # entries, so both its h and its apq are 0
    B = np.random.default_rng(25).normal(size=(8, 8))
    B = (B + B.T) / 2
    p, q, _ = _round_robin(8)[0]
    for a, b in zip(p[:2], q[:2]):
        B[a, b] = B[b, a] = 0.0
    B[q[1], q[1]] = B[p[1], p[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, V = jacobi_eigensystem(B)
    assert float(np.max(np.linalg.norm(B @ V - V * w, axis=0))) < 1e-9
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(B), atol=1e-10)


@pytest.mark.parametrize(("N", "M", "samples"), ((7, 7, 3), (11, 5, 3), (11, 11, 1)))
def test_jacobi_matches_closed_form_across_shapes(N, M, samples):
    rng = np.random.default_rng(N * M)
    worst_dev = worst_resid = 0.0
    for _ in range(samples):
        phi = -float(rng.uniform(0.02, 0.98)) * math.pi / 2.0
        form = CirculantActionForm(n=1, N=N, M=M, A=phi * M / 2.0)
        C = build_action_matrix(form)
        w, V = jacobi_eigensystem(C)
        worst_dev = max(worst_dev, float(np.max(np.abs(np.sort(w) - np.sort(analytic_eigenvalues(form))))))
        worst_resid = max(worst_resid, float(np.max(np.linalg.norm(C @ V - V * w, axis=0))))
    assert worst_dev < 1e-9, f"multiset deviation {worst_dev:.2e}"
    assert worst_resid < 1e-9, f"eigenpair residual {worst_resid:.2e}"


def test_action_matrix_size_budget():
    largest = CirculantActionForm(n=1, N=17, M=17, A=-0.1)
    assert largest.size == MAX_ACTION_SIZE
    assert build_action_matrix(largest).shape == (MAX_ACTION_SIZE, MAX_ACTION_SIZE)
    for form in (CirculantActionForm(n=1, N=5, M=59, A=-0.1), CirculantActionForm(n=1, N=1009, A=-0.1)):
        with pytest.raises(OverBudget, match=f"MN = {form.size} .* {MAX_ACTION_SIZE}"):
            build_action_matrix(form)


def test_substituted_flow_parameter_rejects_zero_capacity():
    for N, T, c in ((5, 1, 0), (5, 0, 1), (5, -1, 2), (0, 1, 1)):
        with pytest.raises(ValueError, match="positive"):
            substituted_flow_parameter(N, T, c)


def test_form_validation():
    with pytest.raises(ValueError):
        CirculantActionForm(n=1, N=4, M=5, A=-0.1)  # not prime
    with pytest.raises(ValueError):
        CirculantActionForm(n=1, N=3, M=5, A=-0.1)  # prime but too small
    with pytest.raises(ValueError):
        CirculantActionForm(n=1, N=5, M=2, A=-0.1)  # MN even
    with pytest.raises(ValueError):
        CirculantActionForm(n=1, N=5, M=5, A=0.5)  # positive flow
    with pytest.raises(ValueError):
        CirculantActionForm(n=1, N=5, M=5, A=-5.0)  # outside the window
    assert CirculantActionForm(n=1, N=5, A=-0.1).M == 5  # M defaults to N

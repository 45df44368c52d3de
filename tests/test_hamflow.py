import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cck import hamflow
from cck.errors import NonStationary, SingularAngle
from cck.hamflow import (
    PhasePoint,
    PrequantPoint,
    apply_rotation,
    check_graph_identity,
    compose_gen_fn,
    contact_check,
    twist_squeeze,
    gen_fn_qp,
    gen_fn_qq,
    rotation_matrix,
    squeezed_radius,
)

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_rotation_matrix_at_zero_is_identity():
    assert np.allclose(rotation_matrix(0.0), np.eye(2), atol=0)


def test_rotation_matrix_quarter_period():
    assert np.allclose(rotation_matrix(math.pi / 4), [[0, 1], [-1, 0]], atol=1e-15)


def test_rotation_matrix_eighth_period_on_unit_q():
    y = apply_rotation(math.pi / 8, PhasePoint([1.0], [0.0]))
    assert y.q[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert y.p[0] == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)


def test_rotation_matrix_determinant_one():
    for a in (-1.3, 0.2, 0.7, 2.9):
        assert np.linalg.det(rotation_matrix(a)) == pytest.approx(1.0, abs=1e-14)


@given(ANGLES, ANGLES)
@settings(max_examples=200)
def test_rotation_flow_property(a1, a2):
    lhs = rotation_matrix(a1) @ rotation_matrix(a2)
    assert np.max(np.abs(lhs - rotation_matrix(a1 + a2))) < 1e-12


def test_gen_fn_qq_vanishes_at_origin():
    assert gen_fn_qq(math.pi / 4, [0.0], [0.0]) == 0.0


def test_gen_fn_qq_quarter_flow_cross_term_only():
    # cos(pi/2) = 0 kills the diagonal term and the cross term vanishes at q2 = 0
    assert gen_fn_qq(math.pi / 4, [1.0], [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_gen_fn_qq_eighth_flow_value():
    assert gen_fn_qq(math.pi / 8, [1.0], [1.0]) == pytest.approx(1.0 - math.sqrt(2), abs=1e-14)


@pytest.mark.parametrize("a", [0.0, math.pi / 2, math.pi, -math.pi / 2])
def test_gen_fn_qq_rejects_singular_angles(a):
    with pytest.raises(SingularAngle):
        gen_fn_qq(a, [1.0], [1.0])


def test_gen_fn_qp_vanishes_at_zero_time():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, p = rng.normal(size=3), rng.normal(size=3)
        assert gen_fn_qp(0.0, q, p) == 0.0


def test_gen_fn_qp_eighth_flow_value():
    assert gen_fn_qp(math.pi / 8, [0.0], [1.0]) == pytest.approx(0.25, abs=1e-15)


def test_gen_fn_qp_is_qq_after_graph_substitution():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.uniform(-1.5, 1.5)
        q = rng.normal(size=rng.integers(1, 4))
        p = rng.normal(size=q.size)
        if abs(math.sin(2 * a)) < 1e-6:
            continue
        q2 = math.cos(2 * a) * q + math.sin(2 * a) * p
        assert gen_fn_qp(a, q, p) == pytest.approx(gen_fn_qq(a, q, q2), abs=1e-12)


def test_graph_identity_residual_examples():
    assert check_graph_identity(math.pi / 4, PhasePoint([1.0], [0.0]), 1e-5) < 1e-8
    assert check_graph_identity(math.pi / 8, PhasePoint([1.0], [1.0]), 1e-5) < 1e-8


def test_graph_identity_rejects_singular_angle():
    with pytest.raises(SingularAngle):
        check_graph_identity(math.pi / 2, PhasePoint([1.0], [0.0]), 1e-5)


def test_graph_identity_second_order_bound():
    # S is quadratic, so central differences are exact up to round-off
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(50):
        a = rng.uniform(0.05, math.pi / 2 - 0.05)
        x = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        assert check_graph_identity(a, x, h) < 10 * h * h


def test_compose_origin_is_stationary_at_zero():
    assert compose_gen_fn(math.pi / 8, math.pi / 8, [0.0], [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_compose_matches_one_step_examples():
    lhs = compose_gen_fn(math.pi / 8, math.pi / 8, [1.0], [0.0])
    assert lhs == pytest.approx(gen_fn_qq(math.pi / 4, [1.0], [0.0]), abs=1e-12)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    lhs = compose_gen_fn(math.pi / 12, math.pi / 6, [1.0], [1.0])
    assert lhs == pytest.approx(-1.0, abs=1e-12)
    assert gen_fn_qq(math.pi / 4, [1.0], [1.0]) == pytest.approx(-1.0, abs=1e-14)


def test_compose_semigroup_100_random():
    rng = np.random.default_rng(3)
    count = 0
    while count < 100:
        a1 = rng.uniform(0.02, math.pi / 2 - 0.04)
        a2 = rng.uniform(0.02, math.pi / 2 - 0.02 - a1)
        q1 = rng.normal(size=rng.integers(1, 4))
        q3 = rng.normal(size=q1.size)
        got = compose_gen_fn(a1, a2, q1, q3)
        assert got == pytest.approx(gen_fn_qq(a1 + a2, q1, q3), abs=1e-9)
        count += 1


def test_compose_rejects_outside_window():
    with pytest.raises(ValueError):
        compose_gen_fn(1.0, 1.0, [1.0], [1.0])  # sum beyond pi/2
    with pytest.raises(ValueError):
        compose_gen_fn(-0.1, 0.3, [1.0], [1.0])


def test_compose_rejects_vanishing_stationarity_coefficient():
    # cot(2 a1) + cot(2 a2) vanishes as a1 + a2 reaches pi/2 from inside the window
    a2 = math.nextafter(math.pi / 2 - 0.3, 0.0)
    with pytest.raises(NonStationary):
        compose_gen_fn(0.3, a2, [0.1], [0.2])


def test_squeeze_fixes_the_axis():
    for z in (0.0, 0.25, 0.9):
        out = twist_squeeze(3, PrequantPoint([0.0], z))
        assert np.all(out.w == 0)
        assert out.z == z


def test_squeeze_shrink_factor_at_unit_capacity():
    # pi |w|^2 = 1 and N = 1 give nu = 1/sqrt(2)
    pt = PrequantPoint([1.0 / math.sqrt(math.pi)], 0.0)
    out = twist_squeeze(1, pt)
    assert abs(out.w[0]) == pytest.approx((1 / math.sqrt(math.pi)) / math.sqrt(2), abs=1e-15)


def test_squeezed_radius_values():
    assert squeezed_radius(1.0, 1) == 0.5
    assert squeezed_radius(1.0, 9) == pytest.approx(0.1, abs=0)
    assert squeezed_radius(2.0, 1) == pytest.approx(2.0 / 3.0, abs=0)


@given(st.floats(min_value=0.01, max_value=50.0), st.integers(min_value=1, max_value=100))
def test_squeezed_radius_decreasing_in_twists(R, N):
    assert squeezed_radius(R, N + 1) < squeezed_radius(R, N) < R


def test_squeezed_radius_vanishes_in_the_limit():
    assert squeezed_radius(5.0, 10**9) < 1e-8


def test_sphere_to_sphere_is_exact():
    # points of ball size pi|w|^2 = R land on size R/(1+NR), as an identity
    rng = np.random.default_rng(4)
    for _ in range(1000):
        R = rng.uniform(0.05, 9.0)
        N = int(rng.integers(1, 30))
        k = int(rng.integers(1, 4))
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        w *= math.sqrt(R / math.pi) / np.sqrt(np.sum(np.abs(w) ** 2))
        out = twist_squeeze(N, PrequantPoint(w, rng.random()))
        size_out = math.pi * float(np.sum(np.abs(out.w) ** 2))
        assert abs(size_out - squeezed_radius(R, N)) < 1e-12


def test_contact_check_on_axis():
    result = contact_check(2, [PrequantPoint([0.0, 0.0], 0.3)])
    assert result.deviation < 1e-6
    assert result.min_conformal > 0


def test_contact_check_random_samples():
    rng = np.random.default_rng(5)
    for N in (1, 2, 3):
        samples = [
            PrequantPoint(rng.normal(size=2) + 1j * rng.normal(size=2), rng.random())
            for _ in range(30)
        ]
        result = contact_check(N, samples)
        assert result.deviation < 1e-4
        assert result.min_conformal > 0


def test_contact_check_needs_a_sample():
    with pytest.raises(ValueError, match="need at least one sample"):
        contact_check(1, [])


def _random_samples(rng, dims, radius=(1.0, 1.0)):
    """Points with w in C^k for k in dims, |w| drawn from [radius[k-1]/2, radius[k-1]]."""
    samples = []
    for k in dims:
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        w *= radius[k - 1] * rng.uniform(0.5, 1.0) / np.linalg.norm(w)
        samples.append(PrequantPoint(w, rng.random()))
    return samples


@pytest.mark.parametrize("radius, extreme_k", [((1.0, 2.0), 2), ((2.0, 1.0), 1)])
def test_contact_check_mixed_dimensions_match_single_samples(radius, extreme_k):
    # k = 1 and k = 2 samples go through separate batches; the larger radius
    # puts both extremes of the mix in the batch of extreme_k
    samples = _random_samples(np.random.default_rng(6), (1, 2, 2, 1, 2, 1, 1, 2), radius)
    for N in (1, 3):
        batched = contact_check(N, samples)
        singles = [contact_check(N, [pt]) for pt in samples]
        worst = max(range(len(samples)), key=lambda i: singles[i].deviation)
        smallest = min(range(len(samples)), key=lambda i: singles[i].min_conformal)
        assert samples[worst].w.size == samples[smallest].w.size == extreme_k
        assert batched.deviation == pytest.approx(singles[worst].deviation, rel=1e-12)
        assert batched.min_conformal == pytest.approx(singles[smallest].min_conformal, rel=1e-12)


def test_contact_check_fails_without_the_shrink_factor(monkeypatch):
    # (w, z) -> (e^{2 pi i N z} w, z) is not contact: it adds pi N |w|^2 dz to the form
    samples = _random_samples(np.random.default_rng(7), (1, 2, 1, 2))
    assert contact_check(2, samples).deviation < 1e-4
    monkeypatch.setattr(hamflow, "_shrink", lambda N, rho2: np.ones_like(rho2))
    assert contact_check(2, samples).deviation > 1e-4


def test_prequant_point_reduces_circle_coordinate():
    assert PrequantPoint([1.0], 1.75).z == pytest.approx(0.75)
    assert PrequantPoint([1.0], -0.25).z == pytest.approx(0.75)


def test_phase_point_validates_lengths():
    with pytest.raises(ValueError):
        PhasePoint([1.0, 2.0], [1.0])

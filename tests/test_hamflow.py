import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cck import hamflow
from cck.errors import SingularAngle
from cck.hamflow import (
    PhasePoint,
    PrequantPoint,
    _squeeze_real,
    apply_rotation,
    check_graph_identity,
    contact_check,
    gen_fn_qq,
    squeezed_radius,
)

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_rotation_at_zero_is_identity():
    x = PhasePoint([0.3, -1.2], [2.0, 0.5])
    y = apply_rotation(0.0, x)
    assert np.array_equal(y.q, x.q) and np.array_equal(y.p, x.p)


def test_rotation_quarter_period():
    # (q, p) -> (p, -q)
    y = apply_rotation(math.pi / 4, PhasePoint([1.0, 2.0], [3.0, -4.0]))
    assert np.allclose(y.q, [3.0, -4.0], atol=1e-15)
    assert np.allclose(y.p, [-1.0, -2.0], atol=1e-15)


def test_rotation_eighth_period_on_unit_q():
    y = apply_rotation(math.pi / 8, PhasePoint([1.0], [0.0]))
    assert y.q[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert y.p[0] == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)


def test_rotation_determinant_one():
    for a in (-1.3, 0.2, 0.7, 2.9):
        # the images of the unit q and unit p vectors span a parallelogram of area one
        eq = apply_rotation(a, PhasePoint([1.0], [0.0]))
        ep = apply_rotation(a, PhasePoint([0.0], [1.0]))
        assert eq.q[0] * ep.p[0] - ep.q[0] * eq.p[0] == pytest.approx(1.0, abs=1e-14)


@given(ANGLES, ANGLES)
@settings(max_examples=200)
def test_rotation_flow_property(a1, a2):
    x = PhasePoint([0.6, -1.1], [0.8, 0.3])
    lhs = apply_rotation(a1, apply_rotation(a2, x))
    rhs = apply_rotation(a1 + a2, x)
    assert max(np.max(np.abs(lhs.q - rhs.q)), np.max(np.abs(lhs.p - rhs.p))) < 1e-12


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


def test_graph_identity_residual_examples():
    assert check_graph_identity(math.pi / 4, PhasePoint([1.0], [0.0])) < 1e-8
    assert check_graph_identity(math.pi / 8, PhasePoint([1.0], [1.0])) < 1e-8


def test_graph_identity_rejects_singular_angle():
    with pytest.raises(SingularAngle):
        check_graph_identity(math.pi / 2, PhasePoint([1.0], [0.0]))


def test_graph_identity_second_order_bound():
    # S is quadratic, so central differences are exact up to round-off
    rng = np.random.default_rng(2)
    h = hamflow.FD_STEP
    for _ in range(50):
        a = rng.uniform(0.05, math.pi / 2 - 0.05)
        x = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        assert check_graph_identity(a, x) < 10 * h * h


def _squeeze(N, w, z):
    """The squeeze map on one point (w, z), through its real form on (q, p, z) with w = q - i p."""
    w = np.asarray(w, dtype=complex)
    out = _squeeze_real(np.concatenate([w.real, -w.imag, [z]]), N)
    n = w.size
    return out[:n] - 1j * out[n : 2 * n], float(out[2 * n])


def test_squeeze_fixes_the_axis():
    for z in (0.0, 0.25, 0.9):
        w, z_out = _squeeze(3, [0.0], z)
        assert np.all(w == 0)
        assert z_out == z


def test_squeeze_shrink_factor_at_unit_capacity():
    # pi |w|^2 = 1 and N = 1 give nu = 1/sqrt(2)
    w, _ = _squeeze(1, [1.0 / math.sqrt(math.pi)], 0.0)
    assert abs(w[0]) == pytest.approx((1 / math.sqrt(math.pi)) / math.sqrt(2), abs=1e-15)


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
        w_out, _ = _squeeze(N, w, rng.random())
        size_out = math.pi * float(np.sum(np.abs(w_out) ** 2))
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

import math

import numpy as np
import pytest

from cck import projector_geometry
from cck.errors import OutsideDomain
from cck.projector_geometry import (
    BlockQuery,
    CriticalData,
    action_profile,
    critical_momenta,
    critical_values,
    discriminant,
    grid_extrema,
    sigma_membership,
    sigma_membership_grid,
)


def sample_in_ball(rng, R, k):
    v = rng.normal(size=k)
    return v * (rng.uniform(0, 0.999) * R / np.linalg.norm(v))


def test_discriminant_values():
    assert discriminant(1.0, [0.0], [0.0]) == 1.0
    assert discriminant(1.0, [1.0], [0.0]) == 0.0
    assert discriminant(1.0, [2.0], [0.0]) == -3.0


def test_critical_angles_at_origin():
    cd = critical_values(1.0, [0.0], [0.0])
    assert cd.a1 == 0.0
    assert cd.a2 == pytest.approx(math.pi / 2, abs=0)


def test_critical_angles_double_root():
    cd = critical_values(1.0, [1.0], [0.0])
    assert cd.a1 == pytest.approx(math.pi / 4, abs=1e-12)
    assert cd.a2 == pytest.approx(math.pi / 4, abs=1e-12)


def test_critical_angles_equal_endpoints():
    # q1 = q2 = q: boundary root at a = 0 plus cos(a2) = |q|/R
    cd = critical_values(1.0, [0.5], [0.5])
    assert cd.a1 == pytest.approx(0.0, abs=1e-12)
    assert cd.a2 == pytest.approx(math.pi / 3, abs=1e-12)


def test_critical_angles_outside_domain():
    with pytest.raises(OutsideDomain):
        critical_values(1.0, [2.0], [0.0])


def test_critical_angles_no_trajectory_for_far_equal_endpoints():
    # d = 9 > 0 but the cosine roots leave [-1, 1]: no sphere trajectory
    assert discriminant(1.0, [2.0], [2.0]) > 0
    with pytest.raises(OutsideDomain):
        critical_values(1.0, [2.0], [2.0])


def test_critical_values_at_origin():
    cd = critical_values(1.0, [0.0], [0.0])
    assert cd.f1 == 0.0
    assert cd.f2 == pytest.approx(-math.pi / 2, abs=0)


def test_critical_values_equal_endpoints():
    cd = critical_values(1.0, [0.5], [0.5])
    assert cd.f2 == pytest.approx(math.tan(math.pi / 3) / 4 - math.pi / 3, abs=1e-12)
    assert cd.f1 == 0.0


def test_critical_values_match_grid_oracle():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 120:
        R = rng.uniform(0.3, 2.5)
        k = int(rng.integers(1, 4))
        q1, q2 = sample_in_ball(rng, R, k), sample_in_ball(rng, R, k)
        if discriminant(R, q1, q2) <= 1e-6:
            continue
        cv = critical_values(R, q1, q2)
        g1, g2 = grid_extrema(R, q1, q2)
        assert cv.f1 == pytest.approx(g1, abs=1e-6)
        assert cv.f2 == pytest.approx(g2, abs=1e-6)
        checked += 1


def test_critical_value_order_invariant():
    rng = np.random.default_rng(11)
    for _ in range(300):
        R = rng.uniform(0.3, 2.5)
        k = int(rng.integers(1, 4))
        q1, q2 = sample_in_ball(rng, R, k), sample_in_ball(rng, R, k)
        try:
            cv = critical_values(R, q1, q2)
        except OutsideDomain:
            continue
        assert cv.f2 <= cv.f1 + 1e-9
        if discriminant(R, q1, q2) > 1e-4:
            assert cv.f2 < cv.f1  # equality only at a vanishing discriminant


def test_momenta_on_energy_sphere():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 200:
        R = rng.uniform(0.3, 2.5)
        k = int(rng.integers(1, 4))
        q1, q2 = sample_in_ball(rng, R, k), sample_in_ball(rng, R, k)
        if discriminant(R, q1, q2) <= 1e-6:
            continue
        for _, p1, p2 in critical_momenta(R, q1, q2):
            assert float(q1 @ q1 + p1 @ p1) == pytest.approx(R * R, abs=1e-9)
            assert float(q2 @ q2 + p2 @ p2) == pytest.approx(R * R, abs=1e-9)
        checked += 1


def test_sigma_membership_boundary_conventions():
    # bottom of the slab is closed, top is open
    assert sigma_membership(BlockQuery(1.0, [0.0], [0.0], -math.pi / 2))
    assert not sigma_membership(BlockQuery(1.0, [0.0], [0.0], 0.0))
    assert sigma_membership(BlockQuery(1.0, [0.0], [0.0], -1.5))
    for t in (-5.0, -1.0, 0.0, 2.0):
        assert not sigma_membership(BlockQuery(1.0, [2.0], [0.0], t))


def test_sigma_membership_double_root_slab_is_empty():
    cd = critical_values(1.0, [1.0], [0.0])
    assert cd.f1 == pytest.approx(cd.f2, abs=1e-12)
    for t in np.linspace(cd.f2 - 0.5, cd.f1 + 0.5, 20):
        assert not sigma_membership(BlockQuery(1.0, [1.0], [0.0], float(t)))


def test_sigma_membership_agrees_with_grid_oracle():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 1000:
        R = rng.uniform(0.3, 2.0)
        k = int(rng.integers(1, 3))
        q1, q2 = sample_in_ball(rng, R, k), sample_in_ball(rng, R, k)
        if discriminant(R, q1, q2) <= 1e-4:
            continue
        cv = critical_values(R, q1, q2)
        t = float(rng.uniform(cv.f2 - 0.7, cv.f1 + 0.7))
        # keep t away from the slab boundary at the grid's blind scale
        if min(abs(t - cv.f1), abs(t - cv.f2)) < 2e-3:
            continue
        query = BlockQuery(R, q1, q2, t)
        assert sigma_membership(query) == sigma_membership_grid(query)
        checked += 1


@pytest.mark.parametrize(
    "profile, member",
    [
        ([0.0, 0.0, 1.0, 1.0], False),  # run touching the open left end only
        ([0.0, 1.0, 0.0, 1.0], True),  # left-end run plus a later run
        ([0.0, 0.0, 0.0, 0.0], False),  # all sublevel: one run from the left end
        ([1.0, 1.0, 1.0, 1.0], False),  # empty sublevel set
    ],
)
def test_sigma_membership_grid_runs(monkeypatch, profile, member):
    monkeypatch.setattr(
        projector_geometry, "action_profile", lambda R, q1, q2, a: np.array(profile)
    )
    assert sigma_membership_grid(BlockQuery(1.0, [0.0], [0.0], 0.5), grid_points=4) is member


def test_case_one_limits_to_equal_endpoint_case():
    rng = np.random.default_rng(14)
    R = 1.3
    q = np.array([0.5, 0.3])
    direction = rng.normal(size=2)
    qn = float(np.linalg.norm(q))
    a2_limit = math.acos(qn / R)
    f2_limit = math.tan(a2_limit) * qn * qn - a2_limit * R * R
    cv = critical_values(R, q, q + 1e-7 * direction)
    assert cv.a2 == pytest.approx(a2_limit, abs=1e-6)
    assert cv.f2 == pytest.approx(f2_limit, abs=1e-6)
    assert cv.f1 == pytest.approx(0.0, abs=1e-6)


def test_case_one_limits_to_opposite_endpoint_case():
    rng = np.random.default_rng(15)
    R = 1.3
    q = np.array([0.5, 0.3])
    direction = rng.normal(size=2)
    qn = float(np.linalg.norm(q))
    a1_limit = math.asin(qn / R)
    f1_limit = -qn * qn / math.tan(a1_limit) - a1_limit * R * R
    cv = critical_values(R, q, -q + 1e-7 * direction)
    assert cv.a1 == pytest.approx(a1_limit, abs=1e-6)
    assert cv.f1 == pytest.approx(f1_limit, abs=1e-6)
    assert cv.f2 == pytest.approx(-math.pi / 2 * R * R, abs=1e-6)


def test_action_profile_matches_generating_function():
    from cck.hamflow import gen_fn_qq

    rng = np.random.default_rng(16)
    for _ in range(50):
        R = rng.uniform(0.5, 2.0)
        q1, q2 = rng.normal(size=2), rng.normal(size=2)
        a = rng.uniform(0.05, math.pi / 2 - 0.05)
        expected = -gen_fn_qq(a, q1, q2) - a * R * R
        got = float(action_profile(R, q1, q2, np.array([a]))[0])
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_critical_data_validates_order():
    with pytest.raises(ValueError):
        CriticalData(a1=1.0, a2=0.5, f1=0.0, f2=-1.0)
    with pytest.raises(ValueError):
        CriticalData(a1=0.1, a2=0.5, f1=-1.0, f2=0.0)

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellowkin.contact import (ContactState, contact_kinematics,
                               contact_tip_pose, freeze)
from bellowkin.kinematics import (arc_field, arc_kinematics, jacobian,
                                  tip_pose, wrap_angle)
from bellowkin.modal import ModalModel, pressure_factor, theta
from bellowkin.synthetic import cumulative_stations
from tests.conftest import make_random_model
from tests.kinematics_reference import contact_theta, pose_at


def contact_jacobian(model, contact, q):
    """Unit-rate (vx, vz, omega) of one contacted kernel sample."""
    k = contact_kinematics(model, contact, [q])
    return np.array([k.vx[0], k.vz[0], k.omega[0]])


def affine_model(rng, L=500.0):
    # theta affine in s: the shorter-bellow field then composes additively,
    # so the contacted shape at q = q_c reproduces the free shape exactly
    A = rng.normal(0.0, 0.3, (2, 3))
    A[:, 0] = 0.0
    return ModalModel(A=A, L=L, q_range=(0.0, 21.0))


def test_freeze_zero_model():
    m = ModalModel(A=np.zeros((3, 3)), L=500.0)
    c = freeze(m, 5.0, 100.0)
    assert c.base_pose_c.x == pytest.approx(100.0, abs=1e-9)
    assert c.base_pose_c.z == pytest.approx(0.0, abs=1e-9)
    assert c.base_pose_c.theta == 0.0


def test_station_pose_is_the_arc_kernel_pose(reference_model):
    # freeze keeps pose-only sums of its own for the contact station;
    # they are the pose the arc kernel integrates over [0, s_c] at q_c, to
    # within an ulp
    rng = np.random.default_rng(18)
    models = [reference_model] + [make_random_model(rng) for _ in range(4)]
    for model in models:
        for s_c, q_c in zip(rng.uniform(0.0, model.L, 200),
                            rng.uniform(0.0, 25.0, 200)):
            pose = freeze(model, q_c, s_c).base_pose_c
            k = arc_kinematics(*arc_field(model, s_c,
                                          pressure_factor(model, [q_c])))
            for got, ref in ((pose.x, k.x[0]), (pose.z, k.z[0]),
                             (pose.theta, k.theta[0])):
                assert abs(got - ref) <= np.spacing(abs(ref)), (s_c, q_c)


def test_freeze_matches_free_station(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    free = pose_at(reference_model, 5.0, 100.0)
    assert c.base_pose_c.x == pytest.approx(free.x, abs=1e-9)
    assert c.base_pose_c.z == pytest.approx(free.z, abs=1e-9)
    assert c.base_pose_c.theta == pytest.approx(free.theta, abs=1e-12)


def test_freeze_small_s_c_limit(reference_model):
    c = freeze(reference_model, 5.0, 1e-6)
    assert abs(c.base_pose_c.x) <= 1e-5
    assert abs(c.base_pose_c.z) <= 1e-5
    assert c.base_pose_c.theta == pytest.approx(theta(reference_model, 0.0, 5.0),
                                                abs=1e-9)


def test_freeze_rejects_out_of_range(reference_model):
    L = reference_model.L
    for s_c in [0.0, -10.0, L, L + 1.0]:
        with pytest.raises(ValueError):
            freeze(reference_model, 5.0, s_c)


@pytest.mark.parametrize("q_c", [float("nan"), float("inf"), float("-inf")])
def test_freeze_rejects_non_finite_pressure(reference_model, q_c):
    with pytest.raises(ValueError, match="q_c must be finite"):
        freeze(reference_model, q_c, 100.0)


def test_pressure_release_rejected(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    with pytest.raises(ValueError, match="below contact onset"):
        contact_tip_pose(reference_model, c, 4.0)
    # tolerance absorbs round-off at exactly q_c
    contact_tip_pose(reference_model, c, 5.0 - 1e-13)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.05, 0.95),
       dq=st.floats(0.0, 10.0))
def test_tangent_continuous_at_contact(seed, frac, dq):
    rng = np.random.default_rng(seed)
    m = make_random_model(rng)
    q_c = 5.0
    s_c = frac * m.L
    c = freeze(m, q_c, s_c)
    left = contact_theta(m, c, s_c, q_c + dq)
    right = contact_theta(m, c, np.nextafter(s_c, m.L), q_c + dq)
    assert abs(right - left) <= 1e-12 + 1e-9 * abs(left)


def test_onset_shape_matches_free_shape_affine():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = affine_model(rng)
        c = freeze(m, 5.0, 180.0)
        stations = np.linspace(0.0, m.L, 21)
        field = lambda s: contact_theta(m, c, s, 5.0)
        pos = cumulative_stations(field, stations)
        free = cumulative_stations(lambda s: theta(m, s, 5.0), stations)
        for k, s in enumerate(stations):
            assert np.linalg.norm(pos[k] - free[k]) <= 1e-9
            assert abs(wrap_angle(field(float(s)))
                       - wrap_angle(theta(m, float(s), 5.0))) <= 1e-12


def test_distal_field_is_rebased_shorter_bellow(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    off = theta(reference_model, 100.0, 5.0) - theta(reference_model, 0.0, 20.0)
    for s in [150.0, 300.0, 500.0]:
        got = contact_theta(reference_model, c, s, 20.0)
        fresh = theta(reference_model, s - 100.0, 20.0)
        assert got == pytest.approx(fresh + off, rel=1e-12, abs=1e-12)


def test_contact_tip_zero_model():
    m = ModalModel(A=np.zeros((3, 3)), L=500.0)
    c = freeze(m, 5.0, 230.0)
    tip = contact_tip_pose(m, c, 18.0)
    assert tip.x == pytest.approx(500.0, abs=1e-9)
    assert tip.z == pytest.approx(0.0, abs=1e-9)
    assert tip.theta == 0.0


def test_contact_tip_at_onset_matches_free_tip_affine():
    rng = np.random.default_rng(4)
    m = affine_model(rng)
    c = freeze(m, 5.0, 320.0)
    got = contact_tip_pose(m, c, 5.0)
    ref = tip_pose(m, 5.0)
    assert np.linalg.norm(got.position - ref.position) <= 1e-9
    assert abs(got.theta - ref.theta) <= 1e-12


def test_contacted_tip_diverges_from_free(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    gaps = []
    for q in [5.0, 10.0, 15.0, 20.0]:
        free = tip_pose(reference_model, q)
        held = contact_tip_pose(reference_model, c, q)
        gaps.append(np.linalg.norm(free.position - held.position))
    assert gaps[-1] > 1.0
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_contact_jacobian_matches_finite_difference(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    h = 1e-4
    for q in [6.0, 12.0, 20.0]:
        up = contact_tip_pose(reference_model, c, q + h)
        dn = contact_tip_pose(reference_model, c, q - h)
        fd = (up.position - dn.position) / (2 * h)
        J = contact_jacobian(reference_model, c, q)[:2]
        assert np.max(np.abs(J - fd)) / max(np.max(np.abs(fd)), 1e-12) <= 1e-6


def test_contact_jacobian_limits(reference_model):
    L = reference_model.L
    near_tip = freeze(reference_model, 5.0, np.nextafter(L, 0.0))
    assert np.linalg.norm(contact_jacobian(reference_model, near_tip, 10.0)) <= 1e-6

    # the s_c -> 0 limit recovers the free jacobian when the base is exactly
    # clamped; a nonzero base sensitivity is rebased away over the full length
    rng = np.random.default_rng(8)
    m = make_random_model(rng, v=3, w=3, L=500.0)
    A = m.A.copy()
    A[0, :] = 0.0
    clamped = ModalModel(A=A, L=m.L, q_range=m.q_range)
    near_base = freeze(clamped, 5.0, 1e-9 * L)
    J_free = jacobian(clamped, 10.0)
    J_held = contact_jacobian(clamped, near_base, 10.0)
    assert np.allclose(J_held, J_free, rtol=1e-7,
                       atol=1e-7 * np.linalg.norm(J_free))


def test_contact_jacobian_norm_non_increasing_in_s_c(reference_model):
    norms = [np.linalg.norm(contact_jacobian(reference_model,
                                             freeze(reference_model, 5.0, s_c),
                                             12.0))
             for s_c in [50.0, 150.0, 250.0, 350.0, 450.0]]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_contact_tip_twist_scales(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    t1 = contact_kinematics(reference_model, c, [12.0], qdot=0.05)
    t2 = contact_kinematics(reference_model, c, [12.0], qdot=0.10)
    assert t2.vx[0] == pytest.approx(2 * t1.vx[0], rel=1e-12)
    assert t2.vz[0] == pytest.approx(2 * t1.vz[0], rel=1e-12)
    assert t2.omega[0] == pytest.approx(2 * t1.omega[0], rel=1e-12)


def test_contact_state_json_round_trip(reference_model):
    c = freeze(reference_model, 5.0, 100.0)
    back = ContactState.from_json(c.to_json())
    assert back.s_c == c.s_c and back.q_c == c.q_c
    assert back.base_pose_c.x == c.base_pose_c.x
    assert back.base_pose_c.z == c.base_pose_c.z
    assert back.base_pose_c.theta == c.base_pose_c.theta
    # files written with the former station table still load
    doc = json.loads(c.to_json())
    assert set(doc) == {"s_c", "q_c", "base_pose_c"}
    doc["theta_c"] = [[0.0, 0.0], [100.0, 0.1]]
    assert ContactState.from_json(json.dumps(doc)) == c

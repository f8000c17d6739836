import math

import numpy as np
import pytest

from bellowkin import kinematics, modal
from bellowkin.calibration import fit_modal
from bellowkin.kinematics import (
    PlanarPose,
    jacobian,
    ramp_kinematics,
    resolved_rates,
    tip_pose,
    wrap_angle,
)
from bellowkin.modal import ModalModel, theta
from bellowkin.pipeline import PressureRamp, simulate_free
from bellowkin.synthetic import cumulative_stations, make_reference_dataset
from tests.conftest import make_random_model
from tests.kinematics_reference import cc_pose, resolved_rates_loop


def constant_curvature_model(kappa0: float, L: float) -> ModalModel:
    # theta(s, q) = kappa0 * s * q, so the backbone is a circular arc for any q
    A_raw = np.zeros((2, 2))
    A_raw[1, 1] = kappa0
    return ModalModel.from_raw(A_raw, L=L)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)


def test_cc_pose_straight():
    p = cc_pose(0.0, 500.0)
    assert (p.x, p.z, p.theta) == (0.0, 500.0, 0.0)


def test_cc_pose_quarter_circle():
    r = 120.0
    p = cc_pose(1.0 / r, (math.pi / 2) * r)
    assert p.x == pytest.approx(r, rel=1e-12)
    assert p.z == pytest.approx(r, rel=1e-12)
    assert p.theta == pytest.approx(math.pi / 2, rel=1e-12)


def test_cc_pose_guard_continuity():
    # guarded series returns the true value kappa*s^2/2, which for
    # kappa = 1e-12, s = 100 sits 5e-9 LU off the straight limit; the naive
    # closed form loses it entirely to cancellation (1 - cos underflows to 0)
    a = cc_pose(1e-12, 100.0)
    b = cc_pose(0.0, 100.0)
    assert a.x == pytest.approx(0.5e-12 * 100.0 ** 2, rel=1e-12)
    assert abs(a.x - b.x) <= 5.1e-9
    assert abs(a.z - b.z) <= 1e-9
    # far below the guard the straight limit is matched tightly
    c = cc_pose(1e-14, 100.0)
    assert abs(c.x - b.x) <= 1e-9 and abs(c.z - b.z) <= 1e-9


def test_cc_pose_rejects_negative_arc():
    with pytest.raises(ValueError):
        cc_pose(0.1, -1.0)


def shape_stations(model, q, n):
    """Positions at n equal arc stations: one 5-point panel per interval."""
    return cumulative_stations(lambda s: theta(model, s, q),
                               np.linspace(0.0, model.L, n))


def test_straight_shape_stations():
    m = ModalModel(A=np.zeros((3, 3)), L=400.0)
    pos = shape_stations(m, 7.0, 5)
    assert np.allclose(pos[:, 0], [0, 100, 200, 300, 400], atol=1e-9)
    assert np.allclose(pos[:, 1], 0.0, atol=1e-9)
    assert np.allclose(theta(m, np.linspace(0.0, m.L, 5), 7.0), 0.0, atol=1e-12)


def test_quadrature_tip_matches_closed_form():
    # straight-along-+x quadrature frame vs straight-along-+z closed form:
    # tip x pairs with closed-form z and vice versa
    L = 500.0
    q = 10.0
    for kL in np.arange(0.0, math.pi + 1e-12, 0.1):
        m = constant_curvature_model(kL / (L * q), L)
        tip = tip_pose(m, q)
        ref = cc_pose(kL / L, L)
        scale = max(1.0, abs(ref.z), abs(ref.x))
        assert abs(tip.x - ref.z) / scale <= 1e-9
        assert abs(tip.z - ref.x) / scale <= 1e-9
        assert tip.theta == pytest.approx(wrap_angle(kL), abs=1e-12)


def test_calibrated_tip_within_fit_residual(reference_model, reference_dataset,
                                            reference_report):
    j = int(np.argmax(np.asarray(reference_dataset.pressures) == 21.0))
    data_tip = reference_dataset.points[j][-1] - reference_dataset.points[j][0]
    tip = tip_pose(reference_model, 21.0)
    err_mm = np.linalg.norm(tip.position - data_tip) * reference_model.unit_scale
    assert err_mm <= reference_report.per_pressure[j]["max_tip_err_mm"] + 1e-9


def test_jacobian_zero_model():
    m = ModalModel(A=np.zeros((3, 3)), L=500.0)
    assert np.array_equal(jacobian(m, 5.0), [0.0, 0.0, 0.0])


def test_jacobian_constant_curvature_symbolic():
    # theta = k0*s*q gives kappa = k0*q; differentiate the closed-form tip
    # x = sin(kL)/k, z = (1-cos(kL))/k with respect to q by the chain rule
    k0 = 2.4e-4
    L = 500.0
    q = 10.0
    m = constant_curvature_model(k0, L)
    k = k0 * q
    dk = k0
    dx_dq = dk * (L * math.cos(k * L) / k - math.sin(k * L) / k ** 2)
    dz_dq = dk * (L * math.sin(k * L) / k - (1 - math.cos(k * L)) / k ** 2)
    J = jacobian(m, q)
    assert J[0] == pytest.approx(dx_dq, rel=1e-9)
    assert J[1] == pytest.approx(dz_dq, rel=1e-9)
    assert J[2] == pytest.approx(k0 * L, rel=1e-12)


def test_jacobian_matches_finite_difference(reference_model):
    h = 1e-4
    for q in [2.0, 10.0, 19.0]:
        up = tip_pose(reference_model, q + h)
        dn = tip_pose(reference_model, q - h)
        fd = (up.position - dn.position) / (2 * h)
        J = jacobian(reference_model, q)[:2]
        assert np.max(np.abs(J - fd)) / max(np.max(np.abs(fd)), 1e-12) <= 1e-6


def tip_twist(model, q, qdot):
    """(vx, vz, omega) of one kernel sample at pressure rate qdot."""
    k = ramp_kinematics(model, [q], qdot=qdot)
    return np.array([k.vx[0], k.vz[0], k.omega[0]])


def test_tip_twist_linear_in_rate(reference_model):
    t0 = tip_twist(reference_model, 10.0, 0.0)
    assert tuple(t0) == (0.0, 0.0, 0.0)
    t1 = tip_twist(reference_model, 10.0, 0.7)
    t2 = tip_twist(reference_model, 10.0, 1.4)
    assert np.array_equal(t2, 2 * t1)


def test_tip_twist_matches_ramp_differencing(reference_model):
    h = 0.05
    q = 12.0
    tw = tip_twist(reference_model, q, 1.0)
    up = tip_pose(reference_model, q + h)
    dn = tip_pose(reference_model, q - h)
    fd_v = (up.position - dn.position) / (2 * h)
    fd_w = (up.theta - dn.theta) / (2 * h)
    assert np.allclose(tw[:2], fd_v, rtol=0, atol=2e-3 * max(1.0, np.max(np.abs(fd_v))))
    assert tw[2] == pytest.approx(fd_w, abs=1e-5)


def test_arc_length_preserved(reference_model):
    def polyline_len(n):
        pts = shape_stations(reference_model, 21.0, n)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    L = reference_model.L
    assert abs(polyline_len(200) - L) / L <= 1e-4
    # chord shortfall decays like n^-2
    e50 = abs(polyline_len(50) - L)
    e100 = abs(polyline_len(100) - L)
    assert e50 / e100 >= 3.0


def test_resolved_rates_already_at_target(reference_model):
    target = tip_pose(reference_model, 9.0).position
    res = resolved_rates(reference_model, target, q0=9.0)
    assert res.converged
    assert res.iterations <= 1
    assert abs(res.q - 9.0) <= 1e-9


def test_resolved_rates_tracks_pressure_target(reference_model):
    target = tip_pose(reference_model, 15.0).position
    res = resolved_rates(reference_model, target, q0=5.0, tol=1e-4)
    assert res.converged
    assert res.err <= 0.0978
    assert abs(res.q - 15.0) <= 0.016
    # task error non-increasing once inside the basin
    errs = [row[4] for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(errs[5:], errs[6:]))


def test_resolved_rates_unreachable_target(reference_model):
    res = resolved_rates(reference_model, [10 * reference_model.L, 0.0],
                         q0=5.0, max_iter=150)
    assert not res.converged
    assert res.stalled or res.iterations == 150
    assert math.isfinite(res.err) and math.isfinite(res.q)


def test_resolved_rates_rejects_bad_gains(reference_model):
    with pytest.raises(ValueError):
        resolved_rates(reference_model, [0, 0], q0=5.0, alpha=0.0)
    with pytest.raises(ValueError):
        resolved_rates(reference_model, [0, 0], q0=5.0, tol=0.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"x_des": [math.nan, 0.0]}, "x_des"),
    ({"x_des": [0.0, math.inf]}, "x_des"),
    ({"x_des": [1.0, 2.0, 3.0]}, "x_des"),
    ({"x_des": [[1.0, 2.0]]}, "x_des"),
    ({"x_des": 1.0}, "x_des"),
    ({"q0": math.nan}, "q0"),
    ({"q0": math.inf}, "q0"),
    ({"tol": math.nan}, "tol"),
    ({"tol": math.inf}, "tol"),
    ({"alpha": math.nan}, "alpha"),
    ({"max_iter": -1}, "max_iter"),
])
def test_resolved_rates_rejects_non_finite_input(reference_model, kwargs,
                                                 message):
    args = {"x_des": [300.0, 100.0], "q0": 5.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        resolved_rates(reference_model, **args)


def test_resolved_rates_equals_the_ramp_kinematics_loop(reference_model):
    # one arc factor per solve reads the same numbers as a whole kernel
    # call per iteration: q, err, iterations and every trace row, bit for bit
    rng = np.random.default_rng(20)
    models = [reference_model] + [make_random_model(rng) for _ in range(3)]
    for k in range(160):
        model = models[k % len(models)]
        target = tip_pose(model, float(rng.uniform(0.0, 21.0))).position
        if k % 8 == 7:
            target = target + rng.normal(0.0, 0.5 * model.L, 2)
        kwargs = {"q0": float(rng.uniform(0.0, 21.0)),
                  "alpha": float(rng.uniform(0.1, 1.0)),
                  "tol": float(10.0 ** rng.uniform(-8, -1)),
                  "max_iter": int(rng.integers(0, 60))}
        res = resolved_rates(model, target, **kwargs)
        ref = resolved_rates_loop(model, target, **kwargs)
        assert res == ref


def _solve_bits(res):
    """An RRResult with every float as its bit pattern, so -0.0 and 0.0
    differ."""
    return (res.q.hex(), res.err.hex(), res.converged, res.stalled,
            res.iterations, np.array(res.trace, dtype=float).tobytes())


@pytest.mark.parametrize("v, w, n_points", [(3, 3, 10), (3, 3, 40),
                                            (4, 4, 20), (4, 4, 40)])
def test_resolved_rates_equals_the_loop_on_benchmark_shaped_solves(v, w,
                                                                   n_points):
    # fits of generated markers, targets from a free 5:20:0.05 stream,
    # q0 in [5, 20] and the default gains: bit for bit the whole-kernel
    # loop, each solve within 1e-4 Psi of its row's pressure
    model, _ = fit_modal(make_reference_dataset(n_points=n_points), v=v, w=w)
    stream = simulate_free(model, PressureRamp(5.0, 20.0, 0.05))
    rng = np.random.default_rng(100 * v + n_points)
    for row, q0 in zip(rng.integers(0, stream.q.size, 40),
                       rng.uniform(5.0, 20.0, 40)):
        target = (stream.x[row], stream.z[row])
        res = resolved_rates(model, target, q0=float(q0))
        assert _solve_bits(res) == _solve_bits(
            resolved_rates_loop(model, target, q0=float(q0)))
        assert res.converged and abs(res.q - stream.q[row]) <= 1e-4


def test_resolved_rates_builds_one_arc_factor_per_solve(reference_model,
                                                        monkeypatch):
    # the free arc's pressure-free factor is built once per solve, every
    # iteration reads one pressure column of it, and no iteration wraps
    # the tip angle it does not read
    builds, reads, wraps = [], [], []
    arc_factor, field = modal.arc_factor, modal._field
    wrap_angles = kinematics.wrap_angles

    def counting_factor(*args, **kwargs):
        builds.append(1)
        return arc_factor(*args, **kwargs)

    def counting_field(*args, **kwargs):
        reads.append(1)
        return field(*args, **kwargs)

    def counting_wrap(*args, **kwargs):
        wraps.append(1)
        return wrap_angles(*args, **kwargs)

    monkeypatch.setattr(modal, "arc_factor", counting_factor)
    monkeypatch.setattr(modal, "_field", counting_field)
    monkeypatch.setattr(kinematics, "wrap_angles", counting_wrap)
    target = tip_pose(reference_model, 15.0).position
    assert wraps == [1]  # the counter sees the kernel's wrap
    seen = set()
    for q0, max_iter in ((15.0, 200), (5.0, 3), (5.0, 200), (20.0, 1)):
        builds.clear()
        reads.clear()
        wraps.clear()
        res = resolved_rates(reference_model, target, q0=q0, max_iter=max_iter)
        assert builds == [1]
        assert len(reads) == res.iterations + 1
        assert wraps == []
        seen.add(res.iterations)
    assert len(seen) == 4


def test_pose_requires_finite_components():
    with pytest.raises(ValueError):
        PlanarPose(x=math.nan, z=0.0, theta=0.0)

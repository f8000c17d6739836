import itertools
import math
import sys

import numpy as np
import pytest

from bellowkin import modal, pipeline, quadrature, synthetic
from bellowkin.calibration import fit_modal
from bellowkin.centrode import instant_centers
from bellowkin.contact import (ContactState, RampPins, contact_kinematics,
                               freeze, hypothesis_centrode_gradient,
                               pinned_ramp)
from bellowkin.estimation import predicted_centrode
from bellowkin.kinematics import (PlanarPose, ramp_kinematics, wrap_angle,
                                  wrap_angles)
from bellowkin.modal import ModalModel
from bellowkin.pipeline import PressureRamp
from bellowkin.synthetic import make_reference_dataset
from tests.conftest import make_random_model
from tests.kinematics_reference import (REFERENCE_PANELS, contact_tip_pose,
                                        contact_tip_twist, fixed_centrode,
                                        panel_nodes, station_pose, tip_pose,
                                        tip_twist)

TOL_LU = 1e-12
QDOT = 0.05


def omega_zero_model():
    # dtheta/dq = (s/L) (2q - 20) vanishes at q = 10 for the free tip and
    # for every contacted distal field: centers at infinity there
    A = np.zeros((3, 3))
    A[1, 1], A[1, 2] = -0.02, 0.001
    return ModalModel(A=A, L=400.0)


def per_sample(model, q, contact):
    """Poses, twists and centrodes of the scalar reference path."""
    out = []
    for qk in q:
        qk = float(qk)
        if contact is None:
            pose, twist = tip_pose(model, qk), tip_twist(model, qk, QDOT)
        else:
            pose = contact_tip_pose(model, contact, qk)
            twist = contact_tip_twist(model, contact, qk, QDOT)
        out.append((pose, twist, fixed_centrode(pose, twist)))
    return out


def kernel(model, q, contact, qdot=1.0):
    """The free or the contacted ramp kernel."""
    if contact is None:
        return ramp_kinematics(model, q, qdot=qdot)
    return contact_kinematics(model, contact, q, qdot=qdot)


def kernel_centrode(model, q, contact):
    kin = kernel(model, q, contact, qdot=QDOT)
    return instant_centers(kin.x, kin.z, kin.vx, kin.vz, kin.omega)


def assert_matches(model, q, contact):
    kin = kernel(model, q, contact, qdot=QDOT)
    trace = kernel_centrode(model, q, contact)
    ref = per_sample(model, q, contact)
    assert len(kin.x) == len(trace.valid) == len(q)
    for k, (pose, twist, c) in enumerate(ref):
        assert abs(kin.x[k] - pose.x) <= TOL_LU
        assert abs(kin.z[k] - pose.z) <= TOL_LU
        assert abs(kin.theta[k] - pose.theta) <= 1e-12
        assert abs(kin.vx[k] - twist.vx) <= TOL_LU
        assert abs(kin.vz[k] - twist.vz) <= TOL_LU
        assert abs(kin.omega[k] - twist.omega) <= 1e-12
        assert bool(trace.valid[k]) == c.valid
        if c.valid:
            assert abs(trace.cx[k] - c.x) <= TOL_LU
            assert abs(trace.cz[k] - c.z) <= TOL_LU
        else:
            assert math.isnan(trace.cx[k]) and math.isnan(trace.cz[k])


@pytest.mark.parametrize("n", [1, 3, 151, 601])
def test_free_ramp_matches_per_sample(reference_model, n):
    assert_matches(reference_model, np.linspace(5.0, 20.0, n), None)


@pytest.mark.parametrize("n", [1, 3, 151, 601])
def test_contact_ramp_matches_per_sample(reference_model, n):
    contact = freeze(reference_model, 5.0, 130.0)
    assert_matches(reference_model, np.linspace(5.0, 20.0, n), contact)


def test_arc_rule_matches_dense_reference():
    # every fitted order on the synthetic set, to twice the calibrated
    # pressure range, over the whole arc and the distal arcs L/2 and L/10:
    # the kernel's tip is no further from a 400-panel composite than the
    # REFERENCE_PANELS composite is, beyond round-off
    for n_points in (10, 20, 40):
        dataset = make_reference_dataset(n_points=n_points)
        for v, w in itertools.product(range(1, 7), range(1, 6)):
            model, _ = fit_modal(dataset, v=v, w=w)
            q = np.linspace(0.0, 2.0 * model.q_range[1], 43)
            for ell in (model.L, model.L / 2, model.L / 10):
                contact, base = None, 0.0
                if ell < model.L:
                    # a pin at the base pose's origin: the distal arc alone
                    contact = ContactState(model.L - ell, 0.0,
                                           PlanarPose(0.0, 0.0, 0.0))
                    base = modal.theta_grid(model, [0.0], q)
                kin = kernel(model, q, contact)

                def composite(n_panels):
                    nodes, wts = panel_nodes(0.0, ell, n_panels)
                    th = modal.theta_grid(model, nodes, q) - base
                    return wts @ np.cos(th), wts @ np.sin(th)

                x, z = composite(400)
                err = np.max(np.hypot(kin.x - x, kin.z - z))
                x20, z20 = composite(REFERENCE_PANELS)
                bound = max(np.max(np.hypot(x20 - x, z20 - z)), 2e-11)
                assert err <= bound, (n_points, v, w, ell)


def test_written_out_rules_are_gauss_legendre():
    # the arc rule and the truth's station rule are numpy's Gauss-Legendre
    # rules, written out so that no import loads numpy.polynomial
    for x, w in ((quadrature._ARC_X, quadrature._ARC_W),
                 (synthetic._GL_X, synthetic._GL_W)):
        ref_x, ref_w = np.polynomial.legendre.leggauss(x.size)
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-15)


def test_kernel_checks_only_the_arc_length(reference_model, monkeypatch):
    # a kernel pass range-checks the arc's length alone, never its nodes,
    # and lays out no nodes: the arc rule is laid out once, at import
    checked, laid_out = [], []
    check_s = modal.ModalModel._check_s

    def counting_check(self, s):
        checked.append(np.size(s))
        return check_s(self, s)

    monkeypatch.setattr(modal.ModalModel, "_check_s", counting_check)
    for name, module in list(sys.modules.items()):
        if name.startswith("bellowkin") and hasattr(module, "panel_nodes"):
            monkeypatch.setattr(module, "panel_nodes",
                                lambda *a: laid_out.append(a))
    q = PressureRamp(5.0, 20.0, 0.05).values
    ramp_kinematics(reference_model, q)
    contact_kinematics(reference_model, freeze(reference_model, 5.0, 100.0), q)
    hypothesis_centrode_gradient(reference_model, 100.0, q)
    assert all(n == 1 for n in checked)
    assert laid_out == []


def count_builds(monkeypatch):
    """Record each pressure-factor build (the size of its ramp) and each
    arc factor built, wherever the package builds them."""
    built, arcs = [], []
    factor, coefficients = modal.pressure_factor, modal.arc_coefficients

    def counting_factor(model, q, *args, **kwargs):
        built.append(np.size(q))
        return factor(model, q, *args, **kwargs)

    def counting_coefficients(*args, **kwargs):
        arcs.append(1)
        return coefficients(*args, **kwargs)

    monkeypatch.setattr(modal, "pressure_factor", counting_factor)
    monkeypatch.setattr(modal, "arc_coefficients", counting_coefficients)
    return built, arcs


def test_gradient_reads_the_field_once_beyond_its_pin(reference_model,
                                                    monkeypatch):
    # a ramp's pins build its pressure factor once; each hypothesis then
    # reads the field three times on it (pin, distal arc, and the pin's
    # curvature with the arc end's d2theta/(ds dq)), builds its two arc
    # factors and no pressure factor, and range-checks no arc sample
    reads, checked = [], []
    field, check_s = modal._field, modal.ModalModel._check_s

    def counting_field(*args, **kwargs):
        reads.append(1)
        return field(*args, **kwargs)

    def counting_check(self, s):
        checked.append(np.size(s))
        return check_s(self, s)

    built, arcs = count_builds(monkeypatch)
    monkeypatch.setattr(modal, "_field", counting_field)
    monkeypatch.setattr(modal.ModalModel, "_check_s", counting_check)
    q = PressureRamp(5.0, 20.0, 0.05).values
    pinned_ramp(reference_model, 100.0, q)
    assert (len(reads), built, len(arcs)) == (2, [q.size], 2)
    reads.clear(), built.clear(), arcs.clear()
    hypothesis_centrode_gradient(reference_model, 100.0, q)
    assert (len(reads), built, len(arcs)) == (3, [q.size], 2)
    reads.clear(), built.clear(), arcs.clear()
    pins = RampPins(reference_model, q)
    assert built == [q.size]
    for n, s_c in enumerate((100.0, 37.5, 420.0, 250.0), start=1):
        pins.gradient(s_c)
        assert (len(reads), built, len(arcs)) == (3 * n, [q.size], 2 * n)
    assert checked == []


def arc_end(x0, z0, phi0, kappa, ell):
    """End pose of a circular arc of length ell and curvature kappa that
    starts at (x0, z0) with tangent angle phi0; kappa = 0 is the segment."""
    half = 0.5 * kappa * ell
    chord = ell * np.sinc(half / math.pi)  # 2 sin(half) / kappa
    mid = phi0 + half
    return x0 + chord * math.cos(mid), z0 + chord * math.sin(mid), phi0 + kappa * ell


@pytest.mark.parametrize("k0", [0.0, 2.4e-4, -3.1e-4])
def test_contacted_kernel_matches_constant_curvature_arcs(k0):
    # theta = k0 s q: a pin at s_c from q_c leaves an arc of curvature
    # k0 q_c up to s_c, then an arc of curvature k0 q over L - s_c that
    # starts at the frozen tangent k0 q_c s_c; q_c = 0 and q = 0 give
    # straight arcs
    L = 500.0
    A_raw = np.zeros((2, 2))
    A_raw[1, 1] = k0
    m = ModalModel.from_raw(A_raw, L=L)
    for s_c in (37.5, 150.0, 260.0, 480.0):
        for q_c in (0.0, 5.0, 12.0):
            q = q_c + np.array([0.0, 0.5, 3.0, 8.0])
            kin = contact_kinematics(m, freeze(m, q_c, s_c), q)
            x0, z0, phi0 = arc_end(0.0, 0.0, 0.0, k0 * q_c, s_c)
            for k, qk in enumerate(q):
                x, z, th = arc_end(x0, z0, phi0, k0 * qk, L - s_c)
                scale = max(1.0, abs(x), abs(z))
                assert abs(kin.x[k] - x) / scale <= 1e-9
                assert abs(kin.z[k] - z) / scale <= 1e-9
                assert abs(wrap_angle(kin.theta[k] - th)) <= 1e-9 * max(1.0, abs(th))


def test_tip_angle_wrapped_as_planar_pose():
    # tip angles beyond pi: the kernel wraps them as PlanarPose does
    model = make_random_model(np.random.default_rng(11), v=3, w=3,
                              L=300.0, max_tip_angle=6.0)
    q = np.linspace(0.0, 21.0, 211)
    kin = ramp_kinematics(model, q)
    raw = modal.theta_grid(model, [model.L], q)[0]
    assert np.max(np.abs(raw)) > math.pi
    for k, qk in enumerate(q):
        assert kin.theta[k] == tip_pose(model, float(qk)).theta
        assert -math.pi < kin.theta[k] <= math.pi


def test_wrap_angles_bit_exact():
    a = np.array([0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
                  2 * math.pi, 1e-300, 7.5, -7.5, 1e6, -1e6, 123.456])
    assert [float(x) for x in wrap_angles(a)] == [wrap_angle(float(x)) for x in a]
    assert [float(x) for x in wrap_angles(a)] == \
        [PlanarPose(x=0.0, z=0.0, theta=float(x)).theta for x in a]


def test_invalid_samples_match_per_sample():
    model = omega_zero_model()
    q = np.array([9.0, 9.5, 10.0, 10.5, 11.0])
    for contact in (None, freeze(model, 9.0, 150.0)):
        trace = kernel_centrode(model, q, contact)
        assert list(trace.valid) == [True, True, False, True, True]
        assert_matches(model, q, contact)


@pytest.mark.parametrize("n", [1, 3, 151, 601])
def test_gradient_kernel_centrode_is_hypothesis_centrode(reference_model, n):
    # the second model's ramp is centered on its omega = 0 pressure
    cases = [(reference_model, np.linspace(5.0, 20.0, n), 130.0),
             (omega_zero_model(), 10.0 + 0.01 * (np.arange(n) - n // 2), 150.0)]
    for model, q, s_c in cases:
        grad = hypothesis_centrode_gradient(model, s_c, q)
        ref = predicted_centrode(model, s_c, q)
        assert np.array_equal(grad.valid, ref.valid)
        assert np.array_equal(grad.cx, ref.cx, equal_nan=True)
        assert np.array_equal(grad.cz, ref.cz, equal_nan=True)
        assert np.all(np.isfinite(grad.dcx[grad.valid]))
        assert np.all(np.isfinite(grad.dcz[grad.valid]))
        assert np.all(np.isnan(grad.dcx[~grad.valid]))
        assert np.all(np.isnan(grad.dcz[~grad.valid]))
    assert not grad.valid[n // 2]


@pytest.mark.parametrize("q_c", [0.0, 5.0, 21.0, 30.0])
def test_pin_base_pose_matches_65_station_reference(reference_model, q_c):
    # the pin's base pose, on the kernel's node layout, against the
    # 65-station integral it replaced; the model is calibrated on
    # 0..21 Psi, so q_c = 30 extrapolates
    for s_c in np.linspace(0.0, reference_model.L, 99)[1:-1]:
        for contact in (freeze(reference_model, q_c, s_c),
                        pinned_ramp(reference_model, s_c, [q_c])[0]):
            got = contact.base_pose_c
            ref = station_pose(reference_model, q_c, s_c)
            assert abs(got.x - ref.x) <= 1e-11
            assert abs(got.z - ref.z) <= 1e-11
            assert abs(got.theta - ref.theta) <= 1e-12


def test_pin_tangent_is_read_from_the_base_pose(reference_model, monkeypatch):
    # the frozen tangent comes with the base pose, from the same field
    # column: no scalar field read at the pin point
    calls = []
    theta = modal.theta

    def counting_theta(*args, **kwargs):
        calls.append(args)
        return theta(*args, **kwargs)

    monkeypatch.setattr(modal, "theta", counting_theta)
    q = PressureRamp(5.0, 20.0, 0.05).values
    hypothesis_centrode_gradient(reference_model, 100.0, q)
    assert calls == []
    contact_kinematics(reference_model, freeze(reference_model, 5.0, 100.0), q)
    assert calls == []


def test_contact_ramp_rejects_release(reference_model):
    contact = freeze(reference_model, 10.0, 100.0)
    with pytest.raises(ValueError, match="below contact onset"):
        contact_kinematics(reference_model, contact, [9.0, 10.0])


def test_ramp_sample_cap():
    cap = pipeline.MAX_RAMP_SAMPLES
    assert PressureRamp(0.0, cap - 1.0, 1.0).values.size == cap
    for end, step in ((float(cap), 1.0), (1e9, 1e-9), (1.0, 5e-324)):
        with pytest.raises(ValueError, match="sample cap"):
            PressureRamp(0.0, end, step)
    assert PressureRamp(5.0, 5.0, 0.0).values.size == 1


def test_simulate_contact_splits_at_onset(reference_model):
    r = PressureRamp(5.0, 8.0, 0.25)
    samples, contact = pipeline.simulate_contact(reference_model, r, 120.0, 6.5)
    for q, x, z, theta in zip(samples.q.tolist(), samples.x, samples.z,
                              samples.theta):
        ref = (tip_pose(reference_model, q) if q < 6.5
               else contact_tip_pose(reference_model, contact, q))
        assert abs(x - ref.x) <= TOL_LU
        assert abs(z - ref.z) <= TOL_LU
        assert abs(theta - ref.theta) <= 1e-12
    assert samples.t.tolist() == list(range(len(r.values)))


@pytest.mark.parametrize("sigma_pos, sigma_ang",
                         [(0.0, 0.0), (0.3, 0.0), (0.0, 0.01), (0.3, 0.01)])
def test_add_noise_matches_per_sample_draws(reference_model, sigma_pos,
                                            sigma_ang):
    # the bulk draw is the per-sample normal(0, sigma) sequence, bit for bit
    stream = pipeline.simulate_free(reference_model, PressureRamp(5.0, 8.0, 0.25))
    noisy = pipeline.add_noise(stream, sigma_pos, sigma_ang, seed=7)
    rng = np.random.default_rng(7)
    for k in range(stream.t.size):
        x, z, theta = stream.x[k], stream.z[k], stream.theta[k]
        if sigma_pos > 0:
            x += rng.normal(0.0, sigma_pos)
            z += rng.normal(0.0, sigma_pos)
        if sigma_ang > 0:
            theta = wrap_angle(theta + rng.normal(0.0, sigma_ang))
        assert (noisy.x[k], noisy.z[k], noisy.theta[k]) == (x, z, theta)


def test_sweep_evaluates_free_ramp_once(reference_model, monkeypatch):
    # regression guard: the free centrode and the ramp's pins are shared
    # by every location, so a sweep builds the ramp's pressure factor
    # twice (free kernel, pins) whatever its length, and each location
    # adds only its two arc factors (pin, distal arc)
    free_calls = []
    free_kernel = pipeline.ramp_kinematics

    def counting_kernel(*args, **kwargs):
        free_calls.append(1)
        return free_kernel(*args, **kwargs)

    built, arcs = count_builds(monkeypatch)
    # the free kernel call is looked up in pipeline (model_centrode)
    monkeypatch.setattr(pipeline, "ramp_kinematics", counting_kernel)
    r = PressureRamp(5.0, 20.0, 0.05)
    for n in (1, 5, 9, 50):
        free_calls.clear(), built.clear(), arcs.clear()
        s_values = np.linspace(40.0, 440.0, n)
        rows = pipeline.sweep(reference_model, r, s_values)
        assert [s for s, _ in rows] == list(s_values)
        assert len(free_calls) == 1
        assert built == [r.values.size] * 2
        assert len(arcs) == 1 + 2 * n

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellowkin.calibration import build_design_matrices, tangents_from_points
from bellowkin.modal import (
    ModalModel,
    _dpsi_rows,
    _eta_cols,
    _field,
    _pressure_cols,
    _psi_rows,
    arc_coefficients,
    arc_factor,
    dtheta_dq,
    in_calibrated_range,
    pressure_factor,
    theta,
    theta_grid,
)


def psi(s, v):
    """The arc-length basis row at one s, from the Vandermonde row builder."""
    return _psi_rows(np.array([s], dtype=float), v)[0]


def eta(q, w):
    """The pressure basis column at one q, from the column builder."""
    return _eta_cols(np.array([q], dtype=float), w)[:, 0]


def deta_dq(q, w):
    return _pressure_cols(np.array([q], dtype=float), w)[1][:, 0]


def deta_dq_cols_reference(q, w):
    """The former deta/dq builder: a power table of its own, beside
    _eta_cols's."""
    D = np.zeros((w, q.size))
    if w > 1:
        k = np.arange(1, w)
        D[1:, :] = k[:, None] * np.power(q[None, :], (k - 1)[:, None])
    return D


def test_psi_examples():
    assert np.array_equal(psi(0, 3), [1, 0, 0])
    assert np.array_equal(psi(1, 4), [1, 1, 1, 1])
    assert np.array_equal(psi(2, 4), [1, 2, 4, 8])


def test_eta_examples():
    assert np.array_equal(eta(0, 3), [1, 0, 0])
    assert np.array_equal(eta(1, 2), [1, 1])
    assert np.array_equal(eta(5, 3), [1, 5, 25])


def test_deta_dq_examples():
    assert np.array_equal(deta_dq(0, 3), [0, 1, 0])
    assert np.array_equal(deta_dq(7.3, 1), [0])
    assert np.array_equal(deta_dq(2, 4), [0, 1, 4, 12])


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        build_design_matrices([1.0], [1.0], 0, 1)
    with pytest.raises(ValueError):
        build_design_matrices([1.0], [1.0], 1, 0)
    with pytest.raises(ValueError):
        ModalModel(A=np.zeros((3, 0)), L=500.0)


def test_zero_coefficients_give_zero_angle():
    m = ModalModel(A=np.zeros((3, 3)), L=500.0)
    for s, q in [(0.0, 0.0), (250.0, 10.0), (500.0, 21.0)]:
        assert theta(m, s, q) == 0.0
        assert dtheta_dq(m, s, q) == 0.0


def test_single_sq_term():
    # raw A[1][1] = kappa0 is the s*q basis product
    k0 = 3.7e-4
    A_raw = np.zeros((3, 3))
    A_raw[1, 1] = k0
    m = ModalModel.from_raw(A_raw, L=500.0)
    for s, q in [(100.0, 5.0), (500.0, 21.0), (0.0, 3.0)]:
        assert theta(m, s, q) == pytest.approx(k0 * s * q, rel=1e-12, abs=1e-15)
        assert dtheta_dq(m, s, q) == pytest.approx(k0 * s, rel=1e-12, abs=1e-15)


def test_dtheta_dq_matches_finite_difference(reference_model):
    h = 1e-4
    for s in [0.0, 125.0, 333.0, 500.0]:
        for q in [2.0, 10.0, 19.0]:
            fd = (theta(reference_model, s, q + h)
                  - theta(reference_model, s, q - h)) / (2 * h)
            an = dtheta_dq(reference_model, s, q)
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_dpsi_factor_matches_arc_differences(reference_model):
    # d theta/ds and d2 theta/(ds dq) as the pin gradient reads them: the
    # dpsi rows at normalized arc samples times A times the pressure
    # factor, over L; against central differences in s of theta and
    # dtheta/dq
    m, h = reference_model, 1e-3
    s = np.array([1.0, 125.0, 333.0, 499.0])
    q = np.array([2.0, 10.0, 19.0])
    curv, mixed = (g / m.L for g in _field(_dpsi_rows(s / m.L, m.v) @ m.A,
                                           pressure_factor(m, q)))
    assert curv.shape == mixed.shape == (s.size, q.size)
    for j, qj in enumerate(q):
        fd = (theta(m, s + h, qj) - theta(m, s - h, qj)) / (2 * h)
        assert np.allclose(curv[:, j], fd, rtol=1e-7, atol=1e-12)
        fd = (dtheta_dq(m, s + h, qj) - dtheta_dq(m, s - h, qj)) / (2 * h)
        assert np.allclose(mixed[:, j], fd, rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("A, L", [
    ([[0.0, np.nan]], 500.0), ([[np.inf, 0.0]], 500.0), ([[0.0]], np.inf),
    ([[0.0]], np.nan), ([[0.0]], -1.0)])
def test_non_finite_model_rejected(A, L):
    with pytest.raises(ValueError, match="must be"):
        ModalModel(A=np.asarray(A), L=L)


def test_from_raw_rejects_infinite_length():
    with pytest.raises(ValueError, match="arc length L"):
        ModalModel.from_raw(np.ones((2, 2)), L=np.inf)


@given(x=st.floats(-5, 5), order=st.integers(1, 6))
def test_vandermonde_rows(x, order):
    assert np.allclose(psi(x, order), [x ** k for k in range(order)],
                       rtol=0, atol=1e-12 * max(1.0, abs(x)) ** order)
    assert np.allclose(eta(x, order), [x ** k for k in range(order)],
                       rtol=0, atol=1e-12 * max(1.0, abs(x)) ** order)


@given(q=st.floats(-30, 30), w=st.integers(1, 6))
def test_deta_dq_matches_eta_differences(q, w):
    h = 1e-5 * max(1.0, abs(q))
    fd = (eta(q + h, w) - eta(q - h, w)) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(deta_dq(q, w) - fd)) / scale <= 1e-8


@settings(max_examples=200)
@given(q=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       w=st.integers(1, 7))
def test_pressure_cols_match_the_former_builders(q, w):
    # one power table gives eta and deta/dq, bit for bit the two builders
    # that each took their own
    q = np.asarray(q, dtype=float)
    eta, deta = _pressure_cols(q, w)
    np.testing.assert_array_equal(eta, _eta_cols(q, w))
    np.testing.assert_array_equal(deta, deta_dq_cols_reference(q, w))
    # the prebuilt factor is the same columns; without deriv, eta alone
    m = ModalModel(A=np.zeros((2, w)), L=1.0)
    for got, ref in zip(pressure_factor(m, q.tolist()), (eta, deta)):
        np.testing.assert_array_equal(got, ref)
    theta_only = pressure_factor(m, q, deriv=False)
    assert len(theta_only) == 1
    np.testing.assert_array_equal(theta_only[0], eta)


def test_field_is_the_arc_factor_times_the_pressure_factor(reference_model):
    # the product of the two prebuilt factors equals the one-step read
    # rows x (diag((ell/L)^k) A) x columns that the factors split
    m = reference_model
    xi = np.linspace(0.0, 1.0, 26)
    q = np.linspace(0.0, 21.0, 7)
    for ell in (0.0, 137.5, m.L):
        th, g = _field(arc_factor(m, ell, xi), pressure_factor(m, q))
        A = np.power(ell / m.L, np.arange(m.v))[:, None] * m.A
        B = _psi_rows(xi, m.v) @ A
        np.testing.assert_array_equal(arc_coefficients(m, ell), A)
        np.testing.assert_array_equal(arc_factor(m, ell, xi), B)
        np.testing.assert_array_equal(th, B @ _eta_cols(q, m.w))
        np.testing.assert_array_equal(g, B @ deta_dq_cols_reference(q, m.w))
    with pytest.raises(ValueError, match="arc length outside"):
        arc_factor(m, 1.01 * m.L, xi)


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_theta_linear_in_coefficients(seed):
    rng = np.random.default_rng(seed)
    A1 = rng.normal(0, 1e-3, (3, 4))
    A2 = rng.normal(0, 1e-3, (3, 4))
    L = 500.0
    m1 = ModalModel(A=A1, L=L)
    m2 = ModalModel(A=A2, L=L)
    m12 = ModalModel(A=A1 + A2, L=L)
    s = rng.uniform(0, L)
    q = rng.uniform(0, 21)
    assert theta(m12, s, q) == pytest.approx(
        theta(m1, s, q) + theta(m2, s, q), rel=1e-12, abs=1e-15)


def test_json_round_trip_bit_exact(reference_model):
    text = reference_model.to_json()
    back = ModalModel.from_json(text)
    assert np.array_equal(back.A, reference_model.A)
    assert back.L == reference_model.L
    assert back.unit_scale == reference_model.unit_scale
    assert back.q_range == reference_model.q_range
    # round trip again: serialized text itself is stable
    assert back.to_json() == text


def test_from_json_raw_coefficients():
    doc = {"v": 2, "w": 2, "L": 100.0, "unit_scale": 1.0,
           "A": [0.0, 0.0, 0.0, 2e-3], "normalized": False}
    m = ModalModel.from_json(json.dumps(doc))
    assert theta(m, 50.0, 3.0) == pytest.approx(2e-3 * 50.0 * 3.0, rel=1e-12)


def test_arc_length_outside_domain_rejected(reference_model):
    L = reference_model.L
    with pytest.raises(ValueError):
        theta(reference_model, -1.0, 5.0)
    with pytest.raises(ValueError):
        theta(reference_model, L + 1.0, 5.0)
    # tiny numerical overshoot is clipped, not rejected
    theta(reference_model, L + 1e-10 * L, 5.0)
    theta(reference_model, -1e-10 * L, 5.0)


def test_calibrated_base_angles_small(reference_model, reference_dataset):
    for q in reference_dataset.pressures:
        assert abs(theta(reference_model, 0.0, q)) <= 0.01


def test_theta_grid_matches_scalar(reference_model):
    s = np.linspace(0.0, reference_model.L, 7)
    q = np.array([0.0, 6.0, 10.0, 15.0, 21.0])
    G = theta_grid(reference_model, s, q)
    for i, si in enumerate(s):
        for j, qj in enumerate(q):
            assert G[i, j] == pytest.approx(theta(reference_model, si, qj),
                                            rel=1e-13, abs=1e-15)


def test_tip_angle_matches_annotated_tangent(reference_model,
                                             reference_dataset,
                                             reference_report):
    # tangent at the tip derived directly from the annotated 21 Psi points
    j = int(np.argmax(np.asarray(reference_dataset.pressures) == 21.0))
    pts = reference_dataset.points[j]
    _, th = tangents_from_points(pts)
    tip_from_data = th[-1]
    tip_from_model = theta(reference_model, reference_model.L, 21.0)
    tol = reference_report.per_pressure[j]["max_theta_err_rad"] + 1e-12
    assert abs(tip_from_model - tip_from_data) <= tol


def test_in_calibrated_range(reference_model):
    assert in_calibrated_range(reference_model, 10.0)
    assert not in_calibrated_range(reference_model, 30.0)
    assert in_calibrated_range(ModalModel(A=np.zeros((2, 2)), L=10.0), 1e6)

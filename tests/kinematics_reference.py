"""Per-sample reference for the batched ramp kernel: the tip pose, twist
and instant center at one pressure, each integrated on its own.

The package itself integrates the tip pose and twist only in
kinematics.arc_kinematics, on one 24-point Gauss-Legendre panel; these
scalar integrals, on their own rule (REFERENCE_PANELS panels of the
5-point rule), are what test_ramp and test_estimation compare it against.
Also kept here as oracles: the constant-curvature closed form (cc_pose),
the piecewise tangent field of a contacted backbone (contact_theta), the
pin's base pose integrated over 65 equal stations (station_pose), and
resolved rates as a loop over whole ramp_kinematics calls
(resolved_rates_loop), which the package's solve, reading one pressure
column of a factor it builds once, must equal bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from bellowkin import modal
from bellowkin.centrode import EPS_OMEGA
from bellowkin.contact import ContactState, _check_q
from bellowkin.kinematics import (PlanarPose, RRResult, _warn_extrapolation,
                                  ramp_kinematics)
from bellowkin.synthetic import cumulative_stations

REFERENCE_PANELS = 20

# 5-point Gauss-Legendre rule on [-1, 1]; exact for polynomials up to degree 9
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)


def panel_nodes(a: float, b: float, n_panels: int):
    """Nodes and weights of the composite 5-point rule on [a, b], as flat
    arrays of length 5*n_panels."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


@dataclass
class PlanarTwist:
    """Linear velocity plus signed angular rate about the bending-plane normal."""

    vx: float
    vz: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.vx) and math.isfinite(self.vz) and math.isfinite(self.omega)):
            raise ValueError("twist components must be finite")

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.vx, self.vz])


@dataclass(frozen=True)
class CentrodePoint:
    x: float
    z: float
    valid: bool
    t_index: int = 0


def fixed_centrode(pose: PlanarPose, twist: PlanarTwist,
                   t_index: int = 0) -> CentrodePoint:
    """Instantaneous center of rotation in the fixed frame.

    Invalid (center at infinity) when |omega| < EPS_OMEGA; rot90 turns the
    planar velocity +90 degrees about the plane normal.
    """
    if abs(twist.omega) < EPS_OMEGA:
        return CentrodePoint(x=float("nan"), z=float("nan"), valid=False,
                             t_index=t_index)
    cx = pose.x + (-twist.vz) / twist.omega
    cz = pose.z + twist.vx / twist.omega
    return CentrodePoint(x=float(cx), z=float(cz), valid=True, t_index=t_index)


def cc_pose(kappa: float, s: float) -> PlanarPose:
    """Closed-form pose of a constant-curvature arc of length s.

    Expressed in the frame whose straight configuration lies along +z (the
    classical arc transform); kept as an independent oracle for the quadrature
    kinematics, whose straight configuration lies along +x.  The kappa -> 0
    singularity of the closed form is removed by a series limit.
    """
    if s < 0:
        raise ValueError("arc length must be non-negative")
    ks = kappa * s
    if abs(ks) < 1e-8:
        return PlanarPose(x=0.5 * kappa * s * s, z=s, theta=ks)
    return PlanarPose(x=(1.0 - math.cos(ks)) / kappa, z=math.sin(ks) / kappa, theta=ks)


def station_pose(model: modal.ModalModel, q_c: float, s_c: float) -> PlanarPose:
    """Pose of the station s_c at pressure q_c: theta(s, q_c) integrated
    over 65 equal stations of [0, s_c], one 5-point panel per interval."""
    stations = np.linspace(0.0, float(s_c), 65)
    pos = cumulative_stations(lambda s: modal.theta(model, s, q_c), stations)
    return PlanarPose(x=pos[-1, 0], z=pos[-1, 1],
                      theta=modal.theta(model, float(s_c), q_c))


def contact_theta(model: modal.ModalModel, contact: ContactState, s, q: float):
    """Tangent angle of the contacted backbone at arc length s, pressure q.

    Proximal of s_c: the frozen field theta(s, q_c).  Distal: the shorter
    bellow's field shifted to start at the frozen tangent, which keeps the
    angle continuous across s_c for every q >= q_c.
    """
    _check_q(contact.q_c, q)
    s = model._check_s(s)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.empty_like(s)
    prox = s <= contact.s_c
    if np.any(prox):
        out[prox] = modal.theta(model, s[prox], contact.q_c)
    if np.any(~prox):
        u = s[~prox] - contact.s_c
        th_off = modal.theta(model, contact.s_c, contact.q_c)
        out[~prox] = th_off + modal.theta(model, u, q) - modal.theta(model, 0.0, q)
    return float(out[0]) if scalar else out


def pose_at(model: modal.ModalModel, q: float, s: float,
            n_panels: int = REFERENCE_PANELS) -> PlanarPose:
    """Pose of the station at arc length s (quadrature from the base)."""
    s = float(model._check_s(s))
    if s == 0.0:
        return PlanarPose(x=0.0, z=0.0, theta=modal.theta(model, 0.0, q))
    nodes, weights = panel_nodes(0.0, s, n_panels)
    th = modal.theta(model, nodes, q)
    return PlanarPose(x=float(np.cos(th) @ weights), z=float(np.sin(th) @ weights),
                      theta=modal.theta(model, s, q))


def tip_pose(model: modal.ModalModel, q: float, n_panels: int = REFERENCE_PANELS) -> PlanarPose:
    """Tip pose, quadrature from the base."""
    return pose_at(model, q, model.L, n_panels=n_panels)


def jacobian(model: modal.ModalModel, q: float, n_panels: int = REFERENCE_PANELS) -> np.ndarray:
    """Actuation Jacobian (dx/dq, dz/dq, dtheta_L/dq) at pressure q.

    The position rows differentiate the shape quadrature under the integral
    sign on the identical node layout, so they are the exact derivative of
    the discrete tip position.
    """
    _warn_extrapolation(model, q)
    nodes, weights = panel_nodes(0.0, model.L, n_panels)
    th = modal.theta(model, nodes, q)
    dth = modal.dtheta_dq(model, nodes, q)
    dx = float((-np.sin(th) * dth) @ weights)
    dz = float((np.cos(th) * dth) @ weights)
    return np.array([dx, dz, modal.dtheta_dq(model, model.L, q)])


def tip_twist(model: modal.ModalModel, q: float, qdot: float,
              n_panels: int = REFERENCE_PANELS) -> PlanarTwist:
    """End-effector twist produced by pressure rate qdot."""
    J = jacobian(model, q, n_panels=n_panels)
    return PlanarTwist(vx=J[0] * qdot, vz=J[1] * qdot, omega=J[2] * qdot)


def _distal_field(model, contact, q):
    """World tangent over the distal local coordinate u in [0, L - s_c]."""
    th_off = modal.theta(model, contact.s_c, contact.q_c)
    base0 = modal.theta(model, 0.0, q)
    return lambda u: th_off + modal.theta(model, u, q) - base0


def contact_tip_pose(model: modal.ModalModel, contact: ContactState, q: float,
                     n_panels: int = REFERENCE_PANELS) -> PlanarPose:
    """Tip pose of the contacted backbone; the frozen part contributes
    base_pose_c, the distal part a quadrature over the remaining arc."""
    _check_q(contact.q_c, q)
    ell = model.L - contact.s_c
    field = _distal_field(model, contact, q)
    base = contact.base_pose_c
    if ell == 0.0:
        return PlanarPose(x=base.x, z=base.z, theta=field(0.0))
    nodes, weights = panel_nodes(0.0, ell, n_panels)
    th = field(nodes)
    return PlanarPose(x=base.x + float(np.cos(th) @ weights),
                      z=base.z + float(np.sin(th) @ weights),
                      theta=field(ell))


def contact_jacobian(model: modal.ModalModel, contact: ContactState, q: float,
                     n_panels: int = REFERENCE_PANELS) -> np.ndarray:
    """Actuation Jacobian after contact: (dx/dq, dz/dq, dtheta_L/dq).

    The frozen portion is pressure-independent (zero rows); only the distal
    arc of length L - s_c responds.  The integrand differentiates the same
    node layout as contact_tip_pose, so this is the exact derivative of the
    discrete tip position.
    """
    _check_q(contact.q_c, q)
    ell = model.L - contact.s_c
    if ell == 0.0:
        return np.zeros(3)
    field = _distal_field(model, contact, q)
    nodes, weights = panel_nodes(0.0, ell, n_panels)
    th = field(nodes)
    d0 = modal.dtheta_dq(model, 0.0, q)
    dth = modal.dtheta_dq(model, nodes, q) - d0
    dthL = modal.dtheta_dq(model, ell, q) - d0
    dx = float((-np.sin(th) * dth) @ weights)
    dz = float((np.cos(th) * dth) @ weights)
    return np.array([dx, dz, dthL])


def contact_tip_twist(model: modal.ModalModel, contact: ContactState, q: float,
                      qdot: float, n_panels: int = REFERENCE_PANELS) -> PlanarTwist:
    """Tip twist of the contacted backbone under pressure rate qdot."""
    J = contact_jacobian(model, contact, q, n_panels=n_panels)
    return PlanarTwist(vx=J[0] * qdot, vz=J[1] * qdot, omega=J[2] * qdot)


def resolved_rates_loop(model: modal.ModalModel, x_des, q0: float,
                        alpha: float = 0.5, tol: float = 1e-3,
                        max_iter: int = 200) -> RRResult:
    """Damped resolved rates, each iteration one whole ramp_kinematics
    sample: the field's arc factor rebuilt at every pressure."""
    x_des = np.asarray(x_des, dtype=float)
    q = float(q0)
    trace, errs = [], []
    best_q, best_err = q, math.inf
    converged = stalled = False
    for i in range(max_iter + 1):
        k = ramp_kinematics(model, [q])
        x, z = float(k.x[0]), float(k.z[0])
        e = x_des - np.array([x, z])
        err = float(np.hypot(e[0], e[1]))
        trace.append((i, q, x, z, err))
        errs.append(err)
        if err < best_err:
            best_q, best_err = q, err
        if err <= tol:
            converged = True
            break
        if i >= 20 and errs[-21] - err < 1e-12 * errs[-21]:
            stalled = True
            break
        if i == max_iter:
            break
        J = np.array([k.vx[0], k.vz[0]])
        jj = float(J @ J)
        lam = 1e-6 * math.sqrt(jj)
        q = q + float(J @ (alpha * e)) / (jj + lam * lam)
    if converged:
        return RRResult(q=q, err=errs[-1], converged=True, stalled=False,
                        iterations=len(trace) - 1, trace=trace)
    return RRResult(q=best_q, err=best_err, converged=False, stalled=stalled,
                    iterations=len(trace) - 1, trace=trace)

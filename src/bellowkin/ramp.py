"""Batched ramp kinematics: tip poses, twists and centrodes over a whole
pressure ramp from one evaluation of the modal field.

The tangent field theta(s, q) = psi(s)^T A eta(q) is separable, so its values
on the quadrature nodes for every sample of a ramp are one (nodes x samples)
matrix product.  Poses and twists are weighted sums down the node axis, on
the node layout of the per-sample kinematics.tip_pose / tip_twist and
contact.contact_tip_pose / contact_tip_twist, which stay the scalar
references for single-pressure queries.
"""

import math
from typing import NamedTuple

import numpy as np

from . import modal
from .centrode import CentrodeTrace, instant_centers
from .contact import ContactState, _check_q, station_pose
from .kinematics import DEFAULT_PANELS, PlanarPose, wrap_angles
from .quadrature import panel_nodes


class RampKinematics(NamedTuple):
    """Tip pose (x, z, theta) and twist (vx, vz, omega) per ramp sample."""

    x: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    vx: np.ndarray
    vz: np.ndarray
    omega: np.ndarray


def ramp_kinematics(model: modal.ModalModel, q, contact: ContactState = None,
                    qdot=1.0, n_panels: int = DEFAULT_PANELS) -> RampKinematics:
    """Tip poses and twists at every pressure of q, twists at rate qdot.

    contact=None is the free backbone over [0, L].  A ContactState (of
    which only s_c, q_c and base_pose_c are read) gives the
    contacted backbone: the frozen base pose plus the distal field over
    [0, L - s_c], re-based to start at the frozen tangent (contact_theta),
    so every q must be at or above the onset pressure.
    """
    q = np.asarray(q, dtype=float)
    if contact is None:
        ell, x0, z0 = model.L, 0.0, 0.0
    else:
        if q.size:
            _check_q(contact, float(q.min()))
        ell = model.L - contact.s_c
        x0, z0 = contact.base_pose_c.x, contact.base_pose_c.z
    nodes, wts = panel_nodes(0.0, ell, n_panels)
    s = np.concatenate(([0.0, ell], nodes))
    # (nodes x samples) arrays are updated in place: a long ramp holds
    # three of them at a time instead of eight
    th = modal.theta_grid(model, s, q)
    g = modal.dtheta_dq_grid(model, s, q)
    if contact is not None:
        base0 = th[0].copy()
        th += modal.theta(model, contact.s_c, contact.q_c)
        th -= base0
        g -= g[0].copy()
    theta, omega = wrap_angles(th[1]), qdot * g[1]
    th, g = th[2:], g[2:]
    cos_t = np.cos(th)
    sin_t = np.sin(th, out=th)
    x, z = x0 + wts @ cos_t, z0 + wts @ sin_t
    vz = qdot * (wts @ np.multiply(cos_t, g, out=cos_t))
    vx = qdot * (wts @ np.multiply(np.negative(sin_t, out=sin_t), g, out=sin_t))
    return RampKinematics(x=x, z=z, theta=theta, vx=vx, vz=vz, omega=omega)


def ramp_centrode(model: modal.ModalModel, q, contact: ContactState = None,
                  qdot=1.0, n_panels: int = DEFAULT_PANELS) -> CentrodeTrace:
    """Fixed centrode of the tip at every pressure of q (see
    ramp_kinematics); invalid where |qdot * dtheta_L/dq| < EPS_OMEGA."""
    k = ramp_kinematics(model, q, contact, qdot, n_panels)
    return instant_centers(k.x, k.z, k.vx, k.vz, k.omega)


class _Pin(NamedTuple):
    """The part of a ContactState that the contacted kernel reads."""

    s_c: float
    q_c: float
    base_pose_c: PlanarPose


def _pinned_ramp(model: modal.ModalModel, s_c: float, q, n_panels: int):
    """Pin, pressure rate and kinematics of a pin at s_c that holds from
    the first pressure q[0] on; the pin's base pose is freeze's, without
    the station table freeze also records."""
    if not (0.0 < s_c < model.L):
        raise ValueError(f"s_c hypothesis outside (0, {model.L})")
    q = np.asarray(q, dtype=float)
    q_c, s_c = float(q[0]), float(s_c)
    contact = _Pin(s_c, q_c, station_pose(model, q_c, s_c))
    qdot = float(q[1] - q[0]) if len(q) > 1 else 1.0
    return contact, qdot, ramp_kinematics(model, q, contact, qdot, n_panels)


def hypothesis_centrode(model: modal.ModalModel, s_c: float, q,
                        n_panels: int = DEFAULT_PANELS) -> CentrodeTrace:
    """Centrode under a contact at s_c that pins at the first pressure q[0].

    The twist rate is the first pressure step, matching the step-indexed
    differencing of sensed streams (the centrode itself does not depend on
    it; only the validity threshold on omega does).
    """
    _, _, k = _pinned_ramp(model, s_c, q, n_panels)
    return instant_centers(k.x, k.z, k.vx, k.vz, k.omega)


class CentrodeGradient(NamedTuple):
    """A hypothesis centrode (cx, cz, valid as in CentrodeTrace) and its
    derivatives dcx, dcz with respect to the contact location; all NaN
    where not valid."""

    cx: np.ndarray
    cz: np.ndarray
    valid: np.ndarray
    dcx: np.ndarray
    dcz: np.ndarray


def hypothesis_centrode_gradient(model: modal.ModalModel, s_c: float, q,
                                 n_panels: int = DEFAULT_PANELS) -> CentrodeGradient:
    """hypothesis_centrode, bit for bit, and its exact derivative in s_c.

    Moving the pin by ds_c moves the contact station P0 along the frozen
    tangent t(th_off), turns the distal body about P0 at the frozen
    curvature k_off = dtheta/ds(s_c, q_c), and shortens the distal arc
    ell = L - s_c.  Differentiating c = P + rot90(v)/omega through all three
    (the end-of-arc terms of P and rot90(v)/omega cancel) leaves
      dc/ds_c = t(th_off) + k_off rot90(c - P0) - rot90(v) domega/omega^2,
      domega/ds_c = -qdot d2theta/(ds dq)(ell, q),
    so the kernel's one field evaluation serves both.  P0 is the frozen
    base pose, whose derivative is taken as the exact t(th_off).
    """
    contact, qdot, k = _pinned_ramp(model, s_c, q, n_panels)
    c = instant_centers(k.x, k.z, k.vx, k.vz, k.omega)
    s_c, q_c = contact.s_c, contact.q_c
    th_off = modal.theta(model, s_c, q_c)
    k_off = modal.dtheta_ds(model, s_c, q_c)
    d_omega = -qdot * modal.d2theta_dsdq_grid(model, model.L - s_c, q)[0]
    base = contact.base_pose_c
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(c.valid, d_omega / (k.omega * k.omega), np.nan)
    dcx = math.cos(th_off) - k_off * (c.cz - base.z) + k.vz * rate
    dcz = math.sin(th_off) + k_off * (c.cx - base.x) - k.vx * rate
    return CentrodeGradient(cx=c.cx, cz=c.cz, valid=c.valid, dcx=dcx, dcz=dcz)

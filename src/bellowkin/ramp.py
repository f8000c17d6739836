"""Centrodes of contact hypotheses over a whole pressure ramp, from one
pass of the ramp kernel.

A hypothesis pins the backbone at s_c from the first pressure of the ramp
on; kinematics.ramp_kinematics gives the contacted tip poses and twists,
centrode.instant_centers maps them to centers, and the exact derivative of
those centers in s_c comes from the same kernel pass.  The estimator's
residual and its gradient are built on these.
"""

import math
from typing import NamedTuple

import numpy as np

from . import modal
from .centrode import CentrodeTrace, instant_centers
from .contact import freeze
from .kinematics import ramp_kinematics


def _pinned_ramp(model: modal.ModalModel, s_c: float, q):
    """Pin, pressure rate and kinematics of a pin at s_c that holds from
    the first pressure q[0] on; freeze rejects an s_c outside (0, L)."""
    q = np.asarray(q, dtype=float)
    contact = freeze(model, float(q[0]), s_c)
    qdot = float(q[1] - q[0]) if len(q) > 1 else 1.0
    return contact, qdot, ramp_kinematics(model, q, contact, qdot)


def hypothesis_centrode(model: modal.ModalModel, s_c: float, q) -> CentrodeTrace:
    """Centrode under a contact at s_c that pins at the first pressure q[0].

    The twist rate is the first pressure step, matching the step-indexed
    differencing of sensed streams (the centrode itself does not depend on
    it; only the validity threshold on omega does).
    """
    _, _, k = _pinned_ramp(model, s_c, q)
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


def hypothesis_centrode_gradient(model: modal.ModalModel, s_c: float,
                                 q) -> CentrodeGradient:
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
    contact, qdot, k = _pinned_ramp(model, s_c, q)
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

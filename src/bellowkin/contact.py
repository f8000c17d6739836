"""The pinning contact: its frozen record and the kinematics and centrodes
of the pinned backbone.

A contact at arc length s_c splits the backbone in two.  The proximal
portion [0, s_c] keeps the shape it had at the onset pressure q_c; the
distal portion keeps bending as a shorter bellow of length L - s_c mounted
at the frozen station.  The shorter-bellow tangent is re-based so the
combined field stays continuous at s_c: evaluated raw, the distal field
would restart at theta(0, q), kinking the backbone whenever the frozen
tangent differs.

Pressure is assumed non-decreasing after onset; dropping below q_c would
un-pin the contact, so those queries are rejected.

freeze records the frozen state; contact_kinematics is the law over a
ramp, and contact_tip_pose its one-pressure read.  Every contact
hypothesis reads the same field theta(s, q) = psi(s)^T A eta(q) at the
same ramp pressures, and only the arc factor depends on s_c, so RampPins
builds what a pin at a ramp's first pressure does not vary once per
(model, q): the ramp's pressure factor, its pressure rate, its onset
check and the arc rule's psi rows.  Each hypothesis then builds only its
pin's and its distal arc's factors.  RampPins yields the estimator's
centrode and its exact s_c-derivative from the same pass; pinned_ramp and
hypothesis_centrode_gradient are its one-hypothesis reads.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import modal
from .centrode import CentrodeTrace, instant_centers
from .kinematics import (PlanarPose, RampKinematics, _arc_sums, arc_field,
                         arc_kinematics, arc_rows)

_Q_TOL = 1e-12


@dataclass(frozen=True)
class ContactState:
    """Frozen proximal record: where, at what pressure, and the integrated
    pose base_pose_c of the station s = s_c at onset; its theta is the
    frozen tangent the distal field starts from."""

    s_c: float
    q_c: float
    base_pose_c: PlanarPose

    def __post_init__(self):
        if not (self.s_c > 0.0 and np.isfinite(self.s_c)):
            raise ValueError("s_c must be positive and finite")

    def to_json(self) -> str:
        doc = {
            "s_c": self.s_c,
            "q_c": self.q_c,
            "base_pose_c": {"x": self.base_pose_c.x, "z": self.base_pose_c.z,
                            "theta": self.base_pose_c.theta},
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ContactState":
        doc = json.loads(text)
        bp = doc["base_pose_c"]
        return cls(s_c=float(doc["s_c"]), q_c=float(doc["q_c"]),
                   base_pose_c=PlanarPose(x=float(bp["x"]), z=float(bp["z"]),
                                          theta=float(bp["theta"])))


def _pin(model: modal.ModalModel, q_c: float, s_c: float, eta,
         psi=None) -> ContactState:
    """The frozen record of a pin at s_c from q_c on, with eta the one
    pressure column of q_c: the pose of the station s_c, theta(s, q_c)
    integrated over [0, s_c] on the ramp kernel's arc rule."""
    if not (0.0 < s_c < model.L):
        raise ValueError(f"s_c must lie strictly inside (0, {model.L})")
    # the kernel's pose-only sums on the one column: the pin needs no
    # twist, and PlanarPose wraps the station's angle
    th, wts = arc_field(model, s_c, (eta,), psi)
    th = th[:, 0]
    x, z = _arc_sums(th[2:], None, wts)
    pose = PlanarPose(x=float(x), z=float(z), theta=float(th[1]))
    return ContactState(s_c=float(s_c), q_c=float(q_c), base_pose_c=pose)


def freeze(model: modal.ModalModel, q_c: float, s_c: float) -> ContactState:
    """Record the proximal shape at contact onset: the pose of the contact
    station, integrated from theta(s, q_c) over [0, s_c].  A non-finite
    q_c raises ValueError before the field is read."""
    if not math.isfinite(q_c):
        raise ValueError(f"contact pressure q_c must be finite, got {q_c}")
    eta, = modal.pressure_factor(model, [q_c], deriv=False)
    return _pin(model, q_c, s_c, eta)


def _check_q(q_c: float, q: float):
    # un-pinning (pressure release below onset) invalidates the frozen state
    if q < q_c - _Q_TOL:
        raise ValueError(f"pressure {q} below contact onset {q_c}")


def _distal_kinematics(model: modal.ModalModel, contact: ContactState, P,
                       qdot, psi=None) -> RampKinematics:
    """The contact law at the pressure factor P: the distal arc
    [0, L - s_c] from the frozen base pose, carrying the field
    theta(u, q) - theta(0, q) + theta(s_c, q_c), twists at rate qdot."""
    base = contact.base_pose_c
    th, g, wts = arc_field(model, model.L - contact.s_c, P, psi)
    base0 = th[0].copy()
    th += base.theta
    th -= base0
    g -= g[0].copy()
    return arc_kinematics(th, g, wts, base.x, base.z, qdot)


def contact_kinematics(model: modal.ModalModel, contact: ContactState, q,
                       qdot=1.0) -> RampKinematics:
    """Contacted tip poses and twists at every pressure of q (each at or
    above onset), twists at rate qdot: the distal arc [0, L - s_c] from
    the frozen base pose, carrying the field
    theta(u, q) - theta(0, q) + theta(s_c, q_c)."""
    q = np.asarray(q, dtype=float)
    if q.size:
        _check_q(contact.q_c, float(q.min()))
    return _distal_kinematics(model, contact, modal.pressure_factor(model, q),
                              qdot)


def contact_tip_pose(model: modal.ModalModel, contact: ContactState,
                     q: float) -> PlanarPose:
    """Tip pose of the contacted backbone at pressure q: one sample of
    contact_kinematics."""
    k = contact_kinematics(model, contact, [q])
    return PlanarPose(x=float(k.x[0]), z=float(k.z[0]), theta=float(k.theta[0]))


class CentrodeGradient(NamedTuple):
    """A hypothesis centrode (cx, cz, valid as in CentrodeTrace) and its
    derivatives dcx, dcz with respect to the contact location; all NaN
    where not valid."""

    cx: np.ndarray
    cz: np.ndarray
    valid: np.ndarray
    dcx: np.ndarray
    dcz: np.ndarray


class RampPins:
    """Every pin on one pressure ramp q that holds from its first pressure
    q[0] on, each one a contact hypothesis s_c.

    Built once per (model, q): the pressure factor of q, the pressure rate
    qdot = q[1] - q[0] (1 for a one-sample ramp), the onset check on
    min(q), and psi on the arc rule's rows.  A hypothesis then builds only
    its two arc factors: the pin's, read at the factor's first column
    (freeze(model, q[0], s_c) bit for bit), and the distal arc's, read at
    the whole factor.  An s_c outside (0, L) raises ValueError, as freeze
    does.
    """

    def __init__(self, model: modal.ModalModel, q):
        q = np.asarray(q, dtype=float)
        _check_q(float(q[0]), float(q.min()))
        self.model, self.q = model, q
        self.qdot = float(q[1] - q[0]) if len(q) > 1 else 1.0
        self.factor = modal.pressure_factor(model, q)
        self.psi = arc_rows(model)

    def freeze(self, s_c: float) -> ContactState:
        """The frozen record of the pin at s_c."""
        return _pin(self.model, self.q[0], s_c, self.factor[0][:, :1],
                    self.psi)

    def kinematics(self, s_c: float):
        """The pin at s_c and its contacted poses and twists along the
        ramp, twists at the rate qdot."""
        contact = self.freeze(s_c)
        return contact, _distal_kinematics(self.model, contact, self.factor,
                                           self.qdot, self.psi)

    def centrode(self, s_c: float) -> CentrodeTrace:
        """The centrode of the pin at s_c along the ramp."""
        _, k = self.kinematics(s_c)
        return instant_centers(k.x, k.z, k.vx, k.vz, k.omega)

    def gradient(self, s_c: float) -> CentrodeGradient:
        """The centrode of the pin at s_c and its exact derivative in s_c.

        Moving the pin by ds_c moves the contact station P0 along the
        frozen tangent t(th_off), turns the distal body about P0 at the
        frozen curvature k_off = dtheta/ds(s_c, q_c), and shortens the
        distal arc ell = L - s_c.  Differentiating c = P + rot90(v)/omega
        through all three (the end-of-arc terms of P and rot90(v)/omega
        cancel) leaves
          dc/ds_c = t(th_off) + k_off rot90(c - P0) - rot90(v) domega/omega^2,
          domega/ds_c = -qdot d2theta/(ds dq)(ell, q),
        so the kernel's pass serves both, and k_off and d2theta/(ds dq)
        are the dpsi rows {s_c, ell} / L times the ramp's pressure
        factor.  P0 and th_off are the frozen base pose, whose derivative
        is taken as the exact t(th_off).
        """
        contact, k = self.kinematics(s_c)
        c = instant_centers(k.x, k.z, k.vx, k.vz, k.omega)
        s_c, base, model = contact.s_c, contact.base_pose_c, self.model
        L = model.L
        D = modal._dpsi_rows(np.array([s_c, L - s_c]) / L, model.v) @ model.A
        curv, d2 = modal._field(D, self.factor)
        # q_c = q[0], so the pin's curvature is the first column's first row
        k_off = float(curv[0, 0] / L)
        d_omega = -self.qdot * (d2[1] / L)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(c.valid, d_omega / (k.omega * k.omega), np.nan)
        dcx = math.cos(base.theta) - k_off * (c.cz - base.z) + k.vz * rate
        dcz = math.sin(base.theta) + k_off * (c.cx - base.x) - k.vx * rate
        return CentrodeGradient(cx=c.cx, cz=c.cz, valid=c.valid, dcx=dcx,
                                dcz=dcz)


def pinned_ramp(model: modal.ModalModel, s_c: float, q):
    """Pin, pressure rate and kinematics of a pin at s_c that holds from
    the first pressure q[0] on: one hypothesis of RampPins(model, q)."""
    pins = RampPins(model, q)
    contact, k = pins.kinematics(s_c)
    return contact, pins.qdot, k


def hypothesis_centrode_gradient(model: modal.ModalModel, s_c: float,
                                 q) -> CentrodeGradient:
    """The centrode of a pin at s_c from q[0] on (the one
    estimation.predicted_centrode returns, bit for bit) and its exact
    derivative in s_c: one hypothesis of RampPins(model, q)."""
    return RampPins(model, q).gradient(s_c)

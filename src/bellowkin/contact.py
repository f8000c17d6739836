"""Piecewise kinematics after a pinning contact.

A contact at arc length s_c splits the backbone in two.  The proximal
portion [0, s_c] keeps the shape it had at the onset pressure q_c; the
distal portion keeps bending as a shorter bellow of length L - s_c mounted
at the frozen station.  The shorter-bellow tangent is re-based so the
combined field stays continuous at s_c: evaluated raw, the distal field
would restart at theta(0, q), kinking the backbone whenever the frozen
tangent differs.

Pressure is assumed non-decreasing after onset; dropping below q_c would
un-pin the contact, so those queries are rejected.

This module records the frozen state (freeze, station_pose) and gives the
piecewise tangent field (contact_theta).  The contacted tip pose and twist
over a ramp come from kinematics.ramp_kinematics with the ContactState;
contact_tip_pose is its single-pressure read.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import modal
from .kinematics import DEFAULT_PANELS, PlanarPose, _check_q, ramp_kinematics
from .quadrature import cumulative_stations


@dataclass(frozen=True)
class ContactState:
    """Frozen proximal record: where, at what pressure, and in what shape.

    theta_c is a dense (n, 2) station table [s, theta(s, q_c)] over [0, s_c];
    base_pose_c is the integrated pose of the station s = s_c at onset.
    """

    s_c: float
    q_c: float
    theta_c: np.ndarray
    base_pose_c: PlanarPose

    def __post_init__(self):
        object.__setattr__(self, "theta_c", np.asarray(self.theta_c, dtype=float))
        if not (self.s_c > 0.0 and np.isfinite(self.s_c)):
            raise ValueError("s_c must be positive and finite")
        if self.theta_c.ndim != 2 or self.theta_c.shape[1] != 2 or len(self.theta_c) < 2:
            raise ValueError("theta_c must be an (n, 2) table with n >= 2")
        s = self.theta_c[:, 0]
        if s[0] != 0.0 or abs(s[-1] - self.s_c) > 1e-9 * self.s_c:
            raise ValueError("theta_c stations must cover [0, s_c]")

    def to_json(self) -> str:
        doc = {
            "s_c": self.s_c,
            "q_c": self.q_c,
            "theta_c": [[float(s), float(th)] for s, th in self.theta_c],
            "base_pose_c": {"x": self.base_pose_c.x, "z": self.base_pose_c.z,
                            "theta": self.base_pose_c.theta},
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ContactState":
        doc = json.loads(text)
        bp = doc["base_pose_c"]
        return cls(s_c=float(doc["s_c"]), q_c=float(doc["q_c"]),
                   theta_c=np.asarray(doc["theta_c"], dtype=float),
                   base_pose_c=PlanarPose(x=float(bp["x"]), z=float(bp["z"]),
                                          theta=float(bp["theta"])))


def station_pose(model: modal.ModalModel, q_c: float, s_c: float,
                 n_stations: int = 65) -> PlanarPose:
    """Pose of the station s_c at pressure q_c: theta(s, q_c) integrated
    over n_stations equal stations of [0, s_c]."""
    stations = np.linspace(0.0, float(s_c), n_stations)
    pos = cumulative_stations(lambda s: modal.theta(model, s, q_c), stations)
    return PlanarPose(x=pos[-1, 0], z=pos[-1, 1],
                      theta=modal.theta(model, float(s_c), q_c))


def freeze(model: modal.ModalModel, q_c: float, s_c: float,
           n_stations: int = 65) -> ContactState:
    """Record the proximal shape at contact onset.

    Samples theta(s, q_c) on [0, s_c] and integrates it to the pose of the
    contact station.
    """
    if not (0.0 < s_c < model.L):
        raise ValueError(f"s_c must lie strictly inside (0, {model.L})")
    stations = np.linspace(0.0, float(s_c), n_stations)
    table = np.column_stack([stations, modal.theta(model, stations, q_c)])
    return ContactState(s_c=float(s_c), q_c=float(q_c), theta_c=table,
                        base_pose_c=station_pose(model, q_c, s_c, n_stations))


def contact_theta(model: modal.ModalModel, contact: ContactState, s, q: float):
    """Tangent angle of the contacted backbone at arc length s, pressure q.

    Proximal of s_c: the frozen field theta(s, q_c).  Distal: the shorter
    bellow's field shifted to start at the frozen tangent, which keeps the
    angle continuous across s_c for every q >= q_c.
    """
    _check_q(contact, q)
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


def contact_tip_pose(model: modal.ModalModel, contact: ContactState, q: float,
                     n_panels: int = DEFAULT_PANELS) -> PlanarPose:
    """Tip pose of the contacted backbone at pressure q: one sample of
    kinematics.ramp_kinematics under the contact."""
    k = ramp_kinematics(model, [q], contact, n_panels=n_panels)
    return PlanarPose(x=float(k.x[0]), z=float(k.z[0]), theta=float(k.theta[0]))

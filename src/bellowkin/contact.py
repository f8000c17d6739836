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

This module records the frozen state (freeze, station_pose).  The
contacted tip pose and twist over a ramp come from
kinematics.ramp_kinematics with the ContactState; contact_tip_pose is its
single-pressure read.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import modal
from .kinematics import DEFAULT_PANELS, PlanarPose, ramp_kinematics
from .quadrature import panel_nodes


@dataclass(frozen=True)
class ContactState:
    """Frozen proximal record: where, at what pressure, and the integrated
    pose base_pose_c of the station s = s_c at onset."""

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


def station_pose(model: modal.ModalModel, q_c: float, s_c: float) -> PlanarPose:
    """Pose of the station s_c at pressure q_c: theta(s, q_c) integrated
    over [0, s_c] on the ramp kernel's node layout, from one field column."""
    nodes, wts = panel_nodes(0.0, float(s_c), DEFAULT_PANELS)
    th = modal.theta_grid(model, np.concatenate(([s_c], nodes)), [q_c])[:, 0]
    return PlanarPose(x=float(wts @ np.cos(th[1:])),
                      z=float(wts @ np.sin(th[1:])), theta=float(th[0]))


def freeze(model: modal.ModalModel, q_c: float, s_c: float) -> ContactState:
    """Record the proximal shape at contact onset: the pose of the contact
    station, integrated from theta(s, q_c) over [0, s_c]."""
    if not (0.0 < s_c < model.L):
        raise ValueError(f"s_c must lie strictly inside (0, {model.L})")
    return ContactState(s_c=float(s_c), q_c=float(q_c),
                        base_pose_c=station_pose(model, q_c, s_c))


def contact_tip_pose(model: modal.ModalModel, contact: ContactState,
                     q: float) -> PlanarPose:
    """Tip pose of the contacted backbone at pressure q: one sample of
    kinematics.ramp_kinematics under the contact."""
    k = ramp_kinematics(model, [q], contact)
    return PlanarPose(x=float(k.x[0]), z=float(k.z[0]), theta=float(k.theta[0]))

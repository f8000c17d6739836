"""Planar bellow actuator kinematics, contact detection, and localization."""

from .modal import ModalModel, deta_dq, dtheta_dq, eta, psi, theta
from .kinematics import (PlanarPose, PlanarTwist, cc_pose, jacobian,
                         resolved_rates, shape, tip_twist)
from .contact import (ContactState, contact_jacobian, contact_theta,
                      contact_tip_pose, contact_tip_twist, freeze)
from .centrode import (CentrodePoint, CentrodeTrace, PoseStream,
                       centrode_from_stream, fcd_detect, fixed_centrode,
                       isa_difference)
from .estimation import (EstimationProblem, estimate_contact, grid_oracle,
                         predicted_centrode)
from .pipeline import PressureRamp, simulate_contact, simulate_free, sweep

__all__ = [
    "ModalModel", "psi", "eta", "deta_dq", "theta", "dtheta_dq",
    "PlanarPose", "PlanarTwist", "cc_pose", "shape", "jacobian",
    "tip_twist", "resolved_rates",
    "ContactState", "freeze", "contact_theta", "contact_tip_pose",
    "contact_jacobian", "contact_tip_twist",
    "CentrodePoint", "CentrodeTrace", "PoseStream", "fixed_centrode",
    "centrode_from_stream", "fcd_detect", "isa_difference",
    "EstimationProblem", "predicted_centrode", "estimate_contact",
    "grid_oracle",
    "PressureRamp", "simulate_free", "simulate_contact", "sweep",
]

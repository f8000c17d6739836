"""Planar bellow actuator kinematics, contact detection, and localization."""

from .modal import ModalModel, deta_dq, dtheta_dq, eta, psi, theta
from .kinematics import (PlanarPose, cc_pose, jacobian, ramp_kinematics,
                         resolved_rates, shape)
from .contact import ContactState, contact_theta, contact_tip_pose, freeze
from .centrode import (CentrodeTrace, PoseStream, centrode_from_stream,
                       fcd_detect, instant_centers, isa_difference)
from .estimation import (EstimationProblem, estimate_contact, grid_oracle,
                         predicted_centrode)
from .pipeline import PressureRamp, simulate_contact, simulate_free, sweep

__all__ = [
    "ModalModel", "psi", "eta", "deta_dq", "theta", "dtheta_dq",
    "PlanarPose", "cc_pose", "shape", "jacobian", "ramp_kinematics",
    "resolved_rates",
    "ContactState", "freeze", "contact_theta", "contact_tip_pose",
    "CentrodeTrace", "PoseStream", "instant_centers",
    "centrode_from_stream", "fcd_detect", "isa_difference",
    "EstimationProblem", "predicted_centrode", "estimate_contact",
    "grid_oracle",
    "PressureRamp", "simulate_free", "simulate_contact", "sweep",
]

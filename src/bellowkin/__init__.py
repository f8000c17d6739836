"""Planar bellow actuator kinematics, contact detection, and localization."""

from .modal import ModalModel, dtheta_dq, theta
from .kinematics import PlanarPose, jacobian, ramp_kinematics, resolved_rates
from .contact import ContactState, contact_kinematics, contact_tip_pose, freeze
from .centrode import (CentrodeTrace, PoseStream, centrode_from_stream,
                       fcd_detect, instant_centers)
from .estimation import (EstimationProblem, estimate_contact,
                         predicted_centrode)
from .pipeline import PressureRamp, simulate_contact, simulate_free, sweep

__all__ = [
    "ModalModel", "theta", "dtheta_dq",
    "PlanarPose", "jacobian", "ramp_kinematics", "resolved_rates",
    "ContactState", "freeze", "contact_kinematics", "contact_tip_pose",
    "CentrodeTrace", "PoseStream", "instant_centers",
    "centrode_from_stream", "fcd_detect",
    "EstimationProblem", "predicted_centrode", "estimate_contact",
    "PressureRamp", "simulate_free", "simulate_contact", "sweep",
]

"""Forward and instantaneous kinematics of the planar bellow actuator.

Positions live in the bending plane with coordinates (x, z); the tangent
angle is measured from the +x axis, so a straight actuator lies along +x.
Positive angular rate means the tangent angle is increasing (counterclockwise
with x right and z up).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import modal
from .io import write_csv
from .quadrature import cumulative_stations, panel_nodes

DEFAULT_PANELS = 20


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(a, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


def wrap_angles(a) -> np.ndarray:
    """Elementwise wrap_angle, bit for bit: into (-pi, pi].

    fmod is exact, and shifting its result by 2 pi is exact because the
    result already lies within a factor of two of 2 pi.
    """
    two_pi = 2.0 * math.pi
    r = np.fmod(a, two_pi)
    r = np.where(r > math.pi, r - two_pi, r)
    return np.where(r <= -math.pi, r + two_pi, r)


@dataclass
class PlanarPose:
    """Position in the bending plane plus tangent angle at the station."""

    x: float
    z: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.z) and math.isfinite(self.theta)):
            raise ValueError("pose components must be finite")
        self.theta = wrap_angle(self.theta)

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.z])


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


def _warn_extrapolation(model, q):
    if not modal.in_calibrated_range(model, q):
        warnings.warn(f"pressure {q} outside calibrated range {model.q_range}; extrapolating",
                      stacklevel=3)


def shape(model: modal.ModalModel, q: float, n: int) -> list:
    """Backbone poses at n equally spaced arc stations under pressure q.

    Positions integrate (cos theta, sin theta) with one 5-point panel per
    inter-station interval; pose k carries theta(s_k, q).
    """
    if n < 2:
        raise ValueError("need at least 2 stations")
    _warn_extrapolation(model, q)
    stations = np.linspace(0.0, model.L, n)
    pos = cumulative_stations(lambda s: modal.theta(model, s, q), stations)
    return [PlanarPose(x=pos[k, 0], z=pos[k, 1], theta=modal.theta(model, stations[k], q))
            for k in range(n)]


def pose_at(model: modal.ModalModel, q: float, s: float,
            n_panels: int = DEFAULT_PANELS) -> PlanarPose:
    """Pose of the station at arc length s (quadrature from the base)."""
    s = float(model._check_s(s))
    if s == 0.0:
        return PlanarPose(x=0.0, z=0.0, theta=modal.theta(model, 0.0, q))
    nodes, weights = panel_nodes(0.0, s, n_panels)
    th = modal.theta(model, nodes, q)
    return PlanarPose(x=float(np.cos(th) @ weights), z=float(np.sin(th) @ weights),
                      theta=modal.theta(model, s, q))


def tip_pose(model: modal.ModalModel, q: float, n_panels: int = DEFAULT_PANELS) -> PlanarPose:
    """Tip pose; same node layout as shape(model, q, n_panels + 1)."""
    return pose_at(model, q, model.L, n_panels=n_panels)


def jacobian(model: modal.ModalModel, q: float, n_panels: int = DEFAULT_PANELS) -> np.ndarray:
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
              n_panels: int = DEFAULT_PANELS) -> PlanarTwist:
    """End-effector twist produced by pressure rate qdot."""
    J = jacobian(model, q, n_panels=n_panels)
    return PlanarTwist(vx=J[0] * qdot, vz=J[1] * qdot, omega=J[2] * qdot)


@dataclass
class RRResult:
    """Outcome of a resolved-rates run; on failure q holds the best iterate."""

    q: float
    err: float
    converged: bool
    stalled: bool
    iterations: int
    trace: list  # rows (iter, q, x, z, err)


def resolved_rates(model: modal.ModalModel, x_des, q0: float, alpha: float = 0.5,
                   tol: float = 1e-3, max_iter: int = 200,
                   n_panels: int = DEFAULT_PANELS) -> RRResult:
    """Position-only inverse kinematics by damped resolved rates.

    Steps q by the damped pseudo-inverse of the 2x1 position Jacobian times
    alpha times the task error.  Fails explicitly on max_iter or when the
    task error stalls (relative decrease < 1e-12 over 20 iterations).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x_des = np.asarray(x_des, dtype=float)

    q = float(q0)
    trace = []
    errs = []
    best_q, best_err = q, math.inf
    converged = stalled = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # transient overshoot past q_range is expected
        for i in range(max_iter + 1):
            pose = tip_pose(model, q, n_panels=n_panels)
            e = x_des - pose.position
            err = float(np.hypot(e[0], e[1]))
            trace.append((i, q, pose.x, pose.z, err))
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
            J = jacobian(model, q, n_panels=n_panels)[:2]
            jj = float(J @ J)
            lam = 1e-6 * math.sqrt(jj)
            q = q + float(J @ (alpha * e)) / (jj + lam * lam)

    if converged:
        return RRResult(q=q, err=errs[-1], converged=True, stalled=False,
                        iterations=len(trace) - 1, trace=trace)
    return RRResult(q=best_q, err=best_err, converged=False, stalled=stalled,
                    iterations=len(trace) - 1, trace=trace)


def write_shape_csv(path, model: modal.ModalModel, q: float, n: int):
    """Backbone stations as CSV rows `s,x,z,theta`."""
    stations = np.linspace(0.0, model.L, n)
    poses = shape(model, q, n)
    rows = [(float(s), p.x, p.z, p.theta) for s, p in zip(stations, poses)]
    write_csv(path, ["s", "x", "z", "theta"], rows)


def write_rr_trace(path, result: RRResult):
    """Resolved-rates iterations as CSV rows `iter,q,x,z,err`."""
    write_csv(path, ["iter", "q", "x", "z", "err"], result.trace)

"""Forward and instantaneous kinematics of the planar bellow actuator.

arc_kinematics integrates a tangent field over an arc from a base point:
the end pose and twist at every pressure of a ramp.  Its positions and
their rates come from _arc_sums, the one pose-and-twist sum, which the
callers that need no end angle read directly.  ramp_kinematics is the
free backbone, the arc [0, L] from the origin; tip_pose and jacobian read
single samples of it.  The field on an arc is the product of a
pressure-free arc factor and an arc-free pressure factor
(modal.arc_factor, modal.pressure_factor, modal._field), and arc_field
takes the pressure factor prebuilt.  resolved_rates builds the free arc's
factor once per solve, and each iteration puts one pressure column of it
through _arc_sums: bit for bit a ramp_kinematics sample's x, z, vx and vz,
without forming theta or omega.  A caller that reads many arcs at one
ramp (contact.RampPins) builds the ramp's pressure factor and the arc
rule's psi rows (arc_rows) once.

Positions live in the bending plane with coordinates (x, z); the tangent
angle is measured from the +x axis, so a straight actuator lies along +x.
Positive angular rate means the tangent angle is increasing (counterclockwise
with x right and z up).
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import modal
from .quadrature import DEFAULT_PANELS, XI, XI_W  # DEFAULT_PANELS: re-exported

# the field rows of an arc [0, ell] on the arc rule: its base, its end
# and its nodes, on [0, 1]
_ARC_ROWS = np.concatenate(([0.0, 1.0], XI))


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


def _warn_extrapolation(model, q):
    if not modal.in_calibrated_range(model, q):
        warnings.warn(f"pressure {q} outside calibrated range {model.q_range}; extrapolating",
                      stacklevel=3)


def arc_rows(model: modal.ModalModel) -> np.ndarray:
    """psi at the arc rule's rows (0, 1, nodes...) on [0, 1]: the part of
    every arc factor that depends on neither the arc nor the pressure;
    shape (2 + nodes, v)."""
    return modal._psi_rows(_ARC_ROWS, model.v)


def arc_field(model: modal.ModalModel, ell: float, P, psi=None):
    """The field over the arc [0, ell] at the pressure factor P
    (modal.pressure_factor), on the arc rule: theta and, when P carries
    deta/dq, dtheta/dq at the rows (0, ell, nodes...), each of shape
    (2 + nodes, len(q)), then the weights of the nodes.  psi is
    arc_rows(model) when already at hand."""
    if psi is None:
        psi = arc_rows(model)
    B = psi @ modal.arc_coefficients(model, ell)
    return (*modal._field(B, P), ell * XI_W)


class RampKinematics(NamedTuple):
    """Tip pose (x, z, theta) and twist (vx, vz, omega) per ramp sample."""

    x: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    vx: np.ndarray
    vz: np.ndarray
    omega: np.ndarray


def _arc_sums(th, g, wts) -> tuple:
    """The kernel's one pose-and-twist sum: the weighted sums down the node
    axis of the node rows th (theta) and, unless g is None, g
    (dtheta/dq).  Returns the end position (x, z) of the arc from the
    origin and, with g, its rate (vx, vz) at unit pressure rate, the exact
    derivative of that discrete end position.  th and g are overwritten.
    """
    cos_t = np.cos(th)
    sin_t = np.sin(th, out=th)
    x, z = wts @ cos_t, wts @ sin_t
    if g is None:
        return x, z
    vz = wts @ np.multiply(cos_t, g, out=cos_t)
    vx = wts @ np.multiply(np.negative(sin_t, out=sin_t), g, out=sin_t)
    return x, z, vx, vz


def arc_kinematics(th, g, wts, x0=0.0, z0=0.0, qdot=1.0) -> RampKinematics:
    """End poses and twists of the arc whose field arc_field lays out:
    theta and dtheta/dq as (2 + nodes, samples) rows, integrated from the
    base point (x0, z0), twists at rate qdot.

    The end angle and its rate are the end row's; positions and their
    rates are _arc_sums of the node rows, shifted to the base point and
    scaled to the rate.  th and g are overwritten: a long ramp holds three
    (rows x samples) arrays at a time instead of eight.
    """
    theta, omega = wrap_angles(th[1]), qdot * g[1]
    x, z, vx, vz = _arc_sums(th[2:], g[2:], wts)
    return RampKinematics(x=x0 + x, z=z0 + z, theta=theta, vx=qdot * vx,
                          vz=qdot * vz, omega=omega)


def ramp_kinematics(model: modal.ModalModel, q, qdot=1.0) -> RampKinematics:
    """Free tip poses and twists at every pressure of q, twists at rate
    qdot: the arc [0, L] from the origin, from one field evaluation."""
    P = modal.pressure_factor(model, q)
    return arc_kinematics(*arc_field(model, model.L, P), qdot=qdot)


def tip_pose(model: modal.ModalModel, q: float) -> PlanarPose:
    """Tip pose at pressure q: one sample of ramp_kinematics."""
    k = ramp_kinematics(model, [q])
    return PlanarPose(x=float(k.x[0]), z=float(k.z[0]), theta=float(k.theta[0]))


def jacobian(model: modal.ModalModel, q: float) -> np.ndarray:
    """Actuation Jacobian (dx/dq, dz/dq, dtheta_L/dq) at pressure q: the
    unit-rate twist of one sample of ramp_kinematics."""
    _warn_extrapolation(model, q)
    k = ramp_kinematics(model, [q])
    return np.array([k.vx[0], k.vz[0], k.omega[0]])


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
                   tol: float = 1e-3, max_iter: int = 200) -> RRResult:
    """Position-only inverse kinematics by damped resolved rates.

    Steps q by the damped pseudo-inverse of the 2x1 position Jacobian times
    alpha times the task error.  Fails explicitly on max_iter or when the
    task error stalls (relative decrease < 1e-12 over 20 iterations).
    x_des must be one finite (x, z) pair, q0 finite, tol positive and
    finite and max_iter at least 0; anything else raises ValueError.

    The free arc's factor, which does not depend on pressure, is built
    once, and every iteration multiplies it by one pressure factor and
    takes the kernel's pose-and-twist sum (_arc_sums) of the product:
    bit for bit the x, z, vx and vz of a ramp_kinematics sample.  The tip
    angle and its rate are not read, so they are not formed.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    if not max_iter >= 0:
        raise ValueError("max_iter must be >= 0")
    x_des = np.asarray(x_des, dtype=float)
    if x_des.shape != (2,) or not np.all(np.isfinite(x_des)):
        raise ValueError("x_des must be one finite (x, z) pair")
    if not math.isfinite(q0):
        raise ValueError("q0 must be finite")

    B, wts = modal.arc_factor(model, model.L, _ARC_ROWS), model.L * XI_W
    q = float(q0)
    trace = []
    errs = []
    best_q, best_err = q, math.inf
    converged = stalled = False
    for i in range(max_iter + 1):
        # the kernel's sums on one field read: the tip position, from the
        # free arc's base point (0, 0) as arc_kinematics adds it, and its
        # unit-rate Jacobian
        th, g = modal._field(B, modal.pressure_factor(model, [q]))
        x, z, vx, vz = _arc_sums(th[2:], g[2:], wts)
        x, z = 0.0 + float(x[0]), 0.0 + float(z[0])
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
        J = np.array([vx[0], vz[0]])
        jj = float(J @ J)
        lam = 1e-6 * math.sqrt(jj)
        q = q + float(J @ (alpha * e)) / (jj + lam * lam)

    if converged:
        return RRResult(q=q, err=errs[-1], converged=True, stalled=False,
                        iterations=len(trace) - 1, trace=trace)
    return RRResult(q=best_q, err=best_err, converged=False, stalled=stalled,
                    iterations=len(trace) - 1, trace=trace)


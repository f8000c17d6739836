"""Contact location from the centrode discrepancy.

The sensed centrode after contact depends on where the backbone is pinned;
sweeping a hypothesis s_c through the piecewise model predicts a centrode
trace per hypothesis.  The estimate minimizes the weighted squared gap
between sensed and predicted traces over the scalar unknown s_c by
Levenberg-Marquardt.  Every hypothesis of one solve reads the same ramp,
so estimate_contact builds its contact.RampPins (the ramp's pressure
factor, pressure rate and onset check) once, and each LM evaluation
builds only the hypothesis's arc factors.
"""

from dataclasses import dataclass

import numpy as np

from . import modal
from .centrode import CentrodeTrace
from .contact import RampPins, pinned_ramp

LM_LAMBDA0 = 1e-3
LM_STEP_TOL = 1e-3   # LU
LM_OBJ_REL_TOL = 1e-10
LM_MAX_ITER = 100


def _ramp_values(q_traj) -> np.ndarray:
    q = np.asarray(q_traj, dtype=float)
    if q.ndim != 1 or len(q) < 1:
        raise ValueError("q_traj must be a 1-D pressure sequence")
    if len(q) > 1 and np.any(np.diff(q) <= 0):
        raise ValueError("q_traj must be strictly increasing")
    return q


def _weights(W, n: int):
    """Per-sample weights as a float vector, or None for identity; anything
    but one finite, positive weight for each of the n samples raises."""
    if W is None:
        return None
    w = np.asarray(W, dtype=float)
    if w.shape != (n,) or not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"W must hold one finite, positive weight for each "
                         f"of the {n} samples")
    return w


def _sensed_arrays(sensed: CentrodeTrace) -> CentrodeTrace:
    """A sensed centrode trace with float coordinates and a bool mask."""
    return CentrodeTrace(cx=np.asarray(sensed.cx, dtype=float),
                         cz=np.asarray(sensed.cz, dtype=float),
                         valid=np.asarray(sensed.valid, dtype=bool))


@dataclass
class EstimationProblem:
    """Inputs of one contact-location solve.

    q_traj is the post-onset pressure ramp (first entry = onset pressure);
    sensed is the CentrodeTrace over the same samples.  W is None for
    identity or one positive weight per sample.  sensed_end_pose (x, z)
    enables the end-tip error metric.
    """

    model: modal.ModalModel
    q_traj: np.ndarray
    sensed: CentrodeTrace
    s0: float
    W: object = None
    bounds: tuple = None
    sensed_end_pose: tuple = None

    def __post_init__(self):
        self.q_traj = _ramp_values(self.q_traj)
        self.sensed = _sensed_arrays(self.sensed)
        if len(self.sensed.valid) != len(self.q_traj):
            raise ValueError("sensed trace and q_traj differ in length")
        if self.bounds is None:
            self.bounds = (0.01 * self.model.L, 0.99 * self.model.L)
        lo, hi = self.bounds
        if not (0.0 < lo < hi < self.model.L):
            raise ValueError("bounds must satisfy 0 < lo < hi < L")
        if not (lo <= self.s0 <= hi):
            raise ValueError("s0 outside bounds")
        self.W = _weights(self.W, len(self.q_traj))


def predicted_centrode(model: modal.ModalModel, s_c_hyp: float,
                       q_traj) -> CentrodeTrace:
    """Model-side centrode trace under a contact hypothesis.

    Freezes the proximal shape at (q_traj[0], s_c_hyp) and maps contact tip
    poses and analytic twists along the ramp through the instant-center
    formula.  Twist scale uses the ramp step as the pressure rate, matching
    the step-indexed differencing of sensed streams (the centrode itself is
    scale-invariant; only the validity threshold on omega is not).  The
    whole ramp is one hypothesis of contact.RampPins.
    """
    return RampPins(model, _ramp_values(q_traj)).centrode(s_c_hyp)


def _residual(pins: RampPins, s_c: float, sensed: CentrodeTrace):
    """Stacked residual sensed - predicted at s_c on the pins' ramp, its
    derivative in s_c, and the mask of samples valid on both sides.

    Rows interleave (x, z) per masked sample.
    """
    if len(sensed.valid) != len(pins.q):
        raise ValueError("traces differ in length")
    pred = pins.gradient(s_c)
    mask = sensed.valid & pred.valid
    if not np.any(mask):
        raise ValueError("no overlapping valid centrode samples")
    r = np.column_stack((sensed.cx[mask] - pred.cx[mask],
                         sensed.cz[mask] - pred.cz[mask])).ravel()
    J = -np.column_stack((pred.dcx[mask], pred.dcz[mask])).ravel()
    return r, J, mask


def _apply_weight(r: np.ndarray, W, mask: np.ndarray) -> np.ndarray:
    """The stacked valid residual r scaled by its samples' weights W."""
    if W is None:
        return r
    return np.repeat(W[mask], 2) * r


def centrode_objective(model: modal.ModalModel, s_c: float, q_traj, sensed,
                       W=None) -> float:
    """Half the weighted squared centrode gap at hypothesis s_c."""
    q = _ramp_values(q_traj)
    r, _, mask = _residual(RampPins(model, q), s_c, _sensed_arrays(sensed))
    return 0.5 * float(r @ _apply_weight(r, _weights(W, len(q)), mask))


def _objective_state(problem: EstimationProblem, pins: RampPins, s_c: float):
    """Objective, scalar gradient, and Gauss-Newton curvature at s_c, on
    the pins of the problem's ramp."""
    r, J, mask = _residual(pins, s_c, problem.sensed)
    Wr = _apply_weight(r, problem.W, mask)
    obj = 0.5 * float(r @ Wr)
    g = float(J @ Wr)
    H = float(J @ _apply_weight(J, problem.W, mask))
    return obj, g, H


def estimate_contact(problem: EstimationProblem, max_iter: int = LM_MAX_ITER):
    """Levenberg-Marquardt over the scalar contact location.

    Damping starts at LM_LAMBDA0; rejected steps raise it tenfold, accepted
    ones lower it.  The damped curvature H + lambda stays positive because
    H sums squares under positive weights.  Candidates are projected to the
    bounds.  Stops on an accepted move below LM_STEP_TOL or a relative
    objective decrease below LM_OBJ_REL_TOL.
    Returns (s_c_est, report); report['converged'] is False when max_iter
    runs out, with the best iterate still reported.  The ramp's pins are
    built once per solve; each evaluation reads one hypothesis of them.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lo, hi = problem.bounds
    s_c = float(problem.s0)
    pins = RampPins(problem.model, problem.q_traj)
    obj, g, H = _objective_state(problem, pins, s_c)
    lam = LM_LAMBDA0
    trace = [(0, s_c, obj)]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        cand = float(np.clip(s_c - g / (H + lam), lo, hi))
        step = cand - s_c
        try:
            cand_obj, cand_g, cand_H = _objective_state(problem, pins, cand)
        except ValueError:
            lam *= 10.0
            trace.append((it, s_c, obj))
            continue
        if cand_obj < obj:
            rel_drop = (obj - cand_obj) / max(obj, 1e-300)
            s_c, obj, g, H = cand, cand_obj, cand_g, cand_H
            lam = max(lam / 10.0, 1e-15)
            trace.append((it, s_c, obj))
            if abs(step) < LM_STEP_TOL or rel_drop < LM_OBJ_REL_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            trace.append((it, s_c, obj))
            if abs(step) < LM_STEP_TOL:
                # no downhill move within resolution; treat as stationary
                converged = True
                break
    end_tip_err = float("nan")
    if problem.sensed_end_pose is not None:
        # the pin at s_c from q_traj[0] on, read at the last pressure
        _, _, tip = pinned_ramp(problem.model, s_c, problem.q_traj[[0, -1]])
        ex, ez = problem.sensed_end_pose
        end_tip_err = float(np.hypot(tip.x[-1] - ex, tip.z[-1] - ez))
    report = {
        "s_c_est": s_c,
        "iterations": iterations,
        "final_objective": obj,
        "end_tip_error_LU": end_tip_err,
        "converged": converged,
        "trace": trace,
    }
    return s_c, report


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty array without NaN, bit for bit: the middle
    value, or the mean of the middle two.  np.median and np.nanmedian both
    import numpy.ma (1.2 MB) on their first call."""
    v = np.sort(a)
    h = v.size // 2
    return float(v[h] if v.size % 2 else (v[h - 1] + v[h]) / 2)


def speed_weights(sensed) -> np.ndarray:
    """Per-sample weights that de-emphasize fast-moving sensed centrodes.

    Weight 1/(1 + (speed/scale)^2) with speed from neighbor differences and
    scale their median; invalid samples get weight 1 (they are dropped from
    residuals anyway).
    """
    c = _sensed_arrays(sensed)
    pts = np.where(c.valid[:, None], np.column_stack((c.cx, c.cz)), np.nan)
    speed = np.full(len(pts), np.nan)
    if len(pts) >= 2:
        d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        speed[1:-1] = 0.5 * (d[:-1] + d[1:])
        speed[0], speed[-1] = d[0], d[-1]
    finite = np.isfinite(speed)
    scale = _median(speed[finite]) if np.any(finite) else 1.0
    scale = scale if scale > 0 else 1.0
    w = np.ones(len(pts))
    w[finite] = 1.0 / (1.0 + (speed[finite] / scale) ** 2)
    return w

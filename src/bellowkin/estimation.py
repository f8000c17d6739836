"""Contact location from the centrode discrepancy.

The sensed centrode after contact depends on where the backbone is pinned;
sweeping a hypothesis s_c through the piecewise model predicts a centrode
trace per hypothesis.  The estimate minimizes the weighted squared gap
between sensed and predicted traces over the scalar unknown s_c by
Levenberg-Marquardt, with a brute-force grid argmin as verification oracle.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import modal
from .contact import contact_tip_pose, freeze
from .kinematics import DEFAULT_PANELS
from .quadrature import panel_nodes
from .ramp import hypothesis_centrode

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


@dataclass
class EstimationProblem:
    """Inputs of one contact-location solve.

    q_traj is the post-onset pressure ramp (first entry = onset pressure);
    sensed is the centrode trace over the same samples.  W is None for
    identity, a per-sample weight vector, or a full matrix over the stacked
    valid residual.  sensed_end_pose (x, z) enables the end-tip error metric.
    """

    model: modal.ModalModel
    q_traj: np.ndarray
    sensed: list
    s0: float
    W: object = None
    bounds: tuple = None
    sensed_end_pose: tuple = None

    def __post_init__(self):
        self.q_traj = _ramp_values(self.q_traj)
        if len(self.sensed) != len(self.q_traj):
            raise ValueError("sensed trace and q_traj differ in length")
        if self.bounds is None:
            self.bounds = (0.01 * self.model.L, 0.99 * self.model.L)
        lo, hi = self.bounds
        if not (0.0 < lo < hi < self.model.L):
            raise ValueError("bounds must satisfy 0 < lo < hi < L")
        if not (lo <= self.s0 <= hi):
            raise ValueError("s0 outside bounds")
        if self.W is not None:
            Wa = np.asarray(self.W, dtype=float)
            if Wa.ndim == 1:
                if np.any(Wa <= 0):
                    raise ValueError("per-sample weights must be positive")
            elif Wa.ndim == 2:
                if not np.allclose(Wa, Wa.T):
                    raise ValueError("W must be symmetric")
                np.linalg.cholesky(Wa)  # positive definite or raise
            else:
                raise ValueError("W must be a vector or a matrix")
            self.W = Wa


def predicted_centrode(model: modal.ModalModel, s_c_hyp: float, q_traj,
                       n_panels: int = DEFAULT_PANELS) -> list:
    """Model-side centrode trace under a contact hypothesis.

    Freezes the proximal shape at (q_traj[0], s_c_hyp) and maps contact tip
    poses and analytic twists along the ramp through the instant-center
    formula.  Twist scale uses the ramp step as the pressure rate, matching
    the step-indexed differencing of sensed streams (the centrode itself is
    scale-invariant).  Evaluation batches the whole ramp through
    ramp.ramp_centrode; it matches the per-sample contact_tip_pose /
    contact_tip_twist path.
    """
    return hypothesis_centrode(model, s_c_hyp, _ramp_values(q_traj),
                               n_panels=n_panels).points()


def _pair_mask(sensed, predicted) -> np.ndarray:
    if len(sensed) != len(predicted):
        raise ValueError("traces differ in length")
    return np.array([s.valid and p.valid for s, p in zip(sensed, predicted)])


def _stacked_residual(sensed, predicted, mask) -> np.ndarray:
    r = [(s.x - p.x, s.z - p.z)
         for s, p, m in zip(sensed, predicted, mask) if m]
    return np.asarray(r, dtype=float).ravel()


def _apply_weight(r: np.ndarray, W, mask: np.ndarray) -> np.ndarray:
    """W r for the stacked valid residual (vector W is per-sample)."""
    if W is None:
        return r
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        w = np.repeat(W[mask], 2)
        return w * r
    if W.shape != (len(r), len(r)):
        raise ValueError("matrix W does not match the stacked valid residual")
    return W @ r


def centrode_objective(model: modal.ModalModel, s_c: float, q_traj, sensed,
                       W=None, n_panels: int = DEFAULT_PANELS) -> float:
    """Half the weighted squared centrode gap at hypothesis s_c."""
    pred = predicted_centrode(model, s_c, q_traj, n_panels=n_panels)
    mask = _pair_mask(sensed, pred)
    if not np.any(mask):
        raise ValueError("no overlapping valid centrode samples")
    r = _stacked_residual(sensed, pred, mask)
    return 0.5 * float(r @ _apply_weight(r, W, mask))


def centrode_gradient(model: modal.ModalModel, s_c_hyp: float, q_traj,
                      n_panels: int = DEFAULT_PANELS,
                      h_s: float = None) -> np.ndarray:
    """Per-sample d(centrode)/d(s_c) by central differences, (m, 2).

    Rows are NaN where either displaced centrode is invalid.  Near the
    domain ends the stencil degrades to one-sided and warns.
    """
    if h_s is None:
        h_s = max(1e-3 * model.L, 0.01)
    lo, hi = s_c_hyp - h_s, s_c_hyp + h_s
    if lo <= 0.0 or hi >= model.L:
        warnings.warn("hypothesis at domain edge; one-sided difference")
        if lo <= 0.0:
            lo, hi = s_c_hyp, s_c_hyp + h_s
        else:
            lo, hi = s_c_hyp - h_s, s_c_hyp
    c_lo = predicted_centrode(model, lo, q_traj, n_panels=n_panels)
    c_hi = predicted_centrode(model, hi, q_traj, n_panels=n_panels)
    grad = np.full((len(c_lo), 2), np.nan)
    for k, (a, b) in enumerate(zip(c_lo, c_hi)):
        if a.valid and b.valid:
            grad[k] = [(b.x - a.x) / (hi - lo), (b.z - a.z) / (hi - lo)]
    return grad


def centrode_gradient_analytic(model: modal.ModalModel, s_c_hyp: float, q_traj,
                               n_panels: int = DEFAULT_PANELS) -> np.ndarray:
    """Exact-chain-rule d(centrode)/d(s_c), (m, 2).

    Differentiates c = P + rot90(v)/omega through the frozen base pose, the
    continuity offset, and the moving distal integration limit:
      dP/ds_c   = t_prox(s_c) - t_distal(ell) + k_off * integral(rot90 tangent)
      dv/ds_c   = boundary term + k_off * (rotation of the velocity integrand)
      domega/ds_c = -qdot * d2theta/(ds dq)(ell, q)
    with k_off = dtheta/ds(s_c, q_c) and ell = L - s_c.
    """
    q = _ramp_values(q_traj)
    if not (0.0 < s_c_hyp < model.L):
        raise ValueError(f"s_c hypothesis outside (0, {model.L})")
    s_c = float(s_c_hyp)
    q_c = float(q[0])
    qdot = float(q[1] - q[0]) if len(q) > 1 else 1.0
    ell = model.L - s_c
    th_off = modal.theta(model, s_c, q_c)
    k_off = modal.dtheta_ds(model, s_c, q_c)
    d_base = np.array([np.cos(th_off), np.sin(th_off)])
    nodes, wts = panel_nodes(0.0, ell, n_panels)
    grad = np.full((len(q), 2), np.nan)
    for k, qk in enumerate(q):
        qk = float(qk)
        b0 = modal.theta(model, 0.0, qk)
        g0 = modal.dtheta_dq(model, 0.0, qk)
        th = th_off + modal.theta(model, nodes, qk) - b0
        g = modal.dtheta_dq(model, nodes, qk) - g0
        th_end = th_off + modal.theta(model, ell, qk) - b0
        g_end = modal.dtheta_dq(model, ell, qk) - g0
        omega = qdot * g_end
        if abs(omega) < 1e-9:
            continue
        cos_t, sin_t = np.cos(th), np.sin(th)
        v = qdot * np.array([float((-sin_t * g) @ wts), float((cos_t * g) @ wts)])
        dP = d_base - np.array([np.cos(th_end), np.sin(th_end)]) \
            + k_off * np.array([float(-sin_t @ wts), float(cos_t @ wts)])
        dv = qdot * (-np.array([-np.sin(th_end), np.cos(th_end)]) * g_end
                     + k_off * np.array([float((-cos_t * g) @ wts),
                                         float((-sin_t * g) @ wts)]))
        d_omega = -qdot * modal.d2theta_dsdq(model, ell, qk)
        rot90 = lambda u: np.array([-u[1], u[0]])
        grad[k] = dP + rot90(dv) / omega - rot90(v) * (d_omega / omega ** 2)
    return grad


def _objective_state(problem: EstimationProblem, s_c: float, n_panels: int):
    """Objective, scalar gradient, and Gauss-Newton curvature at s_c."""
    pred = predicted_centrode(problem.model, s_c, problem.q_traj,
                              n_panels=n_panels)
    mask = _pair_mask(problem.sensed, pred)
    if not np.any(mask):
        raise ValueError("no overlapping valid centrode samples")
    r = _stacked_residual(problem.sensed, pred, mask)
    Wr = _apply_weight(r, problem.W, mask)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dc = centrode_gradient(problem.model, s_c, problem.q_traj,
                               n_panels=n_panels)
    J = -dc[mask].ravel()  # residual = sensed - predicted
    finite = np.isfinite(J)
    obj = 0.5 * float(r @ Wr)
    g = float(J[finite] @ Wr[finite])
    WJ = _apply_weight(J, problem.W, mask)
    H = float(J[finite] @ WJ[finite])
    return obj, g, H


def estimate_contact(problem: EstimationProblem,
                     max_iter: int = LM_MAX_ITER,
                     lm_lambda0: float = LM_LAMBDA0,
                     step_tol: float = LM_STEP_TOL,
                     obj_rel_tol: float = LM_OBJ_REL_TOL,
                     n_panels: int = DEFAULT_PANELS):
    """Levenberg-Marquardt over the scalar contact location.

    Rejected steps raise the damping tenfold, accepted ones lower it;
    candidates are projected to the bounds.  Stops on a sub-step_tol
    accepted move or a relative objective decrease below obj_rel_tol.
    Returns (s_c_est, report); report['converged'] is False when max_iter
    runs out, with the best iterate still reported.
    """
    lo, hi = problem.bounds
    s_c = float(problem.s0)
    obj, g, H = _objective_state(problem, s_c, n_panels)
    lam = lm_lambda0
    trace = [(0, s_c, obj)]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        denom = H + lam
        if denom <= 0:
            lam = max(10.0 * lam, 1e-12)
            trace.append((it, s_c, obj))
            continue
        cand = float(np.clip(s_c - g / denom, lo, hi))
        step = cand - s_c
        try:
            cand_obj, cand_g, cand_H = _objective_state(problem, cand, n_panels)
        except ValueError:
            lam *= 10.0
            trace.append((it, s_c, obj))
            continue
        if cand_obj < obj:
            rel_drop = (obj - cand_obj) / max(obj, 1e-300)
            s_c, obj, g, H = cand, cand_obj, cand_g, cand_H
            lam = max(lam / 10.0, 1e-15)
            trace.append((it, s_c, obj))
            if abs(step) < step_tol or rel_drop < obj_rel_tol:
                converged = True
                break
        else:
            lam *= 10.0
            trace.append((it, s_c, obj))
            if abs(step) < step_tol:
                # no downhill move within resolution; treat as stationary
                converged = True
                break
    end_tip_err = float("nan")
    if problem.sensed_end_pose is not None:
        contact = freeze(problem.model, float(problem.q_traj[0]), s_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tip = contact_tip_pose(problem.model, contact,
                                   float(problem.q_traj[-1]), n_panels=n_panels)
        ex, ez = problem.sensed_end_pose
        end_tip_err = float(np.hypot(tip.x - ex, tip.z - ez))
    report = {
        "s_c_est": s_c,
        "iterations": iterations,
        "final_objective": obj,
        "end_tip_error_LU": end_tip_err,
        "converged": converged,
        "trace": trace,
    }
    return s_c, report


def grid_oracle(model: modal.ModalModel, sensed, q_traj, grid,
                W=None, n_panels: int = DEFAULT_PANELS) -> float:
    """Brute-force argmin of the objective over a grid of s_c values.

    Ties break toward the smaller s_c (grid is scanned in ascending order).
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if len(grid) == 0:
        raise ValueError("empty grid")
    best_s, best_obj = None, np.inf
    for s_c in grid:
        obj = centrode_objective(model, float(s_c), q_traj, sensed,
                                 W=W, n_panels=n_panels)
        if obj < best_obj:
            best_s, best_obj = float(s_c), obj
    return best_s


def speed_weights(sensed, scale: float = None) -> np.ndarray:
    """Per-sample weights that de-emphasize fast-moving sensed centrodes.

    Weight 1/(1 + (speed/scale)^2) with speed from neighbor differences;
    invalid samples get weight 1 (they are dropped from residuals anyway).
    """
    pts = np.array([[p.x, p.z] if p.valid else [np.nan, np.nan]
                    for p in sensed])
    speed = np.full(len(pts), np.nan)
    if len(pts) >= 2:
        d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        speed[1:-1] = 0.5 * (d[:-1] + d[1:])
        speed[0], speed[-1] = d[0], d[-1]
    finite = np.isfinite(speed)
    if scale is None:
        scale = float(np.nanmedian(speed[finite])) if np.any(finite) else 1.0
        scale = scale if scale > 0 else 1.0
    w = np.ones(len(pts))
    w[finite] = 1.0 / (1.0 + (speed[finite] / scale) ** 2)
    return w

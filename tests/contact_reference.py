"""The per-hypothesis reference for contact.RampPins: every pin, centrode,
gradient and LM evaluation rebuilds the ramp's pressure factor, as the
package did before RampPins shared it.

freeze, contact_kinematics and the gradient's d/ds read each built their
own eta(q) (and deta/dq) from q; the sweep rebuilt them at every location
and the LM solve at every evaluation.  The package's shared reads must
equal these bit for bit: sweep rows, CentrodeGradient arrays and LM
reports.
"""

import math

import numpy as np

from bellowkin import modal
from bellowkin.centrode import instant_centers
from bellowkin.contact import CentrodeGradient, ContactState
from bellowkin.estimation import (LM_LAMBDA0, LM_OBJ_REL_TOL, LM_STEP_TOL,
                                  _apply_weight, _ramp_values)
from bellowkin.kinematics import _ARC_ROWS, PlanarPose, arc_kinematics
from bellowkin.pipeline import _pressures, model_centrode
from bellowkin.quadrature import XI_W

_Q_TOL = 1e-12


def field(B, q):
    """The arc factor B times the pressure factor, built here from q."""
    q = np.asarray(q, dtype=float)
    return tuple(B @ c for c in modal._pressure_cols(q, B.shape[1]))


def arc_field(model, ell, q):
    return (*field(modal.arc_factor(model, ell, _ARC_ROWS), q), ell * XI_W)


def freeze(model, q_c, s_c):
    if not (0.0 < s_c < model.L):
        raise ValueError(f"s_c must lie strictly inside (0, {model.L})")
    th, _, wts = arc_field(model, s_c, [q_c])
    th = th[:, 0]
    pose = PlanarPose(x=float(wts @ np.cos(th[2:])),
                      z=float(wts @ np.sin(th[2:])), theta=float(th[1]))
    return ContactState(s_c=float(s_c), q_c=float(q_c), base_pose_c=pose)


def contact_kinematics(model, contact, q, qdot=1.0):
    q = np.asarray(q, dtype=float)
    if q.size and float(q.min()) < contact.q_c - _Q_TOL:
        raise ValueError(f"pressure {float(q.min())} below contact onset "
                         f"{contact.q_c}")
    base = contact.base_pose_c
    th, g, wts = arc_field(model, model.L - contact.s_c, q)
    base0 = th[0].copy()
    th += base.theta
    th -= base0
    g -= g[0].copy()
    return arc_kinematics(th, g, wts, base.x, base.z, qdot)


def pinned_ramp(model, s_c, q):
    q = np.asarray(q, dtype=float)
    contact = freeze(model, float(q[0]), s_c)
    qdot = float(q[1] - q[0]) if len(q) > 1 else 1.0
    return contact, qdot, contact_kinematics(model, contact, q, qdot)


def ds_grids(model, s_hat, q):
    return tuple(g / model.L for g in field(
        modal._dpsi_rows(s_hat, model.v) @ model.A, q))


def hypothesis_centrode_gradient(model, s_c, q):
    contact, qdot, k = pinned_ramp(model, s_c, q)
    c = instant_centers(k.x, k.z, k.vx, k.vz, k.omega)
    s_c, base, L = contact.s_c, contact.base_pose_c, model.L
    curv, d2 = ds_grids(model, np.array([s_c, L - s_c]) / L, q)
    k_off = float(curv[0, 0])
    d_omega = -qdot * d2[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(c.valid, d_omega / (k.omega * k.omega), np.nan)
    dcx = math.cos(base.theta) - k_off * (c.cz - base.z) + k.vz * rate
    dcz = math.sin(base.theta) + k_off * (c.cx - base.x) - k.vx * rate
    return CentrodeGradient(cx=c.cx, cz=c.cz, valid=c.valid, dcx=dcx, dcz=dcz)


def predicted_centrode(model, s_c, q_traj):
    _, _, k = pinned_ramp(model, s_c, _ramp_values(q_traj))
    return instant_centers(k.x, k.z, k.vx, k.vz, k.omega)


def sweep(model, ramp, s_values):
    q, _ = _pressures(ramp)
    free = model_centrode(model, ramp)
    rows = []
    for s_c in map(float, s_values):
        index = 0.0
        if s_c != 0.0:
            pinned = predicted_centrode(model, s_c, q)
            both = free.valid & pinned.valid
            dist = np.hypot(pinned.cx - free.cx, pinned.cz - free.cz)
            index = float(np.max(dist[both], initial=0.0))
        rows.append((s_c, index))
    return rows


def _objective_state(problem, s_c):
    sensed, q = problem.sensed, problem.q_traj
    pred = hypothesis_centrode_gradient(problem.model, s_c, q)
    mask = sensed.valid & pred.valid
    if not np.any(mask):
        raise ValueError("no overlapping valid centrode samples")
    r = np.column_stack((sensed.cx[mask] - pred.cx[mask],
                         sensed.cz[mask] - pred.cz[mask])).ravel()
    J = -np.column_stack((pred.dcx[mask], pred.dcz[mask])).ravel()
    Wr = _apply_weight(r, problem.W, mask)
    return (0.5 * float(r @ Wr), float(J @ Wr),
            float(J @ _apply_weight(J, problem.W, mask)))


def estimate_contact(problem, max_iter):
    """The Levenberg-Marquardt solve of estimation.estimate_contact, each
    evaluation on its own hypothesis_centrode_gradient."""
    lo, hi = problem.bounds
    s_c = float(problem.s0)
    obj, g, H = _objective_state(problem, s_c)
    lam = LM_LAMBDA0
    trace = [(0, s_c, obj)]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        cand = float(np.clip(s_c - g / (H + lam), lo, hi))
        step = cand - s_c
        try:
            cand_obj, cand_g, cand_H = _objective_state(problem, cand)
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
                converged = True
                break
    end_tip_err = float("nan")
    if problem.sensed_end_pose is not None:
        _, _, tip = pinned_ramp(problem.model, s_c, problem.q_traj[[0, -1]])
        ex, ez = problem.sensed_end_pose
        end_tip_err = float(np.hypot(tip.x[-1] - ex, tip.z[-1] - ez))
    return s_c, {"s_c_est": s_c, "iterations": iterations,
                 "final_objective": obj, "end_tip_error_LU": end_tip_err,
                 "converged": converged, "trace": trace}

"""Finite-difference reference for the analytic s_c-gradient of the
hypothesis centrode; the package itself uses only the analytic one."""

import warnings

import numpy as np

from bellowkin.estimation import predicted_centrode


def fd_centrode_gradient(model, s_c_hyp, q, h_s=None):
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
    q = np.asarray(q, dtype=float)
    c_lo = predicted_centrode(model, lo, q)
    c_hi = predicted_centrode(model, hi, q)
    grad = np.column_stack(((c_hi.cx - c_lo.cx) / (hi - lo),
                            (c_hi.cz - c_lo.cz) / (hi - lo)))
    grad[~(c_lo.valid & c_hi.valid)] = np.nan
    return grad

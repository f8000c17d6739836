"""Brute-force reference for the contact-location estimate; the package
itself solves by Levenberg-Marquardt."""

import numpy as np

from bellowkin.estimation import centrode_objective


def grid_oracle(model, sensed, q_traj, grid, W=None) -> float:
    """Brute-force argmin of the centrode objective over a grid of s_c.

    Ties break toward the smaller s_c (grid is scanned in ascending order).
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if len(grid) == 0:
        raise ValueError("empty grid")
    best_s, best_obj = None, np.inf
    for s_c in grid:
        obj = centrode_objective(model, float(s_c), q_traj, sensed, W=W)
        if obj < best_obj:
            best_s, best_obj = float(s_c), obj
    return best_s

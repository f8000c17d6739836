"""Deterministic Gauss-Legendre quadrature: the arc rule and the station rule.

The arc rule integrates over a whole arc [0, ell]: the tip pose and twist
of kinematics.ramp_kinematics and the pin's base pose in
contact.station_pose.  It is one 24-point Gauss-Legendre panel (exact for
polynomials up to degree 47); the tangent field is analytic in arc length,
so one panel integrates it to round-off.  panel_nodes lays it out on
[a, b], as a composite of n_panels panels; the kernel takes its reference
nodes on [0, 1] once, and an arc [0, ell] scales nodes and weights by ell.
Quantities differentiated under the integral sign (the twists) use the
same nodes, so they stay the exact derivatives of the integrals they
derive from.

The station rule, cumulative_stations, integrates between consecutive
marker stations with one 5-point panel per interval (calibration and the
synthetic ground truth).
"""

import numpy as np

# the arc rule on [-1, 1]
_ARC_X, _ARC_W = np.polynomial.legendre.leggauss(24)
# the station rule on [-1, 1]; exact for polynomials up to degree 9
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)


def panel_nodes(a: float, b: float, n_panels: int):
    """Nodes and weights of the composite arc rule on [a, b].

    Returns (nodes, weights) as flat arrays of length 24*n_panels.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _ARC_X[None, :]).ravel()
    weights = (half[:, None] * _ARC_W[None, :]).ravel()
    return nodes, weights


def cumulative_stations(theta_fn, stations):
    """Planar positions at the given arc stations from a tangent-angle field.

    Integrates (cos theta, sin theta) with one 5-point panel per interval
    between consecutive stations, accumulating from the first station, which
    is taken as the origin.  Returns an array of shape (len(stations), 2).
    """
    stations = np.asarray(stations, dtype=float)
    if stations.size < 1:
        raise ValueError("need at least one station")
    pos = np.zeros((stations.size, 2))
    if stations.size == 1:
        return pos
    a = stations[:-1]
    b = stations[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    th = theta_fn(nodes.ravel()).reshape(nodes.shape)
    wx = (np.cos(th) * _GL_W[None, :]).sum(axis=1) * half
    wz = (np.sin(th) * _GL_W[None, :]).sum(axis=1) * half
    pos[1:, 0] = np.cumsum(wx)
    pos[1:, 1] = np.cumsum(wz)
    return pos

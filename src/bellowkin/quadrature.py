"""Deterministic Gauss-Legendre quadrature: the package's one arc rule.

The arc rule integrates the model's field over an arc: the tip pose and
twist of kinematics.arc_kinematics, the pin's base pose in
contact.freeze, and the marker positions calibration.fit_modal
checks its fit against.  It is one 24-point Gauss-Legendre panel (exact
for polynomials up to degree 47); the tangent field is analytic in arc
length, so one panel integrates it to round-off.  XI and XI_W are the
rule on [0, 1]; an arc [a, a + h] shifts the nodes by a and scales nodes
and weights by h.  panel_nodes lays it out on [a, b] in n_panels panels.
"""

import numpy as np

# the arc rule on [-1, 1] from its upper half, as leggauss(24) gives it: a
# numpy.polynomial import would cost every process about 0.7 MB and 4 ms
_X = [0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
      0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
      0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213]
_W = [0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
      0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
      0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869]
_ARC_X = np.concatenate((np.negative(_X[::-1]), _X))
_ARC_W = np.array(_W[::-1] + _W)

DEFAULT_PANELS = 1  # panels of the arc rule; it is not a parameter


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


XI, XI_W = panel_nodes(0.0, 1.0, DEFAULT_PANELS)

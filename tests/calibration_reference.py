"""Scalar references for calibration: the per-station Lagrange tangent
loop, and exact calibration data sampled from a modal model for
coefficient round-trip checks; the package's own data comes from marker
points."""

import numpy as np

from bellowkin.calibration import CalibrationDataset
from bellowkin.modal import theta
from bellowkin.synthetic import cumulative_stations


def _quadratic_tangent(s3, x3, z3, t):
    # derivative of the Lagrange quadratic through three samples, at t
    s0, s1, s2 = s3
    c0 = (2 * t - s1 - s2) / ((s0 - s1) * (s0 - s2))
    c1 = (2 * t - s0 - s2) / ((s1 - s0) * (s1 - s2))
    c2 = (2 * t - s0 - s1) / ((s2 - s0) * (s2 - s1))
    dx = c0 * x3[0] + c1 * x3[1] + c2 * x3[2]
    dz = c0 * z3[0] + c1 * z3[1] + c2 * z3[2]
    return np.arctan2(dz, dx)


def tangents_loop(points):
    """Chord-length stations and tangent angles of an (n, 2) backbone, one
    station at a time: the quadratic through the station and its neighbors,
    one-sided at the ends."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    th = np.empty(n)
    for i in range(n):
        j = min(max(i - 1, 0), n - 3)  # window start; one-sided at the ends
        idx = [j, j + 1, j + 2]
        th[i] = _quadratic_tangent(s[idx], pts[idx, 0], pts[idx, 1], s[i])
    return s, th


def dataset_from_model(model, s_samples, pressures) -> CalibrationDataset:
    """Noise-free dataset sampled exactly from a modal model.

    Tangent samples are exact model evaluations (no extraction error);
    points are the integrated stations.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    pressures = np.asarray(pressures, dtype=float)
    th = np.column_stack([theta(model, s_samples, q) for q in pressures])
    points = [cumulative_stations(lambda s: theta(model, s, q), s_samples)
              for q in pressures]
    return CalibrationDataset(pressures=pressures, points=points,
                              s_samples=s_samples, theta=th)

"""Synthetic stand-in for the annotated calibration experiment.

The physical dataset (camera frames of the bellow at five pressures with ten
hand-annotated backbone markers) is not shipped; this module generates an
equivalent dataset from a ground-truth tangent field.  The field is
deliberately not representable in the 3x3 modal basis: as pressure rises the
curvature concentrates toward the tip (the spatial bump profile warps with
pressure), which a separable polynomial-times-polynomial fit cannot absorb.
The fit residual then grows with pressure and is largest at the top
calibration pressure, while staying small enough that the fitted base angle
remains within the clamped-base tolerance.

Lengths are in pixels (0.2959 mm/pixel); pressures in Psi.
"""

import numpy as np

from .calibration import CalibrationDataset
from .io import write_columns

TRUE_LENGTH = 500.0  # px
REFERENCE_PRESSURES = (0.0, 6.0, 10.0, 15.0, 21.0)
POINTS_PER_BACKBONE = 10
_REFINE = 20  # integration stations per marker interval

# Polynomial part of the ground truth (tip reaches ~2.2 rad at 21 Psi) plus
# the non-modal bump: full-period sine whose peak migrates toward the tip
# with pressure.  Full period keeps the fitted base angle quiet; the warp
# makes the field non-separable so the residual peaks at 21 Psi.
_C_S1 = 0.05
_C_S2 = 0.03
_C_SQ = 0.0012
BUMP_AMPLITUDE = 0.1
_BUMP_WARP = 0.6
_BUMP_POWER = 2.0


# the truth's station rule on [-1, 1], one panel per interval: a rule of its
# own, not the model's arc rule; leggauss(5), written out as quadrature's is
_GL_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                  0.5384693101056831, 0.906179845938664])
_GL_W = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                  0.4786286704993663, 0.23692688505618928])


def cumulative_stations(theta_fn, stations):
    """Planar positions at the given arc stations from a tangent-angle field.

    Integrates (cos theta, sin theta) with one 5-point panel per interval
    between consecutive stations, accumulating from the first station, which
    is taken as the origin.  Returns an array of shape (len(stations), 2).
    """
    stations = np.asarray(stations, dtype=float)
    mid = 0.5 * (stations[:-1] + stations[1:])
    half = 0.5 * (stations[1:] - stations[:-1])
    th = theta_fn((mid[:, None] + half[:, None] * _GL_X).ravel()).reshape(-1, 5)
    steps = np.column_stack(((np.cos(th) * _GL_W).sum(axis=1) * half,
                             (np.sin(th) * _GL_W).sum(axis=1) * half))
    return np.vstack((np.zeros((1, 2)), np.cumsum(steps, axis=0)))


def true_tangent(s, q):
    """Ground-truth tangent angle; clamped base (zero at s = 0)."""
    s_hat = np.asarray(s, dtype=float) / TRUE_LENGTH
    poly = q * (_C_S1 * s_hat + _C_S2 * s_hat**2) + q**2 * (_C_SQ * s_hat)
    warp = 1.0 + _BUMP_WARP * q / 21.0
    profile = np.sin(2.0 * np.pi * np.power(np.clip(s_hat, 0.0, 1.0), warp))
    return poly + BUMP_AMPLITUDE * (q / 21.0) ** _BUMP_POWER * profile


def backbone_points(q, n_points: int = POINTS_PER_BACKBONE) -> np.ndarray:
    """Marker positions at equally spaced arc stations under pressure q."""
    if n_points < 2:
        raise ValueError("need at least 2 markers")
    dense = np.linspace(0.0, TRUE_LENGTH, (n_points - 1) * _REFINE + 1)
    pos = cumulative_stations(lambda s: true_tangent(s, q), dense)
    return pos[::_REFINE].copy()


def make_reference_dataset(n_points: int = POINTS_PER_BACKBONE) -> CalibrationDataset:
    """Annotation-style dataset: marker points per reference pressure,
    tangents derived."""
    points = [backbone_points(q, n_points=n_points) for q in REFERENCE_PRESSURES]
    return CalibrationDataset.from_points(REFERENCE_PRESSURES, points)


def write_calibration_csv(dataset: CalibrationDataset, path):
    """Export a dataset in the `pressure_psi,point_index,x,z` input format."""
    pts = np.asarray(dataset.points, dtype=float)  # (pressures, markers, 2)
    n_q, n_pts, _ = pts.shape
    write_columns(path, ["pressure_psi", "point_index", "x", "z"],
                  ["%.17g", "%d", "%.17g", "%.17g"],
                  [np.repeat(dataset.pressures, n_pts),
                   np.tile(np.arange(n_pts), n_q), *pts.reshape(-1, 2).T])

"""Exact calibration data sampled from a modal model, for coefficient
round-trip checks; the package's own data comes from marker points."""

import numpy as np

from bellowkin.calibration import CalibrationDataset
from bellowkin.modal import theta
from bellowkin.quadrature import cumulative_stations


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

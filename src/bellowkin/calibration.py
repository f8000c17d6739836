"""Calibration of the modal tangent field from annotated backbone points.

Annotated data arrives as ordered (x, z) points per pressure, one row of
material markers shared across all pressures.  Tangent angles come from
local quadratic fits; the coefficient matrix solves a vectorized linear
least-squares problem built from the Kronecker product of the two basis
Vandermonde factors.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .io import read_table
from .modal import (DEFAULT_UNIT_SCALE, ModalModel, _eta_cols, _psi_rows,
                    theta_grid)
from .quadrature import XI, XI_W

BASE_ANGLE_TOL = 0.01  # rad; calibrated base tangent beyond this gets flagged


class RankDeficientError(ValueError):
    """Design matrices do not resolve every basis direction."""


def tangents_from_points(points):
    """Arc-length samples and tangent angles along annotated backbones.

    points is (..., n, 2): one backbone of n ordered points, or any stack
    of them (one per pressure), each read on its own.  Arc length is
    cumulative chord length from the base point.  The tangent angle at
    each station is the derivative of the Lagrange quadratic through the
    station and its neighbors (one-sided at the endpoints); the base
    angle is reported as measured, not forced to zero.  Returns s and
    theta, each of shape (..., n).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ValueError("points must be an (..., n, 2) array")
    n = pts.shape[-2]
    if n < 3:
        raise ValueError("need at least 3 backbone points")
    seg = np.linalg.norm(np.diff(pts, axis=-2), axis=-1)
    if np.any(seg == 0.0):
        raise ValueError("duplicate consecutive backbone points")
    s = np.concatenate([np.zeros(seg.shape[:-1] + (1,)),
                        np.cumsum(seg, axis=-1)], axis=-1)

    # window start per station; one-sided at the ends
    j = np.clip(np.arange(n) - 1, 0, n - 3)
    s0, s1, s2 = s[..., j], s[..., j + 1], s[..., j + 2]
    c0 = (2 * s - s1 - s2) / ((s0 - s1) * (s0 - s2))
    c1 = (2 * s - s0 - s2) / ((s1 - s0) * (s1 - s2))
    c2 = (2 * s - s0 - s1) / ((s2 - s0) * (s2 - s1))
    d = (c0[..., None] * pts[..., j, :] + c1[..., None] * pts[..., j + 1, :]
         + c2[..., None] * pts[..., j + 2, :])
    return s, np.arctan2(d[..., 1], d[..., 0])


def build_design_matrices(s_samples, q_samples, v: int, w: int):
    """Vandermonde factors: Omega rows are psi(s_i), Gamma columns are eta(q_j)."""
    if v < 1 or w < 1:
        raise ValueError("basis orders v, w must be >= 1")
    s_samples = np.asarray(s_samples, dtype=float)
    q_samples = np.asarray(q_samples, dtype=float)
    if s_samples.size == 0 or q_samples.size == 0:
        raise ValueError("samples must be nonempty")
    return _psi_rows(s_samples, v), _eta_cols(q_samples, w)


@dataclass
class CalibrationDataset:
    """Annotated backbone points plus the derived (s, theta) sample table.

    The arc grid s_samples is shared across pressures: markers sit at fixed
    material stations, and the grid is measured on the first (straightest)
    pressure, where chord length tracks arc length best.  theta is g-by-z
    with one column per pressure.
    """

    pressures: np.ndarray
    points: list  # one (g, 2) array per pressure
    s_samples: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.pressures = np.asarray(self.pressures, dtype=float)
        self.s_samples = np.asarray(self.s_samples, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        z, g = self.pressures.size, self.s_samples.size
        if z < 2:
            raise ValueError("need at least 2 pressures")
        if g < 2:
            raise ValueError("need at least 2 arc stations")
        if np.any(np.diff(self.pressures) <= 0):
            raise ValueError("pressures must be strictly ascending")
        if self.s_samples[0] != 0.0 or np.any(np.diff(self.s_samples) <= 0):
            raise ValueError("arc samples must strictly increase from 0")
        if self.theta.shape != (g, z):
            raise ValueError(f"theta must be {g}x{z}")
        if len(self.points) != z:
            raise ValueError("one point list per pressure required")

    @property
    def L(self) -> float:
        return float(self.s_samples[-1])

    @classmethod
    def from_points(cls, pressures, points_per_pressure) -> "CalibrationDataset":
        """Derive the sample table from ordered backbone points per pressure."""
        pressures = np.asarray(pressures, dtype=float)
        counts = {len(p) for p in points_per_pressure}
        if len(counts) != 1:
            raise ValueError(f"inconsistent point counts across pressures: {sorted(counts)}")
        pts = np.stack([np.asarray(p, dtype=float) for p in points_per_pressure])
        s, th = tangents_from_points(pts)  # one pass over every pressure
        return cls(pressures=pressures, points=list(pts), s_samples=s[0],
                   theta=th.T)


def load_calibration_csv(path) -> CalibrationDataset:
    """Read a `pressure_psi,point_index,x,z` CSV into a dataset.

    Rows are grouped by pressure and ordered by point index.  A malformed
    row, a non-finite pressure or coordinate, a point index that is not an
    integer, a point index repeated at one pressure, one missing at some
    pressure (every pressure must carry the same indices), or a marker at
    the position of the one before it (a zero-length backbone segment)
    raises ValueError naming the row, numbered from 1 after the header as
    io.read_table numbers them.
    """
    data = read_table(path, ["pressure_psi", "point_index", "x", "z"],
                      "calibration CSV")
    if not len(data):
        raise ValueError("calibration CSV has no data rows")
    q, idx, x, z = data.T
    whole = np.isfinite(idx) & (idx == np.trunc(idx))
    finite = np.isfinite(q) & np.isfinite(x) & np.isfinite(z)
    bad = np.flatnonzero(~(whole & finite))
    if bad.size:
        k = bad[0]
        what = ("pressure and coordinates must be finite" if whole[k]
                else "point_index must be an integer")
        raise ValueError(f"calibration CSV row {k + 1}: {what}")
    # stable: a repeated (pressure, index) pair keeps its file order
    order = np.lexsort((idx, q))
    qs, ids = q[order], idx[order]
    repeat = (qs[1:] == qs[:-1]) & (ids[1:] == ids[:-1])
    if repeat.any():
        k = order[1:][repeat].min()
        first = np.flatnonzero((q == q[k]) & (idx == idx[k]))[0]
        raise ValueError(f"calibration CSV row {k + 1}: point_index "
                         f"{int(idx[k])} repeats at pressure {q[k]:g} "
                         f"(first given at row {first + 1})")
    pressures, starts = np.unique(qs, return_index=True)
    index_sets = [set(g.tolist()) for g in np.split(ids, starts[1:])]
    common = set.intersection(*index_sets)
    if any(len(s) > len(common) for s in index_sets):
        k = next(r for r, i in enumerate(idx.tolist()) if i not in common)
        raise ValueError(f"calibration CSV row {k + 1}: point_index "
                         f"{int(idx[k])} is not given at every pressure")
    pts = data[order, 2:]
    # the zero-length segments tangents_from_points refuses, by its norm
    dup = ((np.linalg.norm(np.diff(pts, axis=0), axis=-1) == 0.0)
           & (qs[1:] == qs[:-1]))
    if dup.any():
        i = np.flatnonzero(dup)
        i = i[np.argmin(order[i + 1])]
        k, j = order[i + 1], order[i]
        raise ValueError(f"calibration CSV row {k + 1}: point_index "
                         f"{int(idx[k])} at pressure {q[k]:g} repeats the "
                         f"position of point_index {int(idx[j])} "
                         f"(row {j + 1})")
    return CalibrationDataset.from_points(pressures, np.split(pts, starts[1:]))


@dataclass
class FitReport:
    """Per-pressure residuals of a calibration fit.

    max_tip_err_mm is the error at the last station after forward
    integration; max_point_err_mm the worst error over all stations.
    """

    per_pressure: list  # dicts {q, max_theta_err_rad, max_tip_err_mm, max_point_err_mm}
    conditioning: float
    base_angle_warnings: list = field(default_factory=list)

    @property
    def max_theta_err_rad(self) -> float:
        return max(r["max_theta_err_rad"] for r in self.per_pressure)

    @property
    def max_tip_err_mm(self) -> float:
        return max(r["max_tip_err_mm"] for r in self.per_pressure)

    @property
    def max_point_err_mm(self) -> float:
        return max(r["max_point_err_mm"] for r in self.per_pressure)

    def to_json(self) -> str:
        return json.dumps({
            "per_pressure": self.per_pressure,
            "conditioning": self.conditioning,
            "base_angle_warnings": self.base_angle_warnings,
        }, indent=2)


def _factor_singular_values(mat, order, names, what):
    """The singular values of one design factor, taken once: its numerical
    rank, by numpy's matrix_rank tolerance, must reach order."""
    sv = np.linalg.svd(mat, compute_uv=False)
    tol = sv.max() * (max(mat.shape) * np.finfo(sv.dtype).eps)
    rank = int(np.count_nonzero(sv > tol))
    if rank < order:
        missing = ", ".join(names[k] for k in range(rank, order))
        raise RankDeficientError(
            f"{what} basis rank {rank} < {order}; unresolved directions: {missing}")
    return sv


def fit_modal(dataset: CalibrationDataset, v: int = 3, w: int = 3,
              unit_scale: float | None = None):
    """Solve the vectorized least-squares problem for the coefficient matrix.

    Stacks theta samples column-by-column and solves
    (Gamma^T kron Omega) vec(A) = vec(theta) by an SVD-based least-squares
    solve whose numerical rank is checked, with arc length normalized to s/L
    for conditioning.
    Returns the fitted model and a residual report, whose marker positions
    integrate the fitted field on the arc rule, a panel per marker interval.
    """
    g, z = dataset.theta.shape
    if g * z < v * w:
        raise RankDeficientError(f"{g}x{z} samples cannot determine "
                                 f"{v}x{w} coefficients")
    L = dataset.L
    s_hat = dataset.s_samples / L
    omega, gamma = build_design_matrices(s_hat, dataset.pressures, v, w)
    sv_omega = _factor_singular_values(omega, v, [f"s^{k}" for k in range(v)],
                                       "arc-length")
    sv_gamma = _factor_singular_values(gamma, w, [f"q^{k}" for k in range(w)],
                                       "pressure")

    design = np.kron(gamma.T, omega)
    rhs = dataset.theta.ravel(order="F")
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < v * w:
        raise RankDeficientError(f"design rank {rank} < {v * w}")
    A = sol.reshape(v, w, order="F")

    scale = unit_scale if unit_scale is not None else DEFAULT_UNIT_SCALE
    model = ModalModel(A=A, L=L, unit_scale=scale,
                       q_range=(float(dataset.pressures[0]), float(dataset.pressures[-1])))

    # np.linalg.cond of each factor, from the singular values above
    conditioning = float(sv_omega[0] / sv_omega[-1] * (sv_gamma[0] / sv_gamma[-1]))
    theta_hat = omega @ A @ gamma
    max_theta = np.max(np.abs(theta_hat - dataset.theta), axis=0)
    # one field read on the arc rule: the base, then the nodes of every
    # marker interval; positions (g x 2 x pressures) accumulate from the base
    s, h = dataset.s_samples, np.diff(dataset.s_samples)
    rows = np.concatenate(([0.0], (s[:-1, None] + h[:, None] * XI).ravel()))
    th = theta_grid(model, rows, dataset.pressures)
    arc = th[1:].reshape(h.size, XI.size, z)
    wts = (h[:, None] * XI_W)[..., None]  # h_k w_i per interval and node
    steps = np.stack([(wts * f(arc)).sum(axis=1) for f in (np.cos, np.sin)], 1)
    pos = np.concatenate((np.zeros((1, 2, z)), np.cumsum(steps, axis=0)))
    ref = np.stack(dataset.points, axis=2)
    ref = ref - ref[:1]  # both curves start at the base
    err = np.linalg.norm(pos - ref, axis=1) * model.unit_scale
    per_pressure = [{
        "q": float(q),
        "max_theta_err_rad": float(max_theta[j]),
        "max_tip_err_mm": float(err[-1, j]),
        "max_point_err_mm": float(np.max(err[:, j])),
    } for j, q in enumerate(dataset.pressures)]
    warnings_q = [float(q) for q in
                  dataset.pressures[np.abs(th[0]) > BASE_ANGLE_TOL]]
    report = FitReport(per_pressure=per_pressure, conditioning=conditioning,
                       base_angle_warnings=warnings_q)
    return model, report

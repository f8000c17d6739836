"""Fixed centrode of the tip frame, sensed-stream differencing, and
contact detection by centrode deviation.

The instantaneous center of a planar motion sits perpendicular to the tip
velocity at distance |v|/|omega|: c = P + rot90(v)/omega.  Comparing the
center computed from sensed poses against the one predicted by the free
model flags contact: a pinned backbone rotates about a different center.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .io import read_table, write_columns
from .kinematics import wrap_angles

EPS_OMEGA = 1e-9
DEFAULT_WINDOW = 3
DEFAULT_XI_FACTOR = 3.0
DEFAULT_XI_PERCENTILE = 95.0
POSE_STREAM_HEADER = ["t", "q", "x", "z", "theta"]
CENTRODE_HEADER = ["t", "valid", "cx", "cz"]


class PoseStream(NamedTuple):
    """Tip-pose samples as arrays: integer step t, pressure q, position
    x, z and tangent angle theta in (-pi, pi]."""

    t: np.ndarray
    q: np.ndarray
    x: np.ndarray
    z: np.ndarray
    theta: np.ndarray

    def rows(self, index) -> "PoseStream":
        """The samples at index (a slice, mask or positions)."""
        return PoseStream(*(a[index] for a in self))


class CentrodeTrace(NamedTuple):
    """Centrode over a ramp as arrays; cx, cz are NaN where not valid."""

    cx: np.ndarray
    cz: np.ndarray
    valid: np.ndarray


def instant_centers(x, z, vx, vz, omega) -> CentrodeTrace:
    """Instantaneous centers of rotation in the fixed frame from arrays of
    tip pose and twist components: c = P + rot90(v)/omega, rot90 turning
    the planar velocity +90 degrees about the plane normal.

    Invalid (center at infinity, NaN) where |omega| < EPS_OMEGA.
    """
    valid = np.abs(omega) >= EPS_OMEGA
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.where(valid, x + (-vz) / omega, np.nan)
        cz = np.where(valid, z + vx / omega, np.nan)
    return CentrodeTrace(cx=cx, cz=cz, valid=valid)


def _stencil_rates(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order rate estimates: central interior, one-sided ends."""
    v = np.empty_like(values)
    v[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    v[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    v[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return v


def centrode_from_stream(stream: PoseStream) -> CentrodeTrace:
    """Centrode trace from a uniformly stepped pose stream.

    Velocities come from differencing over the step index (the stream is
    quasi-static; pressure steps play the role of time).  The tangent angle
    is unwrapped before differencing so crossings of the +-pi seam do not
    produce spurious rates.
    """
    t = np.asarray(stream.t, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 samples to difference")
    dt_all = np.diff(t)
    if np.any(dt_all <= 0) or np.ptp(dt_all) > 1e-9 * max(abs(dt_all[0]), 1.0):
        raise ValueError("samples must be uniformly and strictly increasing in t")
    dt = float(dt_all[0])
    x = np.asarray(stream.x, dtype=float)
    z = np.asarray(stream.z, dtype=float)
    th = np.unwrap(np.asarray(stream.theta, dtype=float))
    return instant_centers(x, z, _stencil_rates(x, dt), _stencil_rates(z, dt),
                           _stencil_rates(th, dt))


def _aligned_deviations(c_a: CentrodeTrace, c_b: CentrodeTrace) -> np.ndarray:
    """Per-sample center distance; NaN where either side is invalid."""
    if len(c_a.valid) != len(c_b.valid):
        raise ValueError("traces differ in length")
    both = c_a.valid & c_b.valid
    dev = np.full(both.size, np.nan)
    dev[both] = np.hypot(c_a.cx[both] - c_b.cx[both], c_a.cz[both] - c_b.cz[both])
    if not np.any(np.isfinite(dev)):
        raise ValueError("no overlapping valid samples")
    return dev


@dataclass(frozen=True)
class DetectionResult:
    detected: bool
    onset_t: int
    max_deviation: float


def fcd_detect(c_sensed: CentrodeTrace, c_model: CentrodeTrace, xi: float,
               window: int = DEFAULT_WINDOW, t=None) -> DetectionResult:
    """Declare contact at the first run of `window` consecutive valid
    samples whose sensed-vs-model center distance exceeds xi.

    The traces are aligned sample by sample.  Invalid samples are skipped
    (they neither extend nor reset a run); onset_t is t (the stream's own
    steps; 0, 1, ... when not given) at the first sample of the run.
    """
    if not xi > 0:  # NaN fails too
        raise ValueError("xi must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    dev = _aligned_deviations(c_sensed, c_model)
    max_dev = float(np.nanmax(dev))
    # runs over the valid samples only: the first window of all-exceeding
    # samples starts a run (the sample before it does not exceed)
    kept = np.flatnonzero(np.isfinite(dev))
    above = np.concatenate(([0], np.cumsum(dev[kept] > xi)))
    full = np.flatnonzero(above[window:] - above[:-window] == window)
    if full.size == 0:
        return DetectionResult(detected=False, onset_t=-1, max_deviation=max_dev)
    onset = int(kept[full[0]])
    return DetectionResult(detected=True,
                           onset_t=onset if t is None else int(t[onset]),
                           max_deviation=max_dev)


def _nan_percentile(a: np.ndarray, p: float) -> float:
    """The p-th percentile of the values of a that are not NaN (at least
    one), bit for bit np.nanpercentile's default (linear) method: the
    virtual index (n - 1) p / 100 into the sorted values, and numpy's lerp
    between its two neighbours, taken from the upper one when the weight
    t is at least 1/2.  np.nanpercentile itself imports numpy.ma on its
    first call: 1.2 MB, and most of a fresh detect process's in-process
    time."""
    v = np.sort(a[~np.isnan(a)])
    n = v.size
    x = (n - 1) * (p / 100)
    lo = min(math.floor(x), n - 1)
    hi = min(lo + 1, n - 1)
    t = x - lo
    lo_v, hi_v = float(v[lo]), float(v[hi])
    d = hi_v - lo_v
    return hi_v - d * (1 - t) if t >= 0.5 else lo_v + d * t


def default_threshold(c_sensed_free: CentrodeTrace,
                      c_model_free: CentrodeTrace) -> float:
    """Detection threshold from a contact-free ramp's noise floor.

    The differencing error of a free run against the analytic centrode sets
    the floor; the threshold is DEFAULT_XI_FACTOR x its
    DEFAULT_XI_PERCENTILE-th percentile.
    """
    dev = _aligned_deviations(c_sensed_free, c_model_free)
    return DEFAULT_XI_FACTOR * _nan_percentile(dev, DEFAULT_XI_PERCENTILE)


def write_pose_stream(path, stream: PoseStream):
    write_columns(path, POSE_STREAM_HEADER,
                  ["%d", "%.17g", "%.17g", "%.17g", "%.17g"], stream)


def read_pose_stream(path) -> PoseStream:
    """A pose stream as written by write_pose_stream.

    t is truncated to an integer step, theta is wrapped into (-pi, pi];
    a row with a missing field or a non-finite t, q, x, z or theta raises
    ValueError naming the row.
    """
    data = read_table(path, POSE_STREAM_HEADER, "pose-stream")
    t = data[:, 0]
    for bad, what in ((~(np.abs(t) < 2.0 ** 63), "t must be a finite step"),
                      (~np.isfinite(data[:, 1]), "q must be finite"),
                      (~np.isfinite(data[:, 2:]).all(axis=1),
                       "pose components must be finite")):
        if bad.any():
            raise ValueError(f"pose-stream row {np.argmax(bad) + 1}: {what}")
    return PoseStream(t=t.astype(np.int64), q=data[:, 1], x=data[:, 2],
                      z=data[:, 3], theta=wrap_angles(data[:, 4]))


def write_centrode(path, trace: CentrodeTrace, t):
    """The trace as rows (t, valid, cx, cz), t the stream's own steps."""
    write_columns(path, CENTRODE_HEADER, ["%d", "%d", "%.17g", "%.17g"],
                  (t, trace.valid, trace.cx, trace.cz))


def read_centrode(path):
    """(t, CentrodeTrace) of a file written by write_centrode."""
    data = read_table(path, CENTRODE_HEADER, "centrode")
    return data[:, 0].astype(np.int64), CentrodeTrace(
        cx=data[:, 2], cz=data[:, 3], valid=data[:, 1] == 1.0)

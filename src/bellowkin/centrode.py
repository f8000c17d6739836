"""Fixed centrode of the tip frame, sensed-stream differencing, and
contact detection by centrode deviation.

The instantaneous center of a planar motion sits perpendicular to the tip
velocity at distance |v|/|omega|: c = P + rot90(v)/omega.  Comparing the
center computed from sensed poses against the one predicted by the free
model flags contact: a pinned backbone rotates about a different center.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .io import write_csv, read_csv
from .kinematics import PlanarPose, PlanarTwist

EPS_OMEGA = 1e-9
DEFAULT_WINDOW = 3
DEFAULT_XI_FACTOR = 3.0
DEFAULT_XI_PERCENTILE = 95.0


@dataclass(frozen=True)
class CentrodePoint:
    x: float
    z: float
    valid: bool
    t_index: int = 0


@dataclass(frozen=True)
class PoseSample:
    t: int
    q: float
    pose: PlanarPose


class CentrodeTrace(NamedTuple):
    """Centrode over a ramp as arrays; cx, cz are NaN where not valid."""

    cx: np.ndarray
    cz: np.ndarray
    valid: np.ndarray

    def points(self, t_index=None) -> list:
        """The trace as CentrodePoints, t_index 0, 1, ... unless given."""
        t = range(len(self.valid)) if t_index is None else t_index
        return [CentrodePoint(x=x, z=z, valid=v, t_index=int(k))
                for x, z, v, k in zip(self.cx.tolist(), self.cz.tolist(),
                                      self.valid.tolist(), t)]


def fixed_centrode(pose: PlanarPose, twist: PlanarTwist,
                   t_index: int = 0) -> CentrodePoint:
    """Instantaneous center of rotation in the fixed frame.

    Invalid (center at infinity) when |omega| < EPS_OMEGA; rot90 turns the
    planar velocity +90 degrees about the plane normal.
    """
    if abs(twist.omega) < EPS_OMEGA:
        return CentrodePoint(x=float("nan"), z=float("nan"), valid=False,
                             t_index=t_index)
    cx = pose.x + (-twist.vz) / twist.omega
    cz = pose.z + twist.vx / twist.omega
    return CentrodePoint(x=float(cx), z=float(cz), valid=True, t_index=t_index)


def instant_centers(x, z, vx, vz, omega) -> CentrodeTrace:
    """fixed_centrode over arrays of pose and twist components."""
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


def centrode_from_stream(samples) -> list:
    """Centrode trace from a uniformly stepped pose stream.

    Velocities come from differencing over the step index (the stream is
    quasi-static; pressure steps play the role of time).  The tangent angle
    is unwrapped before differencing so crossings of the +-pi seam do not
    produce spurious rates.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples to difference")
    t = np.asarray([s.t for s in samples], dtype=float)
    dt_all = np.diff(t)
    if np.any(dt_all <= 0) or np.ptp(dt_all) > 1e-9 * max(abs(dt_all[0]), 1.0):
        raise ValueError("samples must be uniformly and strictly increasing in t")
    dt = float(dt_all[0])
    x = np.asarray([s.pose.x for s in samples])
    z = np.asarray([s.pose.z for s in samples])
    th = np.unwrap(np.asarray([s.pose.theta for s in samples]))
    trace = instant_centers(x, z, _stencil_rates(x, dt), _stencil_rates(z, dt),
                            _stencil_rates(th, dt))
    return trace.points(t_index=[s.t for s in samples])


def _aligned_deviations(c_a, c_b) -> np.ndarray:
    """Per-sample center distance; NaN where either side is invalid."""
    if len(c_a) != len(c_b):
        raise ValueError("traces differ in length")
    dev = np.full(len(c_a), np.nan)
    for k, (a, b) in enumerate(zip(c_a, c_b)):
        if a.t_index != b.t_index:
            raise ValueError("traces not aligned by t_index")
        if a.valid and b.valid:
            dev[k] = float(np.hypot(a.x - b.x, a.z - b.z))
    if not np.any(np.isfinite(dev)):
        raise ValueError("no overlapping valid samples")
    return dev


@dataclass(frozen=True)
class DetectionResult:
    detected: bool
    onset_t: int
    max_deviation: float


def fcd_detect(c_sensed, c_model, xi: float,
               window: int = DEFAULT_WINDOW) -> DetectionResult:
    """Declare contact at the first run of `window` consecutive valid
    samples whose sensed-vs-model center distance exceeds xi.

    Invalid samples are skipped (they neither extend nor reset a run);
    onset_t is the t_index of the first sample of the run.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    dev = _aligned_deviations(c_sensed, c_model)
    run = 0
    run_start = None
    onset = None
    for k in range(len(dev)):
        if not np.isfinite(dev[k]):
            continue
        if dev[k] > xi:
            if run == 0:
                run_start = k
            run += 1
            if run >= window and onset is None:
                onset = run_start
        else:
            run = 0
            run_start = None
    max_dev = float(np.nanmax(dev))
    if onset is None:
        return DetectionResult(detected=False, onset_t=-1, max_deviation=max_dev)
    return DetectionResult(detected=True, onset_t=int(c_sensed[onset].t_index),
                           max_deviation=max_dev)


def isa_difference(c_contact, c_free) -> np.ndarray:
    """Per-sample center distance between two traces (NaN where invalid);
    the summary index is the max over the ramp."""
    return _aligned_deviations(c_contact, c_free)


def default_threshold(c_sensed_free, c_model_free,
                      factor: float = DEFAULT_XI_FACTOR,
                      percentile: float = DEFAULT_XI_PERCENTILE) -> float:
    """Detection threshold from a contact-free ramp's noise floor.

    The differencing error of a free run against the analytic centrode sets
    the floor; the threshold is factor x its chosen percentile.
    """
    dev = _aligned_deviations(c_sensed_free, c_model_free)
    return factor * float(np.nanpercentile(dev, percentile))


def write_pose_stream(path, samples):
    rows = [(s.t, s.q, s.pose.x, s.pose.z, s.pose.theta) for s in samples]
    write_csv(path, ["t", "q", "x", "z", "theta"], rows)


def read_pose_stream(path) -> list:
    header, rows = read_csv(path)
    if header != ["t", "q", "x", "z", "theta"]:
        raise ValueError(f"unexpected pose-stream header: {header}")
    out = []
    for r in rows:
        out.append(PoseSample(t=int(float(r[0])), q=float(r[1]),
                              pose=PlanarPose(x=float(r[2]), z=float(r[3]),
                                              theta=float(r[4]))))
    return out


def write_centrode(path, points):
    rows = [(p.t_index, p.valid, p.x, p.z) for p in points]
    write_csv(path, ["t", "valid", "cx", "cz"], rows)


def read_centrode(path) -> list:
    header, rows = read_csv(path)
    if header != ["t", "valid", "cx", "cz"]:
        raise ValueError(f"unexpected centrode header: {header}")
    return [CentrodePoint(t_index=int(float(r[0])), valid=r[1] == "1",
                          x=float(r[2]), z=float(r[3])) for r in rows]

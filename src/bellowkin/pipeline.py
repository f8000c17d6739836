"""Ramp simulation, the detect and estimate stages, and the sweep.

Streams are quasi-static: pressure steps play the role of time, one sample
per step.  Simulated contact freezes the proximal shape at onset and keeps
the distal portion bending, so a sensed stream diverges from the free-model
prediction and the centrode machinery can detect and localize the pin.
detect and estimate are the CLI stages of those names, policy included.
The sweep reads every location off one contact.RampPins: the ramp's
pressure factor and onset check are built once per sweep, and each
location builds only its pin's and distal arc's factors.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import estimation, modal
from .centrode import (DEFAULT_WINDOW, CentrodeTrace, DetectionResult,
                       PoseStream, centrode_from_stream, default_threshold,
                       fcd_detect, instant_centers)
from .contact import RampPins, contact_kinematics, freeze
from .kinematics import RampKinematics, ramp_kinematics, wrap_angles

# the ramp kernel holds three (field rows x samples) float arrays at a
# time, 26 rows of 8 bytes per sample each: about 62 MB at the cap
MAX_RAMP_SAMPLES = 100_000

# sensed samples at an estimate window's start left out of the fit: the tip
# jumps at onset, so samples differenced across it are wrong.  Three is the
# stencil's half-width (1) plus detection's largest early lag (2 samples)
ONSET_GUARD = 3


def _number(text: str, what: str) -> float:
    """float(text); text that is not a number raises ValueError naming
    what it was given for."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None


@dataclass(frozen=True)
class PressureRamp:
    """Uniform pressure schedule q_start..q_end inclusive, fixed step, of at
    most MAX_RAMP_SAMPLES samples."""

    q_start: float
    q_end: float
    step: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.q_start, self.q_end, self.step])):
            raise ValueError("ramp start, end and step must be finite")
        if self.q_end < self.q_start:
            raise ValueError("ramp must be non-decreasing")
        if self.q_end == self.q_start:
            return
        if self.step <= 0:
            raise ValueError("step must be positive")
        steps = (self.q_end - self.q_start) / self.step
        # compared as a float first: round() of an overflowed count raises
        if not steps < MAX_RAMP_SAMPLES or round(steps) >= MAX_RAMP_SAMPLES:
            raise ValueError(f"ramp of {steps + 1:.3g} samples exceeds the "
                             f"{MAX_RAMP_SAMPLES} sample cap")

    @property
    def values(self) -> np.ndarray:
        if self.q_end == self.q_start:
            return np.array([self.q_start])
        n = int(round((self.q_end - self.q_start) / self.step)) + 1
        return self.q_start + self.step * np.arange(n)

    @classmethod
    def parse(cls, text: str) -> "PressureRamp":
        """Parse 'start:end:step' (e.g. '5:20:0.05')."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"ramp spec must be start:end:step, got {text!r}")
        return cls(*(_number(p, f"ramp spec {name}")
                     for p, name in zip(parts, ("start", "end", "step"))))


def _pressures(ramp):
    """Pressure samples of a PressureRamp or a 1-D pressure array, and the
    pressure rate per sample step (the first step of an array)."""
    if isinstance(ramp, PressureRamp):
        return ramp.values, (ramp.step if ramp.q_end > ramp.q_start else 1.0)
    q = np.asarray(ramp, dtype=float)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("pressures must be a non-empty 1-D sequence")
    return q, (float(q[1] - q[0]) if q.size > 1 else 1.0)


def simulate_free(model: modal.ModalModel, ramp,
                  kinematics: RampKinematics = None) -> PoseStream:
    """Tip-pose stream of an unobstructed pressurization.

    ramp is a PressureRamp or an array of pressures, one sample each;
    kinematics is its ramp_kinematics when already at hand (poses do not
    depend on the pressure rate), so one kernel pass can serve both this
    and model_centrode.
    """
    q, _ = _pressures(ramp)
    k = kinematics
    if k is None:
        k = ramp_kinematics(model, q)
    return PoseStream(t=np.arange(q.size), q=q, x=k.x, z=k.z, theta=k.theta)


def simulate_contact(model: modal.ModalModel, ramp,
                     s_c: float, q_c: float):
    """Tip-pose stream with a pin at s_c from pressure q_c onward.

    Samples below q_c follow the free model; from onset on, the contacted
    model.  Returns (stream, contact_state).
    """
    contact = freeze(model, float(q_c), float(s_c))
    q, _ = _pressures(ramp)
    free = q < q_c
    cols = np.empty((len(RampKinematics._fields), q.size))
    cols[:, free] = ramp_kinematics(model, q[free])
    cols[:, ~free] = contact_kinematics(model, contact, q[~free])
    x, z, theta = cols[:3]
    return PoseStream(t=np.arange(q.size), q=q, x=x, z=z, theta=theta), contact


def add_noise(stream: PoseStream, sigma_pos: float, sigma_ang: float,
              seed: int = 0) -> PoseStream:
    """Additive Gaussian pose noise for robustness experiments.

    Each sigma must be finite and non-negative.  The draws come in
    per-sample order (dx, dz, then dtheta), each set left out when its
    sigma is zero: the same numbers, bit for bit, as per-sample
    normal(0, sigma) calls on the same generator.
    """
    for what, sigma in (("position", sigma_pos), ("angle", sigma_ang)):
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"{what} noise sigma must be finite and "
                             f"non-negative, got {sigma}")
    rng = np.random.default_rng(seed)
    pos, ang = sigma_pos > 0, sigma_ang > 0
    e = rng.standard_normal((stream.t.size, 2 * pos + ang))
    d = np.zeros((stream.t.size, 3))
    # normal(loc, scale) draws loc + scale * standard_normal()
    if pos:
        d[:, :2] = 0.0 + sigma_pos * e[:, :2]
    if ang:
        d[:, 2] = 0.0 + sigma_ang * e[:, -1]
    return stream._replace(x=stream.x + d[:, 0], z=stream.z + d[:, 1],
                           theta=wrap_angles(stream.theta + d[:, 2]))


def model_centrode(model: modal.ModalModel, ramp,
                   kinematics: RampKinematics = None) -> CentrodeTrace:
    """Free-motion centrode trace from analytic twists along the ramp (a
    PressureRamp or an array of pressures); kinematics is its
    ramp_kinematics, twists at the ramp's pressure rate per sample step,
    when already at hand."""
    k = kinematics
    if k is None:
        k = ramp_kinematics(model, *_pressures(ramp))
    return instant_centers(k.x, k.z, k.vx, k.vz, k.omega)


class Detection(NamedTuple):
    """detect's two traces, its xi, its result and the onset's row (or None)."""

    sensed: CentrodeTrace
    modeled: CentrodeTrace
    xi: float
    result: DetectionResult
    onset_row: int | None


def detect(model: modal.ModalModel, stream: PoseStream, xi: float = None,
           window: int = DEFAULT_WINDOW) -> Detection:
    """Fixed-centrode deviation from the free model at the stream's own
    pressures; xi by default a free run's noise floor (default_threshold)."""
    if stream.t.size < 3:
        raise ValueError("stream too short to difference (need >= 3)")
    sensed = centrode_from_stream(stream)
    # one kernel pass at the stream's own pressures gives the model
    # centrode (which does not depend on the pressure rate, so a
    # non-uniform schedule is exact) and the free reference poses
    kin = ramp_kinematics(model, *_pressures(stream.q))
    modeled = model_centrode(model, stream.q, kinematics=kin)
    if xi is None:
        # noise floor of differencing vs analytic centrode on a free run
        # sampled at the stream's t
        free = simulate_free(model, stream.q, kinematics=kin)
        xi = default_threshold(
            centrode_from_stream(free._replace(t=stream.t)), modeled)
    result = fcd_detect(sensed, modeled, xi=xi, window=window, t=stream.t)
    # t is strictly increasing, or centrode_from_stream would have raised
    row = int(np.searchsorted(stream.t, result.onset_t)) if result.detected else None
    return Detection(sensed, modeled, xi, result, row)


def estimate(model: modal.ModalModel, stream: PoseStream, s0: float,
             onset_row: int = 0, bounds: tuple = None,
             speed_weights: bool = False,
             max_iter: int = estimation.LM_MAX_ITER):
    """estimate_contact's (s_c_est, report) on the rows from onset_row on,
    pinned at that row's pressure, the first ONSET_GUARD sensed samples
    out of the fit and the end-tip error at the last pose."""
    sub = stream.rows(slice(onset_row, None))
    if sub.t.size < ONSET_GUARD + 1:
        raise ValueError(f"post-onset stream too short (need >= {ONSET_GUARD + 1})")
    sensed = centrode_from_stream(sub)
    # out of the fit; the pin still starts at the window's first pressure
    sensed.valid[:ONSET_GUARD] = False
    sensed.cx[:ONSET_GUARD] = sensed.cz[:ONSET_GUARD] = np.nan
    W = estimation.speed_weights(sensed) if speed_weights else None
    problem = estimation.EstimationProblem(
        model=model, q_traj=sub.q, sensed=sensed, s0=s0, W=W,
        bounds=bounds, sensed_end_pose=(float(sub.x[-1]), float(sub.z[-1])))
    # raises when no sample is valid on both the sensed and model side
    return estimation.estimate_contact(problem, max_iter=max_iter)


def sweep(model: modal.ModalModel, ramp: PressureRamp, s_values) -> list:
    """ISA-difference index per contact location, in the given order: the
    max distance between the contacted and the free centrode over the ramp.

    The free centrode and the ramp's pins (contact.RampPins) are built
    once and shared by every location; each location's centrode is the
    one estimation.predicted_centrode gives, bit for bit.  s_c = 0 pins
    the clamped base itself: the backbone is unchanged and the two
    centrodes coincide, so the index is exactly zero.
    """
    q, _ = _pressures(ramp)
    free = model_centrode(model, ramp)
    pins = RampPins(model, estimation._ramp_values(q))
    rows = []
    for s_c in map(float, s_values):
        index = 0.0
        if s_c != 0.0:
            pinned = pins.centrode(s_c)
            both = free.valid & pinned.valid
            dist = np.hypot(pinned.cx - free.cx, pinned.cz - free.cz)
            index = float(np.max(dist[both], initial=0.0))
        rows.append((s_c, index))
    return rows


def isa_sweep_index(model: modal.ModalModel, ramp: PressureRamp,
                    s_c: float) -> float:
    """The ISA-difference index at one contact location: a one-location
    sweep."""
    return sweep(model, ramp, [s_c])[0][1]

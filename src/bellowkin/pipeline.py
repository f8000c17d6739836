"""Ramp simulation and the contact-location sweep.

Streams are quasi-static: pressure steps play the role of time, one sample
per step.  Simulated contact freezes the proximal shape at onset and keeps
the distal portion bending, so a sensed stream diverges from the free-model
prediction and the centrode machinery can detect and localize the pin.
The sweep reads every location off one contact.RampPins: the ramp's
pressure factor and onset check are built once per sweep, and each
location builds only its pin's and distal arc's factors.
"""

from dataclasses import dataclass

import numpy as np

from . import modal
from .centrode import CentrodeTrace, PoseStream, instant_centers
from .contact import RampPins, contact_kinematics, freeze
from .estimation import _ramp_values
from .kinematics import RampKinematics, ramp_kinematics, wrap_angles

# the ramp kernel holds three (field rows x samples) float arrays at a
# time, 26 rows of 8 bytes per sample each: about 62 MB at the cap
MAX_RAMP_SAMPLES = 100_000


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
        return cls(q_start=float(parts[0]), q_end=float(parts[1]),
                   step=float(parts[2]))


def _pressures(ramp):
    """Pressure samples of a PressureRamp or a 1-D pressure array, and the
    pressure rate per sample step (the first step of an array)."""
    if isinstance(ramp, PressureRamp):
        return ramp.values, (ramp.step if ramp.q_end > ramp.q_start else 1.0)
    q = np.asarray(ramp, dtype=float)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("pressures must be a non-empty 1-D sequence")
    return q, (float(q[1] - q[0]) if q.size > 1 else 1.0)


def free_kinematics(model: modal.ModalModel, ramp) -> RampKinematics:
    """Free tip poses and twists along the ramp (a PressureRamp or an array
    of pressures), twists at the ramp's pressure rate per sample step."""
    q, qdot = _pressures(ramp)
    return ramp_kinematics(model, q, qdot=qdot)


def simulate_free(model: modal.ModalModel, ramp,
                  kinematics: RampKinematics = None) -> PoseStream:
    """Tip-pose stream of an unobstructed pressurization.

    ramp is a PressureRamp or an array of pressures, one sample each;
    kinematics is its free_kinematics when already at hand (poses do not
    depend on the pressure rate), so one kernel pass can serve both this
    and model_centrode.
    """
    q, _ = _pressures(ramp)
    k = kinematics
    if k is None:
        k = free_kinematics(model, q)
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
    free_kinematics when already at hand."""
    k = kinematics
    if k is None:
        k = free_kinematics(model, ramp)
    return instant_centers(k.x, k.z, k.vx, k.vz, k.omega)


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
    pins = RampPins(model, _ramp_values(q))
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

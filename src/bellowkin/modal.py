"""Polynomial modal bases and the calibrated tangent-angle field.

The backbone tangent angle is modeled as theta(s, q) = psi(s)^T A eta(q),
with monomial bases psi = (1, s, ..., s^(v-1)) in arc length and
eta = (1, q, ..., q^(w-1)) in pressure.  Coefficients are stored against the
normalized arc coordinate s/L, which keeps the arc-length Vandermonde well
conditioned when L is hundreds of length units; evaluation accepts
unnormalized arc length.  Every read goes through one evaluator, _field,
the product of two prebuilt factors: an arc factor, the arc rows times A,
which does not depend on pressure (arc_factor), and a pressure factor,
the columns eta(q) and deta/dq(q) from one power table, which does not
depend on the arc (pressure_factor).  A caller that reads one arc at many
pressures, one at a time, builds the arc factor once; one that reads
many arcs at one ramp of pressures builds the pressure factor once.  A
caller that holds only q builds the factor in one line.  The
one-pressure reads take a single column.
"""

import json
from dataclasses import dataclass

import numpy as np

# mm per length unit when lengths are camera pixels
DEFAULT_UNIT_SCALE = 0.2959

_S_TOL = 1e-9  # relative slack on the [0, L] arc-length precondition


def _psi_rows(s_hat: np.ndarray, v: int) -> np.ndarray:
    """Vandermonde rows of psi at normalized arc samples; shape (n, v)."""
    s_hat = np.atleast_1d(np.asarray(s_hat, dtype=float))
    return np.power(s_hat[:, None], np.arange(v)[None, :])


def _dpsi_rows(s_hat: np.ndarray, v: int) -> np.ndarray:
    """Rows of d psi / d s_hat; shape (n, v)."""
    s_hat = np.atleast_1d(np.asarray(s_hat, dtype=float))
    out = np.zeros((s_hat.size, v))
    if v > 1:
        k = np.arange(1, v)
        out[:, 1:] = k[None, :] * np.power(s_hat[:, None], (k - 1)[None, :])
    return out


@dataclass
class ModalModel:
    """Calibrated map from (arc length, pressure) to tangent angle.

    A is v-by-w in radians per basis product, stored against s/L.  q_range,
    when present, records the calibrated pressure interval; evaluation outside
    it is extrapolation and is flagged by in_calibrated_range().
    """

    A: np.ndarray
    L: float
    unit_scale: float = DEFAULT_UNIT_SCALE
    q_range: tuple | None = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a v-by-w matrix")
        if self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise ValueError("basis orders v, w must be >= 1")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"arc length L must be positive and finite, "
                             f"got {self.L}")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("coefficients A must be finite")
        if not (np.isfinite(self.unit_scale) and self.unit_scale > 0):
            raise ValueError(f"unit_scale must be positive and finite, "
                             f"got {self.unit_scale}")

    @property
    def v(self) -> int:
        return self.A.shape[0]

    @property
    def w(self) -> int:
        return self.A.shape[1]

    @classmethod
    def from_raw(cls, A_raw, L, unit_scale=DEFAULT_UNIT_SCALE, q_range=None):
        """Build from coefficients expressed against unnormalized arc powers."""
        A_raw = np.asarray(A_raw, dtype=float)
        scale = np.power(float(L), np.arange(A_raw.shape[0]))
        return cls(A=A_raw * scale[:, None], L=float(L),
                   unit_scale=unit_scale, q_range=q_range)

    def _check_s(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        tol = _S_TOL * self.L
        if np.any(s < -tol) or np.any(s > self.L + tol):
            raise ValueError(f"arc length outside [0, {self.L}]")
        return np.clip(s, 0.0, self.L)

    def to_json(self) -> str:
        doc = {
            "v": self.v,
            "w": self.w,
            "L": self.L,
            "unit_scale": self.unit_scale,
            "A": [float(a) for a in self.A.ravel()],  # row-major
            "normalized": True,
        }
        if self.q_range is not None:
            doc["q_range"] = [float(self.q_range[0]), float(self.q_range[1])]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModalModel":
        """The model of to_json's text (or of raw coefficients, with
        "normalized": false).  A document that is not an object, or a
        field that is missing or of the wrong kind, raises ValueError
        naming the field."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("model must be a JSON object")
        v, w = (_doc_field(doc, k, _positive_int, "a positive integer")
                for k in ("v", "w"))
        A = _doc_field(doc, "A", lambda a: np.asarray(a, dtype=float)
                       .reshape(v, w), f"{v * w} numbers")
        L, unit_scale = (_doc_field(doc, k, float, "a number")
                         for k in ("L", "unit_scale"))
        q_range = None
        if doc.get("q_range") is not None:
            q_range = _doc_field(doc, "q_range", _number_pair, "two numbers")
        if not doc.get("normalized", True):
            return cls.from_raw(A, L, unit_scale=unit_scale, q_range=q_range)
        return cls(A=A, L=L, unit_scale=unit_scale, q_range=q_range)


def _positive_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise TypeError
    return x


def _number_pair(x) -> tuple:
    if (not isinstance(x, list) or len(x) != 2
            or any(isinstance(y, bool) or not isinstance(y, (int, float))
                   for y in x)):
        raise TypeError
    return tuple(map(float, x))


def _doc_field(doc: dict, key: str, convert, what: str):
    """convert(doc[key]); a missing key or a value convert refuses raises
    ValueError naming the field."""
    try:
        return convert(doc[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"model field {key!r} must be {what}") from None


def _eta_cols(q: np.ndarray, w: int) -> np.ndarray:
    """Columns of eta at pressure samples; shape (w, len(q))."""
    return np.power(q[None, :], np.arange(w)[:, None])


def _pressure_cols(q: np.ndarray, w: int) -> tuple:
    """Columns of eta and of deta/dq at pressure samples, both from one
    power table: the derivative's row k is k times eta's row k - 1.  Two
    arrays of shape (w, len(q))."""
    eta = _eta_cols(q, w)
    deta = np.zeros((w, q.size))
    deta[1:] = np.arange(1, w)[:, None] * eta[:-1]
    return eta, deta


def pressure_factor(model: ModalModel, q, deriv: bool = True) -> tuple:
    """The arc-free factor of the field at the pressures q: the columns
    eta(q) and, with deriv, deta/dq(q), each of shape (w, len(q)), from
    one power table.  _field(B, pressure_factor(model, q)) reads theta and
    dtheta/dq on the arc factor B's rows at those pressures."""
    q = np.asarray(q, dtype=float)
    return _pressure_cols(q, model.w) if deriv else (_eta_cols(q, model.w),)


def _field(B: np.ndarray, P: tuple) -> tuple:
    """The field's one evaluator: an arc factor B (n, w), arc rows times
    the coefficients A, times a pressure factor P (pressure_factor).
    Returns theta and, when P carries deta/dq, dtheta/dq, each of shape
    (n, len(q)); B's rows are not range-checked here."""
    return tuple(B @ c for c in P)


def _checked_factor(model: ModalModel, s) -> np.ndarray:
    """The arc factor at the arc samples s, each range-checked against
    [0, L]."""
    return _psi_rows(model._check_s(np.atleast_1d(s)) / model.L,
                     model.v) @ model.A


def arc_coefficients(model: ModalModel, ell: float) -> np.ndarray:
    """The coefficients of the field on the arc [0, ell] against
    reference rows on [0, 1]: diag((ell / L)^k) A, shape (v, w).  Only
    ell is range-checked."""
    # _check_s's bounds on the one float, without its array round trip
    ell, L = float(ell), model.L
    if not -_S_TOL * L <= ell <= L + _S_TOL * L:
        raise ValueError(f"arc length outside [0, {L}]")
    ell = min(max(ell, 0.0), L)
    return np.power(ell / L, np.arange(model.v))[:, None] * model.A


def arc_factor(model: ModalModel, ell: float, xi) -> np.ndarray:
    """The pressure-free factor of the field on the arc samples ell * xi,
    for reference rows xi on [0, 1]: psi(xi)^T diag((ell / L)^k) A, shape
    (len(xi), w).  _field(arc_factor(...), pressure_factor(model, q))
    reads theta and dtheta/dq on that arc at the pressures q.

    psi(ell xi / L) is the Vandermonde of xi times the diagonal
    (ell / L)^k, which is folded into A (arc_coefficients), so of the arc
    only ell is range-checked.  A caller that reads many arcs on the same
    rows keeps _psi_rows(xi, v) and multiplies it by each arc's
    coefficients.
    """
    return _psi_rows(xi, model.v) @ arc_coefficients(model, ell)


def theta_grid(model: ModalModel, s, q) -> np.ndarray:
    """Tangent angles on the outer grid of arc samples x pressure samples;
    shape (len(s), len(q))."""
    return _field(_checked_factor(model, s),
                  pressure_factor(model, q, deriv=False))[0]


def _column(grid: np.ndarray, s):
    """The one pressure column of a grid, a float when s is a scalar."""
    col = grid[:, 0]
    return float(col[0]) if np.ndim(s) == 0 else col


def theta(model: ModalModel, s, q):
    """Tangent angle psi(s)^T A eta(q), radians, at one pressure.  s may be
    an array."""
    return _column(_field(_checked_factor(model, s),
                          pressure_factor(model, [q], deriv=False))[0], s)


def dtheta_dq(model: ModalModel, s, q):
    """Pressure sensitivity psi(s)^T A deta_dq(q) at one pressure."""
    return _column(_field(_checked_factor(model, s),
                          pressure_factor(model, [q]))[1], s)


def in_calibrated_range(model: ModalModel, q) -> bool:
    """False when q falls outside the pressure interval seen at calibration."""
    if model.q_range is None:
        return True
    lo, hi = model.q_range
    return bool(np.all(np.asarray(q) >= lo) and np.all(np.asarray(q) <= hi))

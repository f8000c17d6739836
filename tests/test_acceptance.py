"""End-to-end acceptance checks, one test per criterion.

Each test pins the headline quantitative claims of the pipeline at fixed
tolerances and asserts its own runtime budget; together they are the
release gate for the package.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from bellowkin.calibration import fit_modal
from bellowkin.centrode import (
    PoseStream,
    centrode_from_stream,
    instant_centers,
)
from bellowkin.cli import main as cli_main
from bellowkin.estimation import EstimationProblem, estimate_contact
from bellowkin.kinematics import (
    PlanarPose,
    jacobian,
    resolved_rates,
    tip_pose,
    wrap_angle,
    wrap_angles,
)
from bellowkin.modal import ModalModel
from bellowkin.pipeline import PressureRamp, simulate_contact, sweep
from tests.calibration_reference import dataset_from_model
from tests.conftest import DATA_CSV, make_random_model
from tests.estimation_reference import grid_oracle
from tests.kinematics_reference import cc_pose

RAMP = PressureRamp(5.0, 20.0, 0.05)


class Budget:
    """Asserts the enclosed block finished inside its runtime budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.2f}s exceeds {self.seconds}s budget"
        return False


def test_criterion_1_constant_curvature_oracle():
    with Budget(1.0):
        L, q = 500.0, 10.0
        for kL in np.arange(0.0, math.pi + 1e-12, 0.1):
            A_raw = np.zeros((2, 2))
            A_raw[1, 1] = kL / (L * q)
            m = ModalModel.from_raw(A_raw, L=L)
            tip = tip_pose(m, q)
            ref = cc_pose(kL / L, L)  # closed form, straight along +z
            err = math.hypot(tip.x - ref.z, tip.z - ref.x)
            scale = math.hypot(ref.x, ref.z)
            assert err / scale <= 1e-9
            assert abs(wrap_angle(tip.theta - ref.theta)) <= 1e-9
        # singularity guard: straight-line limit
        straight = cc_pose(0.0, 100.0)
        guarded = cc_pose(1e-14, 100.0)
        assert math.hypot(guarded.x - straight.x, guarded.z - straight.z) <= 1e-9


def test_criterion_2_jacobian_vs_finite_differences():
    with Budget(10.0):
        rng = np.random.default_rng(2024)
        h = 1e-4
        for _ in range(100):
            m = make_random_model(rng)
            q = float(rng.uniform(0.5, 20.5))
            J = jacobian(m, q)[:2]
            up = tip_pose(m, q + h)
            dn = tip_pose(m, q - h)
            fd = (up.position - dn.position) / (2 * h)
            rel = np.max(np.abs(J - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel <= 1e-6


def test_criterion_3_resolved_rates_accuracy(reference_model):
    with Budget(1.0):
        target = tip_pose(reference_model, 15.0).position
        res = resolved_rates(reference_model, target, q0=5.0, tol=1e-4)
        assert res.converged
        assert res.err <= 0.0978                       # pixels
        assert res.err * reference_model.unit_scale <= 0.0326  # mm
        assert abs(res.q - 15.0) <= 0.016              # Psi


def test_criterion_4_calibration_residual_and_recovery(reference_dataset):
    with Budget(1.0):
        model, report = fit_modal(reference_dataset, v=3, w=3)
        worst = max(r["max_point_err_mm"] for r in report.per_pressure)
        assert worst < 2.1
        by_err = max(report.per_pressure, key=lambda r: r["max_point_err_mm"])
        assert by_err["q"] == 21.0

        rng = np.random.default_rng(7)
        truth = make_random_model(rng, v=3, w=3, L=500.0)
        ds = dataset_from_model(truth, np.linspace(0.0, 500.0, 10),
                                [0.0, 6.0, 10.0, 15.0, 21.0])
        recovered, _ = fit_modal(ds, v=3, w=3)
        assert np.max(np.abs(recovered.A - truth.A)) <= 1e-8


def test_criterion_5_centrode_identities():
    with Budget(1.0):
        # analytic twists of a rigid rotation about (a, b)
        a, b, om = 12.0, -7.0, 0.25
        for r, phi in [(5.0, 0.3), (40.0, 2.1), (0.5, 4.0)]:
            P = PlanarPose(x=a + r * math.cos(phi), z=b + r * math.sin(phi),
                           theta=0.0)
            c = instant_centers(P.x, P.z, -om * r * math.sin(phi),
                                om * r * math.cos(phi), om)
            assert c.valid
            assert math.hypot(c.cx - a, c.cz - b) <= 1e-9

        # stream differencing at 0.01 rad steps
        k = np.arange(100)
        for r in [1.0, 2.0]:
            samples = PoseStream(t=k, q=k.astype(float),
                                 x=a + r * np.cos(0.01 * k),
                                 z=b + r * np.sin(0.01 * k),
                                 theta=wrap_angles(0.01 * k))
            pts = centrode_from_stream(samples)
            assert pts.valid.all()
            assert np.max(np.hypot(pts.cx - a, pts.cz - b)) <= 1e-4

        # pure translation: invalid flags only
        k = np.arange(50)
        trans = PoseStream(t=k, q=k.astype(float), x=0.5 * k, z=-0.25 * k,
                           theta=np.full(k.size, 0.4))
        assert not centrode_from_stream(trans).valid.any()


def test_criterion_6_isa_sweep_monotone(reference_model):
    with Budget(30.0):
        s_values = [0.0] + list(np.arange(50.0, 400.0 + 1, 50.0))
        rows = sweep(reference_model, RAMP, s_values)
        vals = [v for _, v in rows]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals[1:], vals[2:]))
        assert vals[1] > 0.0


def test_criterion_7_contact_localization(reference_model):
    with Budget(60.0):
        samples, _ = simulate_contact(reference_model, RAMP, s_c=100.0, q_c=5.0)
        sensed = centrode_from_stream(samples)
        end = (samples.x[-1], samples.z[-1])

        for s0, tip_tol in [(200.0, 0.1), (20.0, 0.89)]:
            problem = EstimationProblem(model=reference_model,
                                        q_traj=RAMP.values, sensed=sensed,
                                        s0=s0, sensed_end_pose=end)
            s_est, report = estimate_contact(problem)
            assert report["converged"]
            assert report["end_tip_error_LU"] <= tip_tol

        grid = np.arange(90.0, 110.0 + 0.5, 1.0)
        oracle = grid_oracle(reference_model, sensed, RAMP.values, grid)
        assert abs(s_est - oracle) <= 1.0


def _run_pipeline(root: str, model_path: str = None) -> list:
    """CLI pipeline over the reference scenario; returns the written files."""
    cal = os.path.join(root, "cal")
    sim = os.path.join(root, "sim")
    det = os.path.join(root, "det")
    est = os.path.join(root, "est")
    swp = os.path.join(root, "sweep")
    assert cli_main(["calibrate", "--input", DATA_CSV, "--out-dir", cal]) == 0
    model = os.path.join(cal, "model.json")
    assert cli_main(["simulate", "--model", model, "--ramp", "5:20:0.05",
                     "--contact", "100@5", "--out-dir", sim]) == 0
    stream = os.path.join(sim, "pose_stream.csv")
    assert cli_main(["detect", "--model", model, "--stream", stream,
                     "--out-dir", det]) == 0
    assert cli_main(["estimate", "--model", model, "--stream", stream,
                     "--detection", os.path.join(det, "detection.json"),
                     "--s0", "200", "--out-dir", est]) == 0
    assert cli_main(["sweep", "--model", model, "--ramp", "5:20:0.05",
                     "--s-values", "0,50,100,150,200,250,300,350,400",
                     "--out-dir", swp]) == 0
    found = []
    for sub in [cal, sim, det, est, swp]:
        for name in sorted(os.listdir(sub)):
            found.append(os.path.join(sub, name))
    return found


def test_criterion_8_determinism(tmp_path):
    run_a = _run_pipeline(str(tmp_path / "a"))
    run_b = _run_pipeline(str(tmp_path / "b"))
    assert [os.path.relpath(p, tmp_path / "a") for p in run_a] == \
           [os.path.relpath(p, tmp_path / "b") for p in run_b]
    for pa, pb in zip(run_a, run_b):
        assert filecmp.cmp(pa, pb, shallow=False), \
            f"{os.path.basename(pa)} differs between identical runs"

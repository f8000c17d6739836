"""Run the full simulation study and print the headline numbers.

Stages: calibration residuals per pressure, resolved-rate inverse
kinematics accuracy, contact detection on the pinned ramp, contact-location
estimates from both initial guesses, and the ISA-difference sweep.
Detection and estimation run the CLI's own stages, pipeline.detect and
pipeline.estimate, so their numbers are the detect and estimate commands'.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from bellowkin import pipeline as pl
from bellowkin.calibration import fit_modal, load_calibration_csv
from bellowkin.kinematics import resolved_rates, tip_pose


def main():
    root = os.path.join(os.path.dirname(__file__), "..")
    csv = os.path.join(root, "data", "bellow_calibration.csv")

    print("== calibration ==")
    dataset = load_calibration_csv(csv)
    model, report = fit_modal(dataset, v=3, w=3)
    for row in report.per_pressure:
        print(f"  q={row['q']:>5.1f} Psi: max point err {row['max_point_err_mm']:.3f} mm, "
              f"tip err {row['max_tip_err_mm']:.3f} mm")
    print(f"  worst point err {report.max_point_err_mm:.3f} mm "
          f"(target < 2.1 mm), conditioning {report.conditioning:.3g}")

    print("== resolved rates ==")
    q_star, q0 = 17.3, 8.0
    target = tip_pose(model, q_star)
    res = resolved_rates(model, (target.x, target.z), q0=q0)
    print(f"  target at q*={q_star} from q0={q0}: "
          f"task err {res.err * model.unit_scale:.4g} mm "
          f"({res.err:.4g} LU), joint err {abs(res.q - q_star):.4g} Psi, "
          f"{res.iterations} iterations")

    print("== contact detection (s_c = 100 at 5 Psi, ramp to 20) ==")
    ramp = pl.PressureRamp(5.0, 20.0, 0.05)
    stream, _ = pl.simulate_contact(model, ramp, s_c=100.0, q_c=5.0)
    _, _, xi, det, onset_row = pl.detect(model, stream)
    print(f"  xi = {xi:.4g} LU; detected={det.detected} at t={det.onset_t} "
          f"(q={stream.q[onset_row]} Psi), max deviation {det.max_deviation:.4g} LU")

    print("== contact location estimation ==")
    for s0 in (200.0, 20.0):
        t0 = time.time()
        s_c_est, rep = pl.estimate(model, stream, s0, onset_row=onset_row)
        print(f"  s0={s0:>5.0f}: s_c = {s_c_est:.3f} LU in {rep['iterations']} iters, "
              f"end-tip error {rep['end_tip_error_LU']:.4g} LU "
              f"({time.time() - t0:.2f} s)")

    print("== ISA-difference sweep ==")
    rows = pl.sweep(model, ramp, [0.0] + list(np.arange(50.0, 401.0, 50.0)))
    for s_c, val in rows:
        print(f"  s_c={s_c:>5.0f}: {val:.4g} LU")
    inc = all(a[1] < b[1] for a, b in zip(rows, rows[1:]))
    print(f"  strictly increasing: {inc}")


if __name__ == "__main__":
    main()

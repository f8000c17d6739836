"""Regenerate the checked-in calibration dataset.

Writes data/bellow_calibration.csv: ten backbone markers per pressure at
{0, 6, 10, 15, 21} Psi from the reference ground-truth field.  The output
is deterministic: reruns write the same bytes.  They are not the bytes of
the shipped file, whose markers an earlier integrator wrote; the two differ
by round-off (at most 1.2e-13 px), which moves the calibrated model.json in
its last digits, so the shipped file is kept as it is.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bellowkin.synthetic import make_reference_dataset, write_calibration_csv


def main():
    root = os.path.join(os.path.dirname(__file__), "..")
    out = os.path.join(root, "data", "bellow_calibration.csv")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    dataset = make_reference_dataset()
    write_calibration_csv(dataset, out)
    print(f"wrote {out}: {len(dataset.pressures)} pressures x "
          f"{len(dataset.points[0])} markers")


if __name__ == "__main__":
    main()

import json
import os
import re
import subprocess
import sys

import pytest

from bellowkin.cli import main
from tests.conftest import DATA_CSV

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def script_out():
    # the study script inserts the checkout's src itself
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "reproduce_results.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_results_runs(script_out):
    assert "detected=True" in script_out
    assert "strictly increasing: True" in script_out


def test_script_agrees_with_the_readme_pass(script_out, tmp_path, capsys):
    # the script's detection and s0 = 200 estimate are the README pass's,
    # at the precision the script prints
    cal, sim, det, est = (str(tmp_path / d) for d in ("cal", "sim", "det", "est"))
    model, stream = os.path.join(cal, "model.json"), os.path.join(sim, "pose_stream.csv")
    assert main(["calibrate", "--input", DATA_CSV, "--out-dir", cal]) == 0
    assert main(["simulate", "--model", model, "--ramp", "5:20:0.05",
                 "--contact", "100@5", "--out-dir", sim]) == 0
    capsys.readouterr()
    assert main(["detect", "--model", model, "--stream", stream,
                 "--out-dir", det]) == 0
    xi = float(re.search(r"xi=(\S+)", capsys.readouterr().out).group(1))
    assert main(["estimate", "--model", model, "--stream", stream,
                 "--detection", os.path.join(det, "detection.json"),
                 "--s0", "200", "--out-dir", est]) == 0
    onset_t = json.load(open(os.path.join(det, "detection.json")))["onset_t"]
    s_c = json.load(open(os.path.join(est, "estimation.json")))["s_c_est"]
    assert f"xi = {xi:.4g} LU; detected=True at t={onset_t} " in script_out
    assert f"s0=  200: s_c = {s_c:.3f} LU" in script_out

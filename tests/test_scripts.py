import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_reproduce_results_runs():
    # the study script inserts the checkout's src itself
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "reproduce_results.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "detected=True" in proc.stdout
    assert "strictly increasing: True" in proc.stdout

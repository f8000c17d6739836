"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench/tests
Short runs take a few seconds each; localize_stream always issues 60
operations, so its run takes about 20 seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bellowkin  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_end_to_end_metric(workload):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "ik_calibrate", "--seed", "3", "--seconds", "2",
                 "--trace", "1")
    res = last_json(proc)
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    missing = [k for k, m in res["metrics"].items() if m["value"] is None]
    assert missing == [], proc.stderr


def test_sabotaged_output_counts_as_failed(tmp_path):
    class Sabotaged(workloads.LocalizeStream):
        def op(self, i):
            parts = super().op(i)
            path = self.work / "loc" / "est" / "estimation.json"
            doc = json.loads(path.read_text())
            doc["s_c_est"] += 25.0
            path.write_text(json.dumps(doc))
            return parts

    honest = workloads.LocalizeStream(5, tmp_path / "honest")
    honest.prepare()
    tally = run.Tally()
    ops = run.closed_loop(honest, 0.0, tally, min_ops=2)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert ops["indices"] == [0, 1]

    wl = Sabotaged(5, tmp_path / "sabotaged")
    wl.prepare()
    tally = run.Tally()
    ops = run.closed_loop(wl, 0.0, tally, min_ops=2)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert ops["indices"] == [] and ops["durations"] == []
    assert "s_c_est" in tally.reasons[0]


def test_absent_probe_is_reported_missing(tmp_path, monkeypatch):
    monkeypatch.delattr(bellowkin.modal, "theta_grid")
    wl = workloads.IkCalibrate(3, tmp_path / "ik")
    wl.prepare()
    tally = run.Tally()
    metrics, doc = tracing.traced_run(wl, 0.5, tally, run.closed_loop)
    assert tally.failed == 0
    assert metrics["modal.theta_grid_us"] == {"value": None, "unit": "us",
                                              "missing": True}
    # layers that do not need the absent function are still measured
    for name in ("modal.theta_us", "kinematics.tip_pose_us",
                 "calibration.fit_modal_ms", "kinematics.resolved_rates_ms"):
        assert metrics[name]["value"] > 0, name
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_instrumented_spans_cli_calls_and_restores_the_program(tmp_path):
    from bellowkin import cli, pipeline
    original = pipeline.model_centrode
    t = tracing.Tracer()
    model = workloads.SweepMap.MODEL
    with t.instrumented():
        assert pipeline.model_centrode is not original
        rc = workloads.run_cli(["sweep", "--model", model, "--ramp", "5:20:0.5",
                                "--s-values", "0,100", "--out-dir", tmp_path])
    assert rc == 0
    assert pipeline.model_centrode is original
    assert cli.pl.sweep is bellowkin.sweep is pipeline.sweep
    assert workloads.run_cli.__name__ == "run_cli"
    spans = {s["name"]: s for s in t.spans}
    assert spans["pipeline.sweep"]["locations"] == 2
    assert spans["pipeline.sweep"]["parent"] == spans["cli.sweep"]["id"]
    assert spans["pipeline.model_centrode"]["end"] is not None


def test_refuses_to_run_without_the_program(tmp_path):
    lone = tmp_path / "lone"
    (lone / "perfbench").mkdir(parents=True)
    for f in BENCH_DIR.glob("*.py"):
        (lone / "perfbench" / f.name).write_text(f.read_text())
    (lone / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep_map", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=lone, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bellowkin import centrode as ct
from bellowkin import pipeline as pl
from bellowkin.cli import main
from bellowkin.pipeline import ONSET_GUARD
from bellowkin.modal import ModalModel
from tests.conftest import DATA_CSV


def run(argv):
    return main(argv)


def read_csv(path):
    """Rows of a headered CSV as (header, list of string tuples)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    return lines[0].split(","), [tuple(ln.split(",")) for ln in lines[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One calibrate + simulate pass shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    cal = str(root / "cal")
    sim = str(root / "sim")
    assert run(["calibrate", "--input", DATA_CSV, "--out-dir", cal]) == 0
    model = os.path.join(cal, "model.json")
    assert run(["simulate", "--model", model, "--ramp", "5:20:0.05",
                "--contact", "100@5", "--out-dir", sim]) == 0
    return {"root": root, "model": model, "sim": sim}


def test_calibrate_outputs(workdir):
    model_doc = json.load(open(workdir["model"]))
    assert model_doc["v"] == 3 and model_doc["w"] == 3
    assert model_doc["normalized"] is True
    report = json.load(open(os.path.join(os.path.dirname(workdir["model"]),
                                         "fit_report.json")))
    worst = max(r["max_point_err_mm"] for r in report["per_pressure"])
    assert worst < 2.1


def test_simulate_sample_count(workdir):
    header, rows = read_csv(os.path.join(workdir["sim"], "pose_stream.csv"))
    assert header == ["t", "q", "x", "z", "theta"]
    assert len(rows) == 301
    assert os.path.exists(os.path.join(workdir["sim"], "contact_state.json"))


def test_simulate_zero_length_ramp(workdir, tmp_path):
    out = str(tmp_path / "one")
    assert run(["simulate", "--model", workdir["model"], "--ramp", "5:5:0.05",
                "--out-dir", out]) == 0
    _, rows = read_csv(os.path.join(out, "pose_stream.csv"))
    assert len(rows) == 1


def test_simulate_rejects_bad_contact(workdir, tmp_path):
    out = str(tmp_path / "bad")
    assert run(["simulate", "--model", workdir["model"], "--ramp", "5:20:0.05",
                "--contact", "900@5", "--out-dir", out]) == 1
    assert run(["simulate", "--model", workdir["model"], "--ramp", "nonsense",
                "--out-dir", out]) == 1


def test_detect_contact_stream(workdir):
    out = os.path.join(workdir["sim"], "det")
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    assert run(["detect", "--model", workdir["model"], "--stream", stream,
                "--out-dir", out]) == 0
    doc = json.load(open(os.path.join(out, "detection.json")))
    assert set(doc) == {"detected", "onset_t", "q_at_onset", "max_deviation"}
    assert doc["detected"] is True
    assert doc["onset_t"] >= 0
    assert doc["q_at_onset"] == pytest.approx(5.0, abs=0.5)
    assert os.path.exists(os.path.join(out, "sensed_centrode.csv"))
    assert os.path.exists(os.path.join(out, "model_centrode.csv"))


def test_detect_free_stream_negative(workdir, tmp_path):
    free = str(tmp_path / "free")
    assert run(["simulate", "--model", workdir["model"], "--ramp", "5:20:0.05",
                "--out-dir", free]) == 0
    out = str(tmp_path / "det")
    assert run(["detect", "--model", workdir["model"],
                "--stream", os.path.join(free, "pose_stream.csv"),
                "--out-dir", out]) == 0
    doc = json.load(open(os.path.join(out, "detection.json")))
    assert doc["detected"] is False
    assert doc["onset_t"] is None and doc["q_at_onset"] is None


def test_detect_short_stream_exit_1(workdir, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("t,q,x,z,theta\n0,5,0,0,0\n1,5.05,0.1,0,0\n")
    assert run(["detect", "--model", workdir["model"], "--stream", str(short),
                "--out-dir", str(tmp_path / "out")]) == 1


def test_estimate_with_detection(workdir):
    det = os.path.join(workdir["sim"], "det")
    out = os.path.join(workdir["sim"], "est")
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    code = run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--detection", os.path.join(det, "detection.json"),
                "--s0", "200", "--out-dir", out])
    assert code == 0
    doc = json.load(open(os.path.join(out, "estimation.json")))
    assert set(doc) == {"s_c_est", "iterations", "final_objective",
                        "end_tip_error_LU", "converged"}
    assert doc["converged"] is True
    assert abs(doc["s_c_est"] - 100.0) <= 1.0
    assert doc["end_tip_error_LU"] <= 0.1
    header, rows = read_csv(os.path.join(out, "estimate_iters.csv"))
    assert header == ["iter", "s_c", "objective"]
    assert len(rows) == doc["iterations"] + 1


def test_estimate_no_valid_centrode_exit_1(workdir, tmp_path, capsys):
    # constant theta: pure translation, every sensed center at infinity
    rows = "".join(f"{k},{5.0 + 0.05 * k},{400.0 + 0.1 * k},{50.0},0.3\n"
                   for k in range(20))
    stream = tmp_path / "translate.csv"
    stream.write_text("t,q,x,z,theta\n" + rows)
    code = run(["estimate", "--model", workdir["model"], "--stream", str(stream),
                "--s0", "200", "--out-dir", str(tmp_path / "est")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("estimate: ") and err.count("\n") == 1
    assert "no overlapping valid centrode samples" in err


def test_estimate_non_convergence_exit_3(workdir, tmp_path):
    out = str(tmp_path / "noconv")
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    code = run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--s0", "400", "--max-iter", "1", "--out-dir", out])
    assert code == 3
    doc = json.load(open(os.path.join(out, "estimation.json")))
    assert doc["converged"] is False  # best iterate still written
    assert np.isfinite(doc["s_c_est"])


def test_calibrate_empty_csv_exit_1(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["calibrate", "--input", str(empty),
                "--out-dir", str(tmp_path / "out")]) == 1


def test_calibrate_non_finite_point_exit_1(tmp_path, capsys):
    # one marker x of the shipped data set to nan: a row error, not a
    # failed (rank) fit
    lines = open(DATA_CSV).read().splitlines()
    fields = lines[5].split(",")
    fields[2] = "nan"
    lines[5] = ",".join(fields)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cal"
    assert run(["calibrate", "--input", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("calibrate: calibration CSV row 5: pressure and coordinates "
                   "must be finite\n")
    assert not out.exists()


def test_calibrate_repeated_point_index_exit_1(tmp_path, capsys):
    # the 6-Psi marker 3 of the shipped data relabeled 5: fitted, the
    # markers would be out of order (a 41.6 mm worst residual); refused
    lines = open(DATA_CSV).read().splitlines()
    assert lines[14].startswith("6,3,")
    lines[14] = "6,5," + lines[14][len("6,3,"):]
    bad = tmp_path / "repeat.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cal"
    assert run(["calibrate", "--input", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("calibrate: calibration CSV row 16: point_index 5 repeats "
                   "at pressure 6 (first given at row 14)\n")
    assert not out.exists()


def test_calibrate_duplicate_consecutive_marker_exit_1(tmp_path, capsys):
    # the 6-Psi marker 4 of the shipped data set to marker 3's position: a
    # zero-length backbone segment, named by row and pressure like every
    # other row error
    lines = open(DATA_CSV).read().splitlines()
    assert lines[14].startswith("6,3,") and lines[15].startswith("6,4,")
    lines[15] = "6,4," + lines[14][len("6,3,"):]
    bad = tmp_path / "duplicate.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cal"
    assert run(["calibrate", "--input", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("calibrate: calibration CSV row 15: point_index 4 at "
                   "pressure 6 repeats the position of point_index 3 "
                   "(row 14)\n")
    assert not out.exists()
    # the same pair in reverse file order names the later marker's row
    lines[14], lines[15] = lines[15], lines[14]
    bad.write_text("\n".join(lines) + "\n")
    assert run(["calibrate", "--input", str(bad), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "calibrate: calibration CSV row 14: point_index 4 at pressure 6 "
        "repeats the position of point_index 3 (row 15)\n")


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_calibrate_rejects_bad_unit_scale(tmp_path, capsys, scale):
    out = tmp_path / "cal"
    assert run(["calibrate", "--input", DATA_CSV, "--unit-scale", scale,
                "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("calibrate: unit_scale must be positive and finite")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_estimate_rejects_max_iter_below_one(workdir, tmp_path, capsys,
                                             max_iter):
    out = tmp_path / "est"
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    assert run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--s0", "200", "--max-iter", max_iter,
                "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"estimate: max_iter must be at least 1, got {max_iter}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, what", [("--noise-pos", "position"),
                                        ("--noise-ang", "angle")])
@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_simulate_rejects_bad_noise(workdir, tmp_path, capsys, flag, what,
                                    sigma):
    out = tmp_path / "sim"
    assert run(["simulate", "--model", workdir["model"], "--ramp", "5:6:0.1",
                flag, sigma, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"simulate: {what} noise sigma must be finite and "
                          "non-negative")
    assert err.count("\n") == 1
    assert not out.exists()


def test_calibrate_underdetermined_exit_2(tmp_path):
    assert run(["calibrate", "--input", DATA_CSV, "--v", "6", "--w", "9",
                "--out-dir", str(tmp_path / "out")]) == 2


def test_sweep_monotone(workdir, tmp_path):
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--model", workdir["model"], "--ramp", "5:20:0.05",
                "--s-values", "0,100,200,300", "--out-dir", out]) == 0
    header, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert header == ["s_c", "max_isa_diff"]
    vals = [float(r[1]) for r in rows]
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("s_values", ["0,600", "-5", "100,500"])
def test_sweep_out_of_range_exit_1(workdir, tmp_path, capsys, s_values):
    out = tmp_path / "sweep"
    assert run(["sweep", "--model", workdir["model"], "--ramp", "5:20:0.05",
                "--s-values", s_values, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sweep: ") and err.count("\n") == 1
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("stage, ramp", [
    ("simulate", "5:inf:0.1"), ("simulate", "5:nan:0.1"),
    ("simulate", "nan:20:0.1"), ("simulate", "5:20:nan"),
    ("simulate", "5:20:inf"), ("sweep", "5:inf:0.1"), ("sweep", "5:20:nan"),
])
def test_non_finite_ramp_exit_1(workdir, tmp_path, capsys, stage, ramp):
    out = tmp_path / "out"
    argv = [stage, "--model", workdir["model"], "--ramp", ramp,
            "--out-dir", str(out)]
    assert run(argv + (["--s-values", "0,100"] if stage == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err == f"{stage}: ramp start, end and step must be finite\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["simulate", "sweep"])
def test_ramp_over_sample_cap_exit_1(workdir, tmp_path, capsys, stage):
    # 1e18 samples: refused when the ramp is parsed, before any allocation
    out = tmp_path / "out"
    argv = [stage, "--model", workdir["model"], "--ramp", "0:1e9:1e-9",
            "--out-dir", str(out)]
    assert run(argv + (["--s-values", "0,100"] if stage == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err == f"{stage}: ramp of 1e+18 samples exceeds the 100000 sample cap\n"
    assert not out.exists()


@pytest.mark.parametrize("q_c", ["nan", "inf", "-inf"])
def test_non_finite_contact_pressure_exit_1(workdir, tmp_path, capsys, q_c):
    # refused before the field is read, so no RuntimeWarning precedes it
    out = tmp_path / "sim"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["simulate", "--model", workdir["model"], "--ramp",
                    "5:6:0.1", "--contact", f"100@{q_c}",
                    "--out-dir", str(out)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"simulate: contact pressure q_c must be finite, got {q_c}\n"
    assert not out.exists()


@pytest.mark.parametrize("stage, flags, message", [
    ("sweep", ["--ramp", "5:20:0.05", "--s-values", "1,x"],
     "--s-values entry must be a number, got 'x'"),
    ("estimate", ["--s0", "200", "--bounds", "1:x"],
     "--bounds hi must be a number, got 'x'"),
    ("estimate", ["--s0", "200", "--bounds", "1"],
     "--bounds must be lo:hi, got '1'"),
    ("simulate", ["--ramp", "5:x:0.05"],
     "ramp spec end must be a number, got 'x'"),
    ("sweep", ["--ramp", "x:20:0.05", "--s-values", "0"],
     "ramp spec start must be a number, got 'x'"),
    ("simulate", ["--ramp", "5:6:0.1", "--contact", "100@"],
     "--contact q_c must be a number, got ''"),
    ("simulate", ["--ramp", "5:6:0.1", "--contact", "@5"],
     "--contact s_c must be a number, got ''"),
    ("simulate", ["--ramp", "5:6:0.1", "--contact", "1@2@3"],
     "--contact must be s_c@q_c, got '1@2@3'"),
], ids=["s_values", "bounds_field", "bounds_form", "ramp_end", "ramp_start",
        "contact_q_c", "contact_s_c", "contact_form"])
def test_unparsable_number_names_its_flag(workdir, tmp_path, capsys, stage,
                                          flags, message):
    out = tmp_path / "out"
    stream = ["--stream", os.path.join(workdir["sim"], "pose_stream.csv")]
    assert run([stage, "--model", workdir["model"]]
               + (stream if stage == "estimate" else []) + flags
               + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"{stage}: {message}\n"
    assert not out.exists()


def test_detect_nan_xi_exit_1(workdir, tmp_path, capsys):
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    assert run(["detect", "--model", workdir["model"], "--stream", stream,
                "--xi", "nan", "--out-dir", str(tmp_path / "det")]) == 1
    assert capsys.readouterr().err == "detect: xi must be positive\n"


def test_detect_non_uniform_pressure(workdir, tmp_path):
    # t stays uniform while q follows a quadratic schedule
    with open(workdir["model"]) as f:
        model = ModalModel.from_json(f.read())
    q = 5.0 + 15.0 * np.linspace(0.0, 1.0, 301) ** 2
    stream, _ = pl.simulate_contact(model, q, s_c=100.0, q_c=10.0)
    path = tmp_path / "stream.csv"
    ct.write_pose_stream(path, stream)
    out = tmp_path / "det"
    assert run(["detect", "--model", workdir["model"], "--stream", str(path),
                "--out-dir", str(out)]) == 0
    doc = json.load(open(out / "detection.json"))
    assert doc["detected"] is True
    assert doc["q_at_onset"] == pytest.approx(10.0, abs=0.5)


def test_detect_and_estimate_stream_not_starting_at_t0(workdir, tmp_path):
    # an excerpt of a longer run: t shifted by 100, samples unchanged
    src = os.path.join(workdir["sim"], "pose_stream.csv")
    shifted = tmp_path / "shifted.csv"
    shifted.write_text(shift_t(open(src).read(), 100))
    docs = {}
    for name, stream in (("orig", src), ("shifted", str(shifted))):
        det, est = tmp_path / name / "det", tmp_path / name / "est"
        assert run(["detect", "--model", workdir["model"], "--stream", stream,
                    "--out-dir", str(det)]) == 0
        assert run(["estimate", "--model", workdir["model"], "--stream", stream,
                    "--detection", str(det / "detection.json"),
                    "--s0", "200", "--out-dir", str(est)]) == 0
        docs[name] = (json.load(open(det / "detection.json")),
                      json.load(open(est / "estimation.json")))
    (det0, est0), (det1, est1) = docs["orig"], docs["shifted"]
    assert det0["detected"] is det1["detected"] is True
    assert det1["onset_t"] == det0["onset_t"] + 100
    assert det1["q_at_onset"] == det0["q_at_onset"]
    assert det1["max_deviation"] == det0["max_deviation"]
    assert est1["s_c_est"] == est0["s_c_est"]


def test_onset_t_is_the_streams_own_t(workdir, tmp_path):
    # --onset-t names the same sample as detection.json's onset_t
    src = os.path.join(workdir["sim"], "pose_stream.csv")
    shifted = tmp_path / "shifted.csv"
    shifted.write_text(shift_t(open(src).read(), 100))
    det = tmp_path / "det"
    assert run(["detect", "--model", workdir["model"], "--stream", str(shifted),
                "--out-dir", str(det)]) == 0
    assert json.load(open(det / "detection.json"))["onset_t"] == 100
    docs = []
    for name, flags in (("by_detection", ["--detection", str(det / "detection.json")]),
                        ("by_onset_t", ["--onset-t", "100"])):
        out = tmp_path / name
        assert run(["estimate", "--model", workdir["model"], "--stream",
                    str(shifted), *flags, "--s0", "200",
                    "--out-dir", str(out)]) == 0
        docs.append(json.load(open(out / "estimation.json")))
    assert docs[1]["s_c_est"] == docs[0]["s_c_est"]


def test_onset_t_not_in_stream_exit_1(workdir, tmp_path, capsys):
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    code = run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--onset-t", "5000", "--s0", "200",
                "--out-dir", str(tmp_path / "est")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "estimate: --onset-t 5000 is not a t of the stream\n"


@pytest.mark.parametrize("doc, message", [
    ({"detected": True, "onset_t": None}, "onset_t must be an integer, got null"),
    ([1, 2], 'must be a JSON object with a boolean "detected"'),
    ("x", 'must be a JSON object with a boolean "detected"'),
    ({"detected": True, "onset_t": 1.7}, "onset_t must be an integer, got 1.7"),
    ({"detected": True, "onset_t": "3"}, 'onset_t must be an integer, got "3"'),
    ({"detected": True, "onset_t": True}, "onset_t must be an integer, got true"),
    ({"detected": True}, "onset_t must be an integer, got null"),
    ({"detected": 1, "onset_t": 3}, 'a boolean "detected"'),
    ({"onset_t": 3}, 'a boolean "detected"'),
    ({"detected": False, "onset_t": None}, "reports no contact"),
], ids=["null_onset", "list", "string", "float_onset", "text_onset",
        "bool_onset", "no_onset", "number_detected", "no_detected",
        "not_detected"])
def test_malformed_detection_exit_1(workdir, tmp_path, capsys, doc, message):
    path = tmp_path / "detection.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "est"
    assert run(["estimate", "--model", workdir["model"], "--stream",
                os.path.join(workdir["sim"], "pose_stream.csv"),
                "--detection", str(path), "--s0", "200",
                "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("estimate: detection result") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ("0,5,0,0,0\n1,5.05,0.1,0\n2,5.1,0.2,0,0\n",
     "pose-stream row 2: 4 fields, expected 5"),
    ("0,5,0,0,0\n1,5.05,nan,0,0\n2,5.1,0.2,0,0\n",
     "pose-stream row 2: pose components must be finite"),
    ("0,5,0,0,0\n1,5.05,0.1,0,0\n2,nan,0.2,0,0\n",
     "pose-stream row 3: q must be finite"),
    ("", "too short"),
], ids=["short_row", "nan_pose", "nan_pressure", "header_only"])
@pytest.mark.parametrize("stage", ["detect", "estimate"])
def test_malformed_stream_exit_1(workdir, tmp_path, capsys, stage, body, message):
    stream = tmp_path / "stream.csv"
    stream.write_text("t,q,x,z,theta\n" + body)
    argv = [stage, "--model", workdir["model"], "--stream", str(stream),
            "--out-dir", str(tmp_path / "out")]
    assert run(argv + (["--s0", "200"] if stage == "estimate" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{stage}: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("onset_t", [298, 300])
def test_estimate_short_window_exit_1(workdir, tmp_path, capsys, onset_t):
    # 3- and 1-sample windows: the onset guard leaves no sample to fit
    stream = os.path.join(workdir["sim"], "pose_stream.csv")
    assert run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--onset-t", str(onset_t), "--s0", "200",
                "--out-dir", str(tmp_path / "est")]) == 1
    err = capsys.readouterr().err
    assert err == "estimate: post-onset stream too short (need >= 4)\n"


def shift_t(csv_text, offset):
    lines = csv_text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        t, rest = line.split(",", 1)
        out.append(f"{int(t) + offset},{rest}")
    return "\n".join(out) + "\n"


def test_detect_crlf_stream(workdir, tmp_path):
    src = os.path.join(workdir["sim"], "pose_stream.csv")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(open(src, "rb").read().replace(b"\n", b"\r\n"))
    out = tmp_path / "det"
    assert run(["detect", "--model", workdir["model"], "--stream", str(crlf),
                "--out-dir", str(out)]) == 0
    assert json.load(open(out / "detection.json"))["detected"] is True


def test_config_file_supplies_flags(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "cfgout")
    cfg.write_text(json.dumps({"model": workdir["model"], "ramp": "5:6:0.05",
                               "out-dir": out}))
    assert run(["--config", str(cfg), "simulate"]) == 0
    _, rows = read_csv(os.path.join(out, "pose_stream.csv"))
    assert len(rows) == 21
    # explicit flags still win over config values
    out2 = str(tmp_path / "cfgout2")
    assert run(["--config", str(cfg), "simulate", "--out-dir", out2]) == 0
    assert os.path.exists(os.path.join(out2, "pose_stream.csv"))
    # config defaults do not outlive their call
    assert run(["simulate", "--out-dir", str(tmp_path / "nocfg")]) == 1


def stage_argv(workdir, stage, out):
    """A valid command line of the stage, writing to out."""
    model, stream = workdir["model"], os.path.join(workdir["sim"], "pose_stream.csv")
    argv = {
        "calibrate": ["--input", DATA_CSV],
        "simulate": ["--model", model, "--ramp", "5:6:0.05", "--contact", "100@5"],
        "detect": ["--model", model, "--stream", stream],
        "estimate": ["--model", model, "--stream", stream, "--s0", "200"],
        "sweep": ["--model", model, "--ramp", "5:6:0.05", "--s-values", "0,100"],
    }[stage]
    return [stage, *argv, "--out-dir", str(out)]


STAGES = ["calibrate", "simulate", "detect", "estimate", "sweep"]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("stage", STAGES)
def test_out_dir_not_a_directory_exit_1(workdir, tmp_path, capsys, stage, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    assert run(stage_argv(workdir, stage, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{stage}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("stage, cfg", [
    ("detect", {"window": 2.5}), ("estimate", {"s0": None}),
    ("calibrate", {"v": 3.0}), ("simulate", {"ramp": 5}),
    ("sweep", {"s-values": [0, 100]}), ("estimate", {"max-iter": "many"}),
    ("estimate", {"speed-weights": 1}), ("estimate", {"speed-weights": "true"}),
], ids=["float_int", "null_float", "float_for_int", "number_for_ramp",
        "list_for_text", "text_for_int", "number_for_switch", "text_for_switch"])
def test_config_wrong_type_exit_1(workdir, tmp_path, capsys, stage, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = stage_argv(workdir, stage, tmp_path / "out")
    key = next(iter(cfg))
    flag = f"--{key}"
    if flag in argv:  # the config value is the only one given
        del argv[argv.index(flag):argv.index(flag) + 2]
    assert run(["--config", str(path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    # a text flag takes the number as text, which its stage then refuses
    assert err.startswith(f"{stage}: " if key == "ramp" else "config: ")


def test_config_values_typed_as_flags(workdir, tmp_path):
    # numbers for text flags and text for numeric flags read as on the
    # command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s-values": 100, "ramp": "5:6:0.05",
                               "window": "3", "speed-weights": False}))
    out = tmp_path / "sweep"
    assert run(["--config", str(cfg), "sweep", "--model", workdir["model"],
                "--out-dir", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [r[0] for r in rows] == ["100"]


def test_config_unknown_key_exit_1(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-such-flag": 1}))
    assert run(["--config", str(cfg), "simulate"]) == 1


def test_missing_model_file_exit_1(tmp_path):
    assert run(["simulate", "--model", str(tmp_path / "nope.json"),
                "--ramp", "5:6:0.05", "--out-dir", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("key, value, message", [
    ("A", float("nan"), "coefficients A must be finite"),
    ("A", float("inf"), "coefficients A must be finite"),
    ("L", float("inf"), "arc length L must be positive and finite"),
], ids=["nan_coefficient", "inf_coefficient", "inf_length"])
@pytest.mark.parametrize("stage", ["simulate", "sweep"])
def test_non_finite_model_exit_1(workdir, tmp_path, capsys, stage, key, value,
                                 message):
    # json writes NaN and Infinity, and json.loads reads them back as floats
    doc = json.load(open(workdir["model"]))
    if key == "A":
        doc["A"][4] = value
    else:
        doc[key] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    argv = stage_argv(workdir, stage, tmp_path / "out")
    argv[argv.index("--model") + 1] = str(bad)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{stage}: {message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    ({"v": None}, "model field 'v' must be a positive integer"),
    ([1], "model must be a JSON object"),
    ({"q_range": 5}, "model field 'q_range' must be two numbers"),
    ({"q_range": [5.0, "20"]}, "model field 'q_range' must be two numbers"),
    ({"w": 2.5}, "model field 'w' must be a positive integer"),
    ({"v": -1}, "model field 'v' must be a positive integer"),
    ({"w": True}, "model field 'w' must be a positive integer"),
    ({"A": {"a": 1}}, "model field 'A' must be 9 numbers"),
    ({"A": [0.0] * 8}, "model field 'A' must be 9 numbers"),
    ({"L": None}, "model field 'L' must be a number"),
    ({"unit_scale": [1]}, "model field 'unit_scale' must be a number"),
], ids=["null_v", "list", "number_q_range", "text_in_q_range", "float_w",
        "negative_v", "bool_w", "object_A", "short_A", "null_L",
        "list_unit_scale"])
@pytest.mark.parametrize("stage", ["simulate", "detect", "estimate", "sweep"])
def test_malformed_model_exit_1(workdir, tmp_path, capsys, stage, edit,
                                message):
    doc = json.load(open(workdir["model"]))
    doc = edit if isinstance(edit, list) else {**doc, **edit}
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    argv = stage_argv(workdir, stage, tmp_path / "out")
    argv[argv.index("--model") + 1] = str(bad)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"{stage}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_pipeline_closure(workdir, tmp_path):
    # simulate -> detect -> estimate recovers a mid-span truth within 1 LU
    truth = 330.0
    sim = str(tmp_path / "sim")
    assert run(["simulate", "--model", workdir["model"], "--ramp", "5:20:0.05",
                "--contact", f"{truth}@5", "--out-dir", sim]) == 0
    stream = os.path.join(sim, "pose_stream.csv")
    det = str(tmp_path / "det")
    assert run(["detect", "--model", workdir["model"], "--stream", stream,
                "--out-dir", det]) == 0
    est = str(tmp_path / "est")
    assert run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--detection", os.path.join(det, "detection.json"),
                "--s0", "250", "--out-dir", est]) == 0
    doc = json.load(open(os.path.join(est, "estimation.json")))
    assert abs(doc["s_c_est"] - truth) <= 1.0


@pytest.mark.parametrize("contact, s0", [
    ("32.02978889820574@5.186608407843443", 130.53178181423726),
    ("30.571753421417522@5.2752155235013065", 192.3585797744453),
    ("30@5.105", 250.0), ("30@5.13", 250.0), ("30@5.16", 250.0),
    ("30@5.26", 250.0), ("30@5.395", 250.0),
])
def test_estimate_skips_samples_differenced_across_the_onset(
        workdir, tmp_path, contact, s0):
    # an onset between two samples of a coarse ramp: the samples the
    # stencil differences across the tip's jump at onset stay out of the
    # fit, which without the guard misses by 8 to 111 LU here
    sim, det, est = (str(tmp_path / d) for d in ("sim", "det", "est"))
    assert run(["simulate", "--model", workdir["model"], "--ramp", "5:20:0.1",
                "--contact", contact, "--out-dir", sim]) == 0
    stream = os.path.join(sim, "pose_stream.csv")
    assert run(["detect", "--model", workdir["model"], "--stream", stream,
                "--out-dir", det]) == 0
    assert run(["estimate", "--model", workdir["model"], "--stream", stream,
                "--detection", os.path.join(det, "detection.json"),
                "--s0", repr(s0), "--out-dir", est]) == 0
    doc = json.load(open(os.path.join(est, "estimation.json")))
    assert abs(doc["s_c_est"] - float(contact.split("@")[0])) <= 0.21


def test_detection_reports_onset_at_most_two_samples_early(reference_model):
    # ONSET_GUARD leaves out the stencil's half-width (1) plus detection's
    # largest early lag: the reported onset is never after the first
    # pinned sample and at most ONSET_GUARD - 1 samples before it.  Run
    # through detect's own stage, on 6 on-grid and 12 off-grid q_c per
    # (step, s_c)
    rng = np.random.default_rng(2108)
    for step in (0.1, 0.05, 0.025):
        ramp = pl.PressureRamp(5.0, 20.0, step)
        for s_c in (30.0, 50.0, 100.0, 200.0, 300.0, 400.0, 450.0, 480.0):
            q_cs = [5.0, 6.0, 8.0, 10.0, 12.0, 15.0, *rng.uniform(5.0, 15.0, 12)]
            for q_c in q_cs:
                stream, _ = pl.simulate_contact(reference_model, ramp, s_c, q_c)
                det = pl.detect(reference_model, stream).result
                first_pinned = int(np.argmax(stream.q >= q_c))
                assert det.detected, (step, s_c, q_c)
                gap = first_pinned - det.onset_t
                assert 0 <= gap <= ONSET_GUARD - 1, (step, s_c, q_c, gap)


def imported_by_cli(*packages, argv=None):
    """Modules of the given top-level packages loaded by importing the CLI
    in a fresh interpreter and, given argv, running one stage on it (which
    must exit 0)."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    code = "import sys, bellowkin.cli; "
    if argv is not None:
        code += f"assert bellowkin.cli.main({[str(a) for a in argv]!r}) == 0; "
    code += ("print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {packages!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # numpy alone serves the package; scipy's import cost every CLI call
    assert imported_by_cli("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # the sweep runs in-process; a process pool's import cost every CLI call
    assert imported_by_cli("multiprocessing", "concurrent") == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # the Gauss-Legendre rules are written out: importing numpy.polynomial
    # cost every CLI call about 0.7 MB and 4 ms
    assert "numpy.polynomial" not in imported_by_cli("numpy")


def test_detect_loads_no_numpy_ma(workdir, tmp_path):
    # the default threshold's percentile is taken without np.nanpercentile,
    # whose first call imports numpy.ma: 1.2 MB in every fresh detect
    loaded = imported_by_cli("numpy", argv=[
        "detect", "--model", workdir["model"], "--stream",
        os.path.join(workdir["sim"], "pose_stream.csv"),
        "--out-dir", tmp_path / "det"])
    assert "'numpy.ma'" not in loaded
    assert (tmp_path / "det" / "detection.json").is_file()


def test_estimate_speed_weights_loads_no_numpy_ma(workdir, tmp_path):
    # the speed scale is the median of finite speeds, so np.median serves;
    # np.nanmedian's small-array path imports numpy.ma
    loaded = imported_by_cli("numpy", argv=[
        "estimate", "--model", workdir["model"], "--stream",
        os.path.join(workdir["sim"], "pose_stream.csv"), "--s0", "200",
        "--speed-weights", "--out-dir", tmp_path / "est"])
    assert "'numpy.ma'" not in loaded
    assert (tmp_path / "est" / "estimation.json").is_file()


@pytest.mark.parametrize("stage", STAGES)
def test_rerun_into_one_out_dir_matches_a_fresh_run(workdir, tmp_path, stage):
    # artifacts are rewritten in place; a second, shorter run must leave
    # exactly what a run into a fresh directory writes
    model = workdir["model"]
    streams = {}
    for ramp in ("5:20:0.05", "5:6:0.05"):
        streams[ramp] = str(tmp_path / ramp.replace(":", "_"))
        assert run(["simulate", "--model", model, "--ramp", ramp, "--contact",
                    "100@5", "--out-dir", streams[ramp]]) == 0
    long_stream, short_stream = (os.path.join(streams[r], "pose_stream.csv")
                                 for r in ("5:20:0.05", "5:6:0.05"))
    longer, shorter = {
        "calibrate": (["--input", DATA_CSV],
                      ["--input", DATA_CSV, "--v", "2", "--w", "2"]),
        "simulate": (["--model", model, "--ramp", "5:20:0.05", "--contact", "100@5"],
                     ["--model", model, "--ramp", "5:6:0.05", "--contact", "100@5"]),
        "detect": (["--model", model, "--stream", long_stream],
                   ["--model", model, "--stream", short_stream]),
        "estimate": (["--model", model, "--stream", long_stream, "--s0", "200"],
                     ["--model", model, "--stream", short_stream, "--s0", "200"]),
        "sweep": (["--model", model, "--ramp", "5:20:0.05", "--s-values",
                   "0,50,100,150,200,250,300,350,400"],
                  ["--model", model, "--ramp", "5:20:0.05", "--s-values", "0,50"]),
    }[stage]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run([stage, *longer, "--out-dir", str(reused)]) in (0, 3)
    first = {p.name: p.stat().st_size for p in reused.iterdir()}
    rc = run([stage, *shorter, "--out-dir", str(reused)])
    assert run([stage, *shorter, "--out-dir", str(fresh)]) == rc
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(first)
    assert any((fresh / n).stat().st_size < first[n] for n in names)
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

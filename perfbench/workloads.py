"""The four benchmark workloads: inputs drawn from a seed, one operation, its check.

Each workload drives bellowkin only through interfaces meant to outlive
internal rewrites: ``bellowkin.cli.main`` in-process, ``python -m bellowkin``
in a fresh process, ``bellowkin.ModalModel.from_json`` and
``bellowkin.resolved_rates``, plus the documented artifact formats
(model.json, fit_report.json, pose_stream.csv, detection.json,
estimation.json, sweep.csv).  Inputs are generated from the seed before
timing starts; the program only ever sees the generated files and flags.
"""

import contextlib
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bellowkin
import speed
from bellowkin import cli, synthetic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SHIPPED_CSV = ROOT / "data" / "bellow_calibration.csv"
REFERENCE_DIR = BENCH_DIR / "reference"

# Stage processes get a generous ceiling; a stage takes about a second.
STAGE_TIMEOUT_S = 120

# Bounds pinned at what the code measured when the benchmark was written
# (see README.md, "Correctness checks").  An operation beyond them fails.
LOC_ERR_BOUND_LU = 6.5        # localize_stream |s_c_est - s_c_true|
CLI_LOC_ERR_BOUND_LU = 1.0    # cli_pipeline, s_c = 100 at 5 Psi
IK_Q_BOUND_PSI = 1e-4         # ik_calibrate |q - q_true|
FIT_ERR_BOUND_MM = 2.1        # worst point error of a 3x3-or-larger fit
SWEEP_REL_TOL = 1e-7          # sweep_map against the stored reference


def child_env() -> dict:
    """Environment for `python -m bellowkin`: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(argv) -> int:
    """In-process `bellowkin.cli.main`, its progress lines discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main([str(a) for a in argv])


def read_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def read_rows(path) -> tuple:
    """Header and float rows of one of the CLI's CSV artifacts."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(x) for x in r] for r in rows[1:] if r]


def sweep_problems(path, base: bool = True) -> list:
    """Strictly increasing toward the tip and, with `base`, a first row
    at the clamped base that is zero."""
    header, rows = read_rows(path)
    if header != ["s_c", "max_isa_diff"]:
        return [f"sweep.csv header {header}"]
    vals = [r[1] for r in rows]
    out = []
    if base and (rows[0][0] != 0.0 or vals[0] != 0.0):
        out.append(f"sweep at s_c={rows[0][0]:g} is {vals[0]!r}, expected 0")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        out.append("sweep column not strictly increasing")
    return out


def fit_worst_point_mm(report_path) -> float:
    return max(r["max_point_err_mm"] for r in read_json(report_path)["per_pressure"])


def calibrate_shipped(work: Path) -> Path:
    """The README's calibrate stage on the shipped data; returns model.json."""
    out = work / "shipped_cal"
    rc = run_cli(["calibrate", "--input", SHIPPED_CSV, "--out-dir", out])
    if rc != 0:
        raise RuntimeError(f"calibrating the shipped data exited {rc}")
    return out / "model.json"


def localize_argv(d: Path, model, ramp: str, s_c: float, q_c: float, s0: float) -> dict:
    """simulate --contact, detect and estimate --detection, writing under d."""
    stream = d / "sim" / "pose_stream.csv"
    return {
        "simulate": ["simulate", "--model", model, "--ramp", ramp,
                     "--contact", f"{s_c!r}@{q_c!r}", "--out-dir", d / "sim"],
        "detect": ["detect", "--model", model, "--stream", stream,
                   "--out-dir", d / "det"],
        "estimate": ["estimate", "--model", model, "--stream", stream,
                     "--detection", d / "det" / "detection.json",
                     "--s0", repr(s0), "--out-dir", d / "est"],
    }


class Workload:
    """One closed-loop client issuing operations one after another.

    ``setup`` is the program set-up a user pays before the first operation
    (it is timed in fresh interpreters); ``make_inputs`` is untimed input
    generation; ``op`` is timed; ``check`` inspects the op's outputs.
    """

    name = ""
    unit_of_work = "operation"
    min_ops = 1             # operations a run issues even past --seconds

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.work = Path(work)
        self.state = {}

    @staticmethod
    def setup(work: Path) -> dict:
        return {}

    def prepare(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.state = self.setup(self.work)
        self.make_inputs()

    def make_inputs(self):
        pass

    def op(self, i: int) -> dict:
        """Run operation i; returns the perf_counter (start, end) of each of
        its named parts."""
        raise NotImplementedError

    def check(self, i: int, parts: dict) -> list:
        """Problems found in operation i's outputs; empty when correct."""
        raise NotImplementedError

    def setup_problems(self) -> list:
        """Problems found in the set-up's own outputs."""
        return []

    def make_gauge(self) -> speed.SpeedGauge:
        """The speed gauge for this workload's operations."""
        return speed.SpeedGauge()

    def named_figures(self, ops: list) -> dict:
        """This workload's own named figures in wall time (README.md, "End-to-
        end metrics"): name -> (value, unit), from the ops' part timings."""
        return {}


def _pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class CliPipeline(Workload):
    """The README's five-stage pass, each stage a fresh `python -m bellowkin`."""

    name = "cli_pipeline"
    unit_of_work = "5-stage pass"
    STAGES = ("calibrate", "simulate", "detect", "estimate", "sweep")
    S_VALUES = "0,50,100,150,200,250,300,350,400"
    S_C, Q_C, S0 = 100.0, 5.0, 200.0
    in_process = False   # True: the stages run through in-process cli.main
    gauge = None         # sampled between the stages when set

    @staticmethod
    def stage_argv(d: Path) -> dict:
        model = d / "cal" / "model.json"
        stream = d / "sim" / "pose_stream.csv"
        return {
            "calibrate": ["calibrate", "--input", SHIPPED_CSV, "--out-dir", d / "cal"],
            "simulate": ["simulate", "--model", model, "--ramp", "5:20:0.05",
                         "--contact", f"{CliPipeline.S_C:g}@{CliPipeline.Q_C:g}",
                         "--out-dir", d / "sim"],
            "detect": ["detect", "--model", model, "--stream", stream,
                       "--out-dir", d / "det"],
            "estimate": ["estimate", "--model", model, "--stream", stream,
                         "--detection", d / "det" / "detection.json",
                         "--s0", f"{CliPipeline.S0:g}", "--out-dir", d / "est"],
            "sweep": ["sweep", "--model", model, "--ramp", "5:20:0.05",
                      "--s-values", CliPipeline.S_VALUES, "--out-dir", d / "sweep"],
        }

    def make_inputs(self):
        # The pass is the README's, on the shipped data: the seed changes
        # nothing here, so run-to-run spread is the machine's alone.
        self.env = child_env()
        self.first_digest = None

    def make_gauge(self):
        # The stages are fresh processes, gauged by a fresh interpreter
        # between them: a pass lasts seconds, and the host's speed can
        # change within one.
        self.gauge = speed.fresh_gauge(self.env)
        return self.gauge

    def pass_dir(self, i: int) -> Path:
        return self.work / f"pass{i}"

    def op(self, i):
        d = self.pass_dir(i)
        parts = {}
        self.codes = {}
        for k, (stage, argv) in enumerate(self.stage_argv(d).items()):
            t0 = time.perf_counter()
            if self.in_process:
                self.codes[stage] = (run_cli(argv), "")
            else:
                proc = subprocess.run([sys.executable, "-m", "bellowkin"]
                                      + [str(a) for a in argv],
                                      env=self.env, cwd=ROOT, timeout=STAGE_TIMEOUT_S,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                self.codes[stage] = (proc.returncode,
                                     proc.stderr.decode(errors="replace"))
            parts[stage] = (t0, time.perf_counter())
            if self.gauge is not None and k < len(self.STAGES) - 1:
                self.gauge.sample()
        return parts

    def check(self, i, parts):
        d = self.pass_dir(i)
        out = [f"{stage} exited {rc}: {err.strip()[-200:]}"
               for stage, (rc, err) in self.codes.items() if rc != 0]
        if out:
            return out
        if not read_json(d / "det" / "detection.json").get("detected"):
            out.append("detect: no contact detected")
        s_c_est = read_json(d / "est" / "estimation.json")["s_c_est"]
        if not abs(s_c_est - self.S_C) <= CLI_LOC_ERR_BOUND_LU:
            out.append(f"estimate: s_c_est={s_c_est!r}, true {self.S_C}")
        out += sweep_problems(d / "sweep" / "sweep.csv")
        digest = {str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(d.rglob("*")) if p.is_file()}
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            changed = sorted(k for k in set(digest) | set(self.first_digest)
                             if digest.get(k) != self.first_digest.get(k))
            out.append(f"artifacts differ from the first pass: {changed}")
        shutil.rmtree(d)
        return out

    def named_figures(self, ops):
        figs = {"cli_pass_s": (float(np.median([sum(p.values()) for p in ops])), "s")}
        for stage in self.STAGES:
            figs[f"cli_stage_s.{stage}"] = (float(np.median([p[stage] for p in ops])), "s")
        return figs


class LocalizeStream(Workload):
    """simulate --contact, detect, estimate --detection, all in-process."""

    name = "localize_stream"
    unit_of_work = "localization"
    min_ops = 60                   # so p90 has six operations beyond it
    STEPS = (0.1, 0.05, 0.025)     # 151, 301 and 601 samples on 5:20
    BLOCK = 12                     # draws are stratified per 12 operations
    N_BLOCKS = 300                 # far more than a run completes

    @staticmethod
    def setup(work):
        return {"model": calibrate_shipped(work)}

    def make_inputs(self):
        # Within each block of BLOCK operations every ramp step appears
        # equally often, and s_c, q_c and s0 each take one value from each
        # of BLOCK equal strata of their range, in a fresh random order.
        # So every run covers the input space evenly, and its median does
        # not hinge on where a few draws happened to fall.
        b, nb = self.BLOCK, self.N_BLOCKS

        def stratified(lo, hi):
            k = np.concatenate([self.rng.permutation(b) for _ in range(nb)])
            return lo + (k + self.rng.uniform(0.0, 1.0, k.size)) * (hi - lo) / b

        steps = np.concatenate([self.rng.permutation(np.repeat(self.STEPS, b // 3))
                                for _ in range(nb)])
        self.draws = [{"s_c": float(s), "q_c": float(q), "s0": float(s0),
                       "step": float(st)}
                      for s, q, s0, st in zip(stratified(30.0, 450.0),
                                              stratified(5.0, 15.0),
                                              stratified(20.0, 480.0), steps)]
        self.errors = []

    def stage_argv(self, i: int) -> dict:
        g = self.draws[i]
        return localize_argv(self.work / "loc", self.state["model"],
                             f"5:20:{g['step']!r}", g["s_c"], g["q_c"], g["s0"])

    def op(self, i):
        parts = {}
        self.codes = {}
        for stage, argv in self.stage_argv(i).items():
            t0 = time.perf_counter()
            self.codes[stage] = run_cli(argv)
            parts[stage] = (t0, time.perf_counter())
            if self.codes[stage] != 0:
                break
        return parts

    def check(self, i, parts):
        out = [f"{stage} exited {rc}" for stage, rc in self.codes.items() if rc != 0]
        if out:
            return out
        d = self.work / "loc"
        if not read_json(d / "det" / "detection.json").get("detected"):
            return ["detect: no contact detected"]
        est = read_json(d / "est" / "estimation.json")
        if not est.get("converged"):
            out.append("estimate: not converged")
        err = abs(est["s_c_est"] - self.draws[i]["s_c"])
        self.errors.append(err)
        if not err <= LOC_ERR_BOUND_LU:
            out.append(f"estimate: |s_c_est - s_c| = {err!r} LU "
                       f"> {LOC_ERR_BOUND_LU} ({self.draws[i]})")
        return out

    def named_figures(self, ops):
        ms = [1e3 * sum(p.values()) for p in ops]
        figs = {"localize_ms.p50": (_pct(ms, 50), "ms"),
                "localize_ms.p90": (_pct(ms, 90), "ms")}
        if self.errors:
            figs["loc_err_LU.p50"] = (_pct(self.errors, 50), "LU")
            figs["loc_err_LU.max"] = (float(max(self.errors)), "LU")
        return figs


class SweepMap(Workload):
    """In-process sweeps over a 50-location map on a 301-sample ramp.

    An operation sweeps every fifth location (0, 50, ..., 450; then 10,
    60, ..., 460; ...), so five operations cover the map and each one
    spans the whole backbone.  Operations of about a second leave room for
    a dozen of them, and the speed gauge between them, in a run.
    """

    name = "sweep_map"
    S_VALUES = [0.0] + [float(s) for s in range(10, 500, 10)]
    N_PARTS = 5
    unit_of_work = "sweep location"
    RAMP = "5:20:0.05"
    # A model fixed with the benchmark (the shipped 3x3 fit, stored without
    # a basis tag), so the reference sweep does not move when calibration
    # changes; only kinematics and the sweep itself are under test.
    MODEL = REFERENCE_DIR / "model_3x3.json"
    REFERENCE = REFERENCE_DIR / "sweep_map.csv"

    @staticmethod
    def setup(work):
        with open(SweepMap.MODEL) as f:
            bellowkin.ModalModel.from_json(f.read())
        return {"model": SweepMap.MODEL}

    def make_inputs(self):
        # Fixed inputs: the seed changes nothing, so the reference holds.
        _, self.reference = read_rows(self.REFERENCE)

    def part(self, i: int) -> slice:
        return slice(i % self.N_PARTS, None, self.N_PARTS)

    def argv(self, i: int):
        return ["sweep", "--model", self.state["model"], "--ramp", self.RAMP,
                "--s-values", ",".join(f"{s:g}" for s in self.S_VALUES[self.part(i)]),
                "--out-dir", self.work / "sweep"]

    def op(self, i):
        t0 = time.perf_counter()
        self.rc = run_cli(self.argv(i))
        return {"sweep": (t0, time.perf_counter())}

    def check(self, i, parts):
        if self.rc != 0:
            return [f"sweep exited {self.rc}"]
        path = self.work / "sweep" / "sweep.csv"
        out = sweep_problems(path, base=i % self.N_PARTS == 0)
        _, rows = read_rows(path)
        reference = self.reference[self.part(i)]
        if len(rows) != len(reference):
            return out + [f"{len(rows)} sweep rows, expected {len(reference)}"]
        for (s, v), (s_ref, v_ref) in zip(rows, reference):
            if s != s_ref or not abs(v - v_ref) <= SWEEP_REL_TOL * max(abs(v_ref), 1.0):
                out.append(f"sweep at s_c={s:g}: {v!r}, reference {v_ref!r}")
        return out

    def named_figures(self, ops):
        per_op = float(np.median([p["sweep"] for p in ops]))
        locations = len(self.S_VALUES) / self.N_PARTS
        return {"sweep_locations_per_s": (locations / per_op, "1/s")}


class IkCalibrate(Workload):
    """Alternating calibration fits and resolved-rate solves, in-process.

    One operation is a pair: `cli.main calibrate` on a generated marker CSV,
    then `bellowkin.resolved_rates` to a tip target from a free stream.
    """

    name = "ik_calibrate"
    unit_of_work = "fit + solve pair"
    N_CSV = 12
    N_TARGETS = 4096

    @staticmethod
    def setup(work):
        model_path = calibrate_shipped(work)
        sim = work / "free_sim"
        rc = run_cli(["simulate", "--model", model_path, "--ramp", "5:20:0.05",
                      "--out-dir", sim])
        if rc != 0:
            raise RuntimeError(f"free simulate exited {rc}")
        with open(model_path) as f:
            model = bellowkin.ModalModel.from_json(f.read())
        return {"model_path": model_path, "model": model,
                "stream": sim / "pose_stream.csv",
                "shipped_report": model_path.parent / "fit_report.json"}

    def make_inputs(self):
        self.csvs = []
        for k in range(self.N_CSV):
            n = int(self.rng.choice([10, 20, 40]))
            v, w = (int(x) for x in self.rng.choice([3, 4], size=2))
            path = self.work / "markers" / f"markers{k}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            synthetic.write_calibration_csv(
                synthetic.make_reference_dataset(n_points=n), path)
            self.csvs.append({"path": path, "n": n, "v": v, "w": w})
        header, rows = read_rows(self.state["stream"])
        col = {h: k for k, h in enumerate(header)}
        picks = self.rng.integers(0, len(rows), self.N_TARGETS)
        q0s = self.rng.uniform(5.0, 20.0, self.N_TARGETS)
        self.targets = [{"q": rows[r][col["q"]], "x": rows[r][col["x"]],
                         "z": rows[r][col["z"]], "q0": float(q0)}
                        for r, q0 in zip(picks, q0s)]

    def setup_problems(self) -> list:
        worst = fit_worst_point_mm(self.state["shipped_report"])
        if not worst < FIT_ERR_BOUND_MM:
            return [f"shipped 3x3 fit: worst point error {worst:.4g} mm "
                    f">= {FIT_ERR_BOUND_MM} mm"]
        return []

    def calibrate_argv(self, i):
        c = self.csvs[i % self.N_CSV]
        return ["calibrate", "--input", c["path"], "--v", c["v"], "--w", c["w"],
                "--out-dir", self.work / "fit"]

    def op(self, i):
        t0 = time.perf_counter()
        self.rc = run_cli(self.calibrate_argv(i))
        t1 = time.perf_counter()
        g = self.targets[i % self.N_TARGETS]
        self.result = bellowkin.resolved_rates(self.state["model"], (g["x"], g["z"]),
                                               q0=g["q0"])
        return {"calibrate": (t0, t1), "resolved_rates": (t1, time.perf_counter())}

    def check(self, i, parts):
        out = []
        c = self.csvs[i % self.N_CSV]
        if self.rc != 0:
            out.append(f"calibrate exited {self.rc} on {c}")
        else:
            doc = read_json(self.work / "fit" / "model.json")
            if (doc["v"], doc["w"]) != (c["v"], c["w"]):
                out.append(f"model.json is {doc['v']}x{doc['w']}, asked {c}")
            worst = fit_worst_point_mm(self.work / "fit" / "fit_report.json")
            if not worst < FIT_ERR_BOUND_MM:
                out.append(f"fit {c}: worst point error {worst:.4g} mm")
        g = self.targets[i % self.N_TARGETS]
        if not self.result.converged:
            out.append(f"resolved_rates did not converge for {g}")
        elif not abs(self.result.q - g["q"]) <= IK_Q_BOUND_PSI:
            out.append(f"resolved_rates q={self.result.q!r}, true {g['q']!r}")
        return out

    def named_figures(self, ops):
        solve = float(np.median([p["resolved_rates"] for p in ops]))
        fit = float(np.median([p["calibrate"] for p in ops]))
        return {"ik_solves_per_s": (1.0 / solve, "1/s"), "fits_per_s": (1.0 / fit, "1/s")}


WORKLOADS = {w.name: w for w in (CliPipeline, LocalizeStream, SweepMap, IkCalibrate)}

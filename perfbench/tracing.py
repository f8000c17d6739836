"""Traced run: spans around the calls into bellowkin's layers, and the
per-layer metrics derived from them.

The traced run first issues the workload's operations untraced (the same
closed loop as ``--trace 0``, for half the time), then issues the same
operations again with the library functions that the CLI stages call
wrapped in spans named ``<module>.<function>``, and each in-process
``cli.main`` call wrapped in a span ``cli.<stage>``.  cli_pipeline runs its
stages through in-process ``cli.main`` in both halves, as spans cannot
reach into stage processes.  A span records its start, end, parent span
and operation id; spans stay in memory and are written out when the run
ends, each with its self time (its duration minus what its child spans
cover).  A timing metric is the median duration of the spans so named.

The wrapping happens in this process only, for the traced half: each
function is replaced, wherever a bellowkin module binds it, by a wrapper
that opens a span and calls it; the originals are put back afterwards.
Counts (valid centrode samples, LM iterations and accepted steps, the
localization error) come from the artifacts the CLI stages write and from
the result ``bellowkin.resolved_rates`` returns, never from internal
data structures.

Layers the operations do not reach on a workload, and layers reached only
inside another layer (modal, quadrature, contact, the predicted centrode
inside the sweep), are timed by probes that call their public function
directly on the workload's inputs.  A probed or wrapped function that no
longer exists, or no longer accepts these arguments, leaves its metrics
reported as missing (value null), never as zero, and the run goes on.
"""

import contextlib
import functools
import importlib
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import speed
import workloads as W

PROBE_REPEATS = 20
SUBPROCESS_REPEATS = 3
PROBE_RAMP = "5:20:0.05"   # 301 samples: the README ramp, and the fixed size
                           # of the io, theta_grid and predicted_centrode probes
STAGES = W.CliPipeline.STAGES

# The functions the CLI stages call, wrapped in spans for the traced half.
SPANNED = (
    "calibration.load_calibration_csv", "calibration.fit_modal",
    "centrode.read_pose_stream", "centrode.write_pose_stream",
    "centrode.centrode_from_stream", "centrode.default_threshold",
    "centrode.fcd_detect", "centrode.write_centrode",
    "estimation.estimate_contact",
    "pipeline.simulate_free", "pipeline.simulate_contact",
    "pipeline.model_centrode", "pipeline.sweep",
    "kinematics.resolved_rates",
)

# (metric, unit, span).  A timing is the median duration of the spans so
# named; metrics without a span are counts and ratios computed in
# per_layer_metrics.
PER_LAYER = [
    ("cli.interp_start_s", "s", "cli.interp_start"),
    ("cli.import_numpy_s", "s", "cli.import_numpy"),
    ("cli.import_s", "s", "cli.import"),
    *((f"cli.stage_inproc_ms.{s}", "ms", f"cli.stage_inproc.{s}") for s in STAGES),
    ("io.pose_stream_write_ms", "ms", "io.pose_stream_write"),
    ("io.pose_stream_read_ms", "ms", "io.pose_stream_read"),
    ("calibration.load_csv_ms", "ms", "calibration.load_calibration_csv"),
    ("calibration.fit_modal_ms", "ms", "calibration.fit_modal"),
    ("modal.theta_grid_us", "us", "modal.theta_grid"),
    ("modal.theta_us", "us", "modal.theta"),
    ("modal.grid_points", "count", None),
    ("quadrature.panel_nodes_us", "us", "quadrature.panel_nodes"),
    ("kinematics.tip_pose_us", "us", "kinematics.tip_pose"),
    ("kinematics.jacobian_us", "us", "kinematics.jacobian"),
    ("kinematics.resolved_rates_ms", "ms", "kinematics.resolved_rates"),
    ("kinematics.rr_iterations", "count", None),
    ("kinematics.rr_converged_ratio", "ratio", None),
    ("contact.freeze_us", "us", "contact.freeze"),
    ("contact.contact_tip_pose_us", "us", "contact.contact_tip_pose"),
    ("centrode.centrode_from_stream_ms", "ms", "centrode.centrode_from_stream"),
    ("centrode.default_threshold_ms", "ms", "centrode.default_threshold"),
    ("centrode.fcd_detect_ms", "ms", "centrode.fcd_detect"),
    ("centrode.valid_ratio", "ratio", None),
    ("estimation.estimate_contact_ms", "ms", "estimation.estimate_contact"),
    ("estimation.lm_iterations", "count", None),
    ("estimation.lm_accepted_ratio", "ratio", None),
    ("estimation.predicted_centrode_ms", "ms", "estimation.predicted_centrode"),
    ("estimation.loc_err_LU.p50", "LU", None),
    ("estimation.loc_err_LU.max", "LU", None),
    ("pipeline.simulate_free_ms", "ms", "pipeline.simulate_free"),
    ("pipeline.simulate_contact_ms", "ms", "pipeline.simulate_contact"),
    ("pipeline.model_centrode_ms", "ms", "pipeline.model_centrode"),
    ("pipeline.isa_sweep_index_ms", "ms", "pipeline.isa_sweep_index"),
    ("pipeline.sweep_ms", "ms", "pipeline.sweep"),
    ("pipeline.sweep_overhead_ratio", "ratio", None),
    ("trace.overhead_ms", "ms", None),
    ("trace.ref_kernel_ms", "ms", None),
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Missing(LookupError):
    """A probed or wrapped bellowkin function no longer exists."""


def resolve(qualname: str):
    """`module.attr[.attr]` inside the bellowkin package, looked up now."""
    module, *attrs = qualname.split(".")
    try:
        obj = importlib.import_module(f"bellowkin.{module}")
        for a in attrs:
            obj = getattr(obj, a)
    except (ImportError, AttributeError) as e:
        raise Missing(f"bellowkin.{qualname}: {e}") from None
    return obj


def _sweep_attrs(model, ramp, s_values=(), *args, **kwargs) -> dict:
    return {"locations": len(s_values)}


# span name -> attributes it records from the call's arguments
SPAN_ATTRS = {"pipeline.sweep": _sweep_attrs}


class Tracer:
    """Spans and counters, kept in memory for the length of the run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self.stack[-1] if self.stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def call(self, qualname: str, *args, **kwargs):
        fn = resolve(qualname)
        with self.span(qualname):
            return fn(*args, **kwargs)

    def count(self, key: str, value_fn):
        """Append value_fn() to a counter; a count that cannot be taken is
        left out (its metric reads missing) and nothing else is lost."""
        try:
            self.counts[key].append(float(value_fn()))
        except Exception as e:  # noqa: BLE001  (API or artifact drift)
            print(f"perfbench: count {key} unavailable: {e!r}", file=sys.stderr)

    def _spanned(self, name: str, fn):
        attrs = SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return spanned

    def _cli_spanned(self, run_cli):
        @functools.wraps(run_cli)
        def spanned(argv):
            with self.span(f"cli.{argv[0]}"):
                return run_cli(argv)
        return spanned

    @contextlib.contextmanager
    def instrumented(self):
        """Wrap every SPANNED function wherever a bellowkin module (the
        package and cli included) binds it, and the benchmark's in-process
        cli.main calls; the originals are restored on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bellowkin" or n.startswith("bellowkin.")]
        patches = [(W, "run_cli", W.run_cli, self._cli_spanned(W.run_cli))]
        for name in SPANNED:
            try:
                fn = resolve(name)
            except Missing as e:
                print(f"perfbench: not traced, {e}", file=sys.stderr)
                continue
            wrapper = self._spanned(name, fn)
            patches += [(m, attr, fn, wrapper) for m in modules
                        for attr, val in list(vars(m).items()) if val is fn]
        try:
            for mod, attr, _, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, fn, _ in reversed(patches):
                setattr(mod, attr, fn)

    def self_times(self) -> dict:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children[s["id"]]):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def names(self) -> set:
        return {s["name"] for s in self.spans if s["end"] is not None}


# --- counts from the artifacts and public results -------------------------

def _valid_ratio(sensed_csv) -> float:
    header, rows = W.read_rows(sensed_csv)
    valid = [r[header.index("valid")] for r in rows]
    return sum(v == 1.0 for v in valid) / len(valid)


def _accepted_ratio(est_dir) -> float:
    """Accepted LM steps (the iterate moved) over iterations."""
    header, rows = W.read_rows(est_dir / "estimate_iters.csv")
    s_c = [r[header.index("s_c")] for r in rows]
    accepted = sum(b != a for a, b in zip(s_c, s_c[1:]))
    return accepted / max(W.read_json(est_dir / "estimation.json")["iterations"], 1)


def localization_counts(t, d, s_c_true):
    """Counts of one simulate/detect/estimate pass whose stages wrote to d."""
    det, est = d / "det", d / "est"
    t.count("valid_ratio", lambda: _valid_ratio(det / "sensed_centrode.csv"))
    t.count("lm_iterations", lambda: W.read_json(est / "estimation.json")["iterations"])
    t.count("lm_accepted", lambda: _accepted_ratio(est))
    t.count("loc_err", lambda: abs(W.read_json(est / "estimation.json")["s_c_est"]
                                   - s_c_true))


def op_counts(t, wl, i):
    """Counts of operation i, taken before its check tidies up."""
    if wl.name == "localize_stream":
        g = wl.draws[i]
        t.counts["ramp_samples"].append(int(round(15.0 / g["step"])) + 1)
        localization_counts(t, wl.work / "loc", g["s_c"])
    elif wl.name == "cli_pipeline":
        localization_counts(t, wl.pass_dir(i), wl.S_C)
    elif wl.name == "ik_calibrate":
        t.count("rr_iterations", lambda: wl.result.iterations)
        t.count("rr_converged", lambda: wl.result.converged)


# --- probes: direct calls on the workload's inputs ------------------------

def _load_model(path):
    with open(path) as f:
        return resolve("modal.ModalModel").from_json(f.read())


def workload_model(wl):
    path = {"cli_pipeline": W.SweepMap.MODEL, "sweep_map": wl.state.get("model"),
            "localize_stream": wl.state.get("model"),
            "ik_calibrate": wl.state.get("model_path")}[wl.name]
    return _load_model(path)


def workload_contact(wl):
    """(ramp text, s_c, q_c, s0) of the workload's first operation."""
    if wl.name == "localize_stream":
        g = wl.draws[0]
        return f"5:20:{g['step']!r}", g["s_c"], g["q_c"], g["s0"]
    if wl.name == "sweep_map":
        return wl.RAMP, wl.S_VALUES[len(wl.S_VALUES) // 2], 5.0, 200.0
    return PROBE_RAMP, 100.0, 5.0, 200.0


def probe_subprocesses(t, wl, model):
    env = W.child_env()
    for name, code in (("cli.interp_start", "pass"), ("cli.import_numpy", "import numpy"),
                       ("cli.import", "import bellowkin.cli")):
        for k in range(SUBPROCESS_REPEATS + 1):
            cmd = [sys.executable, "-c", code]
            if k == 0:  # warm-up, untimed
                subprocess.run(cmd, env=env, cwd=W.ROOT, check=True, timeout=60)
                continue
            with t.span(name):
                subprocess.run(cmd, env=env, cwd=W.ROOT, check=True, timeout=60)


def probe_stages_inproc(t, wl, model):
    for k in range(2):
        d = wl.work / f"inproc{k}"
        for stage, argv in W.CliPipeline.stage_argv(d).items():
            with t.span(f"cli.stage_inproc.{stage}"):
                rc = W.run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"in-process {stage} exited {rc}")


def _free_stream_csv(wl, model):
    """pose_stream.csv of a free run on PROBE_RAMP, made through the CLI."""
    d = wl.work / "probe_free"
    if not (d / "pose_stream.csv").exists():
        d.mkdir(parents=True, exist_ok=True)
        (d / "model.json").write_text(model.to_json() + "\n")
        rc = W.run_cli(["simulate", "--model", d / "model.json", "--ramp", PROBE_RAMP,
                        "--out-dir", d])
        if rc != 0:
            raise RuntimeError(f"free simulate exited {rc}")
    return d / "pose_stream.csv"


def probe_io(t, wl, model):
    path = _free_stream_csv(wl, model)
    for _ in range(PROBE_REPEATS // 2):
        with t.span("io.pose_stream_read"):
            stream = resolve("centrode.read_pose_stream")(path)
        with t.span("io.pose_stream_write"):
            resolve("centrode.write_pose_stream")(wl.work / "io_probe.csv", stream)


def probe_calibration(t, wl, model):
    for _ in range(PROBE_REPEATS // 2):
        ds = t.call("calibration.load_calibration_csv", W.SHIPPED_CSV)
        t.call("calibration.fit_modal", ds, v=3, w=3)


def _field_inputs(wl):
    """Pressures of the workload's ramp, PROBE_REPEATS of them picked
    evenly, and its contact (s_c, q_c)."""
    ramp_text, s_c, q_c, _ = workload_contact(wl)
    q = resolve("pipeline.PressureRamp").parse(ramp_text).values
    return q, q[np.linspace(0, len(q) - 1, PROBE_REPEATS).astype(int)], s_c, q_c


def probe_quadrature(t, wl, model):
    panels = resolve("kinematics.DEFAULT_PANELS")
    for _ in range(PROBE_REPEATS):
        nodes, _ = t.call("quadrature.panel_nodes", 0.0, model.L, panels)
    t.counts["grid_nodes"].append(nodes.size)


def probe_theta(t, wl, model):
    nodes = np.linspace(0.0, model.L, 100)
    _, picks, _, _ = _field_inputs(wl)
    for qk in picks:
        t.call("modal.theta", model, nodes, float(qk))


def probe_theta_grid(t, wl, model):
    nodes = np.linspace(0.0, model.L, 100)
    q301 = resolve("pipeline.PressureRamp").parse(PROBE_RAMP).values
    for _ in range(PROBE_REPEATS):
        t.call("modal.theta_grid", model, nodes, q301)


def probe_kinematics(t, wl, model):
    _, picks, _, _ = _field_inputs(wl)
    for qk in picks:
        t.call("kinematics.tip_pose", model, float(qk))
        t.call("kinematics.jacobian", model, float(qk))


def probe_contact(t, wl, model):
    _, picks, s_c, q_c = _field_inputs(wl)
    for _ in range(PROBE_REPEATS):
        state = t.call("contact.freeze", model, q_c, s_c)
    for qk in picks[picks >= q_c]:
        t.call("contact.contact_tip_pose", model, state, float(qk))


def probe_predicted_centrode(t, wl, model):
    # the sweep's own call: a hypothesis frozen at the first of 301 samples
    q = resolve("pipeline.PressureRamp").parse(PROBE_RAMP).values
    _, _, s_c, _ = _field_inputs(wl)
    for _ in range(PROBE_REPEATS // 4):
        t.call("estimation.predicted_centrode", model, s_c, q)


def probe_resolved_rates(t, wl, model):
    header, rows = W.read_rows(_free_stream_csv(wl, model))
    x, z = (header.index(c) for c in ("x", "z"))
    rng = np.random.default_rng(wl.seed)
    for _ in range(PROBE_REPEATS // 2):
        r = rows[int(rng.integers(len(rows)))]
        res = t.call("kinematics.resolved_rates", model, (r[x], r[z]),
                     q0=float(rng.uniform(5.0, 20.0)))
        t.count("rr_iterations", lambda: res.iterations)
        t.count("rr_converged", lambda: res.converged)


def probe_localization(t, wl, model):
    """simulate --contact, detect, estimate --detection through cli.main,
    traced, on the workload's model and contact."""
    ramp_text, s_c, q_c, s0 = workload_contact(wl)
    d = wl.work / "probe_loc"
    d.mkdir(parents=True, exist_ok=True)
    path = d / "model.json"
    path.write_text(model.to_json() + "\n")
    with t.instrumented():
        for stage, argv in W.localize_argv(d, path, ramp_text, s_c, q_c, s0).items():
            rc = W.run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"probe {stage} exited {rc}")
    localization_counts(t, d, s_c)


def probe_sweep(t, wl, model):
    pl = resolve("pipeline")
    ramp = pl.PressureRamp.parse(PROBE_RAMP)
    for s_c in (100.0, 250.0, 400.0):
        t.call("pipeline.isa_sweep_index", model, ramp, s_c)
    if "pipeline.sweep" not in t.names():
        s_values = [100.0, 250.0, 400.0]
        with t.span("pipeline.sweep", locations=len(s_values)):
            pl.sweep(model, ramp, s_values)


# probe -> span names it supplies; it runs only when the traced operations
# left one of them without a span.  Probes with no names always run.
PROBES = [
    (probe_subprocesses, ()),
    (probe_stages_inproc, ()),
    (probe_io, ()),
    (probe_quadrature, ()),
    (probe_theta, ()),
    (probe_theta_grid, ()),
    (probe_kinematics, ()),
    (probe_contact, ()),
    (probe_predicted_centrode, ()),
    (probe_calibration, ("calibration.load_calibration_csv", "calibration.fit_modal")),
    (probe_resolved_rates, ("kinematics.resolved_rates",)),
    (probe_localization, ("pipeline.simulate_contact", "pipeline.model_centrode",
                          "centrode.fcd_detect", "estimation.estimate_contact")),
    (probe_sweep, ()),
]


def per_layer_metrics(t, overhead_ms, ref_kernel_ms) -> dict:
    durations = defaultdict(list)
    for s in t.spans:
        if s["end"] is not None:
            durations[s["name"]].append(s["end"] - s["start"])

    def med(key):
        vals = t.counts.get(key)
        return float(statistics.median(vals)) if vals else None

    vals = {}
    for metric, unit, span in PER_LAYER:
        if durations.get(span):
            vals[metric] = statistics.median(durations[span]) * SCALE[unit]
    if t.counts.get("grid_nodes"):
        # (s, q) evaluations of one pass over the workload's median ramp
        vals["modal.grid_points"] = med("grid_nodes") * med("ramp_samples")
    vals["kinematics.rr_iterations"] = med("rr_iterations")
    rr = t.counts.get("rr_converged")
    vals["kinematics.rr_converged_ratio"] = sum(rr) / len(rr) if rr else None
    vals["centrode.valid_ratio"] = med("valid_ratio")
    vals["estimation.lm_iterations"] = med("lm_iterations")
    vals["estimation.lm_accepted_ratio"] = med("lm_accepted")
    errs = t.counts.get("loc_err")
    vals["estimation.loc_err_LU.p50"] = med("loc_err")
    vals["estimation.loc_err_LU.max"] = max(errs) if errs else None
    per_loc = [(s["end"] - s["start"]) / s["locations"] for s in t.spans
               if s["name"] == "pipeline.sweep" and s["end"] is not None
               and s.get("locations")]
    pc = vals.get("estimation.predicted_centrode_ms")
    if per_loc and pc:
        vals["pipeline.sweep_overhead_ratio"] = 1e3 * statistics.median(per_loc) / pc
    vals["trace.overhead_ms"] = overhead_ms
    vals["trace.ref_kernel_ms"] = ref_kernel_ms
    out = {}
    for metric, unit, _ in PER_LAYER:
        v = vals.get(metric)
        out[metric] = ({"value": float(v), "unit": unit} if v is not None
                       else {"value": None, "unit": unit, "missing": True})
    return out


def traced_run(wl, seconds, tally, closed_loop):
    """Untraced ops, the same ops traced, then probes; per-layer metrics."""
    if isinstance(wl, W.CliPipeline):
        wl.in_process = True  # spans cannot reach into stage processes
    gauge = speed.SpeedGauge()
    ops = closed_loop(wl, seconds / 2.0, tally, gauge=gauge)
    t = Tracer()
    overheads = []
    deadline = time.perf_counter() + seconds / 2.0
    with t.instrumented():
        for i, dt in zip(ops["indices"], ops["durations"]):
            t.op = i
            try:
                with t.span("op") as rec:
                    parts = wl.op(i)
                op_counts(t, wl, i)
                problems = wl.check(i, parts)
            except Exception:  # a failed operation, as in the untraced loop
                problems = [traceback.format_exc(limit=3)]
            tally.record(f"traced op {i}", problems)
            if problems:
                break
            overheads.append((rec["end"] - rec["start"]) - dt)
            if time.perf_counter() >= deadline:
                break
    model = workload_model(wl)
    if not t.counts["ramp_samples"]:
        ramp_text = workload_contact(wl)[0]
        t.counts["ramp_samples"].append(
            len(resolve("pipeline.PressureRamp").parse(ramp_text).values))
    for probe, supplies in PROBES:
        if supplies and all(name in t.names() for name in supplies):
            continue
        t.op = f"probe.{probe.__name__}"
        try:
            probe(t, wl, model)
        except Exception:  # a missing layer must not end the run
            print(f"perfbench: {probe.__name__} incomplete, its metrics may be "
                  f"missing:\n{traceback.format_exc(limit=4)}", file=sys.stderr)
    overhead = 1e3 * statistics.median(overheads) if overheads else None
    selft = t.self_times()
    doc = {"untraced_ops": len(ops["durations"]), "traced_ops": len(overheads),
           "overhead_note": "traced minus untraced time of the same operations, "
                            "on the same code path (cli_pipeline: its stages "
                            "through in-process cli.main in both)",
           "spans": [dict(s, self=selft.get(s["id"])) for s in t.spans]}
    return per_layer_metrics(t, overhead, gauge.median_ref_ms()), doc

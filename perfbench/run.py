"""bellowkin benchmark: one workload per run, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload localize_stream --seed 1 --seconds 26 --trace 0

The run builds nothing: it imports bellowkin from the checkout's ``src``
and refuses to run when that tree is absent.  It runs the workload's
program set-up and generates its inputs from the seed (untimed), issues
operations one after another for ``--seconds`` and checks every
operation's outputs, then times the set-up in fresh interpreters.  It
prints a readable report and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, tracing off.
* ``--trace 1``: the per-layer metrics, from the same operations issued
  again with spans around the library calls the CLI stages make (see
  tracing.py).

A copy of each result, with the environment it ran in, is written to
``.perfbench_work/results/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# The set-up of a workload in a fresh interpreter: import the benchmark's
# workload module (which imports bellowkin.cli), then the program set-up.
SETUP_CHILD = ("import sys, pathlib; sys.path[:0] = sys.argv[1:3]; "
               "import workloads; "
               "workloads.WORKLOADS[sys.argv[3]].setup(pathlib.Path(sys.argv[4]))")

END_TO_END_UNITS = {"setup_s": "s", "norm_op_ms.p50": "ms", "peak_rss_MB": "MB"}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cli_pipeline", "localize_stream", "sweep_map",
                            "ik_calibrate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import bellowkin from this checkout's sources, never from elsewhere."""
    if not (SRC / "bellowkin" / "__init__.py").is_file():
        fail(f"no bellowkin sources under {SRC}; run from a full checkout")
    # One thread per process (this one and each stage child), so a run
    # loads one core and BLAS worker threads add no noise; explicit
    # settings in the environment still win.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs the path above)
    import bellowkin
    if Path(bellowkin.__file__).resolve().parent != (SRC / "bellowkin").resolve():
        fail(f"bellowkin imported from {bellowkin.__file__}, not {SRC}")
    return workloads


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit, "seed": seed}


def time_setup(workloads, name: str, work: Path, speed) -> dict:
    """The workload's set-up in fresh interpreters, at nominal machine speed.

    Each set-up process is normalized by the fresh-interpreter gauge,
    sampled before and after it.  One untimed set-up first, so a cold
    bytecode cache in a fresh checkout does not land in the figure.
    Returns the median normalized time and the median wall time.
    """
    env = workloads.child_env()
    gauge = speed.fresh_gauge(env)
    gauge.sample()
    walls, norms = [], []
    for k in range(SETUP_REPEATS + 1):
        d = work / f"setup{k}"
        cmd = [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC), name, str(d)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter exited "
                               f"{proc.returncode}: {proc.stderr.decode()[-400:]}")
        gauge.sample()
        shutil.rmtree(d, ignore_errors=True)
        if k > 0:
            walls.append(t1 - t0)
            norms.append(gauge.normalize(t1 - t0, t0, t1))
    return {"setup_s": statistics.median(norms), "wall_s": statistics.median(walls)}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def closed_loop(wl, seconds: float, tally: Tally, min_ops: int = 1,
                gauge=None) -> dict:
    """Issue operations one at a time for `seconds`, and at least `min_ops`.

    No operation starts once the last one's duration would carry it past
    the deadline, so a run of long operations ends near `seconds` too.
    With a gauge, the reference kernel is timed between operations (at
    most every 0.25 s) and once after the last.  An operation returns the
    (start, end) of each of its timed parts.  Returns the index, wall
    seconds, part windows and part seconds of each operation that passed
    its check; failed ones count in the tally and in no latency figure.
    """
    ok = {"indices": [], "durations": [], "windows": [], "parts": []}
    deadline = time.perf_counter() + seconds
    i, last = 0, 0.0
    while True:
        if gauge is not None:
            gauge.sample_if_due(last)
        t0 = time.perf_counter()
        try:
            p = wl.op(i)
            problems = wl.check(i, p)
        except Exception:  # an operation that raises is a failed operation
            problems = [traceback.format_exc(limit=3)]
        tally.record(f"op {i}", problems)
        if not problems:
            secs = {k: b - a for k, (a, b) in p.items()}
            for key, val in (("indices", i), ("durations", sum(secs.values())),
                             ("windows", list(p.values())), ("parts", secs)):
                ok[key].append(val)
        i += 1
        now = time.perf_counter()
        last = now - t0
        if i >= min_ops and now + last >= deadline:
            if gauge is not None:
                gauge.sample_after(last)
            return ok


def peak_rss_mb() -> float:
    """Largest peak resident memory of this process and its waited-for
    children.  Read after the operations and before the set-up timing, the
    children are the workload's own stage processes (and one `git
    rev-parse`, far smaller)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(setup_s, ops, gauge, rss_mb) -> dict:
    """The gated metrics: set-up and operation times at nominal machine
    speed, and peak memory."""
    vals = {"setup_s": setup_s}
    if ops["durations"]:
        norm = [sum(gauge.normalize(b - a, a, b) for a, b in parts)
                for parts in ops["windows"]]
        vals["norm_op_ms.p50"] = 1e3 * statistics.median(norm)
    vals["peak_rss_MB"] = rss_mb
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in vals.items()}


def wall_figures(wl, ops, gauge) -> dict:
    """The operation figures in plain wall time, for the report only."""
    d = ops["durations"]
    figs = {"reference_kernel_ms": (gauge.median_ref_ms(), "ms")}
    if d:
        figs["op_ms.p50 (wall)"] = (1e3 * statistics.median(d), "ms")
    return figs


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import speed  # after import_program: numpy must see the thread limits
    env = environment(args.seed)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work / "run")
        tally = Tally()
        if args.trace == 0:
            wl.prepare()
            tally.record("set-up", wl.setup_problems())
            gauge = wl.make_gauge()
            ops = closed_loop(wl, args.seconds, tally, wl.min_ops, gauge)
            rss_mb = peak_rss_mb()
            setup = time_setup(workloads, args.workload, work, speed)
            metrics = end_to_end(setup["setup_s"], ops, gauge, rss_mb)
            report["ops_timed"] = len(ops["durations"])
            figs = wall_figures(wl, ops, gauge)
            figs["setup_s (wall)"] = (setup["wall_s"], "s")
            if ops["parts"]:
                figs.update(wl.named_figures(ops["parts"]))
            report["wall_figures"] = {k: {"value": v, "unit": u}
                                      for k, (v, u) in figs.items()}
        else:
            import tracing
            wl.prepare()
            tally.record("set-up", wl.setup_problems())
            metrics, trace_doc = tracing.traced_run(wl, args.seconds, tally, closed_loop)
            report["ops_timed"] = trace_doc["untraced_ops"]
            (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
            spans_path = (WORK_ROOT / "results"
                          / f"{args.workload}-seed{args.seed}-spans.json")
            spans_path.write_text(json.dumps(trace_doc, indent=1))
            report["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    report.update(result, failure_reasons=tally.reasons)
    (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
    (WORK_ROOT / "results"
     / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"env {json.dumps(env)}")
    print(f"operations: {tally.attempted} attempted (set-up check included), "
          f"{tally.failed} failed, failed_frac {tally.failed / tally.attempted:.4g}; "
          f"{report['ops_timed']} timed; unit of work: {wl.unit_of_work}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    for k, m in report.get("wall_figures", {}).items():
        print(f"  {k:<28} {m['value']:.6g} {m['unit']}")
    for k, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {k:<36} {value} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

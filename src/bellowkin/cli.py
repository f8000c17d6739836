"""Command-line driver: file-in, file-out stages of the simulation pipeline.

Subcommands mirror the experiment flow: calibrate a model from annotated
backbone points, simulate pose streams along pressure ramps (optionally
with a pin), detect contact from centrode deviation, estimate the contact
location, and sweep contact locations for the ISA-difference index.

Exit codes: 0 success, 1 I/O or parse failure, 2 rank-deficient fit,
3 non-convergence (best iterate still written).  main maps every failure
to its exit code and one line on stderr.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import centrode as ct
from . import pipeline as pl
from .calibration import RankDeficientError, fit_modal, load_calibration_csv
from .estimation import LM_MAX_ITER
from .io import write_columns, write_json, write_text
from .modal import DEFAULT_UNIT_SCALE, ModalModel

EXIT_OK = 0
EXIT_IO = 1
EXIT_RANK = 2
EXIT_NOCONV = 3


def _load_model(path) -> ModalModel:
    with open(path) as f:
        return ModalModel.from_json(f.read())


def _parse_pair(text: str, sep: str, flag: str, names: tuple):
    """'100@5' -> (100, 5) for sep '@'; flag and the two field names
    name what is wrong in errors."""
    parts = text.split(sep)
    if len(parts) != 2:
        raise ValueError(f"{flag} must be {sep.join(names)}, got {text!r}")
    return tuple(pl._number(p, f"{flag} {n}") for p, n in zip(parts, names))


def _out_dir(args):
    """Path maker for a stage's artifacts.  Called once per stage, when its
    results are at hand, so a stage that fails first leaves no out-dir."""
    os.makedirs(args.out_dir, exist_ok=True)
    return functools.partial(os.path.join, args.out_dir)


def cmd_calibrate(args) -> int:
    dataset = load_calibration_csv(args.input)
    model, report = fit_modal(dataset, v=args.v, w=args.w,
                              unit_scale=args.unit_scale)
    out = _out_dir(args)
    write_text(out("model.json"), model.to_json() + "\n")
    write_text(out("fit_report.json"), report.to_json() + "\n")
    print(f"calibrated v={model.v} w={model.w} L={model.L:.6g}; "
          f"max point residual {report.max_point_err_mm:.4g} mm")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    ramp = pl.PressureRamp.parse(args.ramp)
    contact_state = None
    if args.contact is not None:
        s_c, q_c = _parse_pair(args.contact, "@", "--contact", ("s_c", "q_c"))
        stream, contact_state = pl.simulate_contact(model, ramp, s_c, q_c)
    else:
        stream = pl.simulate_free(model, ramp)
    # add_noise refuses a negative or non-finite sigma
    if args.noise_pos != 0 or args.noise_ang != 0:
        stream = pl.add_noise(stream, args.noise_pos, args.noise_ang,
                              seed=args.seed)
    out = _out_dir(args)
    ct.write_pose_stream(out("pose_stream.csv"), stream)
    if contact_state is not None:
        write_text(out("contact_state.json"), contact_state.to_json() + "\n")
    print(f"wrote {stream.t.size} samples")
    return EXIT_OK


def _row_of_t(stream: ct.PoseStream, t: int, source: str) -> int:
    """Row position of the stream sample whose own t is t."""
    rows = np.flatnonzero(stream.t == t)
    if rows.size == 0:
        raise ValueError(f"{source} {t} is not a t of the stream")
    return int(rows[0])


def cmd_detect(args) -> int:
    model = _load_model(args.model)
    stream = ct.read_pose_stream(args.stream)
    sensed, modeled, xi, result, row = pl.detect(model, stream, xi=args.xi,
                                                 window=args.window)
    out = _out_dir(args)
    ct.write_centrode(out("sensed_centrode.csv"), sensed, stream.t)
    ct.write_centrode(out("model_centrode.csv"), modeled, stream.t)
    write_json(out("detection.json"), {
        "detected": result.detected,
        "onset_t": result.onset_t if result.detected else None,
        "q_at_onset": float(stream.q[row]) if result.detected else None,
        "max_deviation": result.max_deviation,
    })
    print(f"detected={result.detected} onset_t={result.onset_t} "
          f"xi={xi:.6g} max_dev={result.max_deviation:.6g}")
    return EXIT_OK


def _detected_onset_t(path) -> int:
    """The onset t a detection.json reports: an object whose "detected" is
    true (a boolean) and whose "onset_t" is an integer (not a boolean)."""
    with open(path) as f:
        doc = json.load(f)
    if not (isinstance(doc, dict) and isinstance(doc.get("detected"), bool)):
        raise ValueError("detection result must be a JSON object with a "
                         "boolean \"detected\"")
    if not doc["detected"]:
        raise ValueError("detection result reports no contact")
    onset_t = doc.get("onset_t")
    if not isinstance(onset_t, int) or isinstance(onset_t, bool):
        raise ValueError(f"detection result's onset_t must be an integer, "
                         f"got {json.dumps(onset_t)}")
    return onset_t


def cmd_estimate(args) -> int:
    model = _load_model(args.model)
    stream = ct.read_pose_stream(args.stream)
    # both onset sources name the stream's own t
    onset = 0
    if args.onset_t is not None:
        onset = _row_of_t(stream, args.onset_t, "--onset-t")
    elif args.detection is not None:
        onset = _row_of_t(stream, _detected_onset_t(args.detection),
                          "detected onset_t")
    s_c_est, report = pl.estimate(
        model, stream, args.s0, onset_row=onset,
        bounds=(_parse_pair(args.bounds, ":", "--bounds", ("lo", "hi"))
                if args.bounds else None),
        speed_weights=args.speed_weights, max_iter=args.max_iter)
    out = _out_dir(args)
    write_json(out("estimation.json"), {k: report[k] for k in (
        "s_c_est", "iterations", "final_objective", "end_tip_error_LU",
        "converged")})
    write_columns(out("estimate_iters.csv"), ["iter", "s_c", "objective"],
                  ["%d", "%.17g", "%.17g"], list(zip(*report["trace"])))
    print(f"s_c_est={s_c_est:.6g} iterations={report['iterations']} "
          f"end_tip_error_LU={report['end_tip_error_LU']:.6g} "
          f"converged={report['converged']}")
    return EXIT_OK if report["converged"] else EXIT_NOCONV


def cmd_sweep(args) -> int:
    model = _load_model(args.model)
    ramp = pl.PressureRamp.parse(args.ramp)
    s_values = [pl._number(v, "--s-values entry")
                for v in args.s_values.split(",") if v.strip()]
    if not s_values:
        raise ValueError("empty --s-values")
    outside = [s for s in s_values if not 0.0 <= s < model.L]
    if outside:
        raise ValueError(f"--s-values {','.join(f'{s:g}' for s in outside)} "
                         f"outside [0, {model.L:g})")
    rows = pl.sweep(model, ramp, s_values)
    write_columns(_out_dir(args)("sweep.csv"), ["s_c", "max_isa_diff"],
                  ["%.17g", "%.17g"], list(zip(*rows)))
    for s_c, val in rows:
        print(f"s_c={s_c:g}: max ISA difference {val:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bellowkin",
                                description="modal bellow kinematics pipeline")
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (long names, no dashes)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="fit a modal model from backbone CSV")
    c.add_argument("--input", required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--v", type=int, default=3)
    c.add_argument("--w", type=int, default=3)
    c.add_argument("--unit-scale", type=float, default=DEFAULT_UNIT_SCALE)
    c.set_defaults(fn=cmd_calibrate)

    s = sub.add_parser("simulate", help="pose stream along a pressure ramp")
    s.add_argument("--model", required=True)
    s.add_argument("--ramp", required=True, help="start:end:step, Psi")
    s.add_argument("--contact", default=None, help="s_c@q_c")
    s.add_argument("--noise-pos", type=float, default=0.0)
    s.add_argument("--noise-ang", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", required=True)
    s.set_defaults(fn=cmd_simulate)

    d = sub.add_parser("detect", help="centrode-deviation contact detection")
    d.add_argument("--model", required=True)
    d.add_argument("--stream", required=True)
    d.add_argument("--xi", type=float, default=None,
                   help="deviation threshold LU (default: noise floor x 3)")
    d.add_argument("--window", type=int, default=ct.DEFAULT_WINDOW)
    d.add_argument("--out-dir", required=True)
    d.set_defaults(fn=cmd_detect)

    e = sub.add_parser("estimate", help="contact location from centrode gap")
    e.add_argument("--model", required=True)
    e.add_argument("--stream", required=True)
    e.add_argument("--detection", default=None,
                   help="detection.json supplying the onset t")
    e.add_argument("--onset-t", type=int, default=None,
                   help="onset as the stream's own t, as detection.json "
                        "reports it (default: the first sample)")
    e.add_argument("--s0", type=float, required=True)
    e.add_argument("--bounds", default=None, help="lo:hi LU")
    e.add_argument("--max-iter", type=int, default=LM_MAX_ITER)
    e.add_argument("--speed-weights", action="store_true")
    e.add_argument("--out-dir", required=True)
    e.set_defaults(fn=cmd_estimate)

    w = sub.add_parser("sweep", help="ISA-difference index per contact location")
    w.add_argument("--model", required=True)
    w.add_argument("--ramp", required=True)
    w.add_argument("--s-values", required=True, help="comma list of s_c LU")
    w.add_argument("--out-dir", required=True)
    w.set_defaults(fn=cmd_sweep)
    return p


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser without --config defaults, built once per process:
    in-process callers run a stage per call, and each build costs about
    2 ms and leaves reference cycles that only a full collection frees."""
    return build_parser()


def _config_value(action, val):
    """A --config value through its flag's own type, as command-line text
    is: a JSON boolean for a switch, a string or a number for the rest."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise ValueError(f"{flag} takes true or false")
        return val
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise ValueError(f"{flag} takes a string or a number")
    text = str(val)
    if action.type is None:
        return text
    try:
        return action.type(text)
    except ValueError:
        raise ValueError(f"{flag}: invalid {action.type.__name__} value "
                         f"{text!r}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config supplies defaults (and satisfies required flags) by rewriting
    # the parser's, so it gets a parser of its own; explicit command-line
    # flags still win
    parser = build_parser() if "--config" in argv else _shared_parser()
    if "--config" in argv:
        try:
            cfg_path = argv[argv.index("--config") + 1]
            with open(cfg_path) as f:
                cfg = json.load(f)
            if not isinstance(cfg, dict):
                raise ValueError("config must be a JSON object")
        except (OSError, ValueError, IndexError) as e:
            print(f"config: {e}", file=sys.stderr)
            return EXIT_IO
        overrides = {key.replace("-", "_"): val for key, val in cfg.items()}
        applied = set()
        try:
            for group in parser._subparsers._group_actions:
                for child in group.choices.values():
                    for action in child._actions:
                        if action.dest in overrides:
                            action.default = _config_value(
                                action, overrides[action.dest])
                            action.required = False
                            applied.add(action.dest)
        except ValueError as e:
            print(f"config: {e}", file=sys.stderr)
            return EXIT_IO
        unknown = set(overrides) - applied
        if unknown:
            print(f"config: unknown keys {sorted(unknown)}", file=sys.stderr)
            return EXIT_IO
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_IO if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as e:
        # RankDeficientError is a ValueError with an exit code of its own
        print(f"{args.command}: {e}", file=sys.stderr)
        return EXIT_RANK if isinstance(e, RankDeficientError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

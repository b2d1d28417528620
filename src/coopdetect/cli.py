"""Command-line interface: run experiments, calibrate, emit fixtures, inspect runs."""

from __future__ import annotations

import argparse
import sys

from .errors import CoopDetectError, InvalidConfig
from .harness import (
    AXIS_FIELDS,
    MODES,
    ExperimentConfig,
    calibrate,
    load_config,
    run_experiment,
)
from .scenario import read_json, save_scenario

_SWEEP_DEFAULTS = {
    "coop_degree": (1, 2, 3, 4),
    "M": (8, 16, 32),
    "L": (12, 24, 48),
    "snr_db": (0.0, 5.0, 10.0),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--seed", type=int, help="master seed (mandatory here or in the config)")
    p.add_argument("--mode", help=f"comma-separated modes: {','.join(MODES)}")
    p.add_argument("--sweep", help="sweep axis, optionally axis=v1,v2,...")
    p.add_argument("--out", help="output directory")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point")
    p.add_argument("--failure-plan", help="JSON failure plan file")


def _parse_sweep(text: str):
    if "=" in text:
        axis, raw = text.split("=", 1)
        values, axis_kind = [], AXIS_FIELDS.get(axis, (None, int))[1]
        for v in raw.split(","):
            kind = float if "." in v else axis_kind
            try:
                values.append(kind(v))
            except ValueError:
                what = "a number" if kind is float else "an integer"
                raise InvalidConfig(f"sweep value {v!r} on {axis} is not {what}") from None
        return axis, tuple(values)
    return text, _SWEEP_DEFAULTS.get(text)


def _build_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.mode:
        updates["modes"] = tuple(args.mode.split(","))
    if args.sweep:
        axis, values = _parse_sweep(args.sweep)
        updates["sweep_axis"] = axis
        if values:
            updates["sweep_values"] = values
    if args.out:
        updates["out_dir"] = args.out
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.failure_plan:
        updates["failure_plan"] = read_json(args.failure_plan, "failure plan file")
    if updates:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **updates})
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    artifact = run_experiment(cfg)
    print(f"config hash: {artifact.config_hash}")
    print(f"{'axis':>10} {'mode':>18} {'mean AER':>10} {'stderr':>10} {'trials':>7}")
    for a in artifact.aggregates:
        print(f"{a['axis_value']!s:>10} {a['mode']:>18} "
              f"{a['mean_aer']:>10.4f} {a['stderr']:>10.4f} {a['trials']:>7}")
    if cfg.out_dir:
        print(f"wrote outputs to {cfg.out_dir}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _build_config(args)
    for mode, iota in calibrate(cfg, 0, cfg.sweep_values[0]).items():
        print(f"{mode}: iota* = {iota:.6g}")
    return 0


def _cmd_fixture(args) -> int:
    from .harness import build_scenario, trial_seed

    cfg = _build_config(args)
    if not args.out:
        print("fixture requires --out FILE", file=sys.stderr)
        return 2
    seed = trial_seed(cfg.master_seed, 0, 0)
    scenario = build_scenario(cfg, cfg.sweep_values[0], seed)
    save_scenario(scenario, args.out)
    print(f"wrote scenario fixture (seed {seed}) to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    try:
        summary = read_json(args.path, "summary")
        lines = [f"config hash: {summary['config_hash']}",
                 f"axis: {summary['axis']} | trial rows: {summary['trials']}"]
        lines += [f"  {summary['axis']}={a['axis_value']} mode={a['mode']}: "
                  f"AER {a['mean_aer']:.4f} +/- {a['stderr']:.4f} "
                  f"(missed {a['mean_missed']:.4f}, false alarm {a['mean_false_alarm']:.4f}, "
                  f"iota {a['iota']:.4g})" for a in summary["aggregates"]]
    except InvalidConfig as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as err:
        print(f"error: {args.path} is not a summary.json ({type(err).__name__}: {err})",
              file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopdetect",
        description="Cooperative covariance-based activity detection experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="calibrate the detection threshold")
    _add_common(p_cal)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_fix = sub.add_parser("fixture", help="emit a pinned golden scenario as JSON")
    _add_common(p_fix)
    p_fix.set_defaults(func=_cmd_fixture)

    p_ins = sub.add_parser("inspect", help="print stats from a summary.json")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return 2
    except CoopDetectError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment driver: seeded Monte-Carlo sweeps, baselines, plot-ready output.

A single :class:`ExperimentConfig` describes scenario parameters, solver
hyperparameters, one sweep axis with its values, the detection modes to
compare, and the trial count.  Every trial seed is derived from the master
seed, the sweep position and the trial index, so runs are reproducible
byte-for-byte and modes are compared on identical scenarios.

``validate`` applies the checks a trial applies (``TopologyConfig``,
``check_sizes``, ``FailurePlan.validate``) at the config's own values and at
every sweep point, before any solve.  One trial path, ``_solve_batch``, draws
the scenarios of a batch of trials of one sweep point and solves every trial
in every mode in one ``solver.run_batch``: the problems are stacked trial by
trial, modes in config order within a trial.  Evaluation rows and
``calibrate`` both go through it; ``BATCH_APS`` caps a batch's size.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import numbers
import os
import typing
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import metrics, solver
from .errors import InvalidConfig
from .netsim import FailurePlan
from .objective import Hyperparams
from .scenario import (
    Scenario,
    TopologyConfig,
    build_topology,
    check_sizes,
    is_finite,
    isolated,
    make_scenario,
    synthesize,
)

# Sweep axis -> the config field it sets and that field's type.
_AXIS_FIELDS = {"coop_degree": ("degree", int), "M": ("num_antennas", int),
                "L": ("pilot_len", int), "snr_db": ("snr_db", float)}
SWEEP_AXES = tuple(_AXIS_FIELDS)
MODES = ("cmd", "no_coop", "centralized_pool")

# Most APs, over all trials and modes, that one batched solve advances, with
# each trial's pilot table counted as APs (solver.batch_aps); the batch's
# arrays and temporaries grow with it.
BATCH_APS = 256

# What each type a config field is annotated with accepts, and its name in messages.
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string"), bool: (bool, "true or false"),
          tuple: ((tuple, list), "a list"), dict: (dict, "an object"),
          type(None): (type(None), "null")}

_TRIAL_SALT = 0x7E57
_CALIBRATION_SALT = 0xCA11B


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; see ``validate`` for constraints."""

    # scenario
    num_aps: int = 5
    num_devices: int = 100
    num_active: int = 10
    pilot_len: int = 24
    num_antennas: int = 16
    snr_db: float = 10.0
    layout: str = "grid"
    degree: int = 4
    ap_spacing: float = 500.0
    gain_ref: float | str | None = "auto"    # "auto" -> 10^(snr_db/10)
    pathloss_exponent: float = 3.7
    # hyperparameters
    beta: float = 0.038
    tau: float = 0.0075
    theta: float = 1.0 / 0.039
    eta: float = 0.003
    rho: float = 500.0
    iota: float | None = None                # None -> calibrated per sweep point/mode
    num_iters: int = 40
    # experiment
    sweep_axis: str = "coop_degree"
    sweep_values: tuple = (4,)
    trials: int = 20
    calibration_trials: int = 5
    modes: tuple = ("cmd",)
    master_seed: int | None = None
    failure_plan: dict | None = None
    lag_transmit: bool = False
    b0_mode: str = "nearest"
    out_dir: str | None = None
    workers: int = 1

    def validate(self) -> None:
        """Raise InvalidConfig naming every problem a run of this config would hit."""
        # The checks below compare and convert values, so a field of another type stops here.
        wrong = []
        for name, (kinds, what) in _field_kinds().items():
            value = getattr(self, name)
            # A bool is an int to isinstance, but true is not a count.
            if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
                wrong.append(f"{name} must be {what}, got {value!r}")
        if wrong:
            raise InvalidConfig("; ".join(wrong))
        problems = []
        for name in ("trials", "calibration_trials", "workers"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        # Only finite numbers reach _at_point, which would raise on anything
        # else; a bool is a number to isinstance, but true is no sweep value.
        ok = [isinstance(v, numbers.Real) and not isinstance(v, bool) and is_finite(v)
              for v in self.sweep_values]
        values = [v for v, good in zip(self.sweep_values, ok) if good]
        if not all(ok):
            problems.append("sweep_values must be finite numbers, got "
                            f"{[v for v, good in zip(self.sweep_values, ok) if not good]}")
        if self.sweep_axis not in SWEEP_AXES:
            problems.append(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        elif _AXIS_FIELDS[self.sweep_axis][1] is int:
            # _at_point truncates with int(), which would run 1.5 as 1 under the label 1.5.
            fractional = [v for v in values if v != int(v)]
            if fractional:
                problems.append(f"sweep_values on {self.sweep_axis} must be integers, "
                                f"got {fractional}")
        if not self.sweep_values:
            problems.append("sweep_values must be nonempty")
        # Rows are aggregated by axis value, so a repeated value would merge two points.
        repeated = [v for i, v in enumerate(self.sweep_values) if v in self.sweep_values[:i]]
        if repeated:
            problems.append(f"sweep_values repeat {repeated}")
        if not self.modes:
            problems.append("modes must be nonempty")
        for m in self.modes:
            if m not in MODES:
                problems.append(f"unknown mode {m!r}, valid: {MODES}")
        if self.master_seed is None:
            problems.append("master_seed is mandatory")
        elif self.master_seed < 0:
            problems.append(f"master_seed must be a nonnegative integer, got {self.master_seed}")
        problems += self.hyper().problems()
        # The threshold scale must be positive; an iota of None is calibrated.
        if self.iota is not None and not (is_finite(self.iota) and self.iota > 0):
            problems.append(f"iota must be positive and finite, got {self.iota}")
        # The AER needs both classes: active and inactive devices.
        if self.num_devices > 0 and self.num_active in (0, self.num_devices):
            problems.append(f"num_active must be in [1, {self.num_devices - 1}] for the AER "
                            f"to be defined, got {self.num_active}")
        if self.b0_mode not in ("nearest", "max_gamma"):
            problems.append(f"b0_mode must be 'nearest' or 'max_gamma', got {self.b0_mode!r}")
        plan = None
        if self.failure_plan is not None:
            try:
                plan = FailurePlan.from_dict(self.failure_plan)
            except (InvalidConfig, TypeError, KeyError, ValueError) as err:
                problems.append(f"failure_plan invalid: {err}")
        # A trial's own checks at every sweep point; points failing alike share a
        # message.  Trials run only at sweep points, so the config's own value of
        # the swept field is checked only where no valid point can name a broken
        # field.
        points = {}
        if self.sweep_axis in SWEEP_AXES:
            points = {f"sweep point {self.sweep_axis}={v!r}": _at_point(self, v)
                      for v in values}
        if not points:
            points = {"config values": self}
        failures: dict[str, list[str]] = {}
        neighbors = cache(lambda topo: build_topology(topo)[1])
        for label, point in points.items():
            try:
                topo = _topology(point)
                check_sizes(point.num_devices, point.num_active, point.pilot_len,
                            point.num_antennas, point.snr_db, _resolved_gain_ref(point),
                            point.pathloss_exponent)
                if plan is not None:
                    plan.validate(neighbors(topo), point.num_iters)
            except InvalidConfig as err:
                failures.setdefault(str(err), []).append(label)
        problems += [f"{' and '.join(labels)}: {err}" for err, labels in failures.items()]
        if problems:
            raise InvalidConfig("; ".join(problems))

    def hyper(self) -> Hyperparams:
        return Hyperparams(beta=self.beta, tau=self.tau, theta=self.theta,
                           eta=self.eta, rho=self.rho, num_iters=self.num_iters)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sweep_values"] = list(self.sweep_values)
        d["modes"] = list(self.modes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InvalidConfig(f"a config must be a JSON object, got {d!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InvalidConfig(f"unknown config fields: {sorted(unknown)}")
        d = dict(d)
        for name in ("sweep_values", "modes"):
            # Only lists: a bare string would become a tuple of its characters.
            if isinstance(d.get(name), list):
                d[name] = tuple(d[name])
        return cls(**d)

    def config_hash(self) -> str:
        """Stable digest over everything that affects results (not output paths)."""
        d = self.to_dict()
        d.pop("out_dir")
        d.pop("workers")
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


@cache
def _field_kinds() -> dict:
    """Per config field, the types it accepts and how messages name them."""
    out = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        kinds = [_KINDS[k] for k in typing.get_args(hint) or (hint,)]
        out[name] = (tuple(kind for kind, _ in kinds), " or ".join(what for _, what in kinds))
    return out


def read_json(path, what: str):
    """The JSON document in the file ``path``; InvalidConfig if it is missing or not JSON.

    ``what`` names the file in the message.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InvalidConfig(f"cannot read {what} {path}: {err.strerror}") from None
    except ValueError as err:  # not JSON, or not text
        raise InvalidConfig(f"{what} {path} is not JSON: {err}") from None


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path, "config file"))


def desk_fixture(master_seed: int, **overrides) -> ExperimentConfig:
    """Minutes-scale configuration used by the acceptance suite and demos.

    Scenario sizes follow the reference desk scale (5 APs, 100 devices, 10
    active, 24-symbol pilots, 16 antennas, 10 dB).  The similarity weight,
    combiner sharpness, iteration count and path-loss exponent are
    calibrated to this simulator's gain units: the reference values for
    those constants are tied to an absolute scale their source experiments
    do not disclose.  At desk scale neighboring estimates differ by ~100
    gain units, so with rho = 500 every neighbor's combiner weight
    sigmoid(-rho * distance) underflows to zero and cooperation is inert
    (cmd stays within 1e-6 of no_coop).  Reference values remain the
    ``ExperimentConfig`` defaults.
    """
    params = dict(
        num_aps=5,
        num_devices=100,
        num_active=10,
        pilot_len=24,
        num_antennas=16,
        snr_db=10.0,
        degree=4,
        pathloss_exponent=3.0,
        tau=10.0,
        rho=0.2,
        num_iters=400,
        trials=20,
        master_seed=master_seed,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _at_point(cfg: ExperimentConfig, sweep_value) -> ExperimentConfig:
    """The config with the sweep axis value applied."""
    name, kind = _AXIS_FIELDS[cfg.sweep_axis]
    return replace(cfg, **{name: kind(sweep_value)})


def _topology(cfg: ExperimentConfig, seed: int = 0) -> TopologyConfig:
    return TopologyConfig(num_aps=cfg.num_aps, degree=cfg.degree,
                          ap_spacing=cfg.ap_spacing, layout=cfg.layout, seed=seed)


def _resolved_gain_ref(cfg: ExperimentConfig) -> float | None:
    # "auto" pins the median nearest-AP gain to (L/5) * SNR_lin, i.e. noise
    # power ~ L/5.  Growing the scale with L keeps the fixed gradient step
    # inside its stability region across pilot-length sweeps.
    # An SNR too large for a float gives an infinite scale, which
    # check_sizes rejects.
    if cfg.gain_ref == "auto":
        try:
            return cfg.pilot_len / 5.0 * 10.0 ** (cfg.snr_db / 10.0)
        except OverflowError:
            return math.inf
    if isinstance(cfg.gain_ref, str):
        raise InvalidConfig(f"gain_ref must be a number, None, or 'auto', got {cfg.gain_ref!r}")
    return cfg.gain_ref


def build_scenario(cfg: ExperimentConfig, sweep_value, seed: int) -> Scenario:
    """Scenario for one trial, with the sweep axis value applied."""
    p = _at_point(cfg, sweep_value)
    return make_scenario(_topology(p, seed), num_devices=p.num_devices,
                         num_active=p.num_active, pilot_len=p.pilot_len,
                         num_antennas=p.num_antennas, snr_db=p.snr_db,
                         gain_ref=_resolved_gain_ref(p), pathloss_exponent=p.pathloss_exponent)


def trial_seed(master_seed: int, sweep_index: int, trial_index: int,
               calibration: bool = False) -> int:
    """Derived scenario seed; identical across modes for paired comparison."""
    salt = _CALIBRATION_SALT if calibration else _TRIAL_SALT
    ss = np.random.SeedSequence([int(master_seed), salt, sweep_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _pooled_scenario(scenario: Scenario) -> Scenario:
    topo = replace(scenario.topology, num_aps=1, degree=0)
    return replace(
        scenario,
        topology=topo,
        neighbors=((),),
        ap_pos=scenario.ap_pos[:1],
        gains=scenario.gains.mean(axis=0, keepdims=True),
    )


def mode_dispatch(mode: str, scenario: Scenario, covs: np.ndarray,
                  plan: FailurePlan | None = None) -> solver.Problem:
    """The solver problem ``(scenario, covs, plan)`` of one detection mode.

    ``cmd`` is the full cooperative problem.  ``no_coop`` empties every
    neighbor set, so each AP solves alone and no messages flow: with no
    neighbors the similarity weight never enters.  ``centralized_pool`` is
    one AP holding the average of all sample covariances (an
    upper-reference ablation).  Failure plans only apply to ``cmd``; the
    baselines have no backhaul to fail.
    """
    if mode == "cmd":
        return scenario, covs, plan
    if mode == "no_coop":
        return isolated(scenario), covs, None
    if mode == "centralized_pool":
        return _pooled_scenario(scenario), covs.mean(axis=0, keepdims=True), None
    raise InvalidConfig(f"unknown mode {mode!r}")


def _solve_batch(cfg: ExperimentConfig, sweep_index: int, sweep_value, keys) -> list:
    """Solve the ``(trial index, calibration)`` trials of one sweep point in every mode.

    Each trial is built and synthesized once; all trials x modes go through
    one ``solver.run_batch``.  Returns, per key, the trial's seed, its
    scenario and ``{mode: (gamma, row counts)}``: what scoring needs, so that
    traces and per-AP arrays are not kept or sent back from a worker.
    """
    plan = FailurePlan.from_dict(cfg.failure_plan) if cfg.failure_plan else None
    trials, problems = [], []
    for trial_index, calibration in keys:
        seed = trial_seed(cfg.master_seed, sweep_index, trial_index, calibration)
        scenario = build_scenario(cfg, sweep_value, seed)
        covs = synthesize(scenario)
        trials.append((seed, scenario))
        problems += [mode_dispatch(mode, scenario, covs, plan) for mode in cfg.modes]
    options = solver.SolverOptions(lag_transmit=cfg.lag_transmit, record_cost=False)
    results = iter(solver.run_batch(problems, cfg.hyper(), options))
    return [(seed, scenario, {mode: _outcome(next(results)) for mode in cfg.modes})
            for seed, scenario in trials]


def _outcome(result: solver.RunResult) -> tuple[np.ndarray, dict]:
    """A solve's final estimate and the counts its row reports."""
    return result.gamma, {
        "messages_delivered": result.ledger.total_messages,
        "messages_dropped": result.ledger.total_dropped,
        "scalars_delivered": result.ledger.total_scalars,
        "rounds": result.rounds_completed,
        "clamped": int(result.clamped.sum()),
    }


def _batches(cfg: ExperimentConfig, keys: list) -> list[list]:
    """``keys`` cut into runs of trials whose problems count for at most ``BATCH_APS``
    APs (``solver.batch_aps``) at any sweep point.

    With several workers the runs are shortened so that each worker gets one.
    """
    per_trial = max(solver.batch_aps(cfg.num_aps * len(cfg.modes), p.pilot_len, p.num_devices)
                    for p in (_at_point(cfg, v) for v in cfg.sweep_values))
    size = min(max(1, BATCH_APS // per_trial), -(-len(keys) // cfg.workers))
    return [keys[k:k + size] for k in range(0, len(keys), size)]


def _fit_iotas(cfg: ExperimentConfig, solved: list) -> dict:
    """Threshold multiplier per mode, ``{mode: iota}``, fitted on solved held-out trials."""
    return {mode: metrics.calibrate_threshold([(out[mode][0], scenario)
                                               for _, scenario, out in solved],
                                              grid=CALIBRATION_GRID, b0_mode=cfg.b0_mode)
            for mode in cfg.modes}


def _rows(cfg: ExperimentConfig, sweep_value, solved: list, iotas: dict) -> list:
    """Rows of a sweep point's solved evaluation trials, in order, one per trial and mode."""
    rows = []
    for trial_index, (seed, scenario, out) in enumerate(solved):
        for mode, (gamma, counts) in out.items():
            report = metrics.evaluate(gamma, scenario, iotas[mode], b0_mode=cfg.b0_mode)
            rows.append({"axis_value": sweep_value, "mode": mode, "trial": trial_index,
                         "seed": seed, "missed": report.missed_detection_prob,
                         "false_alarm": report.false_alarm_prob, "aer": report.aer,
                         "aer_pooled": report.aer_pooled, "iota": iotas[mode], **counts})
    return rows


# Wider than the metrics default: desk-scale noise-normalized units sit
# near the bottom of the reference grid, which would pin calibration at
# its boundary and mask mode differences.
CALIBRATION_GRID = tuple(np.logspace(-3.0, 3.0, 49))


def calibrate(cfg: ExperimentConfig, sweep_index: int, sweep_value) -> dict:
    """Threshold multiplier per mode, ``{mode: iota}``, fitted on held-out trials."""
    keys = [(v, True) for v in range(cfg.calibration_trials)]
    return _fit_iotas(cfg, [trial for batch in _batches(cfg, keys)
                            for trial in _solve_batch(cfg, sweep_index, sweep_value, batch)])


@dataclass
class RunArtifact:
    """All rows and aggregates of one experiment, ready to serialize."""

    config: ExperimentConfig
    config_hash: str
    axis: str
    rows: list
    aggregates: list
    iotas: dict

    def to_summary_dict(self) -> dict:
        cfg = self.config.to_dict()
        cfg.pop("out_dir")  # execution details, not part of the experiment
        cfg.pop("workers")
        return {
            "config": cfg,
            "config_hash": self.config_hash,
            "axis": self.axis,
            "aggregates": self.aggregates,
            "iotas": {f"{k[0]}:{k[1]}": v for k, v in sorted(self.iotas.items())},
            "trials": len(self.rows),
        }


def run_experiment(cfg: ExperimentConfig) -> RunArtifact:
    """Execute the full sweep x trial grid and aggregate AER statistics.

    Thresholds come from the config when fixed, otherwise from calibration
    trials on held-out seeds per sweep point.  A point's calibration and
    evaluation trials are solved in the same batches (see ``_solve_batch``),
    as the threshold is only used for scoring.  The batches of all sweep
    points run in one process pool when ``cfg.workers > 1``; results are
    identical either way.
    """
    cfg.validate()
    calibration = [] if cfg.iota is not None else [
        (v, True) for v in range(cfg.calibration_trials)]
    keys = calibration + [(t, False) for t in range(cfg.trials)]
    jobs = [(cfg, si, val, batch) for si, val in enumerate(cfg.sweep_values)
            for batch in _batches(cfg, keys)]
    if cfg.workers > 1:
        # Imported here: it costs every process's cold start, and only pools need it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            batches = list(pool.map(_solve_batch, *zip(*jobs)))
    else:
        batches = [_solve_batch(*job) for job in jobs]

    iotas: dict = {}
    rows = []
    for si, val in enumerate(cfg.sweep_values):
        solved = [trial for job, batch in zip(jobs, batches) if job[1] == si for trial in batch]
        found = (_fit_iotas(cfg, solved[:len(calibration)]) if calibration
                 else dict.fromkeys(cfg.modes, cfg.iota))
        iotas.update(((si, mode), iota) for mode, iota in found.items())
        rows += _rows(cfg, val, solved[len(calibration):], found)

    aggregates = []
    for si, val in enumerate(cfg.sweep_values):
        for mode in cfg.modes:
            sel = [r for r in rows if r["axis_value"] == val and r["mode"] == mode]
            aers = np.array([r["aer"] for r in sel])
            stderr = float(aers.std(ddof=1) / np.sqrt(len(aers))) if len(aers) > 1 else 0.0
            aggregates.append(
                {
                    "axis_value": val,
                    "mode": mode,
                    "mean_aer": float(aers.mean()),
                    "stderr": stderr,
                    "trials": len(aers),
                    "mean_missed": float(np.mean([r["missed"] for r in sel])),
                    "mean_false_alarm": float(np.mean([r["false_alarm"] for r in sel])),
                    "mean_aer_pooled": float(np.mean([r["aer_pooled"] for r in sel])),
                    "iota": iotas[(si, mode)],
                    "scalars_per_trial": float(np.mean([r["scalars_delivered"] for r in sel])),
                }
            )

    artifact = RunArtifact(
        config=cfg,
        config_hash=cfg.config_hash(),
        axis=cfg.sweep_axis,
        rows=rows,
        aggregates=aggregates,
        iotas=iotas,
    )
    if cfg.out_dir:
        emit_plotdata(artifact, cfg.out_dir)
    return artifact


def emit_plotdata(artifact: RunArtifact, out_dir) -> list[str]:
    """Write ``aer_vs_<axis>.csv``, per-trial rows, and ``summary.json``.

    Deterministic formatting: reruns of the same config and master seed
    produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    agg_path = os.path.join(out_dir, f"aer_vs_{artifact.axis}.csv")
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis_value", "mode", "mean_aer", "stderr", "trials"])
        for a in artifact.aggregates:
            writer.writerow([a["axis_value"], a["mode"], repr(a["mean_aer"]),
                             repr(a["stderr"]), a["trials"]])
    paths.append(agg_path)

    trials_path = os.path.join(out_dir, "trials.csv")
    cols = ["seed", "config_hash", "axis_value", "mode", "trial", "missed",
            "false_alarm", "aer", "aer_pooled", "iota", "messages_delivered",
            "messages_dropped", "scalars_delivered", "rounds", "clamped"]
    with open(trials_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in artifact.rows:
            row = dict(r, config_hash=artifact.config_hash)
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in cols])
    paths.append(trials_path)

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(artifact.to_summary_dict(), fh, sort_keys=True, indent=2)
    paths.append(summary_path)
    return paths

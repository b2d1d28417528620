"""Experiment driver: seeded Monte-Carlo sweeps, baselines, plot-ready output.

A single :class:`ExperimentConfig` describes scenario parameters, solver
hyperparameters, one sweep axis with its values, the detection modes to
compare, and the trial count.  Every trial seed is derived from the master
seed, the sweep position and the trial index, so runs are reproducible
byte-for-byte and modes are compared on identical scenarios.

``validate`` applies the checks a trial applies (``TopologyConfig``,
``check_sizes``, ``FailurePlan.validate``) at the config's own values and at
every sweep point, before any solve.  One trial path, ``_solve_trial``, draws
a scenario and solves every mode on it, for evaluation rows and ``calibrate``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import metrics, solver
from .errors import InvalidConfig
from .netsim import FailurePlan
from .objective import Hyperparams
from .scenario import (
    ApObservation,
    Scenario,
    TopologyConfig,
    build_topology,
    check_sizes,
    isolated,
    make_scenario,
    synthesize,
)

# Sweep axis -> the config field it sets and that field's type.
_AXIS_FIELDS = {"coop_degree": ("degree", int), "M": ("num_antennas", int),
                "L": ("pilot_len", int), "snr_db": ("snr_db", float)}
SWEEP_AXES = tuple(_AXIS_FIELDS)
MODES = ("cmd", "no_coop", "centralized_pool")

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
        problems = []
        for name in ("num_iters", "trials", "calibration_trials", "workers"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sweep_axis not in SWEEP_AXES:
            problems.append(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
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
        if self.iota is not None and self.iota <= 0:
            problems.append(f"iota must be positive, got {self.iota}")
        if self.b0_mode not in ("nearest", "max_gamma"):
            problems.append(f"b0_mode must be 'nearest' or 'max_gamma', got {self.b0_mode!r}")
        plan = None
        if self.failure_plan is not None:
            try:
                plan = FailurePlan.from_dict(self.failure_plan)
            except (InvalidConfig, TypeError, KeyError, ValueError) as err:
                problems.append(f"failure_plan invalid: {err}")
        # A trial's own checks at every point; points failing alike share a message.
        points = {"config values": self}
        if self.sweep_axis in SWEEP_AXES:
            points.update((f"sweep point {self.sweep_axis}={v!r}", _at_point(self, v))
                          for v in self.sweep_values)
        failures: dict[str, list[str]] = {}
        neighbors = cache(lambda topo: build_topology(topo)[1])
        for label, point in points.items():
            try:
                topo = _topology(point)
                check_sizes(point.num_devices, point.num_active, point.pilot_len,
                            point.num_antennas, _resolved_gain_ref(point))
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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InvalidConfig(f"unknown config fields: {sorted(unknown)}")
        d = dict(d)
        if "sweep_values" in d:
            d["sweep_values"] = tuple(d["sweep_values"])
        if "modes" in d:
            d["modes"] = tuple(d["modes"])
        return cls(**d)

    def config_hash(self) -> str:
        """Stable digest over everything that affects results (not output paths)."""
        d = self.to_dict()
        d.pop("out_dir")
        d.pop("workers")
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


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
    if cfg.gain_ref == "auto":
        return cfg.pilot_len / 5.0 * 10.0 ** (cfg.snr_db / 10.0)
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


def pooled_observation(observations) -> ApObservation:
    """Single fictitious AP holding the average of all sample covariances."""
    pooled = np.mean([o.sample_cov for o in observations], axis=0)
    return ApObservation(ap_id=0, sample_cov=pooled)


def _pooled_scenario(scenario: Scenario) -> Scenario:
    topo = replace(scenario.topology, num_aps=1, degree=0)
    return replace(
        scenario,
        topology=topo,
        neighbors=((),),
        ap_pos=scenario.ap_pos[:1],
        gains=scenario.gains.mean(axis=0, keepdims=True),
    )


def mode_dispatch(mode: str, scenario: Scenario, observations, hyper: Hyperparams,
                  options: solver.SolverOptions | None = None,
                  plan: FailurePlan | None = None) -> solver.RunResult:
    """Run one detection mode on a synthesized scenario.

    ``cmd`` runs the full cooperative solver.  ``no_coop`` empties every
    neighbor set and zeroes the similarity weight, so each AP solves alone
    and no messages flow.  ``centralized_pool`` solves once on the average
    of all sample covariances (an upper-reference ablation).  Failure plans
    only apply to ``cmd``; the baselines have no backhaul to fail.
    """
    if mode == "cmd":
        return solver.run(scenario, observations, hyper, plan=plan, options=options)
    if mode == "no_coop":
        return solver.run(isolated(scenario), observations, replace(hyper, tau=0.0),
                          options=options)
    if mode == "centralized_pool":
        return solver.run(_pooled_scenario(scenario), [pooled_observation(observations)],
                          replace(hyper, tau=0.0), options=options)
    raise InvalidConfig(f"unknown mode {mode!r}")


def _solve_trial(cfg: ExperimentConfig, sweep_index: int, sweep_value, trial_index: int,
                 calibration: bool) -> tuple[int, Scenario, dict]:
    """One seeded trial: its seed, its scenario and every mode's result on that scenario."""
    seed = trial_seed(cfg.master_seed, sweep_index, trial_index, calibration)
    scenario = build_scenario(cfg, sweep_value, seed)
    observations = synthesize(scenario)
    plan = FailurePlan.from_dict(cfg.failure_plan) if cfg.failure_plan else None
    options = solver.SolverOptions(lag_transmit=cfg.lag_transmit, record_cost=False)
    hyper = cfg.hyper()
    results = {mode: mode_dispatch(mode, scenario, observations, hyper,
                                   options=options, plan=plan)
               for mode in cfg.modes}
    return seed, scenario, results


def _run_trial(cfg: ExperimentConfig, sweep_index: int, sweep_value,
               trial_index: int, iotas: dict) -> list[dict]:
    """Rows of one evaluation trial, one per mode."""
    seed, scenario, results = _solve_trial(cfg, sweep_index, sweep_value, trial_index,
                                           calibration=False)
    rows = []
    for mode, result in results.items():
        iota = iotas[(sweep_index, mode)]
        report = metrics.evaluate(result.gamma, scenario, iota, b0_mode=cfg.b0_mode)
        rows.append(
            {
                "axis_value": sweep_value,
                "mode": mode,
                "trial": trial_index,
                "seed": seed,
                "missed": report.missed_detection_prob,
                "false_alarm": report.false_alarm_prob,
                "aer": report.aer,
                "aer_pooled": report.aer_pooled,
                "iota": iota,
                "messages_delivered": result.ledger.total_messages,
                "messages_dropped": result.ledger.total_dropped,
                "scalars_delivered": result.ledger.total_scalars,
                "rounds": result.rounds_completed,
                "clamped": int(sum(s.clamp_count for s in result.states)),
            }
        )
    return rows


# Wider than the metrics default: desk-scale noise-normalized units sit
# near the bottom of the reference grid, which would pin calibration at
# its boundary and mask mode differences.
CALIBRATION_GRID = tuple(np.logspace(-3.0, 3.0, 49))


def calibrate(cfg: ExperimentConfig, sweep_index: int, sweep_value) -> dict:
    """Threshold multiplier per mode, ``{mode: iota}``, fitted on held-out trials."""
    runs: dict = {mode: [] for mode in cfg.modes}
    for v in range(cfg.calibration_trials):
        _, scenario, results = _solve_trial(cfg, sweep_index, sweep_value, v, calibration=True)
        for mode, result in results.items():
            runs[mode].append((result.gamma, scenario))
    return {mode: metrics.calibrate_threshold(r, grid=CALIBRATION_GRID, b0_mode=cfg.b0_mode)
            for mode, r in runs.items()}


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

    Thresholds come from the config when fixed, otherwise from a
    calibration pass on held-out seeds per sweep point.  The trials of all
    sweep points run in one process pool when ``cfg.workers > 1``; results
    are identical either way.
    """
    cfg.validate()
    iotas: dict = {}
    for si, val in enumerate(cfg.sweep_values):
        found = calibrate(cfg, si, val) if cfg.iota is None else dict.fromkeys(cfg.modes, cfg.iota)
        iotas.update(((si, mode), iota) for mode, iota in found.items())

    jobs = [(cfg, si, val, t, iotas)
            for si, val in enumerate(cfg.sweep_values) for t in range(cfg.trials)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_trial, *zip(*jobs)))
    else:
        chunks = [_run_trial(*job) for job in jobs]
    rows = [row for chunk in chunks for row in chunk]

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

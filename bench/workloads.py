"""The benchmark's workloads and the counts each one must produce.

Every workload is a ``desk_fixture`` configuration with overrides, run
single-process through ``harness.run_experiment``.  The benchmark seed only
picks the experiment's master seed; the shape of the work is fixed here, and
``PINNED_HASHES`` holds the ``config_hash`` of each workload at
``PINNED_SEED`` so that a changed definition fails the run instead of
drifting silently.

The expected counts below are derived from the configuration alone (the
topology, the round count and the failure plan), independently of the
solver, so the benchmark can check the program's ledgers against them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from coopdetect import FailurePlan, TopologyConfig, build_topology
from coopdetect.harness import ExperimentConfig, desk_fixture

# Master seed of each run's quality repetition; its AER is the gated one.
PINNED_SEED = 2008


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict

    def config(self, master_seed: int) -> ExperimentConfig:
        return desk_fixture(master_seed, workers=1, **self.overrides)


# Each workload is the shape of the experiment it stands for (APs, devices,
# pilots, antennas, modes, threshold policy, failure plan), cut to a few
# rounds and one trial so that one experiment takes about 0.1-0.2 s.  The
# benchmark repeats it for the whole run and reports the fastest repetition:
# on a shared host, only the minimum over many short repetitions is steady
# from one run to the next.  The fixed thresholds of wide_lossy and
# long_pilot are what ``harness.calibrate`` picks for them at PINNED_SEED
# (2 and 3 calibration trials); only desk_sweep calibrates in every run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_sweep",
            why="the paper's desk experiment, cut to 12 rounds: B=5, L=24, cmd and no_coop, "
                "calibrated thresholds; per-call Python overhead outweighs the linear algebra",
            overrides=dict(modes=("cmd", "no_coop"), trials=1, calibration_trials=1,
                           num_iters=12),
        ),
        Workload(
            name="wide_lossy",
            why="B=64 grid, N=200, 2 rounds, with drops, a crash and a link window: 13x the APs "
                "and messages per round, so AP batching and netsim changes show",
            overrides=dict(
                num_aps=64, num_devices=200, num_active=20, degree=4, sweep_values=(4,),
                modes=("cmd",), trials=1, num_iters=2, iota=0.056234132519034905,
                failure_plan={
                    "drop_prob": 0.1,
                    "ap_failures": [[27, 2]],
                    "link_failures": [[[0, 1], 2, 2]],
                },
            ),
        ),
        Workload(
            name="long_pilot",
            why="one AP, no_coop, N=1000, L=64, 12 rounds: the dense LxL kernel dominates "
                "and no message flows, so only kernel changes should move it",
            # coop_degree is the sweep axis, so its value (0) sets the degree.
            overrides=dict(
                num_aps=1, degree=0, sweep_values=(0,), num_devices=1000, num_active=100,
                pilot_len=64, num_antennas=256, modes=("no_coop",), trials=1,
                num_iters=12, iota=5.62341325190349,
            ),
        ),
    )
}

PINNED_HASHES = {
    "desk_sweep": "636b113853418aa2",
    "wide_lossy": "a642af1a73fa7187",
    "long_pilot": "862a035812f62bd3",
}


def rep_seed(seed: int, workload: str, rep: int) -> int:
    """Master seed of repetition ``rep`` (>= 1) of a run with benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _degree(cfg: ExperimentConfig, sweep_value) -> int:
    return int(sweep_value) if cfg.sweep_axis == "coop_degree" else cfg.degree


def _live_rounds(cfg: ExperimentConfig, mode: str, rounds: int) -> list[int]:
    """Rounds each AP computes in a solve of ``rounds`` rounds.

    A crashed AP stops at its failure round; failure plans only apply to cmd.
    """
    live = [rounds] * cfg.num_aps
    if mode == "cmd" and cfg.failure_plan:
        for ap, from_round in FailurePlan.from_dict(cfg.failure_plan).ap_failures:
            live[ap] = min(live[ap], max(from_round - 1, 0))
    return live


def solves_per_mode(cfg: ExperimentConfig) -> int:
    """Solver runs per (sweep point, mode): trials plus any calibration trials."""
    return cfg.trials + (cfg.calibration_trials if cfg.iota is None else 0)


def ap_iterations(cfg: ExperimentConfig) -> int:
    """AP-iterations ``run_experiment(cfg)`` asks for, calibration included.

    Exact while every solve runs all ``num_iters`` rounds; the traced run
    counts the executed ones.
    """
    per_point = sum(sum(_live_rounds(cfg, mode, cfg.num_iters)) for mode in cfg.modes)
    return solves_per_mode(cfg) * per_point * len(cfg.sweep_values)


def attempted_messages(cfg: ExperimentConfig, sweep_value, mode: str, rounds: int) -> int:
    """Messages a solve of ``rounds`` rounds hands to the backhaul.

    Every live AP sends its estimate to every neighbor each round, also to
    crashed neighbors and across failed links.
    """
    if mode != "cmd":
        return 0
    topo = TopologyConfig(num_aps=cfg.num_aps, degree=_degree(cfg, sweep_value),
                          ap_spacing=cfg.ap_spacing, layout=cfg.layout)
    _, neighbors = build_topology(topo)
    return sum(live * len(neighbors[ap])
               for ap, live in enumerate(_live_rounds(cfg, mode, rounds)))


def check_rows(cfg: ExperimentConfig, rows: list) -> tuple[list, list[str]]:
    """The valid rows of one experiment, and every way its rows break the checks."""
    expected = cfg.trials * len(cfg.modes) * len(cfg.sweep_values)
    problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
    valid = []
    for row in rows:
        row_problems = bad_row(cfg, row)
        problems.extend(row_problems)
        if not row_problems:
            valid.append(row)
    return valid, problems


def bad_row(cfg: ExperimentConfig, row: dict) -> list[str]:
    """Problems with one trial row; an empty list means the row is valid."""
    label = f"{row.get('mode')} trial {row.get('trial')}"
    aer = row.get("aer")
    if not (isinstance(aer, float) and math.isfinite(aer) and 0.0 <= aer <= 2.0):
        return [f"{label}: aer {aer!r} outside [0, 2]"]
    try:
        attempted = attempted_messages(cfg, row["axis_value"], row["mode"], row["rounds"])
        moved = row["messages_delivered"] + row["messages_dropped"]
    except KeyError as err:
        return [f"{label}: row lacks {err}"]
    if moved != attempted:
        return [f"{label}: delivered + dropped = {moved}, expected {attempted}"]
    return []

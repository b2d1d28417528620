"""Decentralized covariance-based device-activity detection for cell-free networks.

Access points estimate which devices transmitted from the second-order
statistics of their received pilots, cooperating only through low-dimensional
estimate exchange with one-hop neighbors.  The package bundles the numerical
kernels, the scenario generator, the per-AP solver, a simulated backhaul with
failure injection, detection metrics, and a seeded experiment harness.
"""

from .errors import (
    ConfigMismatch,
    CoopDetectError,
    DegenerateClasses,
    DimensionMismatch,
    InvalidConfig,
    NotPositiveDefinite,
    StateConsistencyError,
    UnknownEdge,
)
from .harness import ExperimentConfig, RunArtifact, mode_dispatch, run_experiment
from .metrics import DetectionReport, aer, calibrate_threshold, detect, evaluate
from .netsim import CommLedger, FailurePlan, deliver_round
from .objective import Hyperparams
from .scenario import (
    Scenario,
    TopologyConfig,
    build_topology,
    load_scenario,
    make_scenario,
    pathloss,
    save_scenario,
    snr_to_noise,
    synthesize,
)
from .solver import IterationTrace, RunResult, SolverOptions, run, run_batch

__version__ = "0.1.0"

__all__ = [
    "CommLedger",
    "ConfigMismatch",
    "CoopDetectError",
    "DegenerateClasses",
    "DetectionReport",
    "DimensionMismatch",
    "ExperimentConfig",
    "FailurePlan",
    "Hyperparams",
    "InvalidConfig",
    "IterationTrace",
    "NotPositiveDefinite",
    "RunArtifact",
    "RunResult",
    "Scenario",
    "SolverOptions",
    "StateConsistencyError",
    "TopologyConfig",
    "UnknownEdge",
    "aer",
    "build_topology",
    "calibrate_threshold",
    "deliver_round",
    "detect",
    "evaluate",
    "load_scenario",
    "make_scenario",
    "mode_dispatch",
    "pathloss",
    "run",
    "run_batch",
    "run_experiment",
    "save_scenario",
    "snr_to_noise",
    "synthesize",
]

"""Thresholding detector and activity error rate accounting.

A device counts as active when the estimate held by its assigned AP
exceeds ``iota * noise_power``.  The assigned AP is the geometrically
nearest one by default (ties to the lower index); ``b0_mode="max_gamma"``
instead assigns the AP holding the largest estimate, for geometry-free
operation.  Every estimate is the trial's own (num_aps, N) matrix, one row
per AP; ``detect``, ``evaluate`` and ``calibrate_threshold`` raise
DimensionMismatch for any other shape.

The error rate is reported per class: missed detections over the number of
active devices, false alarms over the number of inactive ones, and their
sum (the combined activity error rate).  A pooled variant (all errors over
N) is carried alongside so curves can be read under either convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClasses, DimensionMismatch, InvalidConfig
from .scenario import Scenario

B0_MODES = ("nearest", "max_gamma")


@dataclass
class DetectionReport:
    """Decisions and error decomposition for one run."""

    decisions: np.ndarray           # (N,) 0/1
    missed_detection_prob: float
    false_alarm_prob: float
    aer: float
    aer_pooled: float
    iota: float
    threshold: float                # iota * noise_power actually applied
    assigned_ap: np.ndarray         # (N,) AP index the decision was read from


def assign_aps(gamma_est: np.ndarray, scenario: Scenario, b0_mode: str = "nearest") -> np.ndarray:
    """Pick the AP whose estimate decides each device."""
    if b0_mode not in B0_MODES:
        raise InvalidConfig(f"unknown b0_mode {b0_mode!r}")
    return scenario.nearest_ap() if b0_mode == "nearest" else np.argmax(gamma_est, axis=0)


def detect(gamma_est: np.ndarray, scenario: Scenario, iota: float,
           b0_mode: str = "nearest") -> tuple[np.ndarray, np.ndarray]:
    """Elementwise thresholding at each device's assigned AP.

    Returns (decisions, assigned_ap); device n is declared active iff
    ``gamma_est[assigned_ap[n], n] > iota * scenario.noise_power``.
    """
    read, assigned = _read(gamma_est, scenario, b0_mode)
    return (read > iota * scenario.noise_power).astype(np.int8), assigned


def _read(gamma_est: np.ndarray, scenario: Scenario, b0_mode: str):
    """Each device's estimate at its assigned AP, and the assignment."""
    gamma_est = np.asarray(gamma_est)
    expected = (scenario.num_aps, scenario.num_devices)
    if gamma_est.shape != expected:
        raise DimensionMismatch(f"estimate of shape {gamma_est.shape}, expected "
                                f"(num_aps, num_devices) = {expected}")
    assigned = assign_aps(gamma_est, scenario, b0_mode)
    return gamma_est[assigned, np.arange(scenario.num_devices)], assigned


def aer(decisions: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """Per-class error rates: (missed, false_alarm, their sum), per decision vector.

    Raises DimensionMismatch when the decisions' last axis is not shaped like
    ``truth``, and DegenerateClasses when every device is active or none is.
    """
    decisions = np.asarray(decisions)
    truth = np.asarray(truth)
    if decisions.shape[-1:] != truth.shape:
        raise DimensionMismatch(f"shape mismatch {decisions.shape} vs {truth.shape}")
    k = int(np.sum(truth == 1))
    n = truth.size
    if k == 0 or k == n:
        raise DegenerateClasses(f"need both classes present, got {k} active of {n}")
    missed = np.sum((truth == 1) & (decisions == 0), axis=-1) / k
    false_alarm = np.sum((truth == 0) & (decisions == 1), axis=-1) / (n - k)
    return missed, false_alarm, missed + false_alarm


def evaluate(gamma_est: np.ndarray, scenario: Scenario, iota: float,
             b0_mode: str = "nearest") -> DetectionReport:
    """Threshold, score against ground truth, and assemble a report."""
    decisions, assigned = detect(gamma_est, scenario, iota, b0_mode)
    missed, false_alarm, combined = (float(r) for r in aer(decisions, scenario.activity))
    errors = int(np.sum(decisions != scenario.activity))
    return DetectionReport(
        decisions=decisions,
        missed_detection_prob=missed,
        false_alarm_prob=false_alarm,
        aer=combined,
        aer_pooled=errors / scenario.num_devices,
        iota=iota,
        threshold=iota * scenario.noise_power,
        assigned_ap=assigned,
    )


# Wider than the reference grid, logspace(-1, 3, 31): desk-scale
# noise-normalized units sit near its bottom, which would pin calibration at
# its boundary and mask mode differences.
CALIBRATION_GRID = tuple(np.logspace(-3.0, 3.0, 49))


def calibrate_threshold(validation_runs, b0_mode: str = "nearest") -> float:
    """Search ``CALIBRATION_GRID`` for the multiplier minimizing mean combined AER.

    ``validation_runs`` is an iterable of (gamma_est, scenario) pairs with
    ground truth.  Ties break deterministically to the smallest multiplier.
    Each run is read at its assigned APs once and scored on the whole grid.
    """
    grid = np.asarray(CALIBRATION_GRID)
    runs = list(validation_runs)
    if not runs:
        raise DegenerateClasses("calibration needs at least one validation run")
    scores = np.empty((grid.size, len(runs)))
    for j, (g, s) in enumerate(runs):
        read, _ = _read(g, s, b0_mode)
        scores[:, j] = aer(read > grid[:, None] * s.noise_power, s.activity)[2]
    return float(grid[int(np.argmin(scores.mean(axis=1)))])

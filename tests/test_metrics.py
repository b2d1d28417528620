"""Detector thresholding and error-rate accounting."""

import re

import numpy as np
import pytest

from coopdetect.errors import DegenerateClasses, DimensionMismatch, InvalidConfig
from coopdetect.metrics import (
    CALIBRATION_GRID,
    aer,
    assign_aps,
    calibrate_threshold,
    detect,
    evaluate,
)
from coopdetect.scenario import TopologyConfig, make_scenario


@pytest.fixture(scope="module")
def scenario():
    topo = TopologyConfig(num_aps=4, degree=2, seed=21)
    return make_scenario(topo, num_devices=40, num_active=6, pilot_len=8,
                         num_antennas=4, snr_db=10.0, gain_ref=1.0)


@pytest.fixture(scope="module")
def one_ap():
    topo = TopologyConfig(num_aps=1, degree=0, seed=21)
    return make_scenario(topo, num_devices=20, num_active=4, pilot_len=8,
                         num_antennas=4, snr_db=10.0, gain_ref=1.0)


@pytest.fixture(scope="module")
def five_aps():
    topo = TopologyConfig(num_aps=5, degree=2, seed=21)
    return make_scenario(topo, num_devices=20, num_active=4, pilot_len=8,
                         num_antennas=4, snr_db=10.0, gain_ref=1.0)


def oracle_estimates(sc):
    """Per-AP estimates equal to the ground truth device state vector."""
    return sc.gains * sc.activity


class TestDetect:
    def test_all_zero_estimates_miss_everything(self, scenario):
        gamma = np.zeros((scenario.num_aps, scenario.num_devices))
        report = evaluate(gamma, scenario, iota=1.0)
        assert report.false_alarm_prob == 0.0
        assert report.missed_detection_prob == 1.0
        assert report.aer == 1.0

    def test_tiny_threshold_declares_positive_entries_active(self, scenario):
        gamma = oracle_estimates(scenario)
        decisions, _ = detect(gamma, scenario, iota=1e-12)
        np.testing.assert_array_equal(decisions, scenario.activity)

    def test_plant_and_recover_zero_aer(self, scenario):
        gamma = oracle_estimates(scenario)
        nearest = scenario.nearest_ap()
        active = scenario.activity == 1
        min_active = gamma[nearest[active], np.flatnonzero(active)].min()
        iota = 0.5 * min_active / scenario.noise_power
        report = evaluate(gamma, scenario, iota)
        assert report.aer == 0.0

    def test_monotone_in_iota(self, scenario):
        gamma = np.abs(oracle_estimates(scenario)
                       + 0.01 * np.ones_like(scenario.gains))
        previous = None
        for iota in np.logspace(-3, 3, 25):
            decisions, _ = detect(gamma, scenario, iota)
            if previous is not None:
                assert np.all(decisions <= previous)  # raising iota never adds actives
            previous = decisions

    def test_single_row_assigns_everyone_to_it(self, one_ap):
        gamma = oracle_estimates(one_ap)
        for b0_mode in ("nearest", "max_gamma"):
            assigned = assign_aps(gamma, one_ap, b0_mode=b0_mode)
            np.testing.assert_array_equal(assigned, np.zeros(one_ap.num_devices))

    def test_max_gamma_assignment(self, scenario):
        gamma = np.zeros((scenario.num_aps, scenario.num_devices))
        gamma[2, 5] = 3.0
        assigned = assign_aps(gamma, scenario, b0_mode="max_gamma")
        assert assigned[5] == 2

    @pytest.mark.parametrize("score", [
        lambda gamma, sc: evaluate(gamma, sc, 1.0, b0_mode="farthest"),
        lambda gamma, sc: calibrate_threshold([(gamma, sc)], b0_mode="farthest"),
    ], ids=["evaluate", "calibrate_threshold"])
    def test_unknown_b0_mode_is_a_package_error(self, scenario, one_ap, score):
        for sc in (scenario, one_ap):
            with pytest.raises(InvalidConfig, match="unknown b0_mode 'farthest'"):
                score(oracle_estimates(sc), sc)

    @pytest.mark.parametrize("shape", [(4, 20), (1, 20), (20,), (5, 21), (6, 20), (5, 20, 1)],
                             ids=str)
    @pytest.mark.parametrize("b0_mode", ["nearest", "max_gamma"])
    @pytest.mark.parametrize("score", [
        lambda gamma, sc, b0: evaluate(gamma, sc, 1.0, b0_mode=b0),
        lambda gamma, sc, b0: detect(gamma, sc, 1.0, b0_mode=b0),
        lambda gamma, sc, b0: calibrate_threshold([(gamma, sc)], b0_mode=b0),
    ], ids=["evaluate", "detect", "calibrate_threshold"])
    def test_estimate_not_shaped_num_aps_by_n_is_rejected(self, five_aps, shape, b0_mode,
                                                          score):
        # None of these is (num_aps, N) = (5, 20).
        with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
            score(np.ones(shape), five_aps, b0_mode)


class TestAer:
    def test_perfect(self):
        truth = np.array([1, 0, 1, 0])
        assert aer(truth, truth) == (0.0, 0.0, 0.0)

    def test_complement(self):
        truth = np.array([1, 0, 1, 0])
        assert aer(1 - truth, truth) == (1.0, 1.0, 2.0)

    def test_one_missed_of_ten(self):
        truth = np.zeros(100, dtype=int)
        truth[:10] = 1
        decisions = truth.copy()
        decisions[0] = 0
        missed, fa, combined = aer(decisions, truth)
        assert missed == pytest.approx(0.1)
        assert fa == 0.0
        assert combined == pytest.approx(0.1)

    def test_shape_mismatch_is_a_dimension_error(self):
        with pytest.raises(DimensionMismatch, match="shape mismatch"):
            aer(np.zeros(3, dtype=int), np.array([1, 0, 0, 0]))

    def test_degenerate_classes(self):
        with pytest.raises(DegenerateClasses):
            aer(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        with pytest.raises(DegenerateClasses):
            aer(np.ones(4, dtype=int), np.ones(4, dtype=int))

    def test_rates_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            truth = (rng.random(30) < 0.3).astype(int)
            if truth.sum() in (0, 30):
                continue
            decisions = (rng.random(30) < 0.5).astype(int)
            missed, fa, _ = aer(decisions, truth)
            assert 0.0 <= missed <= 1.0 and 0.0 <= fa <= 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        truth = (rng.random(40) < 0.25).astype(int)
        decisions = (rng.random(40) < 0.5).astype(int)
        perm = rng.permutation(40)
        assert aer(decisions, truth) == aer(decisions[perm], truth[perm])


class TestCalibration:
    def test_oracle_estimates_reach_zero(self, scenario):
        runs = [(oracle_estimates(scenario), scenario)]
        iota = calibrate_threshold(runs)
        assert evaluate(oracle_estimates(scenario), scenario, iota).aer == 0.0

    def test_all_zero_ties_break_to_smallest(self, scenario):
        runs = [(np.zeros((scenario.num_aps, scenario.num_devices)), scenario)]
        iota = calibrate_threshold(runs)
        assert iota == pytest.approx(CALIBRATION_GRID[0])

    def test_needs_runs(self):
        with pytest.raises(DegenerateClasses):
            calibrate_threshold([])

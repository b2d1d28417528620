"""Experiment harness: config validation, dispatch, outputs, determinism."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coopdetect import harness, metrics, solver
from coopdetect.errors import InvalidConfig
from coopdetect.harness import (
    ExperimentConfig,
    build_scenario,
    calibrate,
    desk_fixture,
    emit_plotdata,
    load_config,
    mode_dispatch,
    run_experiment,
    trial_seed,
)
from coopdetect.netsim import FailurePlan
from coopdetect.objective import Hyperparams
from coopdetect.scenario import TopologyConfig, build_topology, make_scenario, synthesize


def tiny_config(**overrides):
    params = dict(num_aps=3, num_devices=20, num_active=3, pilot_len=8,
                  num_antennas=4, degree=2, num_iters=5, trials=2,
                  calibration_trials=1, sweep_axis="coop_degree",
                  sweep_values=(2,), modes=("cmd",), master_seed=42,
                  pathloss_exponent=3.0, tau=10.0, rho=0.2)
    params.update(overrides)
    return ExperimentConfig(**params)


class TestConfig:
    def test_master_seed_mandatory(self):
        with pytest.raises(InvalidConfig, match="master_seed"):
            tiny_config(master_seed=None).validate()

    def test_field_level_diagnostics(self):
        # On another axis every sweep point runs the config's degree.
        cfg = tiny_config(trials=0, degree=9, modes=("bogus",), sweep_axis="M",
                          sweep_values=(4,))
        with pytest.raises(InvalidConfig) as err:
            cfg.validate()
        msg = str(err.value)
        assert "trials" in msg and "degree" in msg and "bogus" in msg

    def test_swept_field_checked_only_at_sweep_points(self):
        # Trials run only at the sweep points, so a config degree that no
        # point uses does not stop the run.
        cfg = tiny_config(degree=4, sweep_values=(1, 2), trials=1, iota=1.0)
        cfg.validate()
        rows = run_experiment(cfg).rows
        assert [row["axis_value"] for row in rows] == [1, 2]
        for row in rows:
            _, neighbors = build_topology(TopologyConfig(num_aps=3, degree=row["axis_value"]))
            assert row["messages_delivered"] == cfg.num_iters * sum(map(len, neighbors))
        # Without a valid sweep point the config's own values are checked.
        for broken in (dict(sweep_axis="bananas"), dict(sweep_values=(float("nan"),))):
            with pytest.raises(InvalidConfig, match=re.escape(
                    "config values: degree 4 must be < num_aps 3")):
                replace(cfg, **broken).validate()

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidConfig, match="sweep_values"):
            tiny_config(sweep_values=()).validate()

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown"):
            ExperimentConfig.from_dict({"bogus_field": 1})

    def test_non_object_is_named_by_its_type(self):
        with pytest.raises(InvalidConfig) as err:
            ExperimentConfig.from_dict(list(range(2000)))
        assert str(err.value) == "a config must be a JSON object, got list"

    def test_failure_plan_with_an_unknown_key_is_a_config_problem(self):
        cfg = desk_fixture(1, failure_plan={"drop_probability": 0.5, "ap_failure": [[0, 2]]})
        with pytest.raises(InvalidConfig, match=re.escape(
                "failure_plan invalid: failure plan has unknown keys "
                "['ap_failure', 'drop_probability']")):
            cfg.validate()

    def test_config_hash_ignores_output_paths(self):
        a = tiny_config(out_dir=None)
        b = tiny_config(out_dir="/tmp/x", workers=3)
        c = tiny_config(master_seed=43)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_default_hyperparameters_are_the_solvers(self):
        assert ExperimentConfig().hyper() == Hyperparams()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config().to_dict()))
        assert load_config(path) == tiny_config()

    def test_desk_fixture_validates(self):
        desk_fixture(1).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("gain_ref", [1], "gain_ref must be a number or a string or null, got [1]"),
        ("lag_transmit", "no", "lag_transmit must be true or false, got 'no'"),
        ("out_dir", 5, "out_dir must be a string or null, got 5"),
        ("num_aps", True, "num_aps must be an integer, got True"),
    ], ids=["gain_ref", "lag_transmit", "out_dir", "bool_count"])
    def test_wrongly_typed_field_rejected(self, field, value, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            tiny_config(**{field: value}).validate()

    # Each of these passes the config-level checks but breaks one trial.
    @pytest.mark.parametrize("overrides, message", [
        (dict(sweep_values=(9,)), "sweep point coop_degree=9: degree 9 must be < num_aps 5"),
        (dict(ap_spacing=-1.0), "sweep point coop_degree=4: ap_spacing must be positive"),
        (dict(sweep_axis="L", sweep_values=(0,)), "sweep point L=0: pilot_len must be positive"),
        (dict(sweep_axis="M", sweep_values=(0,)),
         "sweep point M=0: num_antennas must be positive"),
        (dict(gain_ref=-3.0), "sweep point coop_degree=4: gain_ref must be positive"),
        (dict(failure_plan={"ap_failures": [[99, 2]]}),
         "sweep point coop_degree=4: ap_failures references unknown AP 99"),
        (dict(failure_plan={"ap_failures": [[0, 999]]}),
         "sweep point coop_degree=4: ap_failures round 999 outside [1, 5]"),
        (dict(sweep_values=(1,), failure_plan={"link_failures": [[[0, 4], 1, 2]]}),
         "sweep point coop_degree=1: link_failures references unknown edge (0, 4)"),
        (dict(sweep_values=(2, 2)), "sweep_values repeat [2]"),
        (dict(snr_db=float("nan")), "sweep point coop_degree=4: snr_db must be finite, got nan"),
        (dict(sweep_axis="snr_db", sweep_values=(float("inf"),)),
         "sweep_values must be finite numbers, got [inf]"),
        (dict(gain_ref=float("inf")),
         "sweep point coop_degree=4: gain_ref must be positive and finite, got inf"),
        (dict(snr_db=10**400), "sweep point coop_degree=4: snr_db must be finite, got 1000"),
        (dict(ap_spacing=float("nan")),
         "sweep point coop_degree=4: ap_spacing must be positive and finite, got nan"),
        (dict(ap_spacing=float("inf")),
         "sweep point coop_degree=4: ap_spacing must be positive and finite, got inf"),
        (dict(pathloss_exponent=float("nan")),
         "sweep point coop_degree=4: pathloss_exponent must be positive and finite, got nan"),
        (dict(pathloss_exponent=float("inf")),
         "sweep point coop_degree=4: pathloss_exponent must be positive and finite, got inf"),
    ], ids=["degree", "ap_spacing", "L", "M", "gain_ref", "plan_ap", "plan_round",
            "plan_link", "repeated_value", "snr_nan", "snr_inf_sweep", "gain_ref_inf",
            "snr_overflow", "ap_spacing_nan", "ap_spacing_inf", "pathloss_nan", "pathloss_inf"])
    def test_bad_trial_rejected_before_any_solve(self, monkeypatch, overrides, message):
        cfg = tiny_config(**{"num_aps": 5, "degree": 4, "sweep_values": (4,), **overrides})
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            cfg.validate()

        def no_solve(*args, **kwargs):
            raise AssertionError("solver.run_batch called")

        monkeypatch.setattr(solver, "run_batch", no_solve)
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            run_experiment(cfg)

    # Each of these would run every trial to a meaningless AER, or die in
    # scoring after every solve.
    @pytest.mark.parametrize("overrides, message", [
        (dict(iota=float("nan")), "iota must be positive and finite, got nan"),
        (dict(iota=float("inf")), "iota must be positive and finite, got inf"),
        (dict(eta=float("nan")), "eta must be positive and finite, got nan"),
        (dict(eta=-1.0), "eta must be positive and finite, got -1.0"),
        (dict(eta=0.0), "eta must be positive and finite, got 0.0"),
        (dict(theta=0.0), "theta must be positive and finite, got 0.0"),
        (dict(theta=float("inf")), "theta must be positive and finite, got inf"),
        (dict(beta=float("nan")), "beta must be nonnegative and finite, got nan"),
        (dict(beta=-0.1), "beta must be nonnegative and finite, got -0.1"),
        (dict(tau=float("nan")), "tau must be nonnegative and finite, got nan"),
        (dict(tau=float("inf")), "tau must be nonnegative and finite, got inf"),
        (dict(rho=float("nan")), "rho must be nonnegative and finite, got nan"),
        (dict(rho=-1.0), "rho must be nonnegative and finite, got -1.0"),
        (dict(num_active=0), "num_active must be in [1, 19] for the AER to be defined, got 0"),
        (dict(num_active=20), "num_active must be in [1, 19] for the AER to be defined, got 20"),
    ], ids=["iota_nan", "iota_inf", "eta_nan", "eta_negative", "eta_zero", "theta_zero",
            "theta_inf", "beta_nan", "beta_negative", "tau_nan", "tau_inf", "rho_nan",
            "rho_negative", "no_active", "all_active"])
    def test_bad_hyperparameter_or_class_split_rejected(self, monkeypatch, overrides, message):
        cfg = tiny_config(**{"iota": 1.0, **overrides})
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            cfg.validate()

        def no_solve(*args, **kwargs):
            raise AssertionError("solver.run_batch called")

        monkeypatch.setattr(solver, "run_batch", no_solve)
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            run_experiment(cfg)

    def test_zero_weights_accepted(self):
        # beta, tau and rho of 0 switch a term off; a calibrated iota is None.
        tiny_config(beta=0.0, tau=0.0, rho=0.0, iota=None).validate()

    @pytest.mark.parametrize("axis, values", [("coop_degree", (1, 1.5)), ("M", (4, 2.5)),
                                              ("L", (8.5,))])
    def test_fractional_value_on_integer_axis_rejected(self, monkeypatch, axis, values):
        # Cast with int(), 1.5 would run degree 1 a second time under the label 1.5.
        cfg = tiny_config(sweep_axis=axis, sweep_values=values)
        message = f"sweep_values on {axis} must be integers, got [{values[-1]}]"
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            cfg.validate()

        def no_solve(*args, **kwargs):
            raise AssertionError("solver.run_batch called")

        monkeypatch.setattr(solver, "run_batch", no_solve)
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            run_experiment(cfg)

    @pytest.mark.parametrize("axis, values", [
        ("coop_degree", ("a",)), ("coop_degree", (None,)), ("coop_degree", (float("nan"),)),
        ("M", (4, float("inf"))), ("L", ("8",)), ("snr_db", (0.0, None)),
        ("coop_degree", (10**400,)), ("snr_db", (-10**400,)),
        # true would run degree 1 (or 1 dB) under the label True.
        ("coop_degree", (2, True)), ("snr_db", (True,)),
    ])
    def test_non_numeric_sweep_value_rejected(self, axis, values):
        with pytest.raises(InvalidConfig, match="sweep_values must be finite numbers"):
            tiny_config(sweep_axis=axis, sweep_values=values).validate()

    def test_repeated_mode_rejected(self, monkeypatch):
        # Rows are keyed by mode: each trial would be solved twice and give one row.
        cfg = desk_fixture(1, modes=("cmd", "cmd"), trials=2, calibration_trials=1, num_iters=3)
        with pytest.raises(InvalidConfig, match=re.escape("modes repeat ['cmd']")):
            cfg.validate()

        def no_solve(*args, **kwargs):
            raise AssertionError("solver.run_batch called")

        monkeypatch.setattr(solver, "run_batch", no_solve)
        with pytest.raises(InvalidConfig, match=re.escape("modes repeat ['cmd']")):
            run_experiment(cfg)

    def test_integral_values_accepted_on_every_axis(self):
        tiny_config(sweep_values=(1, 2.0)).validate()
        tiny_config(sweep_axis="snr_db", sweep_values=(1.5, 7.25)).validate()


class TestSeeds:
    def test_trial_seed_varies_by_index(self):
        seeds = {trial_seed(7, s, t) for s in range(3) for t in range(4)}
        assert len(seeds) == 12

    def test_trial_seed_deterministic(self):
        assert trial_seed(7, 1, 2) == trial_seed(7, 1, 2)

    def test_calibration_stream_disjoint(self):
        assert trial_seed(7, 0, 0) != trial_seed(7, 0, 0, calibration=True)

    def test_sweep_overrides(self):
        cfg = tiny_config(sweep_axis="M", sweep_values=(2, 6))
        sc = build_scenario(cfg, 6, seed=1)
        assert sc.num_antennas == 6
        cfg = tiny_config(sweep_axis="L", sweep_values=(4,))
        assert build_scenario(cfg, 4, seed=1).pilot_len == 4
        cfg = tiny_config(sweep_axis="coop_degree", sweep_values=(0,))
        assert build_scenario(cfg, 0, seed=1).neighbors == ((), (), ())


@pytest.fixture(scope="module")
def single_ap():
    topo = TopologyConfig(num_aps=1, degree=0, seed=13)
    sc = make_scenario(topo, num_devices=16, num_active=3, pilot_len=6,
                       num_antennas=4, snr_db=10.0, gain_ref=50.0,
                       pathloss_exponent=3.0)
    return sc, synthesize(sc)


class TestModeDispatch:
    def test_single_ap_modes_coincide_bitwise(self, single_ap):
        sc, covs = single_ap
        hyper = Hyperparams(tau=10.0, num_iters=6)
        cmd, noc = solver.run_batch(
            [mode_dispatch(mode, sc, covs) for mode in ("cmd", "no_coop")], hyper)
        np.testing.assert_array_equal(cmd.gamma, noc.gamma)

    def test_no_coop_sends_nothing(self):
        cfg = tiny_config()
        sc = build_scenario(cfg, 2, seed=3)
        covs = synthesize(sc)
        (res,) = solver.run_batch([mode_dispatch("no_coop", sc, covs)], cfg.hyper())
        assert res.ledger.total_messages == 0
        assert res.ledger.total_scalars == 0

    def test_unknown_mode(self):
        cfg = tiny_config()
        sc = build_scenario(cfg, 2, seed=3)
        with pytest.raises(InvalidConfig):
            mode_dispatch("bogus", sc, synthesize(sc))


class TestRunExperiment:
    def test_row_and_aggregate_counts(self, tmp_path):
        cfg = tiny_config(sweep_values=(1, 2), modes=("cmd", "no_coop"),
                          out_dir=str(tmp_path))
        art = run_experiment(cfg)
        assert len(art.rows) == 2 * 2 * cfg.trials
        assert len(art.aggregates) == 4
        agg_file = tmp_path / "aer_vs_coop_degree.csv"
        lines = agg_file.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + sweep x mode rows

    def test_no_coop_rows_have_zero_traffic(self):
        cfg = tiny_config(modes=("no_coop",))
        art = run_experiment(cfg)
        assert all(r["scalars_delivered"] == 0 for r in art.rows)

    def test_cmd_traffic_matches_graph(self):
        cfg = tiny_config(modes=("cmd",), iota=1.0)
        art = run_experiment(cfg)
        for r in art.rows:
            sc = build_scenario(cfg, r["axis_value"], r["seed"])
            edges = sum(len(nb) for nb in sc.neighbors)
            assert r["scalars_delivered"] == cfg.num_iters * edges * cfg.num_devices

    def test_calibrate_shares_trials_across_modes(self, monkeypatch):
        cfg = tiny_config(sweep_values=(1, 2), modes=("cmd", "no_coop"), calibration_trials=2)
        built = []

        def counting_build(cfg, sweep_value, seed):
            built.append(sweep_value)
            return build_scenario(cfg, sweep_value, seed)

        monkeypatch.setattr(harness, "build_scenario", counting_build)
        iotas = calibrate(cfg, 1, 2)
        assert built == [2, 2]
        for mode in cfg.modes:
            assert calibrate(replace(cfg, modes=(mode,)), 1, 2) == {mode: iotas[mode]}

    def test_calibrate_validates_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("harness._solve_batch called")

        monkeypatch.setattr(harness, "_solve_batch", no_solve)
        with pytest.raises(InvalidConfig, match="master_seed is mandatory"):
            calibrate(ExperimentConfig(), 0, 4)

    @pytest.mark.parametrize("pilot_len, num_devices, per_batch", [(24, 100, 36),
                                                                   (64, 1000, 100)])
    def test_batches_charge_pilot_tables(self, pilot_len, num_devices, per_batch):
        # A one-AP trial counts for 1 + L/4 APs where its pilots have a table,
        # so 256 APs take 36 trials at L=24, N=100 but all 100 at L=64, N=1000.
        cfg = tiny_config(num_aps=1, degree=0, sweep_values=(0,), num_devices=num_devices,
                          num_active=10, pilot_len=pilot_len, modes=("no_coop",), trials=100)
        keys = [(t, False) for t in range(cfg.trials)]
        batches = harness._batches(cfg, keys)
        assert [key for batch in batches for key in batch] == keys
        assert max(map(len, batches)) == per_batch

    def test_fixed_iota_skips_calibration(self):
        cfg = tiny_config(iota=0.5)
        art = run_experiment(cfg)
        assert all(v == 0.5 for v in art.iotas.values())

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run_experiment(tiny_config(modes=("cmd", "no_coop"), out_dir=str(out)))
        for name in ("aer_vs_coop_degree.csv", "trials.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_workers_match_sequential(self):
        seq = run_experiment(tiny_config(iota=1.0))
        par = run_experiment(tiny_config(iota=1.0, workers=2))
        assert seq.rows == par.rows

    def test_workers_match_sequential_with_calibration(self):
        cfg = tiny_config(modes=("cmd", "no_coop"), trials=3, calibration_trials=2)
        seq = run_experiment(cfg)
        par = run_experiment(replace(cfg, workers=2))
        assert seq.rows == par.rows
        assert seq.iotas == par.iotas

    def test_rows_match_per_trial_solves(self):
        # Every mode of every trial solved alone, calibrated and scored by hand.
        plan = {"ap_failures": [[1, 3]], "link_failures": [[[0, 2], 2, 4]], "drop_prob": 0.3}
        cfg = tiny_config(sweep_values=(1, 2), modes=harness.MODES, calibration_trials=2,
                          failure_plan=plan)
        options = solver.SolverOptions(record_cost=False)

        def solve(si, value, trial, calibration):
            seed = trial_seed(cfg.master_seed, si, trial, calibration)
            sc = build_scenario(cfg, value, seed)
            covs = synthesize(sc)
            results = {}
            for mode in cfg.modes:
                scenario, mode_covs, mode_plan = mode_dispatch(
                    mode, sc, covs, FailurePlan.from_dict(plan))
                results[mode] = solver.run(scenario, mode_covs, cfg.hyper(), plan=mode_plan,
                                           options=options)
            return seed, sc, results

        rows = []
        for si, value in enumerate(cfg.sweep_values):
            held_out = [solve(si, value, v, True) for v in range(cfg.calibration_trials)]
            iotas = {mode: metrics.calibrate_threshold([(res[mode].gamma, sc)
                                                        for _, sc, res in held_out])
                     for mode in cfg.modes}
            for trial in range(cfg.trials):
                seed, sc, results = solve(si, value, trial, False)
                for mode, res in results.items():
                    report = metrics.evaluate(res.gamma, sc, iotas[mode])
                    rows.append({
                        "axis_value": value, "mode": mode, "trial": trial, "seed": seed,
                        "missed": report.missed_detection_prob,
                        "false_alarm": report.false_alarm_prob, "aer": report.aer,
                        "aer_pooled": report.aer_pooled, "iota": iotas[mode],
                        "messages_delivered": res.ledger.total_messages,
                        "messages_dropped": res.ledger.total_dropped,
                        "scalars_delivered": res.ledger.total_scalars,
                        "rounds": res.rounds_completed,
                        "clamped": int(res.clamped.sum())})
        art = run_experiment(cfg)
        assert art.rows == rows
        assert any(r["messages_dropped"] for r in rows)

    def test_failure_plan_applies_to_cmd(self):
        plan = {"ap_failures": [[0, 2]], "link_failures": [], "drop_prob": 0.2}
        cfg = tiny_config(failure_plan=plan, iota=1.0)
        art = run_experiment(cfg)
        assert all(r["messages_dropped"] > 0 for r in art.rows)

    def test_emit_plotdata_counts(self, tmp_path):
        cfg = tiny_config(sweep_values=(1, 2), modes=("cmd", "no_coop"), iota=1.0)
        art = run_experiment(cfg)
        paths = emit_plotdata(art, str(tmp_path))
        assert {os.path.basename(p) for p in paths} == {
            "aer_vs_coop_degree.csv", "trials.csv", "summary.json"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_hash"] == art.config_hash

    def test_unwritable_output_file_is_an_invalid_config(self, tmp_path):
        # A directory where summary.json goes: the error names that path.
        art = run_experiment(tiny_config(iota=1.0))
        (tmp_path / "summary.json").mkdir()
        message = f"cannot write output file {tmp_path / 'summary.json'}: Is a directory"
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            emit_plotdata(art, str(tmp_path))

    def test_summary_config_hashes_to_its_config_hash(self, tmp_path):
        # The summary's config is what the hash covers: sha256 of its sorted
        # JSON, first 16 hex digits, with the execution-only fields left out.
        cfg = tiny_config(modes=("cmd", "no_coop"), iota=1.0, out_dir=str(tmp_path))
        art = run_experiment(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        digest = hashlib.sha256(json.dumps(summary["config"], sort_keys=True).encode())
        assert digest.hexdigest()[:16] == summary["config_hash"] == art.config_hash
        assert not {"out_dir", "workers"} & set(summary["config"])


def test_experiment_loads_no_scipy():
    # A fresh interpreter, so that no other test's imports count.
    code = """
import sys
from coopdetect.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(num_aps=3, num_devices=20, num_active=3, pilot_len=8,
                                num_antennas=4, degree=2, num_iters=2, trials=1,
                                calibration_trials=1, sweep_axis="coop_degree",
                                sweep_values=(2,), modes=("cmd",), master_seed=42))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


# Experiments shaped like the benchmark's workloads, cut to a few rounds: the
# desk run (both pilot-table calls, calibrated thresholds), a 64-AP lossy run
# with a crash and a link window, and one AP on the complex path (L=64,
# N=1000).  Their rows are pinned, so a change that moves a result fails here.
PINNED = {
    "desk": (dict(modes=("cmd", "no_coop"), trials=1, calibration_trials=1, num_iters=12), [
        dict(mode="cmd", missed=0.3, false_alarm=0.13333333333333333,
             aer=0.43333333333333335, aer_pooled=0.15, iota=0.23713737056616552,
             messages_delivered=240, messages_dropped=0, scalars_delivered=24000,
             rounds=12, clamped=46),
        dict(mode="no_coop", missed=0.0, false_alarm=0.2222222222222222,
             aer=0.2222222222222222, aer_pooled=0.2, iota=0.1333521432163324,
             messages_delivered=0, messages_dropped=0, scalars_delivered=0,
             rounds=12, clamped=0)]),
    "wide": (dict(num_aps=64, num_devices=200, num_active=20, trials=1, num_iters=3,
                  iota=0.056234132519034905,
                  failure_plan={"drop_prob": 0.1, "ap_failures": [[27, 2]],
                                "link_failures": [[[0, 1], 2, 3]]}), [
        dict(mode="cmd", missed=0.0, false_alarm=0.12777777777777777,
             aer=0.12777777777777777, aer_pooled=0.115, iota=0.056234132519034905,
             messages_delivered=758, messages_dropped=92, scalars_delivered=151600,
             rounds=3, clamped=1638)]),
    "long": (dict(num_aps=1, degree=0, sweep_values=(0,), num_devices=1000, num_active=100,
                  pilot_len=64, num_antennas=256, modes=("no_coop",), trials=1,
                  num_iters=3, iota=5.62341325190349), [
        dict(mode="no_coop", missed=0.02, false_alarm=0.9233333333333333,
             aer=0.9433333333333334, aer_pooled=0.833, iota=5.62341325190349,
             messages_delivered=0, messages_dropped=0, scalars_delivered=0,
             rounds=3, clamped=0)]),
}


@pytest.mark.parametrize("name", PINNED)
def test_workload_shaped_rows_are_pinned(name):
    overrides, rows = PINNED[name]
    cfg = desk_fixture(2008, **overrides)
    fixed = dict(axis_value=cfg.sweep_values[0], trial=0, seed=14256204363764795539)
    assert run_experiment(cfg).rows == [{**fixed, **row} for row in rows]


@pytest.fixture(scope="module")
def bench_workloads():
    """``bench/workloads.py``, imported without writing bytecode next to it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module         # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module


def test_benchmark_workload_configs_validate(bench_workloads):
    # A workload that a removed mode or a new validation rule breaks fails
    # here, not first in a benchmark run.
    for name, workload in bench_workloads.WORKLOADS.items():
        cfg = workload.config(bench_workloads.PINNED_SEED)
        try:
            cfg.validate()
        except InvalidConfig as err:
            pytest.fail(f"{name}: {err}")


def test_benchmark_workloads_keep_their_pinned_hashes(bench_workloads):
    # The benchmark refuses a run whose workload config moved; this fails first.
    pins = bench_workloads.PINNED_HASHES
    assert set(pins) == set(bench_workloads.WORKLOADS)
    for name, workload in bench_workloads.WORKLOADS.items():
        assert workload.config(bench_workloads.PINNED_SEED).config_hash() == pins[name], name


@pytest.mark.parametrize("workload", ["desk_sweep", "wide_lossy", "long_pilot"])
def test_timed_benchmark_run_is_correct(workload):
    # A short timed run from the repo root: a moved pinned hash, a broken row
    # check or a failed trial shows here, not first in a full benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0.2", "--trace", "0"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result

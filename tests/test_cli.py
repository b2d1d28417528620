"""Command-line interface smoke tests (in-process)."""

import json
from pathlib import Path

import pytest

from coopdetect import harness, solver
from coopdetect.cli import main
from coopdetect.harness import MODES
from coopdetect.scenario import load_scenario


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "num_aps": 3, "num_devices": 20, "num_active": 3, "pilot_len": 8,
        "num_antennas": 4, "degree": 2, "num_iters": 4, "trials": 2,
        "calibration_trials": 1, "sweep_axis": "coop_degree",
        "sweep_values": [2], "modes": ["cmd"], "master_seed": 7,
        "pathloss_exponent": 3.0, "tau": 10.0, "rho": 0.2, "iota": 1.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRunVerb:
    def test_run_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run", "--config", config_file, "--out", str(out)])
        assert rc == 0
        assert (out / "aer_vs_coop_degree.csv").exists()
        assert (out / "trials.csv").exists()
        assert (out / "summary.json").exists()
        assert "config hash" in capsys.readouterr().out

    def test_missing_seed_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "no_seed.json"
        path.write_text(json.dumps({"num_iters": 2}))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "master_seed" in capsys.readouterr().err

    def test_flag_overrides(self, config_file, capsys):
        rc = main(["run", "--config", config_file, "--trials", "1",
                   "--mode", "no_coop", "--sweep", "coop_degree=1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no_coop" in out

    def test_sweep_overrides_the_config_value_of_its_field(self, config_file, tmp_path,
                                                            capsys):
        # Degree 4 cannot be built on 3 APs, but no trial runs it: the sweep
        # points are degrees 1 and 2.
        cfg = json.loads(Path(config_file).read_text())
        path = tmp_path / "degree4.json"
        path.write_text(json.dumps({**cfg, "degree": 4}))
        rc = main(["run", "--config", str(path), "--sweep", "coop_degree=1,2"])
        assert rc == 0, capsys.readouterr().err

    def test_retired_mode_rejected(self, config_file, capsys):
        # centralized_pool averaged covariances taken under different path
        # losses at one AP; it is no longer a mode.
        rc = main(["run", "--config", config_file, "--mode", "centralized_pool"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown mode 'centralized_pool'" in err
        assert "'cmd', 'no_coop'" in err

    def test_repeated_mode_rejected(self, config_file, capsys):
        rc = main(["run", "--config", config_file, "--mode", "cmd,cmd"])
        assert rc == 2
        assert "modes repeat ['cmd']" in capsys.readouterr().err

    def test_bad_sweep_axis_rejected(self, config_file, capsys):
        rc = main(["run", "--config", config_file, "--sweep", "bananas"])
        assert rc == 2

    @pytest.mark.parametrize("sweep", ["coop_degree=a", "L=1e1", "snr_db=nan", "M=4,"])
    def test_bad_sweep_value_rejected(self, config_file, sweep, capsys):
        rc = main(["run", "--config", config_file, "--sweep", sweep])
        assert rc == 2
        assert "invalid config" in capsys.readouterr().err

    def test_bad_sweep_point_rejected_before_output(self, config_file, tmp_path, capsys,
                                                    monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver.run_batch called")

        monkeypatch.setattr(solver, "run_batch", no_solve)
        out = tmp_path / "results"
        rc = main(["run", "--config", config_file, "--sweep", "coop_degree=1,9",
                   "--out", str(out)])
        assert rc == 2
        assert "invalid config" in capsys.readouterr().err
        assert not out.exists()


class TestOtherVerbs:
    def test_calibrate_prints_iota(self, config_file, tmp_path, capsys):
        # iota None in overrides forces a calibration pass
        cfg = json.loads(Path(config_file).read_text())
        cfg["iota"] = None
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(cfg))
        rc = main(["calibrate", "--config", str(path)])
        assert rc == 0
        assert "iota*" in capsys.readouterr().out

    def test_fixture_emits_loadable_scenario(self, config_file, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        rc = main(["fixture", "--config", config_file, "--out", str(out)])
        assert rc == 0
        sc = load_scenario(out)
        assert sc.num_devices == 20

    def test_fixture_requires_out(self, config_file, capsys):
        assert main(["fixture", "--config", config_file]) == 2

    def test_mode_help_lists_every_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert ",".join(MODES) in capsys.readouterr().out

    def test_inspect_summary(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        main(["run", "--config", config_file, "--out", str(out)])
        capsys.readouterr()
        rc = main(["inspect", str(out / "summary.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "AER" in text and "coop_degree" in text


class TestBadInput:
    """Bad input files and fields end in exit code 2 and a one-line message."""

    @staticmethod
    def assert_rejected(argv, capsys, expected):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.strip().splitlines()) == 1
        assert expected in err

    @pytest.mark.parametrize("field, value", [("num_aps", "5"), ("snr_db", "10"),
                                              ("master_seed", "x"), ("modes", "cmd"),
                                              ("sweep_values", [True])])
    def test_wrongly_typed_field(self, config_file, tmp_path, capsys, field, value):
        cfg = json.loads(Path(config_file).read_text())
        cfg[field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        self.assert_rejected(["run", "--config", str(path)], capsys, f"{field} must be")

    def test_non_finite_geometry(self, config_file, tmp_path, capsys):
        cfg = json.loads(Path(config_file).read_text())
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({**cfg, "pathloss_exponent": float("nan")}))
        self.assert_rejected(["run", "--config", str(path)], capsys,
                             "pathloss_exponent must be positive and finite, got nan")

    @pytest.mark.parametrize("field, value, expected", [
        ("eta", -1.0, "eta must be positive and finite, got -1.0"),
        ("num_active", 0, "num_active must be in [1, 19] for the AER to be defined, got 0"),
    ], ids=["eta", "num_active"])
    def test_unscorable_config_rejected_before_any_solve(self, config_file, tmp_path, capsys,
                                                          monkeypatch, field, value, expected):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver.run_batch called")

        monkeypatch.setattr(solver, "run_batch", no_solve)
        cfg = json.loads(Path(config_file).read_text())
        path = tmp_path / "unscorable.json"
        path.write_text(json.dumps({**cfg, field: value}))
        self.assert_rejected(["run", "--config", str(path)], capsys, expected)

    def test_unwritable_out_dir_rejected_before_any_solve(self, config_file, tmp_path,
                                                          capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("harness._solve_batch called")

        monkeypatch.setattr(harness, "_solve_batch", no_solve)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "results"
        self.assert_rejected(["run", "--config", config_file, "--out", str(out)], capsys,
                             f"invalid config: cannot write output directory {out}: "
                             "Not a directory")

    def test_unwritable_fixture_file(self, config_file, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "scenario.json"
        self.assert_rejected(["fixture", "--config", config_file, "--out", str(out)], capsys,
                             f"invalid config: cannot write scenario file {out}: "
                             "Not a directory")

    @pytest.mark.parametrize("flag", ["--config", "--failure-plan"])
    def test_missing_file(self, tmp_path, capsys, flag):
        argv = ["run", "--seed", "1", flag, str(tmp_path / "absent.json")]
        self.assert_rejected(argv, capsys, "cannot read")

    @pytest.mark.parametrize("flag", ["--config", "--failure-plan"])
    def test_file_that_is_not_json(self, tmp_path, capsys, flag):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.assert_rejected(["run", "--seed", "1", flag, str(path)], capsys, "is not JSON")

    def test_inspect_json_that_is_not_a_summary(self, config_file, capsys):
        self.assert_rejected(["inspect", config_file], capsys, "is not a summary.json")

    def test_inspect_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text("{not json")
        self.assert_rejected(["inspect", str(path)], capsys, "is not JSON")
